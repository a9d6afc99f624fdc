#include "lcp/chase/fact.h"

#include <sstream>

namespace lcp {

std::string FactToString(FactRef fact, const Schema& schema,
                         const TermArena& arena) {
  std::ostringstream os;
  os << schema.relation(fact.relation).name << "(";
  for (size_t i = 0; i < fact.terms.size(); ++i) {
    if (i > 0) os << ", ";
    os << arena.DisplayName(fact.terms[i]);
  }
  os << ")";
  return os.str();
}

}  // namespace lcp
