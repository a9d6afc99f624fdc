#include "lcp/schema/schema.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <system_error>
#include <unordered_set>

#include "lcp/base/check.h"
#include "lcp/base/strings.h"

namespace lcp {

Result<RelationId> Schema::AddRelation(std::string name, int arity) {
  if (arity < 0) {
    return InvalidArgumentError(
        StrCat("relation ", name, " has negative arity"));
  }
  if (relation_by_name_.count(name) > 0) {
    return AlreadyExistsError(StrCat("relation ", name, " already exists"));
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  relation_by_name_[name] = id;
  relations_.push_back(Relation{id, std::move(name), arity});
  methods_on_relation_.emplace_back();
  return id;
}

Result<AccessMethodId> Schema::AddAccessMethod(std::string name,
                                               RelationId relation,
                                               std::vector<int> input_positions,
                                               double cost) {
  if (relation < 0 || relation >= num_relations()) {
    return NotFoundError(StrCat("unknown relation id ", relation));
  }
  if (method_by_name_.count(name) > 0) {
    return AlreadyExistsError(StrCat("access method ", name,
                                     " already exists"));
  }
  if (cost <= 0) {
    return InvalidArgumentError(
        StrCat("access method ", name, " must have positive cost"));
  }
  std::sort(input_positions.begin(), input_positions.end());
  const int arity = relations_[relation].arity;
  for (size_t i = 0; i < input_positions.size(); ++i) {
    if (input_positions[i] < 0 || input_positions[i] >= arity) {
      return InvalidArgumentError(StrCat("access method ", name,
                                         ": input position ",
                                         input_positions[i],
                                         " out of range for arity ", arity));
    }
    if (i > 0 && input_positions[i] == input_positions[i - 1]) {
      return InvalidArgumentError(StrCat("access method ", name,
                                         ": duplicate input position ",
                                         input_positions[i]));
    }
  }
  AccessMethodId id = static_cast<AccessMethodId>(access_methods_.size());
  method_by_name_[name] = id;
  access_methods_.push_back(
      AccessMethod{id, std::move(name), relation, std::move(input_positions),
                   cost});
  methods_on_relation_[relation].push_back(id);
  return id;
}

void Schema::AddConstant(Value value) {
  if (!IsSchemaConstant(value)) constants_.push_back(std::move(value));
}

Status Schema::AddConstraint(Tgd tgd) {
  LCP_RETURN_IF_ERROR(ValidateTgd(tgd));
  if (tgd.name.empty()) {
    tgd.name = StrCat("tgd", constraints_.size());
  }
  constraints_.push_back(std::move(tgd));
  return Status::Ok();
}

const Relation& Schema::relation(RelationId id) const {
  LCP_CHECK(id >= 0 && id < num_relations()) << "bad relation id " << id;
  return relations_[id];
}

Result<RelationId> Schema::RelationByName(const std::string& name) const {
  auto it = relation_by_name_.find(name);
  if (it == relation_by_name_.end()) {
    return NotFoundError(StrCat("no relation named ", name));
  }
  return it->second;
}

const AccessMethod& Schema::access_method(AccessMethodId id) const {
  LCP_CHECK(id >= 0 && id < num_access_methods()) << "bad method id " << id;
  return access_methods_[id];
}

Result<AccessMethodId> Schema::AccessMethodByName(
    const std::string& name) const {
  auto it = method_by_name_.find(name);
  if (it == method_by_name_.end()) {
    return NotFoundError(StrCat("no access method named ", name));
  }
  return it->second;
}

const std::vector<AccessMethodId>& Schema::MethodsOnRelation(
    RelationId relation) const {
  LCP_CHECK(relation >= 0 && relation < num_relations());
  return methods_on_relation_[relation];
}

bool Schema::IsSchemaConstant(const Value& v) const {
  for (const Value& c : constants_) {
    if (c == v) return true;
  }
  return false;
}

bool Schema::AllConstraintsGuarded() const {
  for (const Tgd& tgd : constraints_) {
    if (!tgd.IsGuarded()) return false;
  }
  return true;
}

Status Schema::ValidateAtom(const Atom& atom) const {
  if (atom.relation < 0 || atom.relation >= num_relations()) {
    return NotFoundError(
        StrCat("atom uses unknown relation id ", atom.relation));
  }
  const Relation& rel = relations_[atom.relation];
  if (static_cast<int>(atom.terms.size()) != rel.arity) {
    return InvalidArgumentError(StrCat("atom over ", rel.name, " has ",
                                       atom.terms.size(),
                                       " terms, expected ", rel.arity));
  }
  return Status::Ok();
}

Status Schema::ValidateQuery(const ConjunctiveQuery& query) const {
  LCP_RETURN_IF_ERROR(query.Validate());
  for (const Atom& atom : query.atoms) {
    LCP_RETURN_IF_ERROR(ValidateAtom(atom));
  }
  return Status::Ok();
}

Status Schema::ValidateTgd(const Tgd& tgd) const {
  LCP_RETURN_IF_ERROR(tgd.Validate());
  for (const Atom& atom : tgd.body) LCP_RETURN_IF_ERROR(ValidateAtom(atom));
  for (const Atom& atom : tgd.head) LCP_RETURN_IF_ERROR(ValidateAtom(atom));
  return Status::Ok();
}

namespace {

void SkipSpace(const std::string& text, size_t& pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                  text[pos]))) {
    ++pos;
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<Atom> Schema::ParseAtom(const std::string& text) const {
  size_t pos = 0;
  SkipSpace(text, pos);
  size_t name_start = pos;
  while (pos < text.size() && IsIdentChar(text[pos])) ++pos;
  if (pos == name_start) {
    return InvalidArgumentError(StrCat("cannot parse atom: ", text));
  }
  std::string rel_name = text.substr(name_start, pos - name_start);
  LCP_ASSIGN_OR_RETURN(RelationId rel, RelationByName(rel_name));
  SkipSpace(text, pos);
  if (pos >= text.size() || text[pos] != '(') {
    return InvalidArgumentError(StrCat("expected '(' in atom: ", text));
  }
  ++pos;
  std::vector<Term> terms;
  SkipSpace(text, pos);
  if (pos < text.size() && text[pos] == ')') {
    ++pos;
  } else {
    while (true) {
      SkipSpace(text, pos);
      if (pos >= text.size()) {
        return InvalidArgumentError(StrCat("unterminated atom: ", text));
      }
      if (text[pos] == '"') {
        size_t end = text.find('"', pos + 1);
        if (end == std::string::npos) {
          return InvalidArgumentError(StrCat("unterminated string in: ", text));
        }
        terms.push_back(Term::Const(Value::Str(
            text.substr(pos + 1, end - pos - 1))));
        pos = end + 1;
      } else if (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                 text[pos] == '-') {
        int64_t number = 0;
        const auto [end, ec] = std::from_chars(
            text.data() + pos, text.data() + text.size(), number);
        if (ec != std::errc()) {
          return InvalidArgumentError(
              StrCat("bad integer literal in atom: ", text));
        }
        pos = static_cast<size_t>(end - text.data());
        terms.push_back(Term::Const(Value::Int(number)));
      } else if (IsIdentChar(text[pos])) {
        size_t start = pos;
        while (pos < text.size() && IsIdentChar(text[pos])) ++pos;
        terms.push_back(Term::Var(text.substr(start, pos - start)));
      } else {
        return InvalidArgumentError(
            StrCat("unexpected character '", text[pos], "' in atom: ", text));
      }
      SkipSpace(text, pos);
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == ')') {
        ++pos;
        break;
      }
      return InvalidArgumentError(StrCat("expected ',' or ')' in: ", text));
    }
  }
  Atom atom(rel, std::move(terms));
  LCP_RETURN_IF_ERROR(ValidateAtom(atom));
  return atom;
}

std::string Schema::AtomToString(const Atom& atom) const {
  std::ostringstream os;
  if (atom.relation >= 0 && atom.relation < num_relations()) {
    os << relations_[atom.relation].name;
  } else {
    os << "R?" << atom.relation;
  }
  os << "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) os << ", ";
    os << atom.terms[i];
  }
  os << ")";
  return os.str();
}

std::string Schema::TgdToString(const Tgd& tgd) const {
  std::vector<std::string> body, head;
  for (const Atom& a : tgd.body) body.push_back(AtomToString(a));
  for (const Atom& a : tgd.head) head.push_back(AtomToString(a));
  return StrCat(StrJoin(body, " & "), " -> ", StrJoin(head, " & "));
}

std::string Schema::QueryToString(const ConjunctiveQuery& query) const {
  std::vector<std::string> atoms;
  for (const Atom& a : query.atoms) atoms.push_back(AtomToString(a));
  return StrCat(query.name, "(", StrJoin(query.free_variables, ", "),
                ") :- ", StrJoin(atoms, ", "));
}

namespace {

// splitmix64 finalizer: the per-field mixer of the fingerprint.
uint64_t FingerprintMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-sensitive accumulator: h' = mix(h * prime + field). Field order is
// part of the fingerprint, so "R then S" differs from "S then R" (relation
// ids are positional, so that order matters semantically too).
void FingerprintAdd(uint64_t& h, uint64_t field) {
  h = FingerprintMix(h * 0x100000001b3ULL + field);
}

uint64_t FingerprintString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return FingerprintMix(h);
}

uint64_t FingerprintValue(const Value& v) {
  return v.is_int() ? FingerprintMix(static_cast<uint64_t>(v.AsInt()) ^
                                     0x5bf03635aef6a2d1ULL)
                    : FingerprintString(v.AsString());
}

void FingerprintAtom(uint64_t& h, const Atom& atom) {
  FingerprintAdd(h, static_cast<uint64_t>(static_cast<uint32_t>(atom.relation)));
  FingerprintAdd(h, atom.terms.size());
  for (const Term& t : atom.terms) {
    if (t.is_variable()) {
      FingerprintAdd(h, 0x1);
      FingerprintAdd(h, FingerprintString(t.var()));
    } else {
      FingerprintAdd(h, 0x2);
      FingerprintAdd(h, FingerprintValue(t.constant()));
    }
  }
}

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema) {
  uint64_t h = 0x6c63705f65706f63ULL;  // "lcp_epoc"
  FingerprintAdd(h, schema.num_relations());
  for (RelationId r = 0; r < schema.num_relations(); ++r) {
    const Relation& rel = schema.relation(r);
    FingerprintAdd(h, FingerprintString(rel.name));
    FingerprintAdd(h, static_cast<uint64_t>(rel.arity));
  }
  FingerprintAdd(h, schema.num_access_methods());
  for (AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
    const AccessMethod& method = schema.access_method(m);
    FingerprintAdd(h, FingerprintString(method.name));
    FingerprintAdd(h,
                   static_cast<uint64_t>(static_cast<uint32_t>(method.relation)));
    FingerprintAdd(h, method.input_positions.size());
    for (int pos : method.input_positions) {
      FingerprintAdd(h, static_cast<uint64_t>(pos));
    }
    uint64_t cost_bits;
    static_assert(sizeof(cost_bits) == sizeof(method.cost));
    std::memcpy(&cost_bits, &method.cost, sizeof(cost_bits));
    FingerprintAdd(h, cost_bits);
  }
  FingerprintAdd(h, schema.constants().size());
  for (const Value& c : schema.constants()) {
    FingerprintAdd(h, FingerprintValue(c));
  }
  FingerprintAdd(h, schema.constraints().size());
  for (const Tgd& tgd : schema.constraints()) {
    FingerprintAdd(h, FingerprintString(tgd.name));
    FingerprintAdd(h, tgd.body.size());
    for (const Atom& a : tgd.body) FingerprintAtom(h, a);
    FingerprintAdd(h, tgd.head.size());
    for (const Atom& a : tgd.head) FingerprintAtom(h, a);
  }
  return h;
}

}  // namespace lcp
