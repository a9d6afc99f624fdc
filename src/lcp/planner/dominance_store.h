#ifndef LCP_PLANNER_DOMINANCE_STORE_H_
#define LCP_PLANNER_DOMINANCE_STORE_H_

// Internal header: the dominance store of the proof-search driver. Not part
// of the public API.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lcp/chase/config.h"
#include "lcp/chase/matcher.h"

namespace lcp {
namespace search_internal {

/// A 128-bit Bloom signature over a configuration's dominance features
/// (SearchCore::SignatureOf lists them). Every feature of a dominated
/// configuration reappears in any configuration that dominates it, so "the
/// probe's bits are a subset of the entry's bits" is a necessary condition
/// for dominance: filtering on it skips only homomorphism tests that would
/// fail.
struct DominanceSignature {
  uint64_t bits[2] = {0, 0};

  void Add(uint64_t feature) {
    // Two bits per feature, from the high bits of a multiplicative mix.
    const uint64_t h = feature * 0x9e3779b97f4a7c15ULL;
    bits[(h >> 63) & 1] |= uint64_t{1} << ((h >> 57) & 63);
    bits[(h >> 56) & 1] |= uint64_t{1} << ((h >> 50) & 63);
  }
  bool SubsetOf(const DominanceSignature& other) const {
    return (bits[0] & ~other.bits[0]) == 0 && (bits[1] & ~other.bits[1]) == 0;
  }
};

/// The pattern a dominator must admit a homomorphism of: a configuration's
/// facts with nulls as variables (SearchCore::MakeDominanceProbe).
struct DominanceProbe {
  std::vector<PatternAtom> pattern;
  size_t num_vars = 0;
};

/// The "dominator candidates" of one search: the configuration, cost,
/// access count and signature of every node created so far.
/// prune_by_dominance asks, for a fresh child, whether any stored
/// configuration with no higher cost and no higher access count admits a
/// homomorphism of the child's dominance probe (§5, "Optimizations").
/// Stored configurations must not change afterwards.
class DominanceStore {
 public:
  /// Records a node's configuration as a dominator candidate.
  void Insert(const DominanceSignature& signature, double cost, int accesses,
              std::shared_ptr<const ChaseConfig> config) {
    entries_.push_back(Entry{signature, cost, accesses, std::move(config)});
  }

  /// True if some stored entry with cost <= `cost`, accesses <= `accesses`
  /// and a signature containing `signature` admits a homomorphism of the
  /// probe `make_probe()` returns (a `const DominanceProbe&`). `make_probe`
  /// runs at most once, and only when some entry passes those filters.
  template <typename MakeProbe>
  bool IsDominated(const DominanceSignature& signature, double cost,
                   int accesses, MakeProbe&& make_probe) const {
    const DominanceProbe* probe = nullptr;
    for (const Entry& entry : entries_) {
      // The dominator must also be able to afford every extension the child
      // could (the access budget is a separate resource from cost).
      if (entry.cost > cost || entry.accesses > accesses ||
          !signature.SubsetOf(entry.signature)) {
        continue;
      }
      if (probe == nullptr) probe = &make_probe();
      if (HasHomomorphism(
              probe->pattern, *entry.config,
              std::vector<ChaseTermId>(probe->num_vars, kUnboundTerm))) {
        return true;
      }
    }
    return false;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    DominanceSignature signature;
    double cost = 0;
    int accesses = 0;
    std::shared_ptr<const ChaseConfig> config;
  };

  std::vector<Entry> entries_;
};

}  // namespace search_internal
}  // namespace lcp

#endif  // LCP_PLANNER_DOMINANCE_STORE_H_
