#ifndef LCP_PLANNER_DOMINANCE_STORE_H_
#define LCP_PLANNER_DOMINANCE_STORE_H_

// Internal header: the sharded concurrent dominance store of the proof-search
// driver. Not part of the public API.

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
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

/// Reader-mostly concurrent set of "dominator candidates": the
/// configurations (plus cost, access count and signature) of every
/// non-pruned node created so far, across all workers. prune_by_dominance
/// asks, for a fresh child, whether any stored configuration with no higher
/// cost and no higher access count admits a homomorphism of the child's
/// dominance probe (§5, "Optimizations").
///
/// Concurrency contract:
///  - Insert takes one shard's exclusive lock; IsDominated takes each
///    shard's shared lock only long enough to copy out the entries that pass
///    the cost, access and signature filters, then runs the (potentially
///    slow) homomorphism checks lock-free against the copied shared_ptrs, so
///    writers are never blocked behind a homomorphism check.
///  - Stored configurations must be immutable. When other threads may read
///    them, they must be prepared for concurrent reads
///    (ChaseConfig::PrepareForConcurrentReads) before insertion.
///  - Races are benign by construction: a check that misses a concurrently
///    inserted dominator only *loses a prune* (the child is explored
///    redundantly); it can never wrongly prune, because every entry it does
///    see was fully published. This is exactly the soundness direction the
///    search needs.
class ConcurrentDominanceStore {
 public:
  /// `shard_count` is rounded up to a power of two.
  explicit ConcurrentDominanceStore(int shard_count);

  ConcurrentDominanceStore(const ConcurrentDominanceStore&) = delete;
  ConcurrentDominanceStore& operator=(const ConcurrentDominanceStore&) = delete;

  /// Publishes a node's configuration as a dominator candidate.
  void Insert(const DominanceSignature& signature, double cost, int accesses,
              std::shared_ptr<const ChaseConfig> config);

  /// True if some stored entry with cost <= `cost`, accesses <= `accesses`
  /// and a signature containing `signature` admits a homomorphism of the
  /// probe. `make_probe` runs at most once, and only when some entry passes
  /// those filters.
  bool IsDominated(
      const DominanceSignature& signature, double cost, int accesses,
      const std::function<const DominanceProbe&()>& make_probe) const;

  size_t size() const;

 private:
  struct Entry {
    DominanceSignature signature;
    double cost = 0;
    int accesses = 0;
    std::shared_ptr<const ChaseConfig> config;
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    std::vector<Entry> entries;
  };

  std::vector<Shard> shards_;
};

}  // namespace search_internal
}  // namespace lcp

#endif  // LCP_PLANNER_DOMINANCE_STORE_H_
