#include "lcp/planner/dominance_store.h"

#include <mutex>
#include <utility>

namespace lcp {
namespace search_internal {

namespace {

size_t NextPow2(int n) {
  size_t p = 1;
  while (p < static_cast<size_t>(n)) p <<= 1;
  return p;
}

}  // namespace

ConcurrentDominanceStore::ConcurrentDominanceStore(int shard_count)
    : shards_(NextPow2(shard_count < 1 ? 1 : shard_count)) {}

void ConcurrentDominanceStore::Insert(
    const DominanceSignature& signature, double cost, int accesses,
    std::shared_ptr<const ChaseConfig> config) {
  // Route by signature: it only spreads writers across shard mutexes, since
  // every check visits every shard.
  const uint64_t route =
      (signature.bits[0] ^ signature.bits[1]) * 0x9e3779b97f4a7c15ULL;
  Shard& shard = shards_[(route >> 32) & (shards_.size() - 1)];
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  shard.entries.push_back(Entry{signature, cost, accesses, std::move(config)});
}

bool ConcurrentDominanceStore::IsDominated(
    const DominanceSignature& signature, double cost, int accesses,
    const std::function<const DominanceProbe&()>& make_probe) const {
  std::vector<std::shared_ptr<const ChaseConfig>> qualifying;
  const DominanceProbe* probe = nullptr;
  for (const Shard& shard : shards_) {
    // Copy the qualifying entries out under the shared lock, then check
    // homomorphisms lock-free: a homomorphism check can take a while, and
    // holding even a shared lock across it would starve writers.
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      for (const Entry& entry : shard.entries) {
        if (entry.cost > cost) continue;
        // The dominator must also be able to afford every extension the
        // child could (the access budget is a separate resource from cost).
        if (entry.accesses > accesses) continue;
        if (!signature.SubsetOf(entry.signature)) continue;
        qualifying.push_back(entry.config);
      }
    }
    if (qualifying.empty()) continue;
    if (probe == nullptr) probe = &make_probe();
    for (const auto& config : qualifying) {
      if (HasHomomorphism(
              probe->pattern, *config,
              std::vector<ChaseTermId>(probe->num_vars, kUnboundTerm))) {
        return true;
      }
    }
    qualifying.clear();
  }
  return false;
}

size_t ConcurrentDominanceStore::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace search_internal
}  // namespace lcp
