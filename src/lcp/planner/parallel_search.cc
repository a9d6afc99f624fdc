// The proof-search driver for Algorithm 1: a work-stealing pool that runs
// inline on the calling thread at parallelism 1. Node expansion lives in
// SearchCore. See DESIGN.md §8 for the full protocol write-up.
//
// Scheduling: each worker owns a deque of live nodes. A worker expands its
// current node one candidate at a time; a viable (non-pruned, non-success)
// child makes the worker push the *parent* back onto its own deque bottom
// and descend into the child, which leaves the parent (the larger remaining
// subtree) exposed for thieves, the classic work-first principle. With one
// worker this is exactly a depth-first search over an explicit stack: node
// ids, pruning decisions, stats, plans and the exploration log are
// deterministic.
//
// Shared state and why the races are benign:
//  - Incumbent bound: best_cost_ is an atomic read with relaxed order on the
//    pruning fast path. A stale read is always >= the true bound, and with a
//    monotone cost function pruning only against a *larger* bound can only
//    keep nodes it could have pruned — never the reverse. Plan publication
//    (rare) goes through best_mutex_, which also moves best_cost_ downward.
//  - Dominance: the sharded store only ever *loses* prunes under races (see
//    dominance_store.h); it never wrongly prunes.
//  - Node ownership: exactly one worker owns a node at a time; the deque
//    mutex synchronizes hand-off. Configurations are immutable after
//    BuildChild and, with more than one worker, prepared for concurrent
//    reads before entering the dominance store.
//  - Termination: in_flight_ counts live nodes (in some deque or held by a
//    worker). It is incremented before a push makes a node stealable and
//    decremented only when a node's candidates are exhausted, so it reaches
//    zero exactly when the proof space is exhausted. Early stop (budget,
//    node cap, first plan, error) goes through stop_, which every worker
//    polls each iteration.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/base/work_steal.h"
#include "lcp/planner/dominance_store.h"
#include "lcp/planner/search_core.h"

namespace lcp {
namespace search_internal {

namespace {

class SearchDriver {
 public:
  SearchDriver(const AccessibleSchema& acc, const CostFunction& cost,
               const ConjunctiveQuery& query, const SearchOptions& options)
      : core_(acc, cost, query, options),
        options_(options),
        num_workers_(options.parallelism > 1 ? options.parallelism : 1),
        deques_(num_workers_),
        workers_(num_workers_),
        // ~4 shards per worker keeps insert contention low without making
        // the all-shard scan in IsDominated noticeable.
        store_(num_workers_ * 4 > 64 ? 64 : num_workers_ * 4) {}

  Result<SearchOutcome> Run() {
    Budget* budget = options_.budget;
    ChaseEngine root_engine(&core_.schema(), &core_.arena());
    Result<SearchNode> root = core_.InitRoot(root_engine, outcome_.stats);
    if (!root.ok()) {
      // Anytime contract: a budget that dies during the root closure yields
      // an empty best-effort outcome, not an error.
      if (budget != nullptr && budget->exhausted()) {
        outcome_.exhaustion = budget->exhaustion();
        return std::move(outcome_);
      }
      return root.status();
    }
    auto root_sp = std::make_shared<SearchNode>(std::move(*root));
    nodes_created_.store(1, std::memory_order_relaxed);
    Log(*root_sp, "initial");
    if (core_.prune_by_dominance()) {
      Publish(root_sp, core_.SignatureOf(root_sp->config));
    }
    in_flight_.store(1, std::memory_order_relaxed);
    deques_[0].PushBottom(std::move(root_sp));

    RunWorkers(num_workers_, [this](int wid) { WorkerLoop(wid); });

    // All workers are joined: the shared state has quiesced.
    outcome_.stats.nodes_created =
        nodes_created_.load(std::memory_order_relaxed);
    for (const WorkerState& w : workers_) {
      outcome_.stats.nodes_expanded += w.stats.nodes_expanded;
      outcome_.stats.successes += w.stats.successes;
      outcome_.stats.pruned_cost += w.stats.pruned_cost;
      outcome_.stats.pruned_dominance += w.stats.pruned_dominance;
      outcome_.stats.depth_limited += w.stats.depth_limited;
      outcome_.stats.closure_firings += w.stats.closure_firings;
    }
    if (!fatal_.ok()) return fatal_;
    outcome_.exhaustion = exhaustion_;
    outcome_.best = std::move(best_);
    outcome_.all_plans = std::move(all_plans_);
    return std::move(outcome_);
  }

 private:
  struct alignas(64) WorkerState {
    SearchStats stats;
  };

  void WorkerLoop(int wid) {
    ChaseEngine engine(&core_.schema(), &core_.arena());
    SearchStats& stats = workers_[wid].stats;
    SearchCore::ProbeScratch probe_scratch;
    Budget* budget = options_.budget;
    std::shared_ptr<SearchNode> cur;
    while (true) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (cur == nullptr) {
        cur = ObtainWork(wid);
        if (cur == nullptr) {
          if (done_.load(std::memory_order_acquire) ||
              stop_.load(std::memory_order_acquire)) {
            break;
          }
          gate_.Park(std::chrono::microseconds(200));
          continue;
        }
      }
      if (budget != nullptr) {
        Status budget_status = budget->Check();
        if (!budget_status.ok()) {
          LatchExhaustion(std::move(budget_status));
          RequestStop();
          break;
        }
      }
      int cand_index = core_.NextCandidate(*cur);
      if (cand_index < 0) {
        FinishNode();
        cur.reset();
        continue;
      }
      if (cur->accesses >= options_.max_access_commands) {
        ++stats.depth_limited;
        FinishNode();
        cur.reset();
        continue;
      }
      // Checked per worker before each creation, so the global total can
      // overshoot the cap by at most `parallelism` nodes (documented in
      // proof_search.h).
      if (nodes_created_.load(std::memory_order_relaxed) >=
          options_.max_nodes) {
        LatchExhaustion(ResourceExhaustedError(StrCat(
            "search node cap of ", options_.max_nodes, " reached")));
        RequestStop();
        break;
      }
      Result<SearchNode> built = core_.BuildChild(
          *cur, cand_index, nodes_created_.load(std::memory_order_relaxed),
          engine, stats);
      if (!built.ok()) {
        // A chase closure interrupted by the shared budget stops the search
        // gracefully with whatever was found; genuine chase errors
        // propagate.
        if (budget != nullptr && budget->exhausted()) {
          LatchExhaustion(budget->exhaustion());
        } else {
          LatchFatal(built.status());
        }
        RequestStop();
        break;
      }
      SearchNode& child = *built;
      if (options_.prune_by_cost &&
          child.cost >= best_cost_.load(std::memory_order_relaxed)) {
        ++stats.pruned_cost;
        Log(child, "pruned(cost)");
        continue;
      }
      DominanceSignature signature;
      if (core_.prune_by_dominance()) {
        signature = core_.SignatureOf(child.config);
        if (store_.IsDominated(
                signature, child.cost, child.accesses,
                [&]() -> const DominanceProbe& {
                  return core_.MakeDominanceProbe(child.config, probe_scratch);
                })) {
          ++stats.pruned_dominance;
          Log(child, "pruned(dominated)");
          continue;
        }
      }
      child.success = core_.CheckSuccess(child);
      // A success is never bound-pruned: it is a plan, not a promise of one.
      if (!child.success &&
          core_.CannotBeat(child, best_cost_.load(std::memory_order_relaxed))) {
        ++stats.pruned_cost;
        Log(child, "pruned(cost)");
        continue;
      }
      auto sp = std::make_shared<SearchNode>(std::move(child));
      nodes_created_.fetch_add(1, std::memory_order_relaxed);
      // Successful nodes are dominators too.
      if (core_.prune_by_dominance()) Publish(sp, signature);
      if (sp->success) {
        ++stats.successes;
        PublishPlan(core_.MakeFoundPlan(*sp));
        Log(*sp, "SUCCESS cost=", sp->cost);
        if (options_.stop_at_first_plan) {
          RequestStop();
          break;
        }
        continue;  // Keep expanding the current node's other candidates.
      }
      Log(*sp, "cost=", sp->cost);
      // Descend into the child; expose the parent (the larger remaining
      // subtree) for stealing. The increment must precede the push so no
      // idle worker can observe empty deques with in_flight_ == 0 while the
      // parent is in transit.
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      deques_[wid].PushBottom(std::move(cur));
      if (gate_.HasIdlers()) gate_.NotifyOne();
      cur = std::move(sp);
    }
  }

  std::shared_ptr<SearchNode> ObtainWork(int wid) {
    if (std::optional<std::shared_ptr<SearchNode>> own =
            deques_[wid].TryPopBottom()) {
      return std::move(*own);
    }
    for (int i = 1; i < num_workers_; ++i) {
      if (std::optional<std::shared_ptr<SearchNode>> stolen =
              deques_[(wid + i) % num_workers_].TrySteal()) {
        return std::move(*stolen);
      }
    }
    return nullptr;
  }

  /// Makes `node` a dominator candidate.
  void Publish(const std::shared_ptr<SearchNode>& node,
               const DominanceSignature& signature) {
    // A lone worker is the only reader: its lazy index catch-up is safe.
    if (num_workers_ > 1) node->config.PrepareForConcurrentReads();
    store_.Insert(signature, node->cost, node->accesses,
                  std::shared_ptr<const ChaseConfig>(node, &node->config));
  }

  /// Appends `node`'s exploration-log line (parallelism 1 only), its status
  /// the concatenation of `status`. Nothing is formatted when the log is off.
  template <typename... Status>
  void Log(const SearchNode& node, const Status&... status) {
    if (!options_.collect_exploration_log) return;
    outcome_.exploration_log.push_back(core_.LogLine(node, StrCat(status...)));
  }

  /// Called when a node's candidates are exhausted: it leaves the live set.
  void FinishNode() {
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.store(true, std::memory_order_release);
      gate_.NotifyAll();
    }
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    gate_.NotifyAll();
  }

  void PublishPlan(FoundPlan found) {
    std::lock_guard<std::mutex> lock(best_mutex_);
    if (options_.keep_all_plans) all_plans_.push_back(found);
    if (!best_.has_value() || found.cost < best_->cost) {
      best_cost_.store(found.cost, std::memory_order_relaxed);
      best_ = std::move(found);
    }
  }

  void LatchExhaustion(Status status) {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (exhaustion_.ok()) exhaustion_ = std::move(status);
  }

  void LatchFatal(Status status) {
    std::lock_guard<std::mutex> lock(status_mutex_);
    if (fatal_.ok()) fatal_ = std::move(status);
  }

  SearchCore core_;
  const SearchOptions& options_;
  const int num_workers_;

  std::vector<WorkStealingDeque<std::shared_ptr<SearchNode>>> deques_;
  std::vector<WorkerState> workers_;
  IdleGate gate_;
  ConcurrentDominanceStore store_;

  /// Live nodes: in some deque or held by a worker.
  std::atomic<int> in_flight_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  /// Also the id of the next child whose build starts (SearchNode::id).
  std::atomic<int> nodes_created_{0};

  /// The incumbent bound, read lock-free on the pruning fast path. Only
  /// ever decreases; writes go through best_mutex_.
  std::atomic<double> best_cost_{std::numeric_limits<double>::infinity()};
  std::mutex best_mutex_;
  std::optional<FoundPlan> best_;
  std::vector<FoundPlan> all_plans_;

  std::mutex status_mutex_;
  Status exhaustion_;
  Status fatal_;

  SearchOutcome outcome_;
};

}  // namespace

Result<SearchOutcome> RunSearch(const AccessibleSchema& accessible,
                                const CostFunction& cost,
                                const ConjunctiveQuery& query,
                                const SearchOptions& options) {
  SearchDriver driver(accessible, cost, query, options);
  return driver.Run();
}

}  // namespace search_internal
}  // namespace lcp
