// Tests for the shared planning budget: Clock/VirtualClock, Budget deadlines
// and cancel tokens, cooperative cancellation in the chase, and the anytime
// contract of ProofSearch (deadline or node-cap exhaustion returns the best
// plan found so far instead of an error).

#include "lcp/base/budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "lcp/base/clock.h"
#include "lcp/chase/engine.h"
#include "lcp/planner/proof_search.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

TEST(VirtualClockTest, AdvanceSleepAndAutoAdvance) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SleepMicros(25);
  EXPECT_EQ(clock.NowMicros(), 175);
  clock.set_auto_advance(10);
  EXPECT_EQ(clock.NowMicros(), 175);  // reads the value, then advances
  EXPECT_EQ(clock.NowMicros(), 185);
}

TEST(SharedVirtualClockTest, ThreadSafeAdvanceAndSleep) {
  SharedVirtualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  clock.SleepMicros(25);  // a sleep just advances virtual time
  EXPECT_EQ(clock.NowMicros(), 175);
  clock.SleepMicros(-5);  // non-positive waits are no-ops
  clock.Advance(-5);
  EXPECT_EQ(clock.NowMicros(), 175);
  // Advances from other threads are visible (the multi-worker chaos shape).
  std::thread advancer([&clock] { clock.Advance(25); });
  advancer.join();
  EXPECT_EQ(clock.NowMicros(), 200);
}

TEST(SystemClockTest, MonotoneAndSingleton) {
  Clock* clock = SystemClock::Instance();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
  EXPECT_EQ(clock, SystemClock::Instance());
}

TEST(BudgetTest, UnlimitedBudgetAlwaysPasses) {
  Budget budget;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(budget.Check().ok());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_TRUE(budget.exhaustion().ok());
}

TEST(BudgetTest, DeadlineOnVirtualClock) {
  VirtualClock clock;
  Budget budget;
  budget.SetDeadline(&clock, 1000);
  EXPECT_TRUE(budget.Check().ok());
  clock.Advance(999);
  EXPECT_TRUE(budget.Check().ok());
  clock.Advance(1);
  EXPECT_EQ(budget.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(budget.exhausted());
  // Latched: later checks do not re-read the clock (an auto-advancing clock
  // would show the read).
  clock.set_auto_advance(1);
  const int64_t before = clock.NowMicros();
  EXPECT_EQ(budget.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(clock.NowMicros(), before + 1);
}

TEST(BudgetTest, NegativeDeadlineMeansAlreadyExpired) {
  VirtualClock clock;  // starts at 0
  Budget budget;
  budget.SetDeadline(&clock, -1);
  EXPECT_EQ(budget.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FirstCancelWinsAndLatches) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();  // defaults to kCancelled
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.code(), StatusCode::kCancelled);
  token.Cancel(StatusCode::kUnavailable);  // too late: first trip sticks
  EXPECT_EQ(token.code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, TrippedTokenExhaustsTheBudget) {
  CancelToken token;
  Budget budget;
  budget.set_cancel_token(&token);
  EXPECT_TRUE(budget.Check().ok()) << "untripped token never fires";

  token.Cancel(StatusCode::kUnavailable);
  EXPECT_EQ(budget.Check().code(), StatusCode::kUnavailable)
      << "the budget reports the token's code";
  EXPECT_TRUE(budget.exhausted());
}

TEST(CancelTokenTest, CrossThreadCancelStopsAPolledBudget) {
  // The service's in-flight cancellation shape: one thread polls the budget
  // (as proof search and the chase do), another trips the shared token.
  CancelToken token;
  Budget budget;
  budget.set_cancel_token(&token);
  std::thread canceller([&token] { token.Cancel(); });
  Status last = Status::Ok();
  while (last.ok()) last = budget.Check();
  canceller.join();
  EXPECT_EQ(last.code(), StatusCode::kCancelled);
  EXPECT_EQ(budget.Check().code(), StatusCode::kCancelled) << "latched";
}

TEST(ChaseBudgetTest, ExpiredDeadlineStopsTheChase) {
  Schema schema;
  schema.AddRelation("R", 2).value();
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "R(x, y) -> R(y, z)")).ok());
  auto query = ParseQuery(schema, "Q() :- R(a, b)");
  TermArena arena;
  ChaseEngine engine(&schema, &arena);
  CanonicalDatabase canonical = BuildCanonicalDatabase(*query, arena);

  VirtualClock clock;
  Budget budget;
  budget.SetDeadline(&clock, 0);  // expires immediately
  ChaseOptions options;
  options.budget = &budget;
  auto stats = engine.Run(schema.constraints(), options, canonical.config);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  // The chase stopped before firing anything: only the canonical database's
  // two query-variable nulls exist, no invented existential witnesses.
  EXPECT_EQ(arena.num_nulls(), 2u);
}

TEST(AnytimeSearchTest, NodeCapReturnsBestSoFar) {
  // Descending directory costs: the first plan found (cost 5) is not the
  // optimum (cost 2), so some caps stop the search with a plan in hand.
  const double dir_costs[] = {4.0, 3.0, 2.0, 1.0};
  auto scenario =
      MakeMultiSourceScenario(4, dir_costs, /*profinfo_cost=*/1.0);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  SimpleCostFunction cost(scenario->schema.get());
  ProofSearch search(&*accessible, &cost);

  // Unbudgeted baseline: full exploration.
  SearchOptions base_options;
  base_options.max_access_commands = 3;
  auto full = search.Run(scenario->query, base_options);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->best.has_value());
  EXPECT_TRUE(full->exhaustion.ok());
  const int full_nodes = full->stats.nodes_created;
  ASSERT_GT(full_nodes, 2);

  // Scan SearchOptions::max_nodes upward: every capped run must be a sound
  // prefix (never an error, never a worse-than-baseline claim of
  // optimality), and at least one cap must land in the anytime regime —
  // node cap reached with a usable best-so-far plan.
  bool saw_anytime_with_plan = false;
  for (int cap = 1; cap < full_nodes; ++cap) {
    SearchOptions options;
    options.max_access_commands = 3;
    options.max_nodes = cap;
    auto outcome = search.Run(scenario->query, options);
    ASSERT_TRUE(outcome.ok()) << "cap " << cap << ": " << outcome.status();
    if (!outcome->exhaustion.ok()) {
      EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kResourceExhausted)
          << "cap " << cap;
      if (outcome->best.has_value()) {
        saw_anytime_with_plan = true;
        // Best-so-far can never beat the true optimum.
        EXPECT_GE(outcome->best->cost, full->best->cost) << "cap " << cap;
      }
    } else {
      // Budget never tripped: the outcome must match the full search.
      ASSERT_TRUE(outcome->best.has_value());
      EXPECT_DOUBLE_EQ(outcome->best->cost, full->best->cost);
    }
  }
  EXPECT_TRUE(saw_anytime_with_plan)
      << "no node cap produced a budget-exhausted outcome carrying a plan";
}

TEST(AnytimeSearchTest, DeadlineReturnsBestSoFarOnVirtualTime) {
  auto scenario = MakeMultiSourceScenario(4);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  auto accessible =
      AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  SimpleCostFunction cost(scenario->schema.get());
  ProofSearch search(&*accessible, &cost);

  SearchOptions base_options;
  base_options.max_access_commands = 3;
  auto full = search.Run(scenario->query, base_options);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->best.has_value());

  // Virtual time advances by 1µs per clock read, and only deadline checks
  // read the clock, so the deadline value directly selects how many budget
  // checks the search survives. First run with an effectively infinite
  // deadline to learn the total check count N from the clock, then sweep
  // ~256 evenly spaced deadlines across [1, N] — every run is deterministic,
  // so the sweep exercises the whole anytime spectrum.
  int64_t total_checks = 0;
  {
    VirtualClock clock;
    clock.set_auto_advance(1);
    Budget budget;
    budget.SetDeadline(&clock, int64_t{1} << 40);
    SearchOptions options;
    options.max_access_commands = 3;
    options.budget = &budget;
    auto outcome = search.Run(scenario->query, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->exhaustion.ok());
    ASSERT_TRUE(outcome->best.has_value());
    EXPECT_DOUBLE_EQ(outcome->best->cost, full->best->cost);
    total_checks = clock.NowMicros();
    ASSERT_GT(total_checks, 2);
  }

  bool saw_deadline_with_plan = false;
  bool saw_completion = false;
  const int64_t step = std::max<int64_t>(1, total_checks / 256);
  for (int64_t deadline = 1; deadline <= total_checks + step;
       deadline += step) {
    VirtualClock clock;
    clock.set_auto_advance(1);
    Budget budget;
    budget.SetDeadline(&clock, deadline);
    SearchOptions options;
    options.max_access_commands = 3;
    options.budget = &budget;
    auto outcome = search.Run(scenario->query, options);
    ASSERT_TRUE(outcome.ok()) << "deadline " << deadline << ": "
                              << outcome.status();
    if (!outcome->exhaustion.ok()) {
      EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kDeadlineExceeded)
          << "deadline " << deadline;
      EXPECT_TRUE(budget.exhausted());
      if (outcome->best.has_value()) {
        saw_deadline_with_plan = true;
        EXPECT_GE(outcome->best->cost, full->best->cost);
      }
    } else {
      saw_completion = true;
      ASSERT_TRUE(outcome->best.has_value());
      EXPECT_DOUBLE_EQ(outcome->best->cost, full->best->cost);
    }
  }
  EXPECT_TRUE(saw_deadline_with_plan)
      << "no deadline produced a budget-exhausted outcome carrying a plan";
  EXPECT_TRUE(saw_completion)
      << "search never ran to completion within the deadline sweep";
}

TEST(BudgetConcurrencyTest, CancelTokenTripsConcurrentChargers) {
  CancelToken token;
  Budget budget;
  budget.set_cancel_token(&token);
  std::atomic<bool> done{false};
  std::thread charger([&budget, &done] {
    while (budget.Check().ok()) {
    }
    done.store(true);
  });
  token.Cancel(StatusCode::kUnavailable);
  charger.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(budget.exhaustion().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace lcp
