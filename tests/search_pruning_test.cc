// Proof search: the default pruning against the search with all pruning
// off, and the driver's lifecycle and budget contracts (exact node cap,
// pre-expired deadline, cross-thread cancellation, first-plan stop,
// keep_all_plans).
//
// The load-bearing test is the randomized differential: on seeded random
// schemas the default pruning (dominance, sleep sets, the cost bound and
// the remaining-cost bound) must find the same plan existence and optimal
// cost as the search with every pruning off, and every plan either search
// returns must have the shape the optimizer relies on (no unread command,
// no repeated access, every access input projected onto its bound
// attributes). LCP_SEARCH_STRESS_ITERS scales its case count (CI
// stress/TSan jobs).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/budget.h"
#include "lcp/base/clock.h"
#include "lcp/base/strings.h"
#include "lcp/plan/cardinality_cost.h"
#include "lcp/plan/cost.h"
#include "lcp/plan/validate.h"
#include "lcp/planner/proof_search.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

int StressIters(int default_iters) {
  if (const char* env = std::getenv("LCP_SEARCH_STRESS_ITERS")) {
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

/// A seeded random schema and query for the all-pruning-off differential,
/// with its text for failure messages.
struct RandomCase {
  std::unique_ptr<Schema> schema;
  ConjunctiveQuery query;
  int max_access_commands = 2;
  CandidateOrder order = CandidateOrder::kDerivationDepth;
  std::string text;
};

/// 2-5 relations of arity 1-3 with 1-3 access methods each (random input
/// positions; costs mix integer ties and reals), 0-3 acyclic TGDs with
/// existentials, sometimes two-atom bodies and sometimes the schema constant
/// in a body or head position, one schema constant, and a query of 1-4
/// atoms with random free variables.
RandomCase MakeRandomCase(std::mt19937& rng) {
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  RandomCase c;
  c.schema = std::make_unique<Schema>();
  Schema& schema = *c.schema;
  const int num_relations = 2 + pick(4);
  std::vector<int> arity(num_relations);
  for (int r = 0; r < num_relations; ++r) {
    arity[r] = 1 + pick(3);
    EXPECT_TRUE(schema.AddRelation(StrCat("R", r), arity[r]).ok());
    const int num_methods = 1 + pick(3);
    for (int m = 0; m < num_methods; ++m) {
      std::vector<int> inputs;
      for (int pos = 0; pos < arity[r]; ++pos) {
        if (pick(3) == 0) inputs.push_back(pos);
      }
      const double cost = pick(2) == 0 ? 1 + pick(3) : 0.5 + pick(400) / 100.0;
      EXPECT_TRUE(
          schema.AddAccessMethod(StrCat("m", r, "_", m), r, inputs, cost)
              .ok());
      c.text += StrCat("R", r, "/", arity[r], " m", r, "_", m, " in{",
                       StrJoin(inputs, ","), "} cost ", cost, "; ");
    }
  }
  schema.AddConstant(Value::Str("k"));

  // An atom over `relation` on the variables x0 and x1, and sometimes the
  // schema constant; with `existentials`, each position may get a new
  // variable z0, z1, ... instead.
  int num_existential = 0;
  auto atom = [&](int relation, bool existentials) {
    std::vector<std::string> terms;
    for (int pos = 0; pos < arity[relation]; ++pos) {
      if (pick(6) == 0) {
        terms.push_back("\"k\"");
        continue;
      }
      terms.push_back(existentials && pick(2) == 0
                          ? StrCat("z", num_existential++)
                          : StrCat("x", pick(2)));
    }
    return StrCat("R", relation, "(", StrJoin(terms, ", "), ")");
  };
  // Acyclic: a head relation comes after every body relation.
  const int num_tgds = pick(4);
  for (int t = 0; t < num_tgds; ++t) {
    const int head = 1 + pick(num_relations - 1);
    std::string body = atom(pick(head), false);
    if (pick(3) == 0) body += " & " + atom(pick(head), false);
    std::string text = StrCat(body, " -> ", atom(head, true));
    Result<Tgd> tgd = ParseTgd(schema, text);
    if (!tgd.ok() || !schema.AddConstraint(*tgd).ok()) continue;
    c.text += text + "; ";
  }

  const int num_atoms = 1 + pick(4);
  const int num_vars = 1 + pick(4);
  std::vector<std::string> atoms;
  std::vector<bool> used(num_vars, false);
  for (int a = 0; a < num_atoms; ++a) {
    const int relation = pick(num_relations);
    std::vector<std::string> terms;
    for (int pos = 0; pos < arity[relation]; ++pos) {
      if (pick(8) == 0) {
        terms.push_back("\"k\"");
        continue;
      }
      const int v = pick(num_vars);
      used[v] = true;
      terms.push_back(StrCat("v", v));
    }
    atoms.push_back(StrCat("R", relation, "(", StrJoin(terms, ", "), ")"));
  }
  std::vector<std::string> free_vars;
  for (int v = 0; v < num_vars; ++v) {
    if (used[v] && pick(2) == 0) free_vars.push_back(StrCat("v", v));
  }
  const std::string query_text = StrCat("Q(", StrJoin(free_vars, ", "),
                                        ") :- ", StrJoin(atoms, ", "));
  Result<ConjunctiveQuery> query = ParseQuery(schema, query_text);
  EXPECT_TRUE(query.ok()) << query_text << ": " << query.status();
  if (query.ok()) c.query = std::move(query).value();
  c.max_access_commands = 2 + pick(4);
  c.order = pick(2) == 0 ? CandidateOrder::kDerivationDepth
                         : CandidateOrder::kFreeAccessFirst;
  c.text += StrCat(query_text, " d=", c.max_access_commands,
                   c.order == CandidateOrder::kFreeAccessFirst
                       ? " free-access-first"
                       : " derivation-depth");
  return c;
}

/// What the §4 translation guarantees of every plan it reads off a proof,
/// and what lets the optimizer leave repeated accesses, unread commands
/// and over-wide inputs alone (DESIGN.md §11): every command's output
/// table is read by a later command or is the plan output, no two access
/// commands are the same access (method, input expression and constant
/// inputs), and every access input is a projection onto exactly the
/// attributes it binds.
void ExpectProofPlanShape(const Plan& plan, const Schema& schema,
                          const std::string& variant) {
  std::set<std::string> read_later;
  for (size_t i = plan.commands.size(); i-- > 0;) {
    const Command& cmd = plan.commands[i];
    const std::string& output = OutputTableOf(cmd);
    EXPECT_TRUE(output == plan.output_table || read_later.count(output) > 0)
        << variant << ": " << output << " is never read\n"
        << plan.ToString(schema);
    const auto* access = std::get_if<AccessCommand>(&cmd);
    const RaExprPtr& expr =
        access != nullptr ? access->input : std::get<QueryCommand>(cmd).expr;
    if (expr != nullptr) {
      for (const std::string& table : expr->ReferencedTables()) {
        read_later.insert(table);
      }
    }
  }

  std::set<std::string> accesses;
  for (const Command& cmd : plan.commands) {
    const auto* access = std::get_if<AccessCommand>(&cmd);
    if (access == nullptr) continue;
    auto constants = access->constant_inputs;
    std::sort(constants.begin(), constants.end());
    std::string key = StrCat(access->method, "|",
                             access->input != nullptr
                                 ? access->input->ToString()
                                 : std::string("{}"),
                             "|");
    for (const auto& [pos, value] : constants) {
      key += StrCat(pos, "=", value.ToString(), ";");
    }
    EXPECT_TRUE(accesses.insert(key).second)
        << variant << ": access " << access->output_table
        << " repeats an earlier one\n"
        << plan.ToString(schema);

    std::set<std::string> bound;
    for (const auto& [attr, pos] : access->input_binding) bound.insert(attr);
    if (access->input == nullptr) {
      EXPECT_TRUE(bound.empty()) << variant << "\n" << plan.ToString(schema);
      continue;
    }
    const RaExpr& input = *access->input;
    ASSERT_EQ(input.op(), RaExpr::Op::kProject)
        << variant << ": input of " << access->output_table << "\n"
        << plan.ToString(schema);
    const std::set<std::string> projected(input.attrs().begin(),
                                          input.attrs().end());
    EXPECT_EQ(projected.size(), input.attrs().size())
        << variant << ": input of " << access->output_table << "\n"
        << plan.ToString(schema);
    EXPECT_EQ(projected, bound)
        << variant << ": input of " << access->output_table << "\n"
        << plan.ToString(schema);
  }
}

TEST(SearchPruningTest, DefaultPruningMatchesAllOffSearch) {
  // Dominance, sleep sets, cost pruning and the remaining-cost bound may
  // only skip work: the defaults must find a plan exactly when the search
  // with every pruning off does, at the same optimal cost, with cost
  // pruning and keep_all_plans toggled, under the
  // additive simple cost and the non-additive cardinality cost. Every plan
  // either search returns must be well-formed, have the shape of a proof
  // plan (ExpectProofPlanShape), and cost exactly what the search charged
  // for it: the per-access charges the search sums and the plan read off
  // the proof agree.
  const int iters = StressIters(200);
  // The all-off search grows like (candidates)^d; cases that hit this cap
  // are skipped.
  constexpr int kReferenceNodeCap = 4000;
  std::mt19937 rng(20261017);
  int compared = 0;
  for (int iter = 0; iter < iters; ++iter) {
    RandomCase c = MakeRandomCase(rng);
    auto accessible =
        AccessibleSchema::Build(*c.schema, AccessibleVariant::kStandard);
    ASSERT_TRUE(accessible.ok()) << accessible.status();
    SimpleCostFunction simple(c.schema.get());
    CardinalityEstimates estimates;
    for (RelationId r = 0; r < c.schema->num_relations(); ++r) {
      estimates.cardinality[r] = 1 + static_cast<int>(rng() % 200);
    }
    CardinalityCostFunction cardinality(c.schema.get(), estimates);
    for (const CostFunction* cost :
         {static_cast<const CostFunction*>(&simple),
          static_cast<const CostFunction*>(&cardinality)}) {
      const std::string where =
          StrCat("iter ", iter, (cost == &simple ? " simple" : " cardinality"),
                 " cost: ", c.text);
      auto check_plans = [&](const SearchOutcome& outcome,
                             const std::string& variant) {
        std::vector<const FoundPlan*> plans;
        if (outcome.best.has_value()) plans.push_back(&*outcome.best);
        for (const FoundPlan& found : outcome.all_plans) {
          plans.push_back(&found);
        }
        for (const FoundPlan* found : plans) {
          Status valid = ValidatePlan(found->plan, *c.schema);
          EXPECT_TRUE(valid.ok())
              << variant << ": " << valid << "\n"
              << found->plan.ToString(*c.schema);
          EXPECT_EQ(cost->Cost(found->plan), found->cost)
              << variant << "\n"
              << found->plan.ToString(*c.schema);
          ExpectProofPlanShape(found->plan, *c.schema, variant);
        }
      };
      ProofSearch search(&*accessible, cost);
      SearchOptions all_off;
      all_off.max_access_commands = c.max_access_commands;
      all_off.candidate_order = c.order;
      all_off.prune_by_cost = false;
      all_off.prune_by_dominance = false;
      all_off.max_nodes = kReferenceNodeCap;
      auto reference = search.Run(c.query, all_off);
      ASSERT_TRUE(reference.ok()) << where << ": " << reference.status();
      if (!reference->exhaustion.ok()) continue;
      ++compared;
      check_plans(*reference, StrCat(where, " [all pruning off]"));
      for (bool prune_by_cost : {true, false}) {
        for (bool keep_all_plans : {false, true}) {
          SearchOptions options;
          options.max_access_commands = c.max_access_commands;
          options.candidate_order = c.order;
          options.prune_by_cost = prune_by_cost;
          options.keep_all_plans = keep_all_plans;
          auto outcome = search.Run(c.query, options);
          ASSERT_TRUE(outcome.ok()) << where << ": " << outcome.status();
          ASSERT_TRUE(outcome->exhaustion.ok())
              << where << ": " << outcome->exhaustion;
          const std::string variant =
              StrCat(where, " [prune_by_cost=", prune_by_cost,
                     " keep_all_plans=", keep_all_plans, "]");
          ASSERT_EQ(reference->best.has_value(), outcome->best.has_value())
              << variant;
          if (reference->best.has_value()) {
            EXPECT_DOUBLE_EQ(reference->best->cost, outcome->best->cost)
                << variant;
          }
          check_plans(*outcome, variant);
        }
      }
    }
  }
  // Most cases fit under the reference cap; the differential is vacuous if
  // they do not.
  EXPECT_GE(compared, iters);
}

TEST(SearchDriverTest, NodeCapIsExact) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  options.max_nodes = 10;
  options.prune_by_cost = false;
  options.prune_by_dominance = false;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(outcome->stats.nodes_created, options.max_nodes);
}

TEST(SearchDriverTest, PreExpiredDeadlineYieldsAnytimeOutcome) {
  auto scenario = MakeMultiSourceScenario(4);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
  Budget budget;
  SystemClock clock;
  budget.SetDeadline(&clock, -1);
  options.budget = &budget;
  auto outcome = RunScenario(*scenario, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->exhaustion.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(outcome->best.has_value());
}

TEST(SearchDriverTest, CrossThreadCancellationStopsTheSearch) {
  // A cancel from another thread landing in a running search, the path the
  // service's Cancel takes. A deliberately large space (no pruning, deep
  // access budget) keeps the search running when the cancel lands; if the
  // machine is fast enough to finish first, the test still checks that Run
  // returned a coherent outcome.
  auto scenario = MakeMultiSourceScenario(9);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
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

TEST(SearchDriverTest, FirstPlanModeStopsPromptly) {
  auto scenario = MakeMultiSourceScenario(6);
  ASSERT_TRUE(scenario.ok());

  SearchOptions exhaustive;
  exhaustive.prune_by_cost = false;
  auto full = RunScenario(*scenario, exhaustive);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->best.has_value());

  SearchOptions first;
  first.stop_at_first_plan = true;
  first.prune_by_cost = false;
  auto outcome = RunScenario(*scenario, first);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->best.has_value());
  // The first success stops the search, so expansions stay well below the
  // exhaustive count.
  EXPECT_LT(outcome->stats.nodes_expanded, full->stats.nodes_expanded / 2);
}

TEST(SearchDriverTest, KeepAllPlansBestIsCheapest) {
  auto scenario = MakeMultiSourceScenario(5);
  ASSERT_TRUE(scenario.ok());
  SearchOptions options;
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

}  // namespace
}  // namespace lcp
