// Differential tests for the semi-naïve (delta-driven) chase: the naive
// engine is the reference oracle. Randomized full-TGD programs are compared
// for exact fact-set equality; workload scenarios with existential TGDs are
// compared up to homomorphic equivalence over the invented nulls.

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lcp/base/strings.h"
#include "lcp/chase/engine.h"
#include "lcp/chase/matcher.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

struct ChaseRun {
  std::unique_ptr<TermArena> arena;
  ChaseConfig config;
  ChaseStats stats;
  size_t initial_facts = 0;
};

/// Seeds a fresh arena + config via `seed`, then chases `schema`'s
/// constraints to fixpoint under `mode`.
ChaseRun RunChase(const Schema& schema,
                  const std::function<void(TermArena&, ChaseConfig&)>& seed,
                  ChaseEvaluationMode mode, ChaseOptions options) {
  ChaseRun run;
  run.arena = std::make_unique<TermArena>();
  seed(*run.arena, run.config);
  run.initial_facts = run.config.size();
  ChaseEngine engine(&schema, run.arena.get());
  options.evaluation_mode = mode;
  auto stats = engine.Run(schema.constraints(), options, run.config);
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (stats.ok()) run.stats = *stats;
  return run;
}

std::vector<std::pair<RelationId, std::vector<ChaseTermId>>> SortedFacts(
    const ChaseConfig& config) {
  std::vector<std::pair<RelationId, std::vector<ChaseTermId>>> facts;
  facts.reserve(config.size());
  for (const FactRef fact : config.facts()) {
    facts.emplace_back(fact.relation, std::vector<ChaseTermId>(
                                          fact.terms.begin(), fact.terms.end()));
  }
  std::sort(facts.begin(), facts.end());
  return facts;
}

/// True if every fact of `a` maps into `b` under a substitution that fixes
/// constants and the shared initial facts' terms (both runs seed their
/// arenas identically, so initial term ids coincide) and renames the
/// invented nulls freely.
bool EmbedsInto(const ChaseRun& a, const ChaseRun& b) {
  std::unordered_set<ChaseTermId> fixed;
  for (size_t i = 0; i < a.initial_facts; ++i) {
    for (ChaseTermId t : a.config.facts()[i].terms) fixed.insert(t);
  }
  std::unordered_map<ChaseTermId, int> var_of;
  std::vector<PatternAtom> pattern;
  for (const FactRef fact : a.config.facts()) {
    PatternAtom atom;
    atom.relation = fact.relation;
    for (ChaseTermId t : fact.terms) {
      PatternAtom::Slot slot;
      if (TermArena::IsConstant(t) || fixed.count(t) > 0) {
        slot.is_variable = false;
        slot.term = t;
      } else {
        slot.is_variable = true;
        auto [it, inserted] = var_of.emplace(t, static_cast<int>(var_of.size()));
        slot.var_index = it->second;
      }
      atom.slots.push_back(slot);
    }
    pattern.push_back(std::move(atom));
  }
  std::vector<ChaseTermId> assignment(var_of.size(), kUnboundTerm);
  return HasHomomorphism(pattern, b.config, std::move(assignment));
}

/// Runs both modes on a scenario's canonical database and checks that they
/// agree: same fixpoint flag, same configuration size, and homomorphically
/// equivalent final configurations.
void ExpectModesAgree(const Scenario& scenario, ChaseOptions options,
                      bool expect_equal_firings = true) {
  SCOPED_TRACE(scenario.name);
  auto seed = [&](TermArena& arena, ChaseConfig& config) {
    CanonicalDatabase canonical = BuildCanonicalDatabase(scenario.query, arena);
    config = std::move(canonical.config);
  };
  ChaseRun naive =
      RunChase(*scenario.schema, seed, ChaseEvaluationMode::kNaive, options);
  ChaseRun delta = RunChase(*scenario.schema, seed,
                            ChaseEvaluationMode::kSemiNaive, options);
  EXPECT_EQ(naive.stats.reached_fixpoint, delta.stats.reached_fixpoint);
  EXPECT_EQ(naive.config.size(), delta.config.size());
  if (expect_equal_firings) {
    EXPECT_EQ(naive.stats.firings, delta.stats.firings);
  }
  EXPECT_TRUE(EmbedsInto(naive, delta));
  EXPECT_TRUE(EmbedsInto(delta, naive));
}

// ---------------------------------------------------------------------------
// Randomized full-TGD programs: no invented nulls, so the two modes must
// produce bit-identical fact sets and equal firing counts (single-atom full
// heads add exactly one fact per firing).
// ---------------------------------------------------------------------------

struct RandomProgram {
  std::unique_ptr<Schema> schema;
  /// EDB facts as constant payloads; interned per-arena at seed time so both
  /// runs get identical term ids.
  std::vector<std::pair<RelationId, std::vector<int>>> edb;
};

RandomProgram MakeRandomProgram(uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  RandomProgram prog;
  prog.schema = std::make_unique<Schema>();

  const int num_rels = 3 + pick(3);  // 3..5 relations
  std::vector<RelationId> rels;
  std::vector<int> arity;
  for (int r = 0; r < num_rels; ++r) {
    arity.push_back(1 + pick(3));  // arity 1..3
    rels.push_back(
        prog.schema->AddRelation(StrCat("R", r), arity.back()).value());
  }

  const char* kVars[] = {"a", "b", "c", "d"};
  const int num_rules = 4 + pick(4);  // 4..7 rules
  for (int i = 0; i < num_rules; ++i) {
    const int body_atoms = 1 + pick(2);
    std::vector<std::string> body;
    std::vector<std::string> used_vars;
    for (int ba = 0; ba < body_atoms; ++ba) {
      int rel = pick(num_rels);
      std::vector<std::string> terms;
      for (int p = 0; p < arity[rel]; ++p) {
        const char* v = kVars[pick(4)];
        terms.push_back(v);
        if (std::find(used_vars.begin(), used_vars.end(), v) ==
            used_vars.end()) {
          used_vars.push_back(v);
        }
      }
      body.push_back(StrCat("R", rel, "(", StrJoin(terms, ", "), ")"));
    }
    // Full TGD: every head variable comes from the body.
    int head_rel = pick(num_rels);
    std::vector<std::string> head_terms;
    for (int p = 0; p < arity[head_rel]; ++p) {
      head_terms.push_back(used_vars[pick(static_cast<int>(used_vars.size()))]);
    }
    std::string text = StrCat(StrJoin(body, " & "), " -> R", head_rel, "(",
                              StrJoin(head_terms, ", "), ")");
    Tgd tgd = ParseTgd(*prog.schema, text).value();
    tgd.name = StrCat("rule", i);
    EXPECT_TRUE(prog.schema->AddConstraint(std::move(tgd)).ok()) << text;
  }

  const int num_facts = 6 + pick(10);
  for (int f = 0; f < num_facts; ++f) {
    int rel = pick(num_rels);
    std::vector<int> payload;
    for (int p = 0; p < arity[rel]; ++p) payload.push_back(pick(5));
    prog.edb.emplace_back(rels[rel], std::move(payload));
  }
  return prog;
}

TEST(SemiNaiveDifferentialTest, RandomFullTgdPrograms) {
  const uint32_t kPrograms = 12;
  for (uint32_t seed = 0; seed < kPrograms; ++seed) {
    SCOPED_TRACE(StrCat("program seed ", seed));
    RandomProgram prog = MakeRandomProgram(seed);
    auto seed_fn = [&](TermArena& arena, ChaseConfig& config) {
      for (const auto& [rel, payload] : prog.edb) {
        std::vector<ChaseTermId> terms;
        terms.reserve(payload.size());
        for (int v : payload) {
          terms.push_back(arena.InternConstant(Value::Int(v)));
        }
        config.Add(Fact(rel, std::move(terms)));
      }
    };
    ChaseOptions options;
    ChaseRun naive =
        RunChase(*prog.schema, seed_fn, ChaseEvaluationMode::kNaive, options);
    ChaseRun delta = RunChase(*prog.schema, seed_fn,
                              ChaseEvaluationMode::kSemiNaive, options);
    EXPECT_TRUE(naive.stats.reached_fixpoint);
    EXPECT_TRUE(delta.stats.reached_fixpoint);
    EXPECT_EQ(SortedFacts(naive.config), SortedFacts(delta.config));
    EXPECT_EQ(naive.stats.firings, delta.stats.firings);
    EXPECT_EQ(naive.stats.facts_added, delta.stats.facts_added);
  }
}

// ---------------------------------------------------------------------------
// Workload scenarios (existential TGDs): compare up to hom-equivalence.
// ---------------------------------------------------------------------------

TEST(SemiNaiveDifferentialTest, ChainScenarios) {
  for (int n : {1, 2, 3, 4, 6, 8, 12}) {
    ExpectModesAgree(MakeChainScenario(n).value(), ChaseOptions{});
  }
}

TEST(SemiNaiveDifferentialTest, ViewScenarios) {
  for (int m : {1, 2, 3}) {
    ExpectModesAgree(MakeViewScenario(m).value(), ChaseOptions{});
  }
}

TEST(SemiNaiveDifferentialTest, PaperExampleScenarios) {
  ExpectModesAgree(MakeProfinfoScenario(false).value(), ChaseOptions{});
  ExpectModesAgree(MakeProfinfoScenario(true).value(), ChaseOptions{});
  ExpectModesAgree(MakeTelephoneScenario().value(), ChaseOptions{});
  ExpectModesAgree(MakeMultiSourceScenario(3).value(), ChaseOptions{});
}

TEST(SemiNaiveDifferentialTest, CyclicGuardedScenario) {
  Scenario depth_capped = MakeCyclicGuardedScenario().value();
  ChaseOptions depth_options;
  depth_options.max_null_depth = 4;
  ExpectModesAgree(depth_capped, depth_options);

  Scenario blocked = MakeCyclicGuardedScenario().value();
  ChaseOptions blocking_options;
  blocking_options.use_guarded_blocking = true;
  blocking_options.max_firings = 10000;
  // Blocking decisions depend on enumeration order, so firing counts are
  // only required to agree within the blocking tolerance (hom-equivalence
  // and the fixpoint flag are still exact).
  ExpectModesAgree(blocked, blocking_options,
                   /*expect_equal_firings=*/false);
}

// ---------------------------------------------------------------------------
// Transitive closure (the bench scenario): semi-naïve must compute the same
// closure while enumerating asymptotically fewer triggers.
// ---------------------------------------------------------------------------

TEST(SemiNaiveDifferentialTest, TransitiveClosureWorkReduction) {
  const int n = 24;
  Schema schema;
  RelationId e = schema.AddRelation("E", 2).value();
  schema.AddRelation("T", 2).value();
  ASSERT_TRUE(schema.AddConstraint(*ParseTgd(schema, "E(x, y) -> T(x, y)")).ok());
  ASSERT_TRUE(
      schema.AddConstraint(*ParseTgd(schema, "T(x, y) & E(y, z) -> T(x, z)"))
          .ok());
  auto seed_fn = [&](TermArena& arena, ChaseConfig& config) {
    for (int i = 0; i < n; ++i) {
      config.Add(Fact(e, {arena.InternConstant(Value::Int(i)),
                          arena.InternConstant(Value::Int(i + 1))}));
    }
  };
  ChaseOptions options;
  ChaseRun naive =
      RunChase(schema, seed_fn, ChaseEvaluationMode::kNaive, options);
  ChaseRun delta =
      RunChase(schema, seed_fn, ChaseEvaluationMode::kSemiNaive, options);
  EXPECT_EQ(SortedFacts(naive.config), SortedFacts(delta.config));
  EXPECT_EQ(naive.stats.firings, delta.stats.firings);
  // The closure of a path of n edges has n*(n+1)/2 T-facts.
  EXPECT_EQ(delta.stats.facts_added, n * (n + 1) / 2);
  // The delta discipline enumerates each derivation O(1) times; the naive
  // oracle re-enumerates the whole join every round.
  EXPECT_LT(delta.stats.triggers_enumerated * 4,
            naive.stats.triggers_enumerated);
  EXPECT_GT(delta.stats.delta_enumerations, 0);
  EXPECT_GT(delta.stats.index_probes, 0);
}

}  // namespace
}  // namespace lcp
