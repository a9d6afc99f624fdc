// Proof search on a deliberately hard workload: one search over a chain
// query whose every access order answers it.
//
// The workload is a chain query R0(x0,x1) ∧ ... ∧ R{k-1}(x_{k-1},x_k) where
// every relation carries `m` alternative free-access methods with slightly
// different costs. Any access order answers the query, so the proof space
// is the full (subset × method) lattice: sleep sets and the dominance store
// collapse same-subset permutations and the incumbent bound prunes
// expensive method choices. Node expansions are dominated by config copies,
// chase closures, and homomorphism checks.
//
// BM_ChainSearch records nodes_expanded, nodes_created, best_cost and
// host_cores per row (bench/run_benches.sh writes BENCH_chain_search.json).

#include <benchmark/benchmark.h>

#include <thread>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/strings.h"
#include "lcp/planner/proof_search.h"
#include "lcp/schema/parser.h"
#include "lcp/schema/schema.h"

namespace {

using namespace lcp;

/// Chain of `chain_len` binary relations, `methods_per_relation` free-access
/// methods each with distinct costs, boolean chain query over all of them.
struct Workload {
  std::unique_ptr<Schema> schema;
  ConjunctiveQuery query;
};

Workload BuildChainWorkload(int chain_len, int methods_per_relation) {
  Workload w;
  w.schema = std::make_unique<Schema>();
  std::string body;
  for (int i = 0; i < chain_len; ++i) {
    RelationId rel = w.schema->AddRelation(StrCat("R", i), 2).value();
    for (int m = 0; m < methods_per_relation; ++m) {
      // Distinct costs so the optimum is unique and the incumbent bound has
      // something to cut; kept close so cost pruning alone cannot collapse
      // the space early.
      double cost = 1.0 + 0.1 * m + 0.01 * i;
      w.schema->AddAccessMethod(StrCat("mt_r", i, "_", m), rel, {}, cost)
          .value();
    }
    if (i > 0) body += ", ";
    body += StrCat("R", i, "(x", i, ", x", i + 1, ")");
  }
  w.query = ParseQuery(*w.schema, "Q() :- " + body).value();
  return w;
}

SearchOutcome RunWorkload(const Workload& w) {
  AccessibleSchema accessible =
      AccessibleSchema::Build(*w.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(w.schema.get());
  ProofSearch search(&accessible, &cost);
  SearchOptions options;
  options.max_access_commands = w.schema->num_relations();
  options.max_nodes = 2000000;
  return search.Run(w.query, options).value();
}

constexpr int kChainLen = 10;
constexpr int kMethods = 3;

void BM_ChainSearch(benchmark::State& state) {
  Workload w = BuildChainWorkload(kChainLen, kMethods);
  SearchOutcome outcome;
  for (auto _ : state) {
    outcome = RunWorkload(w);
    benchmark::DoNotOptimize(outcome.best);
  }
  state.counters["host_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["nodes_expanded"] =
      static_cast<double>(outcome.stats.nodes_expanded);
  state.counters["nodes_created"] =
      static_cast<double>(outcome.stats.nodes_created);
  state.counters["best_cost"] = outcome.best ? outcome.best->cost : -1.0;
}
BENCHMARK(BM_ChainSearch)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
