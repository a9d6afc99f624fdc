// Experiment E6 (§5 "Optimizations"): how the explored proof space grows
// with the number of alternative sources, and how much the cost-bound and
// dominance prunings shrink it. The paper motivates both prunings; the
// expected shape is a combinatorial explosion without pruning and
// near-linear growth with both prunings on.

#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/planner/proof_search.h"
#include "lcp/workload/scenarios.h"

namespace {

using namespace lcp;

SearchOutcome RunSearch(int num_sources, bool prune_cost, bool prune_dom) {
  Scenario scenario = MakeMultiSourceScenario(num_sources).value();
  AccessibleSchema accessible =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  SimpleCostFunction cost(scenario.schema.get());
  ProofSearch search(&accessible, &cost);
  SearchOptions options;
  options.max_access_commands = num_sources + 1;
  options.prune_by_cost = prune_cost;
  options.prune_by_dominance = prune_dom;
  options.candidate_order = CandidateOrder::kFreeAccessFirst;
  options.max_nodes = 2000000;
  return search.Run(scenario.query, options).value();
}

void BM_SearchScaling(benchmark::State& state) {
  const int sources = static_cast<int>(state.range(0));
  const bool pruning = state.range(1) != 0;
  for (auto _ : state) {
    SearchOutcome outcome = RunSearch(sources, pruning, pruning);
    benchmark::DoNotOptimize(outcome.stats.nodes_created);
  }
}
BENCHMARK(BM_SearchScaling)
    ->ArgsProduct({{2, 3, 4, 5}, {0, 1}})
    ->ArgNames({"sources", "pruning"});

void PrintReproduction() {
  std::cout << "\n=== E6: explored proof nodes vs number of sources ===\n";
  std::cout << "sources | no pruning | cost only | dominance only | both"
               " | built (both)\n";
  for (int n = 1; n <= 6; ++n) {
    SearchOutcome none = RunSearch(n, false, false);
    SearchOutcome cost_only = RunSearch(n, true, false);
    SearchOutcome dom_only = RunSearch(n, false, true);
    SearchOutcome both = RunSearch(n, true, true);
    std::cout << "  " << std::setw(5) << n << " | " << std::setw(10)
              << none.stats.nodes_created << " | " << std::setw(9)
              << cost_only.stats.nodes_created << " | " << std::setw(14)
              << dom_only.stats.nodes_created << " | " << std::setw(5)
              << both.stats.nodes_created << " | " << std::setw(12)
              << both.stats.nodes_expanded << "\n";
  }
  std::cout << "(all four configurations return the same optimal cost; "
               "\"built\" counts every child built, pruned ones included)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintReproduction();
  return 0;
}
