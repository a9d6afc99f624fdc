// Experiment E9 (Theorem 4, Access Interpolation): entailment proving and
// interpolant extraction with the tableau prover. The theorem's effective
// content is that interpolants come out of proofs in polynomial time; we
// measure extraction cost as rule chains grow and report the interpolant
// properties on the paper's Example 3 entailment.

#include <benchmark/benchmark.h>

#include <iostream>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/strings.h"
#include "lcp/interp/encode.h"
#include "lcp/interp/tableau.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace {

using namespace lcp;

/// P0(1) ∧ ∀x(P0→P1) ∧ ... ∧ ∀x(P{n-1}→Pn)  ⊨  Pn(1).
struct ChainCase {
  Schema schema;
  FormulaPtr premise;
  FormulaPtr conclusion;
};

ChainCase MakeChainCase(int n) {
  ChainCase c;
  std::vector<RelationId> rels;
  for (int i = 0; i <= n; ++i) {
    rels.push_back(c.schema.AddRelation(StrCat("P", i), 1).value());
  }
  std::vector<FormulaPtr> parts;
  parts.push_back(
      Formula::MakeAtom(Atom(rels[0], {Term::Const(int64_t{1})})));
  for (int i = 0; i < n; ++i) {
    parts.push_back(Formula::Forall(
        {"x"}, Atom(rels[i], {Term::Var("x")}),
        Formula::MakeAtom(Atom(rels[i + 1], {Term::Var("x")}))));
  }
  c.premise = Formula::And(std::move(parts));
  c.conclusion = Formula::MakeAtom(Atom(rels[n], {Term::Const(int64_t{1})}));
  return c;
}

void BM_InterpolateChain(benchmark::State& state) {
  ChainCase c = MakeChainCase(static_cast<int>(state.range(0)));
  TableauOptions options;
  options.max_steps = 1000000;
  for (auto _ : state) {
    auto result =
        ProveAndInterpolate(c.schema, c.premise, c.conclusion, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_InterpolateChain)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->ArgName("chain");

void BM_Example3Entailment(benchmark::State& state) {
  Scenario scenario = MakeProfinfoScenario(true).value();
  AccessibleSchema acc =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  std::vector<FormulaPtr> parts;
  parts.push_back(QueryToSentence(scenario.query).value());
  for (const Tgd& tgd : acc.AllAxioms()) {
    parts.push_back(TgdToFormula(tgd).value());
  }
  FormulaPtr premise = Formula::And(std::move(parts));
  FormulaPtr conclusion =
      QueryToSentence(acc.InferredAccQuery(scenario.query)).value();
  TableauOptions options;
  options.max_steps = 1000000;
  for (auto _ : state) {
    auto result = ProveAndInterpolate(acc.schema(), premise, conclusion,
                                      options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Example3Entailment);

void PrintReproduction() {
  std::cout << "\n=== E9: interpolation (Theorem 4) ===\n";
  std::cout << "chain n | proved | rule applications | interpolant\n";
  for (int n : {1, 2, 4, 8, 16}) {
    ChainCase c = MakeChainCase(n);
    TableauOptions options;
    options.max_steps = 1000000;
    auto result =
        ProveAndInterpolate(c.schema, c.premise, c.conclusion, options);
    std::cout << "  " << n << "      | "
              << (result.ok() && result->proved ? "yes" : "no ") << "   | "
              << (result.ok() ? result->rule_applications : -1) << " | "
              << (result.ok() && result->proved
                      ? result->interpolant->ToString(c.schema)
                      : std::string("-"))
              << "\n";
  }

  Scenario scenario = MakeProfinfoScenario(true).value();
  AccessibleSchema acc =
      AccessibleSchema::Build(*scenario.schema, AccessibleVariant::kStandard)
          .value();
  std::vector<FormulaPtr> parts;
  parts.push_back(QueryToSentence(scenario.query).value());
  for (const Tgd& tgd : acc.AllAxioms()) {
    parts.push_back(TgdToFormula(tgd).value());
  }
  TableauOptions options;
  options.max_steps = 1000000;
  auto result = ProveAndInterpolate(
      acc.schema(), Formula::And(std::move(parts)),
      QueryToSentence(acc.InferredAccQuery(scenario.query)).value(), options);
  std::cout << "Example 3 (Q entails InferredAccQ over AcSch): "
            << (result.ok() && result->proved ? "PROVED" : "not proved")
            << " in " << (result.ok() ? result->rule_applications : -1)
            << " rule applications\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintReproduction();
  return 0;
}
