#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <utility>

#include "lcp/base/strings.h"
#include "lcp/data/generator.h"
#include "lcp/schema/parser.h"
#include "lcp/workload/scenarios.h"

namespace perfbench {

namespace {

using lcp::ConjunctiveQuery;
using lcp::Result;
using lcp::Schema;
using lcp::StrCat;

constexpr int kVariantsPerShape = 8;
constexpr int kBlocks = 64;

/// A bijective variable renaming plus an atom permutation: the metamorphic
/// variants the canonicalizer must map back to one fingerprint.
ConjunctiveQuery MakeVariant(const ConjunctiveQuery& query,
                             std::mt19937_64& rng) {
  std::vector<std::string> vars = query.AllVariables();
  std::vector<size_t> order(vars.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const uint64_t salt = rng() % 1000;
  std::unordered_map<std::string, std::string> rename;
  for (size_t i = 0; i < vars.size(); ++i) {
    rename[vars[i]] = StrCat("v", salt, "_", order[i]);
  }
  ConjunctiveQuery variant;
  variant.name = query.name;
  for (const std::string& v : query.free_variables) {
    variant.free_variables.push_back(rename.at(v));
  }
  for (const lcp::Atom& atom : query.atoms) {
    std::vector<lcp::Term> terms;
    for (const lcp::Term& t : atom.terms) {
      terms.push_back(t.is_variable() ? lcp::Term::Var(rename.at(t.var())) : t);
    }
    variant.atoms.emplace_back(atom.relation, std::move(terms));
  }
  std::shuffle(variant.atoms.begin(), variant.atoms.end(), rng);
  return variant;
}

Result<Shape> ParseShape(const Schema& schema, const std::string& text,
                         std::mt19937_64& rng) {
  Shape shape;
  LCP_ASSIGN_OR_RETURN(shape.query, lcp::ParseQuery(schema, text));
  for (int i = 0; i < kVariantsPerShape; ++i) {
    shape.variants.push_back(MakeVariant(shape.query, rng));
  }
  return shape;
}

/// The request stream: kBlocks blocks, each holding `counts[s]` requests of
/// shape s in its own seeded order, each request on a seeded variant. Every
/// block has the same shape mix, and a run rarely wraps around the stream,
/// so seed-specific orderings average out over many blocks.
std::vector<StreamEntry> MakeStream(const std::vector<int>& counts,
                                    std::mt19937_64& rng) {
  std::vector<StreamEntry> stream;
  for (int b = 0; b < kBlocks; ++b) {
    const size_t start = stream.size();
    for (size_t s = 0; s < counts.size(); ++s) {
      for (int i = 0; i < counts[s]; ++i) {
        stream.push_back({static_cast<uint32_t>(s),
                          static_cast<uint32_t>(rng() % kVariantsPerShape)});
      }
    }
    std::shuffle(stream.begin() + start, stream.end(), rng);
  }
  return stream;
}

lcp::Status Finish(Workload& w, const std::vector<std::string>& texts,
                   const std::vector<int>& counts, std::mt19937_64& rng) {
  for (const std::string& text : texts) {
    LCP_ASSIGN_OR_RETURN(Shape shape, ParseShape(*w.schema, text, rng));
    w.shapes.push_back(std::move(shape));
  }
  w.block = static_cast<size_t>(std::accumulate(counts.begin(), counts.end(), 0));
  w.stream = MakeStream(counts, rng);
  LCP_ASSIGN_OR_RETURN(
      lcp::AccessibleSchema accessible,
      lcp::AccessibleSchema::Build(*w.schema,
                                   lcp::AccessibleVariant::kStandard));
  w.accessible =
      std::make_unique<lcp::AccessibleSchema>(std::move(accessible));
  return lcp::Status::Ok();
}

/// Example 1 (Profinfo behind an eid-input method, Udirect free) with a few
/// "smith" rows planted so the selective shapes have answers.
Result<Workload> MakeWarmHits(uint64_t seed) {
  Workload w;
  w.name = "warm_hits";
  LCP_ASSIGN_OR_RETURN(lcp::Scenario scenario,
                       lcp::MakeProfinfoScenario(false));
  w.schema = std::move(scenario.schema);
  lcp::GeneratorOptions gen;
  gen.seed = seed;
  gen.facts_per_relation = 128;
  gen.domain_size = 64;
  LCP_ASSIGN_OR_RETURN(lcp::Instance instance,
                       lcp::GenerateInstance(*w.schema, gen));
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  LCP_ASSIGN_OR_RETURN(lcp::RelationId profinfo,
                       w.schema->RelationByName("Profinfo"));
  LCP_ASSIGN_OR_RETURN(lcp::RelationId udirect,
                       w.schema->RelationByName("Udirect"));
  for (int i = 0; i < 8; ++i) {
    const lcp::Value eid = lcp::Value::Int(static_cast<int64_t>(rng() % 64));
    instance.AddFact(profinfo, {eid, lcp::Value::Int(static_cast<int64_t>(
                                         rng() % 64)),
                                lcp::Value::Str("smith")});
    instance.AddFact(udirect, {eid, lcp::Value::Str("smith")});
  }
  w.instance = std::make_unique<lcp::Instance>(std::move(instance));
  w.window_per_worker = 0;
  w.min_window = 16;
  LCP_RETURN_IF_ERROR(Finish(
      w,
      {"Q(eid) :- Profinfo(eid, onum, \"smith\")",
       "Q(e) :- Udirect(e, \"smith\")",
       "Q(e, o) :- Profinfo(e, o, \"smith\"), Udirect(e, \"smith\")",
       "Q(o) :- Udirect(e, \"smith\"), Profinfo(e, o, l)"},
      {256, 256, 256, 256}, rng));
  return w;
}

/// The referential chain R0 -> ... -> R4 (only R4 is free): every request
/// walks the whole chain through thousands of dependent accesses.
Result<Workload> MakeExecHeavy(uint64_t seed) {
  Workload w;
  w.name = "exec_heavy";
  LCP_ASSIGN_OR_RETURN(lcp::Scenario scenario, lcp::MakeChainScenario(4));
  w.schema = std::move(scenario.schema);
  lcp::GeneratorOptions gen;
  gen.seed = seed;
  gen.facts_per_relation = 1024;
  gen.domain_size = 1024;
  LCP_ASSIGN_OR_RETURN(lcp::Instance instance,
                       lcp::GenerateInstance(*w.schema, gen));
  w.instance = std::make_unique<lcp::Instance>(std::move(instance));
  w.window_per_worker = 1;
  w.min_window = 1;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  // Single-atom shapes: the oracle's nested-loop evaluator stays linear.
  LCP_RETURN_IF_ERROR(Finish(w,
                             {"Q(a) :- R0(a, b)", "Q(a, b) :- R0(a, b)",
                              "Q(b) :- R1(a, b)", "Q(a, b) :- R2(a, b)"},
                             {16, 16, 16, 16}, rng));
  return w;
}

/// Plan-only churn over one schema with two parts: an 8-relation method
/// lattice (3 free methods per relation, path-window queries) and a
/// multi-source Profinfo part whose searches are mostly closure chase.
Result<Workload> MakePlanChurn(uint64_t seed) {
  constexpr int kLattice = 8;
  constexpr int kMethods = 3;
  constexpr int kSources = 8;
  Workload w;
  w.name = "plan_churn";
  w.execute = false;
  w.schema = std::make_unique<Schema>();
  Schema& schema = *w.schema;
  for (int i = 0; i < kLattice; ++i) {
    LCP_ASSIGN_OR_RETURN(lcp::RelationId rel,
                         schema.AddRelation(StrCat("L", i), 2));
    for (int m = 0; m < kMethods; ++m) {
      LCP_RETURN_IF_ERROR(schema
                              .AddAccessMethod(StrCat("mt_l", i, "_", m), rel,
                                               {}, 1.0 + 0.1 * m + 0.01 * i)
                              .status());
    }
  }
  LCP_ASSIGN_OR_RETURN(lcp::RelationId profinfo,
                       schema.AddRelation("Profinfo", 3));
  LCP_RETURN_IF_ERROR(
      schema.AddAccessMethod("mt_profinfo", profinfo, {0, 2}, 1.0).status());
  for (int i = 1; i <= kSources; ++i) {
    LCP_ASSIGN_OR_RETURN(lcp::RelationId udirect,
                         schema.AddRelation(StrCat("Udirect", i), 2));
    LCP_RETURN_IF_ERROR(schema
                            .AddAccessMethod(StrCat("mt_udirect", i), udirect,
                                             {}, 1.0 + 0.125 * i)
                            .status());
    LCP_ASSIGN_OR_RETURN(
        lcp::Tgd ref,
        lcp::ParseTgd(schema,
                      StrCat("Profinfo(e, o, l) -> Udirect", i, "(e, l)")));
    ref.name = StrCat("profinfo_to_udirect", i);
    LCP_RETURN_IF_ERROR(schema.AddConstraint(std::move(ref)));
  }

  std::vector<std::string> texts;
  for (int width = 2; width <= 6; ++width) {
    for (int start = 0; start + width <= kLattice; ++start) {
      std::vector<std::string> atoms;
      for (int i = start; i < start + width; ++i) {
        atoms.push_back(StrCat("L", i, "(x", i, ", x", i + 1, ")"));
      }
      const std::string body = lcp::StrJoin(atoms, ", ");
      const int end = start + width;
      texts.push_back(StrCat("Q() :- ", body));
      texts.push_back(StrCat("Q(x", start, ") :- ", body));
      texts.push_back(StrCat("Q(x", start, ", x", end, ") :- ", body));
    }
  }
  for (const char* head : {"Q()", "Q(e)", "Q(o)", "Q(e, l)", "Q(e, o, l)"}) {
    texts.push_back(StrCat(head, " :- Profinfo(e, o, l)"));
  }
  for (int i = 1; i <= kSources; ++i) {
    for (const char* head : {"Q()", "Q(e)", "Q(o)"}) {
      texts.push_back(
          StrCat(head, " :- Profinfo(e, o, l), Udirect", i, "(e, l)"));
    }
  }

  // Zipf(1) request counts over a fixed popularity order (independent of the
  // seed, so every seed serves the same per-block mix); the seed drives the
  // order of requests and the variant each one uses.
  constexpr int kBlockLength = 2048;
  std::vector<size_t> rank(texts.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::shuffle(rank.begin(), rank.end(), std::mt19937_64(0x5eedf00d));
  double norm = 0;
  for (size_t r = 0; r < texts.size(); ++r) norm += 1.0 / (r + 1);
  std::vector<int> counts(texts.size());
  for (size_t r = 0; r < texts.size(); ++r) {
    counts[rank[r]] = std::max(
        1, static_cast<int>(std::lround(kBlockLength / (norm * (r + 1)))));
  }
  // Total capacity below the distinct-shape count, plus a periodic schema
  // refresh: misses, inserts, evictions and coalescing stay busy.
  w.cache.num_shards = 4;
  w.cache.capacity_per_shard = 12;
  w.bump_every = 1000;
  w.window_per_worker = 2;
  w.min_window = 2;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  LCP_RETURN_IF_ERROR(Finish(w, texts, counts, rng));
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "warm_hits") return MakeWarmHits(seed);
  if (name == "exec_heavy") return MakeExecHeavy(seed);
  if (name == "plan_churn") return MakePlanChurn(seed);
  return lcp::InvalidArgumentError(StrCat("unknown workload ", name));
}

}  // namespace perfbench
