// Seeded workloads of the end-to-end serving benchmark. Everything the
// service is given -- schema, instance, request stream -- is generated here
// from the workload name and the CLI seed alone.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/result.h"
#include "lcp/data/instance.h"
#include "lcp/logic/conjunctive_query.h"
#include "lcp/schema/schema.h"
#include "lcp/service/plan_cache.h"

namespace perfbench {

/// One query shape: an α-equivalence class the stream draws from. Every
/// variant is the representative with its variables bijectively renamed and
/// its atoms permuted; answer positions are preserved, so all variants share
/// one cache entry and one oracle answer.
struct Shape {
  lcp::ConjunctiveQuery query;
  std::vector<lcp::ConjunctiveQuery> variants;
};

struct StreamEntry {
  uint32_t shape = 0;
  uint32_t variant = 0;
};

struct Workload {
  std::string name;
  /// False = plan-only requests (QueryRequest::execute = false).
  bool execute = true;
  std::unique_ptr<lcp::Schema> schema;
  std::unique_ptr<lcp::AccessibleSchema> accessible;
  /// Null for plan-only workloads.
  std::unique_ptr<lcp::Instance> instance;
  std::vector<Shape> shapes;
  /// The request stream; the load generator cycles through it. It is made
  /// of blocks of `block` requests, each block holding the same number of
  /// requests per shape in its own seeded order, so means of per-shape
  /// quantities over a whole block are exact.
  std::vector<StreamEntry> stream;
  size_t block = 0;
  lcp::PlanCache::Options cache;
  /// The generator calls BumpEpoch every this many submissions; 0 = never.
  int bump_every = 0;
  /// In-flight requests kept by the closed-loop generator, per worker.
  int window_per_worker = 1;
  /// Minimum in-flight window regardless of worker count.
  int min_window = 1;
};

/// Builds `name` from `seed`: generates the schema and instance and runs
/// AccessibleSchema::Build (all of which count as set-up), and the stream.
lcp::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
