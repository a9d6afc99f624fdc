#include "lcp/service/snapshot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lcp/accessible/accessible_schema.h"
#include "lcp/base/crc32.h"
#include "lcp/base/file_io.h"
#include "lcp/data/generator.h"
#include "lcp/data/query_eval.h"
#include "lcp/plan/serialize.h"
#include "lcp/plan/validate.h"
#include "lcp/planner/proof_search.h"
#include "lcp/runtime/source.h"
#include "lcp/schema/parser.h"
#include "lcp/service/canonical.h"
#include "lcp/service/service.h"
#include "lcp/workload/scenarios.h"

namespace lcp {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "lcp_" + name;
}

/// A profinfo-scenario fixture plus several α-distinct parsed queries, so a
/// single schema yields a multi-entry cache to snapshot.
struct Fixture {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<AccessibleSchema> accessible;
  std::unique_ptr<SimpleCostFunction> cost;
  std::unique_ptr<Instance> instance;
  std::vector<ConjunctiveQuery> queries;

  QueryService::SourceFactory Factory() const {
    const Schema* s = schema.get();
    const Instance* inst = instance.get();
    return [s, inst] { return std::make_unique<SimulatedSource>(s, inst); };
  }
};

Fixture MakeFixture() {
  auto scenario = MakeProfinfoScenario(false);
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  Fixture fx;
  fx.schema = std::move(scenario->schema);
  fx.queries.push_back(scenario->query);
  auto accessible =
      AccessibleSchema::Build(*fx.schema, AccessibleVariant::kStandard);
  EXPECT_TRUE(accessible.ok()) << accessible.status();
  fx.accessible =
      std::make_unique<AccessibleSchema>(std::move(accessible).value());
  fx.cost = std::make_unique<SimpleCostFunction>(fx.schema.get());
  GeneratorOptions gen;
  gen.seed = 42;
  gen.facts_per_relation = 12;
  gen.domain_size = 15;
  auto instance = GenerateInstance(*fx.schema, gen);
  EXPECT_TRUE(instance.ok()) << instance.status();
  fx.instance = std::make_unique<Instance>(std::move(instance).value());
  // Distinct fingerprints over one schema (Udirect is freely accessible).
  for (const char* text : {
           "Q(e, l) :- Udirect(e, l)",
           "Q(l) :- Udirect(e, l)",
           "Q(e) :- Udirect(e, \"smith\")",
       }) {
    auto query = ParseQuery(*fx.schema, text);
    EXPECT_TRUE(query.ok()) << query.status();
    fx.queries.push_back(std::move(query).value());
  }
  return fx;
}

/// Plans `query` with an exhaustive proof search and returns the best plan.
Plan PlanFor(const Fixture& fx, const ConjunctiveQuery& query) {
  ProofSearch search(fx.accessible.get(), fx.cost.get());
  auto outcome = search.Run(query, SearchOptions{});
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->best.has_value());
  return outcome->best->plan;
}

std::set<Tuple> Rows(const QueryResponse& response) {
  return std::set<Tuple>(response.execution.output.rows().begin(),
                         response.execution.output.rows().end());
}

// ---------------------------------------------------------------------------
// Plan codec: exact round trips, structural equality, defensive decoding.
// ---------------------------------------------------------------------------

TEST(PlanCodecTest, RoundTripIsExactAcrossScenarios) {
  // Plans from several scenarios exercise every command/expression shape the
  // planner emits (free accesses, bound accesses, joins, selections over
  // constants, unions from multi-source detours).
  std::vector<Result<Scenario>> scenarios;
  scenarios.push_back(MakeProfinfoScenario(false));
  scenarios.push_back(MakeProfinfoScenario(true));
  scenarios.push_back(MakeTelephoneScenario());
  scenarios.push_back(MakeChainScenario(3));
  scenarios.push_back(MakeMultiSourceScenario(3));
  scenarios.push_back(MakeViewScenario(2));
  for (auto& scenario : scenarios) {
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    auto accessible =
        AccessibleSchema::Build(*scenario->schema, AccessibleVariant::kStandard);
    ASSERT_TRUE(accessible.ok()) << accessible.status();
    SimpleCostFunction cost(scenario->schema.get());
    ProofSearch search(&*accessible, &cost);
    auto outcome = search.Run(scenario->query, SearchOptions{});
    ASSERT_TRUE(outcome.ok()) << scenario->name << ": " << outcome.status();
    ASSERT_TRUE(outcome->best.has_value()) << scenario->name;
    const Plan& plan = outcome->best->plan;

    std::string encoded;
    EncodePlan(plan, encoded);
    Result<Plan> decoded = DecodePlan(encoded);
    ASSERT_TRUE(decoded.ok()) << scenario->name << ": " << decoded.status();
    EXPECT_TRUE(*decoded == plan) << scenario->name;
    EXPECT_EQ(PlanStructuralHash(*decoded), PlanStructuralHash(plan));

    // The decoded plan is as valid as the original.
    EXPECT_TRUE(ValidatePlan(*decoded, *scenario->schema).ok())
        << scenario->name;

    // Determinism: re-encoding the decoded plan is byte-identical.
    std::string re_encoded;
    EncodePlan(*decoded, re_encoded);
    EXPECT_EQ(re_encoded, encoded) << scenario->name;
  }
}

TEST(PlanCodecTest, StructuralEqualityDetectsDifferences) {
  Fixture fx = MakeFixture();
  Plan a = PlanFor(fx, fx.queries[0]);
  Plan b = PlanFor(fx, fx.queries[1]);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_NE(PlanStructuralHash(a), PlanStructuralHash(b));

  Plan renamed_output = a;
  renamed_output.output_table = a.output_table + "_x";
  EXPECT_FALSE(a == renamed_output);
}

TEST(PlanCodecTest, EveryTruncationFailsCleanly) {
  Fixture fx = MakeFixture();
  std::string encoded;
  EncodePlan(PlanFor(fx, fx.queries[0]), encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    Result<Plan> decoded = DecodePlan(std::string_view(encoded).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << len
                               << " decoded as a full plan";
  }
  // Trailing garbage is rejected too (framing bugs must not pass silently).
  Result<Plan> padded = DecodePlan(encoded + std::string(1, '\0'));
  EXPECT_FALSE(padded.ok());
}

// ---------------------------------------------------------------------------
// Snapshot encode/decode at the buffer level.
// ---------------------------------------------------------------------------

constexpr uint64_t kEpoch = uint64_t{1} << 32;  // Schema epoch 1, avail 0.
constexpr uint64_t kSchemaFp = 0x1234abcd5678ef00ULL;

/// Builds a cache holding one planned entry per fixture query.
void FillCache(const Fixture& fx, PlanCache& cache) {
  for (const ConjunctiveQuery& query : fx.queries) {
    Plan plan = PlanFor(fx, query);
    QueryFingerprint fp = CanonicalizeQuery(query);
    cache.Insert(fp, kEpoch, std::move(plan), 1.0);
  }
}

TEST(SnapshotTest, RoundTripRestoresEveryEntry) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  FillCache(fx, cache);
  ASSERT_EQ(cache.size(), fx.queries.size());

  SnapshotWriteStats write_stats;
  std::string snapshot =
      EncodeSnapshot(cache.Entries(), kEpoch, kSchemaFp, &write_stats);
  EXPECT_EQ(write_stats.entries_persisted, fx.queries.size());
  EXPECT_EQ(write_stats.bytes, snapshot.size());

  PlanCache restored(PlanCache::Options{});
  SnapshotLoadStats load_stats = DecodeSnapshotInto(
      snapshot, kSchemaFp, fx.accessible->base(), kEpoch, restored);
  EXPECT_TRUE(load_stats.header_ok);
  EXPECT_EQ(load_stats.entries_loaded, fx.queries.size());
  EXPECT_EQ(load_stats.entries_rejected_corrupt, 0u);
  EXPECT_EQ(load_stats.entries_rejected_stale, 0u);

  // Every restored entry is plan-identical to the original, under the same
  // recomputed fingerprint, at the caller's serving epoch.
  for (const ConjunctiveQuery& query : fx.queries) {
    QueryFingerprint fp = CanonicalizeQuery(query);
    auto original = cache.Lookup(fp, kEpoch);
    auto loaded = restored.Lookup(fp, kEpoch);
    ASSERT_NE(original, nullptr);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(original->plan == loaded->plan);
    EXPECT_EQ(original->cost, loaded->cost);
    EXPECT_EQ(loaded->epoch, kEpoch);
    EXPECT_FALSE(loaded->detour);
  }
}

TEST(SnapshotTest, DetourAndStaleEpochEntriesAreNotPersisted) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  Plan plan = PlanFor(fx, fx.queries[0]);
  QueryFingerprint fp0 = CanonicalizeQuery(fx.queries[0]);
  QueryFingerprint fp1 = CanonicalizeQuery(fx.queries[1]);
  QueryFingerprint fp2 = CanonicalizeQuery(fx.queries[2]);
  cache.Insert(fp0, kEpoch, plan, 1.0);
  cache.Insert(fp1, kEpoch, PlanFor(fx, fx.queries[1]), 1.0,
               /*detour=*/true);
  cache.Insert(fp2, kEpoch - 1, PlanFor(fx, fx.queries[2]), 1.0);

  SnapshotWriteStats stats;
  EncodeSnapshot(cache.Entries(), kEpoch, kSchemaFp, &stats);
  EXPECT_EQ(stats.entries_persisted, 1u);
  EXPECT_EQ(stats.entries_skipped_detour, 1u);
  EXPECT_EQ(stats.entries_skipped_epoch, 1u);
}

TEST(SnapshotTest, SchemaFingerprintMismatchRejectsWholeFile) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  FillCache(fx, cache);
  std::string snapshot = EncodeSnapshot(cache.Entries(), kEpoch, kSchemaFp);

  PlanCache restored(PlanCache::Options{});
  SnapshotLoadStats stats = DecodeSnapshotInto(
      snapshot, kSchemaFp + 1, fx.accessible->base(), kEpoch, restored);
  EXPECT_FALSE(stats.header_ok);
  EXPECT_EQ(stats.entries_loaded, 0u);
  EXPECT_EQ(restored.size(), 0u);
}

TEST(SnapshotTest, TornTailRecoversTheValidPrefix) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  FillCache(fx, cache);
  std::string snapshot = EncodeSnapshot(cache.Entries(), kEpoch, kSchemaFp);

  // Chop the last 3 bytes: the final frame is torn, everything before it is
  // intact — exactly what a crash mid-append (without the atomic rename)
  // would leave.
  std::string torn = snapshot.substr(0, snapshot.size() - 3);
  PlanCache restored(PlanCache::Options{});
  SnapshotLoadStats stats = DecodeSnapshotInto(
      torn, kSchemaFp, fx.accessible->base(), kEpoch, restored);
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.entries_loaded, fx.queries.size() - 1);
  EXPECT_EQ(stats.entries_rejected_corrupt, 1u);
  EXPECT_EQ(restored.size(), fx.queries.size() - 1);
}

TEST(SnapshotTest, FlippedPayloadByteSkipsOnlyThatEntry) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  FillCache(fx, cache);
  std::string snapshot = EncodeSnapshot(cache.Entries(), kEpoch, kSchemaFp);

  // Flip one bit inside the *first* frame's payload (just past the header
  // and the 8-byte frame header): CRC catches it, later frames still load.
  std::string corrupt = snapshot;
  corrupt[8 + 1 + 8 + 8 + 2] ^= 0x40;
  PlanCache restored(PlanCache::Options{});
  SnapshotLoadStats stats = DecodeSnapshotInto(
      corrupt, kSchemaFp, fx.accessible->base(), kEpoch, restored);
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.entries_rejected_corrupt, 1u);
  EXPECT_EQ(stats.entries_loaded, fx.queries.size() - 1);
}

/// Seeded corruption fuzzing: random bit flips and truncations over a valid
/// snapshot must never crash the loader (ASan/UBSan jobs make this bite),
/// never load more entries than were written, and keep the books consistent.
/// LCP_SNAPSHOT_FUZZ_ITERS scales the seed count (CI nightly boosts it).
TEST(SnapshotTest, FuzzCorruptionNeverCrashesAndNeverOverloads) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  FillCache(fx, cache);
  const std::string snapshot =
      EncodeSnapshot(cache.Entries(), kEpoch, kSchemaFp);
  const uint64_t total = fx.queries.size();

  const int iters = EnvInt("LCP_SNAPSHOT_FUZZ_ITERS", 200);
  const uint64_t base_seed =
      static_cast<uint64_t>(EnvInt("LCP_SNAPSHOT_FUZZ_SEED", 1));
  for (int iter = 0; iter < iters; ++iter) {
    std::mt19937_64 rng(base_seed + static_cast<uint64_t>(iter));
    std::string mutated = snapshot;
    // Mutation menu: truncate, flip bits, or both; occasionally splice in
    // garbage to stress frame resynchronization.
    const int mode = static_cast<int>(rng() % 4);
    if (mode == 0 || mode == 2) {
      mutated.resize(rng() % (mutated.size() + 1));
    }
    if (mode == 1 || mode == 2) {
      const int flips = 1 + static_cast<int>(rng() % 8);
      for (int f = 0; f < flips && !mutated.empty(); ++f) {
        mutated[rng() % mutated.size()] ^=
            static_cast<char>(1 << (rng() % 8));
      }
    }
    if (mode == 3 && !mutated.empty()) {
      const size_t at = rng() % mutated.size();
      const size_t len = rng() % 64;
      std::string garbage(len, '\0');
      for (char& c : garbage) c = static_cast<char>(rng());
      mutated.insert(at, garbage);
    }

    PlanCache restored(PlanCache::Options{});
    SnapshotLoadStats stats = DecodeSnapshotInto(
        mutated, kSchemaFp, fx.accessible->base(), kEpoch, restored);
    // The loader must degrade, never amplify: no more entries than written,
    // and every admitted entry really is resident.
    ASSERT_LE(stats.entries_loaded, total) << "seed " << base_seed + iter;
    ASSERT_LE(restored.size(), stats.entries_loaded)
        << "seed " << base_seed + iter;
    if (!stats.header_ok) {
      ASSERT_EQ(stats.entries_loaded, 0u) << "seed " << base_seed + iter;
    }
  }
}

// ---------------------------------------------------------------------------
// File-level: atomic writes, missing files, and service integration.
// ---------------------------------------------------------------------------

TEST(SnapshotFileTest, MissingFileIsACleanColdStart) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  SnapshotLoadStats stats =
      LoadSnapshotFile(TempPath("does_not_exist.snap"), kSchemaFp,
                       fx.accessible->base(), kEpoch, cache);
  EXPECT_FALSE(stats.found);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SnapshotFileTest, WriteThenLoadRoundTrips) {
  Fixture fx = MakeFixture();
  PlanCache cache(PlanCache::Options{});
  FillCache(fx, cache);
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, cache.Entries(), kEpoch, kSchemaFp).ok());

  PlanCache restored(PlanCache::Options{});
  SnapshotLoadStats stats = LoadSnapshotFile(path, kSchemaFp,
                                             fx.accessible->base(), kEpoch,
                                             restored);
  EXPECT_TRUE(stats.found);
  EXPECT_TRUE(stats.header_ok);
  EXPECT_EQ(stats.entries_loaded, fx.queries.size());
  std::remove(path.c_str());
}

/// The kill-restart differential test: a snapshot-warmed restart serves the
/// same workload identically to the never-restarted service — same rows,
/// zero proof searches, every request a cache hit.
TEST(SnapshotFileTest, KillRestartServesIdenticallyWithZeroSearches) {
  Fixture fx = MakeFixture();
  const std::string path = TempPath("kill_restart.snap");
  std::remove(path.c_str());

  ServiceOptions options;
  options.num_workers = 2;
  options.snapshot_path = path;

  std::vector<std::set<Tuple>> first_rows;
  {
    QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                         options);
    for (const ConjunctiveQuery& query : fx.queries) {
      QueryRequest request;
      request.query = query;
      QueryResponse response = service.Call(request);
      ASSERT_TRUE(response.status.ok()) << response.status;
      first_rows.push_back(Rows(response));
    }
    ServiceStats stats = service.SnapshotStats();
    EXPECT_EQ(stats.searches, fx.queries.size());
    service.Shutdown();  // kDrain writes the final snapshot.
    EXPECT_EQ(service.SnapshotStats().snapshots_written, 1u);
    EXPECT_EQ(service.SnapshotStats().snapshot_entries_persisted,
              fx.queries.size());
  }

  // "Kill" was the destructor; restart warm from the snapshot.
  QueryService restarted(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                         options);
  {
    ServiceStats stats = restarted.SnapshotStats();
    EXPECT_EQ(stats.snapshots_loaded, 1u);
    EXPECT_EQ(stats.snapshot_entries_loaded, fx.queries.size());
    EXPECT_EQ(stats.snapshot_entries_rejected_corrupt, 0u);
    EXPECT_EQ(stats.snapshot_entries_rejected_stale, 0u);
  }
  for (size_t i = 0; i < fx.queries.size(); ++i) {
    QueryRequest request;
    request.query = fx.queries[i];
    QueryResponse response = restarted.Call(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_TRUE(response.cache_hit) << "query " << i
                                    << " should be warmed from the snapshot";
    EXPECT_EQ(Rows(response), first_rows[i]) << "query " << i;
  }
  ServiceStats stats = restarted.SnapshotStats();
  EXPECT_EQ(stats.searches, 0u)
      << "a snapshot-warmed restart must not re-prove the working set";
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, CorruptedSnapshotDegradesToColdStartWithCounters) {
  Fixture fx = MakeFixture();
  const std::string path = TempPath("corrupt.snap");
  std::remove(path.c_str());
  ServiceOptions options;
  options.snapshot_path = path;
  {
    QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                         options);
    for (const ConjunctiveQuery& query : fx.queries) {
      QueryRequest request;
      request.query = query;
      ASSERT_TRUE(service.Call(request).status.ok());
    }
  }  // Destructor drains and writes the snapshot.

  // Corrupt the tail on disk: simulates a torn write from a crashed process
  // that bypassed the atomic-rename path (e.g. a partial copy).
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  std::string torn = data->substr(0, data->size() - 5);
  ASSERT_TRUE(AtomicWriteFile(path, torn).ok());

  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       options);
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.snapshots_loaded, 1u);
  EXPECT_EQ(stats.snapshot_entries_loaded, fx.queries.size() - 1);
  EXPECT_EQ(stats.snapshot_entries_rejected_corrupt, 1u);

  // No request errors: the lost entry just re-plans.
  for (const ConjunctiveQuery& query : fx.queries) {
    QueryRequest request;
    request.query = query;
    QueryResponse response = service.Call(request);
    EXPECT_TRUE(response.status.ok()) << response.status;
  }
  EXPECT_EQ(service.SnapshotStats().searches, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, GarbageFileIsRejectedWholeAndServiceStartsCold) {
  Fixture fx = MakeFixture();
  const std::string path = TempPath("garbage.snap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a snapshot file at all, but it is long enough";
  }
  ServiceOptions options;
  options.snapshot_path = path;
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       options);
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.snapshots_loaded, 0u);
  EXPECT_EQ(stats.snapshots_rejected, 1u);

  QueryRequest request;
  request.query = fx.queries[0];
  EXPECT_TRUE(service.Call(request).status.ok());
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, SchemaChangeInvalidatesSnapshotOnRestart) {
  Fixture fx = MakeFixture();
  const std::string path = TempPath("schema_change.snap");
  std::remove(path.c_str());
  ServiceOptions options;
  options.snapshot_path = path;
  {
    QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                         options);
    QueryRequest request;
    request.query = fx.queries[0];
    ASSERT_TRUE(service.Call(request).status.ok());
  }

  // Restart against a *different* schema (fresh fixture with an extra
  // relation): the stored fingerprint no longer matches, so the whole file
  // is rejected — plans proved under yesterday's constraints are not
  // trusted today.
  Fixture changed = MakeFixture();
  ASSERT_TRUE(changed.schema->AddRelation("Extra", 1).ok());
  auto accessible =
      AccessibleSchema::Build(*changed.schema, AccessibleVariant::kStandard);
  ASSERT_TRUE(accessible.ok()) << accessible.status();
  changed.accessible =
      std::make_unique<AccessibleSchema>(std::move(accessible).value());
  QueryService service(changed.accessible.get(), changed.cost.get(),
                       changed.Factory(), options);
  ServiceStats stats = service.SnapshotStats();
  EXPECT_EQ(stats.snapshots_loaded, 0u);
  EXPECT_EQ(stats.snapshots_rejected, 1u);
  EXPECT_EQ(service.cache().stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, IntervalSnapshotsFireOnTheVirtualClock) {
  Fixture fx = MakeFixture();
  const std::string path = TempPath("interval.snap");
  std::remove(path.c_str());
  SharedVirtualClock clock(1000);
  ServiceOptions options;
  options.num_workers = 1;
  options.clock = &clock;
  options.snapshot_path = path;
  options.snapshot_interval_micros = 1'000'000;
  QueryService service(fx.accessible.get(), fx.cost.get(), fx.Factory(),
                       options);

  QueryRequest request;
  request.query = fx.queries[0];
  ASSERT_TRUE(service.Call(request).status.ok());
  EXPECT_EQ(service.SnapshotStats().snapshots_written, 0u)
      << "interval not yet elapsed";

  clock.Advance(2'000'000);
  request.query = fx.queries[1];
  ASSERT_TRUE(service.Call(request).status.ok());
  // The worker checks for a due snapshot only after it has resolved the
  // request, so Call() can return before the write: wait for it, bounded.
  ServiceStats stats = service.SnapshotStats();
  for (int i = 0; i < 10'000 && stats.snapshots_written == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = service.SnapshotStats();
  }
  EXPECT_EQ(stats.snapshots_written, 1u)
      << "completion past the due time writes exactly one snapshot";
  EXPECT_GE(stats.snapshot_entries_persisted, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// PlanCache occupancy gauges (per-shard entries).
// ---------------------------------------------------------------------------

TEST(PlanCacheGaugesTest, EntriesTrackInsertAndEvict) {
  Fixture fx = MakeFixture();
  PlanCache::Options cache_options;
  cache_options.num_shards = 4;
  cache_options.capacity_per_shard = 8;
  PlanCache cache(cache_options);
  FillCache(fx, cache);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, fx.queries.size());
  EXPECT_EQ(stats.shard_entries.size(), 4u);
  uint64_t across_shards = 0;
  for (uint64_t n : stats.shard_entries) across_shards += n;
  EXPECT_EQ(across_shards, stats.entries);

  cache.EvictBelowEpoch(kEpoch + 1);
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
}

}  // namespace
}  // namespace lcp
