// Tests for the source-health registry (DESIGN.md §10): the per-method state
// machine (healthy -> quarantined -> probing -> healthy), the availability
// epoch that keys the plan cache, the exclusion mask the planner consumes,
// and the registry's thread-safety contract.

#include "lcp/runtime/health.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "lcp/base/clock.h"
#include "lcp/schema/schema.h"

namespace lcp {
namespace {

Schema MakeSchema() {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2).value();
  RelationId s = schema.AddRelation("S", 2).value();
  schema.AddAccessMethod("mt_r_free", r, {}, 2.0).value();
  schema.AddAccessMethod("mt_s_by0", s, {0}, 5.0).value();
  schema.AddAccessMethod("mt_s_free", s, {}, 50.0).value();
  return schema;
}

HealthOptions FastOptions(Clock* clock) {
  HealthOptions options;
  options.quarantine_after_consecutive = 3;
  options.quarantine_micros = 1000;
  options.quarantine_backoff = 2.0;
  options.max_quarantine_micros = 4000;
  options.clock = clock;
  return options;
}

const Tuple kBinding{Value::Int(7)};

TEST(SourceHealthRegistryTest, StartsHealthyWithEmptyMask) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));

  EXPECT_TRUE(registry.ExcludedMethods().empty());
  EXPECT_EQ(registry.NumQuarantined(), 0u);
  EXPECT_EQ(registry.availability_epoch(), 1u);
  for (AccessMethodId m = 0; m < schema.num_access_methods(); ++m) {
    EXPECT_FALSE(registry.IsQuarantined(m));
    EXPECT_EQ(registry.Snapshot(m).state, MethodHealth::kHealthy);
  }
}

TEST(SourceHealthRegistryTest, ConsecutiveFailuresQuarantineAndBumpEpoch) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));

  registry.RecordFailure(1, kBinding);
  registry.RecordFailure(1, kBinding);
  EXPECT_FALSE(registry.IsQuarantined(1));
  registry.RecordFailure(1, kBinding);  // third consecutive: quarantined
  EXPECT_TRUE(registry.IsQuarantined(1));
  EXPECT_EQ(registry.Snapshot(1).state, MethodHealth::kQuarantined);
  EXPECT_EQ(registry.NumQuarantined(), 1u);
  EXPECT_EQ(registry.ExcludedMethods(), std::vector<AccessMethodId>{1});
  EXPECT_EQ(registry.availability_epoch(), 2u);
  EXPECT_EQ(registry.stats().quarantines, 1u);

  // A success interleaved between failures resets the consecutive counter.
  registry.RecordFailure(0, kBinding);
  registry.RecordFailure(0, kBinding);
  registry.RecordSuccess(0);
  registry.RecordFailure(0, kBinding);
  registry.RecordFailure(0, kBinding);
  EXPECT_FALSE(registry.IsQuarantined(0));
}

TEST(SourceHealthRegistryTest, StragglerFailuresDoNotReBumpEpoch) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));

  for (int i = 0; i < 3; ++i) registry.RecordFailure(1, kBinding);
  const uint64_t epoch = registry.availability_epoch();
  // Requests planned before the quarantine keep failing on the method; the
  // mask did not change, so the epoch (and the cache keying) must not churn.
  registry.RecordFailure(1, kBinding);
  registry.RecordFailure(1, kBinding);
  EXPECT_EQ(registry.availability_epoch(), epoch);
  EXPECT_EQ(registry.stats().quarantines, 1u);
}

TEST(SourceHealthRegistryTest, QuarantineTimerReleasesOneProbe) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));
  for (int i = 0; i < 3; ++i) registry.RecordFailure(1, kBinding);

  // Window not yet expired: nothing due.
  EXPECT_TRUE(registry.TakeDueProbes().empty());
  clock.Advance(1000);
  std::vector<SourceHealthRegistry::Probe> due = registry.TakeDueProbes();
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].method, 1);
  // The probe payload replays the last binding that actually failed.
  EXPECT_EQ(due[0].binding, kBinding);
  EXPECT_EQ(registry.Snapshot(1).state, MethodHealth::kProbing);
  // Half-open: the method stays excluded from planning while probing, and a
  // second claimant gets nothing.
  EXPECT_TRUE(registry.IsQuarantined(1));
  EXPECT_TRUE(registry.TakeDueProbes().empty());
  EXPECT_EQ(registry.stats().probes_sent, 1u);
}

TEST(SourceHealthRegistryTest, ProbeSuccessRecoversAndBumpsEpoch) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));
  for (int i = 0; i < 3; ++i) registry.RecordFailure(1, kBinding);
  clock.Advance(1000);
  ASSERT_EQ(registry.TakeDueProbes().size(), 1u);
  const uint64_t epoch = registry.availability_epoch();

  registry.RecordSuccess(1);  // interpreted as the probe result
  EXPECT_EQ(registry.Snapshot(1).state, MethodHealth::kHealthy);
  EXPECT_FALSE(registry.IsQuarantined(1));
  EXPECT_TRUE(registry.ExcludedMethods().empty());
  // Recovery changes the mask: epoch bump makes detour plans unreachable.
  EXPECT_EQ(registry.availability_epoch(), epoch + 1);
  EXPECT_EQ(registry.stats().recoveries, 1u);
  // Failure memory is reset: the next wobble starts from a clean slate.
  EXPECT_EQ(registry.Snapshot(1).consecutive_failures, 0);
}

TEST(SourceHealthRegistryTest, ProbeFailureBacksOffWithoutEpochBump) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));
  for (int i = 0; i < 3; ++i) registry.RecordFailure(1, kBinding);
  const uint64_t epoch = registry.availability_epoch();

  // First window: 1000us. Failed probe doubles it (2000), then 4000, then
  // clamps at max_quarantine_micros = 4000.
  int64_t expected_window = 1000;
  for (int round = 0; round < 4; ++round) {
    clock.Advance(expected_window);
    ASSERT_EQ(registry.TakeDueProbes().size(), 1u) << "round " << round;
    registry.RecordFailure(1, kBinding);  // probe failed
    EXPECT_EQ(registry.Snapshot(1).state, MethodHealth::kQuarantined);
    // Still excluded; the mask never changed, so the epoch must not move.
    EXPECT_EQ(registry.availability_epoch(), epoch) << "round " << round;
    expected_window = std::min<int64_t>(expected_window * 2, 4000);
    EXPECT_EQ(registry.Snapshot(1).quarantined_until,
              clock.NowMicros() + expected_window)
        << "round " << round;
  }
  EXPECT_EQ(registry.stats().probes_failed, 4u);
  EXPECT_EQ(registry.stats().probes_sent, 4u);

  // Eventually the source heals: success on the next probe recovers.
  clock.Advance(4000);
  ASSERT_EQ(registry.TakeDueProbes().size(), 1u);
  registry.RecordSuccess(1);
  EXPECT_FALSE(registry.IsQuarantined(1));
  EXPECT_EQ(registry.availability_epoch(), epoch + 1);
}

TEST(SourceHealthRegistryTest, IndependentMethodsTrackIndependently) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  SourceHealthRegistry registry(&schema, FastOptions(&clock));

  for (int i = 0; i < 3; ++i) registry.RecordFailure(0, kBinding);
  for (int i = 0; i < 3; ++i) registry.RecordFailure(2, kBinding);
  EXPECT_EQ(registry.NumQuarantined(), 2u);
  EXPECT_EQ(registry.ExcludedMethods(), (std::vector<AccessMethodId>{0, 2}));
  EXPECT_FALSE(registry.IsQuarantined(1));
  // Two independent mask changes: two epoch bumps.
  EXPECT_EQ(registry.availability_epoch(), 3u);

  clock.Advance(1000);
  EXPECT_EQ(registry.TakeDueProbes().size(), 2u);
}

/// TSan target: concurrent recorders, probers, and lock-free readers. The
/// assertions are deliberately weak — the test exists to race the mutex-held
/// state against IsQuarantined/availability_epoch readers.
TEST(SourceHealthRegistryTest, CountedSuccessEqualsRepeatedSuccesses) {
  // The executor reports a run of n consecutive successes as one
  // RecordSuccess(m, n); from every state it must leave what n single calls
  // leave.
  enum class Start { kHealthyWithFailures, kProbing, kQuarantined };
  constexpr uint64_t kRun = 5;
  auto drive = [](SourceHealthRegistry& registry, SharedVirtualClock& clock,
                  Start start) {
    switch (start) {
      case Start::kHealthyWithFailures:
        registry.RecordFailure(1, kBinding);
        registry.RecordFailure(1, kBinding);
        break;
      case Start::kProbing:
        for (int i = 0; i < 3; ++i) registry.RecordFailure(1, kBinding);
        clock.Advance(1000);
        ASSERT_EQ(registry.TakeDueProbes().size(), 1u);
        break;
      case Start::kQuarantined:
        for (int i = 0; i < 3; ++i) registry.RecordFailure(1, kBinding);
        break;
    }
  };
  for (Start start :
       {Start::kHealthyWithFailures, Start::kProbing, Start::kQuarantined}) {
    Schema schema = MakeSchema();
    SharedVirtualClock counted_clock, single_clock;
    SourceHealthRegistry counted(&schema, FastOptions(&counted_clock));
    SourceHealthRegistry single(&schema, FastOptions(&single_clock));
    drive(counted, counted_clock, start);
    drive(single, single_clock, start);
    const uint64_t epoch_before = counted.availability_epoch();
    const MethodHealth state_before = counted.Snapshot(1).state;

    counted.RecordSuccess(1, kRun);
    for (uint64_t i = 0; i < kRun; ++i) single.RecordSuccess(1);

    const int label = static_cast<int>(start);
    const MethodHealthSnapshot a = counted.Snapshot(1);
    const MethodHealthSnapshot b = single.Snapshot(1);
    EXPECT_EQ(a.state, b.state) << label;
    EXPECT_EQ(a.consecutive_failures, b.consecutive_failures) << label;
    EXPECT_EQ(a.quarantined_until, b.quarantined_until) << label;
    EXPECT_EQ(a.successes, b.successes) << label;
    EXPECT_EQ(a.failures, b.failures) << label;
    EXPECT_EQ(a.probes_sent, b.probes_sent) << label;
    EXPECT_EQ(a.successes, kRun) << label;
    EXPECT_EQ(counted.availability_epoch(), single.availability_epoch())
        << label;
    EXPECT_EQ(counted.IsQuarantined(1), single.IsQuarantined(1)) << label;
    EXPECT_EQ(counted.stats().recoveries, single.stats().recoveries) << label;
    EXPECT_EQ(counted.stats().epoch_bumps, single.stats().epoch_bumps)
        << label;
    switch (start) {
      case Start::kHealthyWithFailures:
        EXPECT_EQ(a.state, MethodHealth::kHealthy);
        EXPECT_EQ(a.consecutive_failures, 0);
        EXPECT_EQ(counted.availability_epoch(), epoch_before);
        break;
      case Start::kProbing:
        // Exactly one recovery and one epoch bump for the whole run.
        EXPECT_EQ(a.state, MethodHealth::kHealthy);
        EXPECT_EQ(counted.stats().recoveries, 1u);
        EXPECT_EQ(counted.availability_epoch(), epoch_before + 1);
        break;
      case Start::kQuarantined:
        // Straggler successes change neither the state nor the mask.
        EXPECT_EQ(a.state, state_before);
        EXPECT_EQ(a.state, MethodHealth::kQuarantined);
        EXPECT_TRUE(counted.IsQuarantined(1));
        EXPECT_EQ(counted.availability_epoch(), epoch_before);
        break;
    }
  }
}

TEST(SourceHealthRegistryTest, ConcurrentRecordersAndReadersAreSafe) {
  Schema schema = MakeSchema();
  SharedVirtualClock clock;
  HealthOptions options = FastOptions(&clock);
  options.quarantine_after_consecutive = 2;
  SourceHealthRegistry registry(&schema, options);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 500; ++i) {
        AccessMethodId m = static_cast<AccessMethodId>((t + i) % 3);
        if ((i + t) % 3 == 0) {
          registry.RecordSuccess(m);
        } else {
          registry.RecordFailure(m, kBinding);
        }
        (void)registry.IsQuarantined(m);
        (void)registry.availability_epoch();
        if (i % 50 == 0) {
          (void)registry.ExcludedMethods();
          (void)registry.TakeDueProbes();
        }
      }
    });
  }
  threads.emplace_back([&clock] {
    for (int i = 0; i < 200; ++i) clock.Advance(37);
  });
  for (std::thread& thread : threads) thread.join();

  // Conservation: every probe resolves as failed, recovered, or in flight.
  HealthStats stats = registry.stats();
  EXPECT_LE(stats.probes_failed + stats.recoveries, stats.probes_sent + 1);
  uint64_t recorded = 0;
  for (AccessMethodId m = 0; m < 3; ++m) {
    MethodHealthSnapshot snapshot = registry.Snapshot(m);
    recorded += snapshot.successes + snapshot.failures;
  }
  EXPECT_EQ(recorded, 4u * 500u);  // no record was lost or double-counted
}

}  // namespace
}  // namespace lcp
