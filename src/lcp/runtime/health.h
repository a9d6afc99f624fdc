#ifndef LCP_RUNTIME_HEALTH_H_
#define LCP_RUNTIME_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "lcp/base/clock.h"
#include "lcp/data/instance.h"
#include "lcp/logic/ids.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// Health of one access method, as observed by the executor (see DESIGN.md
/// §10, "Source health and failover"). The state machine:
///
///   kHealthy ──(consecutive failures ≥ cap)──────────────▶ kQuarantined
///   kQuarantined ──(quarantine timer expires, one probe)─▶ kProbing
///   kProbing ──(probe succeeds)──────────────────────────▶ kHealthy
///   kProbing ──(probe fails)──(backed-off timer)─────────▶ kQuarantined
///
/// kQuarantined and kProbing methods are excluded from planning; kProbing
/// admits exactly one in-flight recovery probe.
enum class MethodHealth { kHealthy, kQuarantined, kProbing };

/// Tuning knobs of the registry. Defaults quarantine after three straight
/// failed bindings and re-probe after 100 virtual milliseconds, doubling the
/// window on every failed probe.
struct HealthOptions {
  /// Consecutive final-outcome failures that trip quarantine. Retries inside
  /// one binding do not count — only the binding's final outcome does.
  int quarantine_after_consecutive = 3;
  /// Base quarantine window on the registry clock.
  int64_t quarantine_micros = 100000;
  /// Each failed probe multiplies the next window, up to the max.
  double quarantine_backoff = 2.0;
  int64_t max_quarantine_micros = 1600000;
  /// Clock the quarantine timers run on; null = process SystemClock.
  /// Virtual clocks make the whole recovery cycle deterministic.
  Clock* clock = nullptr;
};

/// Point-in-time view of one method's health (see Snapshot()).
struct MethodHealthSnapshot {
  MethodHealth state = MethodHealth::kHealthy;
  int consecutive_failures = 0;
  /// Absolute clock time the quarantine window ends; meaningful only while
  /// kQuarantined.
  int64_t quarantined_until = 0;
  uint64_t successes = 0;
  uint64_t failures = 0;
  uint64_t probes_sent = 0;
};

/// Registry-wide counters (cumulative, lock-free snapshot).
struct HealthStats {
  uint64_t quarantines = 0;     ///< kQuarantined entries (incl. re-entries).
  uint64_t probes_sent = 0;     ///< Recovery probes admitted.
  uint64_t probes_failed = 0;   ///< Probes that sent the method back.
  uint64_t recoveries = 0;      ///< Probes that restored kHealthy.
  uint64_t epoch_bumps = 0;     ///< Availability-epoch advances.
};

/// Tracks per-access-method health across every worker of a service, fed by
/// executor outcomes (final per-binding failures: retry exhaustion, breaker
/// trips, failed TryAccessBatch entries) and consumed by the planner as an
/// exclusion mask (`SearchOptions::excluded_methods`) and by the plan cache
/// as an availability epoch.
///
/// The availability epoch advances whenever the *exclusion mask* changes —
/// a method entering quarantine or being re-admitted by a probe — so cache
/// keys of the form (fingerprint, schema epoch, availability epoch) make
/// plans routed around an outage unreachable the moment the outage heals
/// (and vice versa): the cheap primary plan wins its slot back through one
/// re-plan instead of a stop-the-world flush.
///
/// Thread model: Record*/AdmitProbe/TakeDueProbes take one mutex (the
/// registry is shared by all workers; per-method sharding is not worth it at
/// realistic method counts). availability_epoch() and IsQuarantined() are
/// lock-free reads, safe from any thread.
class SourceHealthRegistry {
 public:
  /// `schema` must outlive the registry (method ids index its table).
  SourceHealthRegistry(const Schema* schema, HealthOptions options);

  /// Records the final outcome of one access binding. `binding` (the
  /// method's input values) is captured on failure as the recovery-probe
  /// payload, so probes replay a real request that is known to have failed.
  /// While a method is kProbing, the outcome is interpreted as the probe
  /// result: success restores kHealthy (and bumps the epoch), failure
  /// re-quarantines with a backed-off window.
  ///
  /// RecordSuccess(method, n) records a run of n consecutive successes
  /// under one lock and leaves the same state as n calls of
  /// RecordSuccess(method): the executor reports per run, not per binding.
  void RecordSuccess(AccessMethodId method, uint64_t count = 1);
  void RecordFailure(AccessMethodId method, const Tuple& binding);

  /// Claims every method whose quarantine window has expired, transitioning
  /// each to kProbing, and returns (method, probe binding) pairs. The caller
  /// owns sending the probes — typically one TryAccess per pair against its
  /// private source, reported back via RecordSuccess / RecordFailure.
  /// At most one claimant gets each method per window (half-open semantics).
  struct Probe {
    AccessMethodId method = kInvalidAccessMethod;
    Tuple binding;
  };
  std::vector<Probe> TakeDueProbes();

  /// True iff the method is currently excluded from planning.
  bool IsQuarantined(AccessMethodId method) const {
    return quarantined_[static_cast<size_t>(method)].load(
               std::memory_order_acquire) != 0;
  }

  /// The current exclusion mask as a method-id list (for
  /// SearchOptions::excluded_methods). Empty when everything is serving.
  std::vector<AccessMethodId> ExcludedMethods() const;

  /// Monotone counter of exclusion-mask changes; see class comment.
  uint64_t availability_epoch() const {
    return availability_epoch_.load(std::memory_order_acquire);
  }

  /// Number of methods currently quarantined (excluded from planning).
  size_t NumQuarantined() const;

  MethodHealthSnapshot Snapshot(AccessMethodId method) const;
  HealthStats stats() const;

  const Schema& schema() const { return *schema_; }

 private:
  struct MethodState {
    MethodHealth state = MethodHealth::kHealthy;
    int consecutive_failures = 0;
    int64_t quarantined_until = 0;
    /// Current quarantine window; grows on failed probes, resets on
    /// recovery.
    int64_t window_micros = 0;
    Tuple probe_binding;
    uint64_t successes = 0;
    uint64_t failures = 0;
    uint64_t probes_sent = 0;
  };

  /// Moves `s` into quarantine (arming the timer) and updates the mask +
  /// epoch. Caller holds mutex_.
  void Quarantine(size_t index, MethodState& s, bool backoff);
  void BumpEpoch();

  const Schema* schema_;
  HealthOptions options_;
  Clock* clock_;

  mutable std::mutex mutex_;
  std::vector<MethodState> states_;

  /// Lock-free mirror of "state == kQuarantined" per method, so the serving
  /// hot path (building the exclusion mask, epoch reads) never takes the
  /// mutex.
  std::vector<std::atomic<int>> quarantined_;
  std::atomic<uint64_t> availability_epoch_{1};

  std::atomic<uint64_t> quarantines_{0};
  std::atomic<uint64_t> probes_sent_{0};
  std::atomic<uint64_t> probes_failed_{0};
  std::atomic<uint64_t> recoveries_{0};
  std::atomic<uint64_t> epoch_bumps_{0};
};

}  // namespace lcp

#endif  // LCP_RUNTIME_HEALTH_H_
