#ifndef LCP_RUNTIME_FAULTS_H_
#define LCP_RUNTIME_FAULTS_H_

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lcp/base/clock.h"
#include "lcp/runtime/source.h"

namespace lcp {

/// Fault behaviour of one access method (or the profile-wide default).
/// Rates are probabilities in [0, 1]; draws come from the wrapper's seeded
/// PRNG, so a fixed (seed, profile, access sequence) reproduces the exact
/// same fault schedule.
struct MethodFaults {
  /// Probability that an access fails transiently (kUnavailable). A retry of
  /// the same access re-rolls, so bounded retries eventually succeed with
  /// overwhelming probability for rates < 1.
  double transient_failure_rate = 0.0;
  /// Simulated service latency charged to the clock per access attempt:
  /// base plus a uniform draw in [0, jitter].
  int64_t latency_base_micros = 0;
  int64_t latency_jitter_micros = 0;
  /// Probability that a *successful* access returns only a prefix of its
  /// rows (partial result). Truncated outcomes are flagged so the executor
  /// can mark the execution degraded.
  double truncation_rate = 0.0;
  /// Fraction of rows kept when a truncation fires (floor, at least one row
  /// dropped for the outcome to count as truncated).
  double truncation_keep_fraction = 0.5;
};

/// Deterministic fault model for a whole source: per-method overrides over a
/// default, plus a set of permanently unreachable methods.
struct FaultProfile {
  MethodFaults defaults;
  std::unordered_map<AccessMethodId, MethodFaults> per_method;
  /// Methods that fail every access with kUnavailable (hard outage). Retry
  /// cannot help; circuit breakers exist to stop paying for these.
  std::unordered_set<AccessMethodId> permanent_outages;

  const MethodFaults& ForMethod(AccessMethodId method) const {
    auto it = per_method.find(method);
    return it == per_method.end() ? defaults : it->second;
  }
};

struct FaultStats {
  size_t attempts = 0;            ///< TryAccess calls seen by the wrapper.
  size_t injected_failures = 0;   ///< Transient kUnavailable injections.
  size_t outage_rejections = 0;   ///< Rejections from permanent outages.
  size_t truncations = 0;         ///< Outcomes returned truncated.
  int64_t simulated_latency_micros = 0;
};

/// Wraps a SimulatedSource with deterministic fault injection: transient
/// failures, simulated latency (charged to a pluggable Clock so virtual-time
/// tests observe it), permanent outages, and truncated results. The PRNG is
/// seeded explicitly; identical seed + profile + access sequence yields a
/// byte-identical fault schedule, which is what makes the randomized
/// fault/no-fault differential tests reproducible.
class FaultInjectingSource : public AccessSource {
 public:
  /// `base` must outlive the wrapper. `clock` may be null when the profile
  /// simulates no latency; defaults to the process SystemClock.
  FaultInjectingSource(SimulatedSource* base, FaultProfile profile,
                       uint64_t seed, Clock* clock = nullptr);

  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override;

  /// Batched access with per-binding fault accounting: one PRNG draw
  /// sequence per binding, in binding order — exactly the draws the same
  /// bindings would consume through sequential TryAccess calls, so seeded
  /// fault schedules are identical across the row and vectorized engines.
  /// Truncated answers are copied (the truncation scratch is per access);
  /// full answers point into the stable base-source index.
  void TryAccessBatch(AccessMethodId method, const std::vector<Tuple>& bindings,
                      std::vector<BatchEntryOutcome>& outcomes) override;

  const Schema& schema() const override { return base_->schema(); }
  SimulatedSource& base() { return *base_; }
  const FaultStats& stats() const { return stats_; }

  // --- outage schedule -----------------------------------------------------
  // Deterministic mid-run outages on the pluggable clock: an outage can
  // begin at a scheduled instant (FailFrom) and a permanent outage — whether
  // scheduled or listed in FaultProfile::permanent_outages — can heal at one
  // (RecoverAt). With a virtual clock this makes the quarantine / recovery-
  // probe cycle of the source-health registry fully deterministic: the
  // driver advances time past the boundary and the next access observes it.

  /// Every access to `method` at clock time >= `at_micros` fails with
  /// kUnavailable (until a scheduled recovery, if any).
  void FailFrom(AccessMethodId method, int64_t at_micros);

  /// Accesses to `method` at clock time >= `at_micros` stop failing from the
  /// outage (profile-listed or scheduled). Transient faults still apply.
  void RecoverAt(AccessMethodId method, int64_t at_micros);

 private:
  /// Uniform double in [0, 1) from the top 53 bits of the PRNG — avoids
  /// std::uniform_real_distribution, whose draw sequence is not pinned down
  /// by the standard.
  double NextUnit() {
    return static_cast<double>(prng_() >> 11) * 0x1.0p-53;
  }

  /// True iff `method` is in outage at clock time `now`, honoring the
  /// schedule above.
  bool OutageActive(AccessMethodId method, int64_t now) const;

  SimulatedSource* base_;
  FaultProfile profile_;
  std::mt19937_64 prng_;
  Clock* clock_;
  FaultStats stats_;
  std::vector<Tuple> truncated_scratch_;
  std::unordered_map<AccessMethodId, int64_t> fail_from_;
  std::unordered_map<AccessMethodId, int64_t> recover_at_;
};

}  // namespace lcp

#endif  // LCP_RUNTIME_FAULTS_H_
