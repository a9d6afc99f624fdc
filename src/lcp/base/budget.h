#ifndef LCP_BASE_BUDGET_H_
#define LCP_BASE_BUDGET_H_

#include <atomic>
#include <cstdint>

#include "lcp/base/clock.h"
#include "lcp/base/status.h"

namespace lcp {

/// A thread-safe, latching cancellation flag: Cancel() may be called from
/// any thread (a service's Cancel(ticket) or abort shutdown); the owning
/// planning/execution thread observes it through Budget::Check and the
/// executor's access loop at their natural poll points. The first Cancel
/// wins and fixes the status code reported to the worker (kCancelled for a
/// caller cancellation, kUnavailable for an abort shutdown, ...); later
/// calls are no-ops.
class CancelToken {
 public:
  void Cancel(StatusCode code = StatusCode::kCancelled) {
    int expected = 0;
    code_.compare_exchange_strong(expected, static_cast<int>(code),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire);
  }
  bool cancelled() const {
    return code_.load(std::memory_order_acquire) != 0;
  }
  /// kOk while not cancelled; the first Cancel's code afterwards.
  StatusCode code() const {
    return static_cast<StatusCode>(code_.load(std::memory_order_acquire));
  }

 private:
  std::atomic<int> code_{0};
};

/// A cooperative planning budget: an optional wall-clock deadline (on a
/// pluggable Clock, so tests run in virtual time) plus an optional
/// cross-thread CancelToken. One Budget instance is shared by a whole
/// planning episode — the proof search and every chase closure it runs poll
/// the same budget. Work caps live with the work: SearchOptions::max_nodes
/// bounds search nodes and ChaseOptions::max_firings bounds chase firings.
///
/// Exhaustion is *latched*: the first failing Check fixes the returned
/// status, and every later call returns the same status. Callers poll at
/// their natural cancellation points and wind down when a non-OK status
/// appears; anytime callers (ProofSearch) convert kDeadlineExceeded into a
/// best-effort result instead of an error.
///
/// Thread model: a Budget belongs to the one thread that runs its planning
/// episode. The attached CancelToken is the cross-thread handle.
class Budget {
 public:
  /// Unlimited budget: every check passes.
  Budget() = default;

  /// Arms the deadline at `clock->NowMicros() + budget_micros`. A negative
  /// budget means "already expired" (useful in tests).
  void SetDeadline(Clock* clock, int64_t budget_micros);

  /// Attaches a cross-thread cancellation token: every Check polls it, and a
  /// tripped token latches as the exhaustion status (with the token's code).
  /// This is how another thread cancels a planning episode in flight. Not
  /// owned; must outlive the budget's use.
  void set_cancel_token(const CancelToken* token) { cancel_token_ = token; }

  /// Polls the cancel token and the deadline. The cheap fast path for inner
  /// loops: when no deadline is armed this is one atomic load, no clock
  /// read; once latched it reads nothing.
  Status Check();

  bool exhausted() const { return !exhaustion_.ok(); }
  /// The latched exhaustion status; OK while the budget has room. Stable
  /// (never changes again) once exhausted() has returned true.
  const Status& exhaustion() const { return exhaustion_; }

 private:
  Clock* clock_ = nullptr;
  const CancelToken* cancel_token_ = nullptr;
  int64_t deadline_micros_ = -1;  ///< Absolute; -1 = no deadline.
  /// The first failing Check's status; OK until then.
  Status exhaustion_;
};

}  // namespace lcp

#endif  // LCP_BASE_BUDGET_H_
