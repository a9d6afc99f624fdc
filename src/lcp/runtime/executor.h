#ifndef LCP_RUNTIME_EXECUTOR_H_
#define LCP_RUNTIME_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "lcp/base/budget.h"
#include "lcp/base/clock.h"
#include "lcp/base/result.h"
#include "lcp/plan/plan.h"
#include "lcp/ra/eval.h"
#include "lcp/ra/vector_eval.h"
#include "lcp/runtime/health.h"
#include "lcp/runtime/source.h"

namespace lcp {

/// How ExecutePlan handles source failures. All waiting goes through the
/// configured Clock, so a VirtualClock makes retry schedules both instant
/// and deterministic; jitter comes from a PRNG seeded with `jitter_seed`,
/// never from wall time.
struct RetryPolicy {
  /// Total tries per source access (1 = no retries). Only kUnavailable
  /// failures are retried; any other error is permanent and propagates.
  int max_attempts = 3;
  /// Exponential backoff before retry k (1-based): initial * multiplier^(k-1),
  /// clamped to max, then scaled by the deterministic jitter factor.
  int64_t initial_backoff_micros = 1000;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_micros = 64000;
  /// Each backoff is multiplied by a factor drawn uniformly from
  /// [1 - jitter_fraction, 1] using a PRNG seeded with jitter_seed.
  double jitter_fraction = 0.0;
  uint64_t jitter_seed = 0;
  /// Deadline for the whole plan. -1 = unlimited. Expiry surfaces
  /// kDeadlineExceeded (or a degraded result in best-effort mode).
  int64_t plan_deadline_micros = -1;
  /// Circuit breaker: after this many *consecutive* failed attempts on one
  /// method, the breaker for that method opens and further accesses to it
  /// short-circuit with kUnavailable without touching the source. 0 = off.
  int breaker_threshold = 0;
  /// Best-effort mode: an access binding that still fails after retries (or
  /// hits an open breaker / a deadline) is recorded as degraded and skipped,
  /// and execution continues; the result is marked incomplete. When false,
  /// the first such failure aborts the plan with its status.
  bool best_effort = false;
};

/// Retry-layer accounting for one ExecutePlan call.
struct RetryStats {
  size_t attempts = 0;            ///< Source attempts, including retries.
  size_t failures = 0;            ///< Attempts that returned kUnavailable.
  size_t retries = 0;             ///< Re-attempts after a transient failure.
  size_t breaker_trips = 0;       ///< Breakers that opened.
  size_t breaker_short_circuits = 0;  ///< Accesses rejected by open breakers.
  size_t deadline_abandons = 0;   ///< Accesses abandoned on a deadline.
  int64_t backoff_micros = 0;     ///< Total time spent backing off.
  /// Every backoff wait issued, in order. With a fixed policy, seed, and
  /// fault schedule this sequence is byte-identical across runs (the
  /// determinism contract; see DESIGN.md).
  std::vector<int64_t> backoff_schedule;
};

/// Which execution engine evaluates the plan's RA expressions and drives
/// access dispatch. Both engines implement identical semantics — same
/// result rows in the same canonical order, same statuses, same source
/// access sequence — which the seeded differential suite enforces
/// (tests/exec_vectorized_test.cc).
enum class ExecutionEngine {
  /// Tuple-at-a-time evaluation over attribute-named row Tables. Kept as
  /// the differential oracle for the vectorized engine.
  kRowOracle,
  /// Columnar batch evaluation: dictionary-encoded ColumnBatches, selection
  /// -vector filters, build/probe hash joins, batch dedup (DESIGN.md §9).
  kVectorized,
};

/// Execution-time knobs. Default-constructed options reproduce the historic
/// direct path: no deadlines, no breaker, and retries that never trigger on
/// an infallible source.
struct ExecutionOptions {
  RetryPolicy retry;
  /// Clock for deadlines and backoff waits; null = process SystemClock.
  Clock* clock = nullptr;
  /// Cooperative cancellation: polled before every source attempt (row
  /// engine) or batch-entry consume and retry attempt (vectorized). A
  /// tripped token aborts the plan with the token's status code (never
  /// degraded, even in best-effort mode — cancellation means the caller no
  /// longer wants the answer). Not owned; null = never cancelled.
  const CancelToken* cancel = nullptr;
  /// Engine selection; vectorized is the default, the row engine is the
  /// always-available oracle.
  ExecutionEngine engine = ExecutionEngine::kVectorized;
  /// Source-health feedback (DESIGN.md §10): when set, the executor reports
  /// the *final* outcome of every access binding — success, or failure after
  /// retry exhaustion / breaker trip / open-breaker short-circuit / failed
  /// batch entry — so the registry's quarantine state machine runs off real
  /// executor observations. Deadline expiries and cancellations are not
  /// reported: they say the caller ran out of patience, not that the source
  /// is sick. Not owned; null = no tracking (the historic default).
  SourceHealthRegistry* health = nullptr;
};

/// Outcome of running a plan against a source.
struct ExecutionResult {
  /// The content of T_fin projected to the plan's output attributes; its
  /// columns align position-wise with the query's free variables.
  Table output;
  int access_commands = 0;
  /// Per-tuple source invocations that *succeeded* (see SimulatedSource
  /// accounting for distinct pairs / charged cost).
  size_t source_calls = 0;
  /// True iff every access binding was answered in full: no access was
  /// abandoned and no outcome was truncated. When false the output is a
  /// best-effort under-approximation of the exact answer.
  bool complete = true;
  /// Access bindings whose rows are missing or truncated.
  int degraded_accesses = 0;
  RetryStats retry;
  /// Per-operator batch accounting (batches, rows in/out, probe hits,
  /// batched access dispatches). Populated by both engines for the access
  /// path; operator-level numbers are filled in by the vectorized engine.
  ExecStats exec;
};

/// Executes `plan` against `source` (§2 semantics): commands run in
/// sequence, temporary tables start empty, each access command feeds every
/// distinct input tuple of its input expression into the method, retrying
/// transient failures per `options.retry`. Distinct bindings are collected
/// in first-appearance order and dispatched as one TryAccessBatch call per
/// access command (per-binding retries continue individually); with a
/// circuit breaker armed the executor degrades to per-binding dispatch so
/// an opened breaker keeps later bindings away from the source. One call
/// runs entirely on the calling thread (DESIGN.md §9). If `final_env` is
/// non-null it receives the temporary-table environment (useful in tests).
Result<ExecutionResult> ExecutePlan(const Plan& plan, AccessSource& source,
                                    const ExecutionOptions& options,
                                    TableEnv* final_env = nullptr);

/// Historic entry point: direct execution with default options (single
/// meaningful attempt on an infallible source, no deadlines).
Result<ExecutionResult> ExecutePlan(const Plan& plan, SimulatedSource& source,
                                    TableEnv* final_env = nullptr);

}  // namespace lcp

#endif  // LCP_RUNTIME_EXECUTOR_H_
