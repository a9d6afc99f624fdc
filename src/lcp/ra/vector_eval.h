#ifndef LCP_RA_VECTOR_EVAL_H_
#define LCP_RA_VECTOR_EVAL_H_

#include <cstddef>
#include <string>
#include <unordered_map>

#include "lcp/base/result.h"
#include "lcp/ra/batch.h"
#include "lcp/ra/expr.h"

namespace lcp {

/// Per-operator batch accounting for one plan execution under the
/// vectorized engine (the sibling of RetryStats on ExecutionResult): real
/// batch sizes, probe hit rates, and dedup pressure per executed plan. The
/// service aggregates the access counters into ServiceStats, and the
/// end-to-end benchmark reports them per request.
struct ExecStats {
  size_t batches = 0;          ///< Operator output batches produced.
  size_t rows_in = 0;          ///< Rows flowing into operators.
  size_t rows_out = 0;         ///< Rows flowing out of operators.
  size_t probe_hits = 0;       ///< Hash-join probe matches.
  size_t dedup_drops = 0;      ///< Duplicates removed by batch dedup passes.
  size_t access_batches = 0;   ///< Batched source dispatches issued.
  size_t access_bindings = 0;  ///< Distinct bindings across those dispatches.
  size_t max_batch_rows = 0;   ///< Widest operator output batch observed.
};

/// The vectorized middleware environment: columnar batches by table name,
/// all encoded against one shared TermPool.
using BatchEnv = std::unordered_map<std::string, ColumnBatch>;

/// Evaluates `expr` against `env` with set semantics, columnar batch at a
/// time: selections and projections are selection-vector filters, natural
/// join is a build/probe hash join over the shared key columns, and dedup
/// is a batch hash pass. Produces the same rows in the same canonical
/// first-appearance order as the row evaluator (EvaluateRa), which is the
/// bit-identical differential contract between the two engines.
///
/// `pool` is the shared dictionary (selection constants are interned into
/// it); `stats` (optional) accumulates per-operator batch accounting.
Result<ColumnBatch> EvaluateRaVectorized(const RaExpr& expr,
                                         const BatchEnv& env, TermPool& pool,
                                         ExecStats* stats = nullptr);

/// EvaluateRaVectorized for an access command's input expression, except
/// that a root Project keeps the duplicate rows it makes: the executor
/// dedups the bindings it reads off the batch, in first-appearance order,
/// so the binding sequence is the one the deduplicated input gives.
Result<ColumnBatch> EvaluateAccessInputVectorized(const RaExpr& expr,
                                                  const BatchEnv& env,
                                                  TermPool& pool,
                                                  ExecStats* stats = nullptr);

}  // namespace lcp

#endif  // LCP_RA_VECTOR_EVAL_H_
