#include "lcp/runtime/executor.h"

#include <algorithm>
#include <functional>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "lcp/base/check.h"
#include "lcp/base/strings.h"
#include "lcp/ra/batch.h"

namespace lcp {

namespace {

/// Retry-layer state threaded through one ExecutePlan call: the policy, the
/// clock, the jitter PRNG, per-method circuit breakers, and the absolute
/// plan deadline. Deadlines are only consulted inside access loops — that is
/// where execution time goes (source latency and backoff waits); in-memory
/// middleware commands run to completion.
struct RetryState {
  RetryState(const ExecutionOptions& options, const Schema& schema,
             ExecutionResult& result)
      : policy(options.retry),
        clock(options.clock != nullptr ? options.clock
                                       : SystemClock::Instance()),
        cancel(options.cancel),
        health(options.health),
        jitter_prng(options.retry.jitter_seed),
        result(&result) {
    if (policy.breaker_threshold > 0) {
      consecutive_failures.assign(schema.num_access_methods(), 0);
      breaker_open.assign(schema.num_access_methods(), 0);
    }
    if (policy.plan_deadline_micros >= 0) {
      plan_deadline_abs = clock->NowMicros() + policy.plan_deadline_micros;
    }
  }

  const RetryPolicy& policy;
  Clock* clock;
  const CancelToken* cancel;
  SourceHealthRegistry* health;
  std::mt19937_64 jitter_prng;
  ExecutionResult* result;
  std::vector<int> consecutive_failures;
  std::vector<char> breaker_open;
  int64_t plan_deadline_abs = -1;
};

/// Bounded exponential backoff before the retry that follows a failed
/// attempt number `failed_attempt` (1-based), with deterministic jitter.
/// Charges the clock and the stats.
void BackoffBeforeRetry(int failed_attempt, RetryState& rs) {
  const RetryPolicy& p = rs.policy;
  RetryStats& stats = rs.result->retry;
  int64_t backoff = p.initial_backoff_micros;
  for (int i = 1; i < failed_attempt && backoff < p.max_backoff_micros; ++i) {
    backoff = static_cast<int64_t>(static_cast<double>(backoff) *
                                   p.backoff_multiplier);
  }
  backoff = std::min(backoff, p.max_backoff_micros);
  if (p.jitter_fraction > 0) {
    const double unit = static_cast<double>(rs.jitter_prng() >> 11) * 0x1.0p-53;
    backoff = static_cast<int64_t>(static_cast<double>(backoff) *
                                   (1.0 - p.jitter_fraction * unit));
  }
  if (backoff > 0) {
    rs.clock->SleepMicros(backoff);
    stats.backoff_micros += backoff;
  }
  stats.backoff_schedule.push_back(backoff);
  ++stats.retries;
}

/// One logical access (one binding) with bounded-exponential-backoff retry,
/// circuit breaking, and plan-deadline enforcement. `batch_failure` is the
/// transient failure of the binding's batched first attempt: the loop then
/// resumes at attempt 2. Batched dispatch never arms a breaker.
Result<AccessOutcome> AccessWithRetry(AccessSource& source,
                                      AccessMethodId method,
                                      const Tuple& binding, RetryState& rs,
                                      const Status* batch_failure = nullptr) {
  const RetryPolicy& p = rs.policy;
  RetryStats& stats = rs.result->retry;

  if (p.breaker_threshold > 0 && rs.breaker_open[method]) {
    ++stats.breaker_short_circuits;
    return UnavailableError(StrCat("circuit breaker open for method ",
                                   source.schema().access_method(method).name));
  }

  Status last_failure = batch_failure != nullptr ? *batch_failure : Status();
  for (int attempt = batch_failure != nullptr ? 2 : 1;; ++attempt) {
    if (attempt > 1) {
      if (attempt > p.max_attempts) return last_failure;
      BackoffBeforeRetry(attempt - 1, rs);
    }
    if (rs.cancel != nullptr && rs.cancel->cancelled()) {
      return Status(rs.cancel->code(),
                    StrCat("execution cancelled before attempt ", attempt,
                           " of access to ",
                           source.schema().access_method(method).name));
    }
    if (rs.plan_deadline_abs >= 0 &&
        rs.clock->NowMicros() >= rs.plan_deadline_abs) {
      ++stats.deadline_abandons;
      return DeadlineExceededError(
          StrCat("deadline expired before attempt ", attempt,
                 " of access to ",
                 source.schema().access_method(method).name));
    }

    ++stats.attempts;
    Result<AccessOutcome> outcome = source.TryAccess(method, binding);
    if (outcome.ok()) {
      if (p.breaker_threshold > 0) rs.consecutive_failures[method] = 0;
      return outcome;
    }
    if (outcome.status().code() != StatusCode::kUnavailable) {
      // Permanent error (bad arity, internal failure): never retried.
      return outcome.status();
    }
    ++stats.failures;
    last_failure = outcome.status();

    if (p.breaker_threshold > 0 &&
        ++rs.consecutive_failures[method] >= p.breaker_threshold) {
      rs.breaker_open[method] = 1;
      ++stats.breaker_trips;
      return UnavailableError(
          StrCat("circuit breaker tripped for method ",
                 source.schema().access_method(method).name, " after ",
                 rs.consecutive_failures[method],
                 " consecutive failures; last: ", last_failure.message()));
    }
  }
}

/// Records an access binding that could not be answered (exhausted retries,
/// open breaker, or deadline). In best-effort mode the binding's rows are
/// simply missing from the output and execution continues.
bool DegradeOrFail(const Status& failure, RetryState& rs) {
  const StatusCode code = failure.code();
  // A tripped cancel token always aborts: degrading would keep walking the
  // remaining bindings of a request nobody is waiting for.
  if (rs.cancel != nullptr && rs.cancel->cancelled()) return false;
  if (!rs.policy.best_effort || (code != StatusCode::kUnavailable &&
                                 code != StatusCode::kDeadlineExceeded)) {
    return false;
  }
  rs.result->complete = false;
  ++rs.result->degraded_accesses;
  return true;
}

/// Marks a truncated outcome on the execution result.
void NoteTruncation(bool truncated, RetryState& rs) {
  if (!truncated) return;
  rs.result->complete = false;
  ++rs.result->degraded_accesses;
}

/// Feeds the final outcome of each binding of one access command to the
/// source-health registry (when tracking is on), folding every run of
/// consecutive successes into one RecordSuccess call; the run is flushed
/// before a failure is recorded and when the reporter goes out of scope.
/// Only kUnavailable counts as a source failure — deadline expiries and
/// cancellations are caller-side verdicts; permanent errors (bad arity etc.)
/// are plan bugs, not source sickness.
class HealthReporter {
 public:
  HealthReporter(AccessMethodId method, RetryState& rs)
      : method_(method), health_(rs.health) {}
  ~HealthReporter() { Flush(); }
  HealthReporter(const HealthReporter&) = delete;
  HealthReporter& operator=(const HealthReporter&) = delete;

  void Success() { ++successes_; }

  /// Reports a final status; `binding` is the probe payload on failure.
  void Report(const Status& final_status, const Tuple& binding) {
    if (final_status.ok()) {
      Success();
    } else if (final_status.code() == StatusCode::kUnavailable &&
               health_ != nullptr) {
      Flush();
      health_->RecordFailure(method_, binding);
    }
  }

 private:
  void Flush() {
    if (successes_ > 0 && health_ != nullptr) {
      health_->RecordSuccess(method_, successes_);
    }
    successes_ = 0;
  }

  AccessMethodId method_;
  SourceHealthRegistry* health_;
  uint64_t successes_ = 0;
};

/// The row engine's side of DispatchBindings: Tuple bindings answered
/// through TryAccessBatch, every answer handed to `consume` as Tuples.
class TupleBatch {
 public:
  using Consume = std::function<void(const std::vector<Tuple>& rows)>;

  TupleBatch(const std::vector<Tuple>& bindings, Consume consume)
      : bindings_(bindings), consume_(std::move(consume)) {}

  size_t size() const { return bindings_.size(); }
  const Tuple& Binding(size_t i) const { return bindings_[i]; }
  void Dispatch(AccessSource& source, AccessMethodId method) {
    source.TryAccessBatch(method, bindings_, outcomes_);
    LCP_CHECK_EQ(outcomes_.size(), bindings_.size())
        << "TryAccessBatch must answer every binding";
  }
  const Status& status(size_t i) const { return outcomes_[i].status; }
  bool truncated(size_t i) const { return outcomes_[i].truncated; }
  void ConsumeEntry(size_t i) { consume_(outcomes_[i].Rows()); }
  void ConsumeRows(const std::vector<Tuple>& rows) { consume_(rows); }

 private:
  const std::vector<Tuple>& bindings_;
  Consume consume_;
  std::vector<BatchEntryOutcome> outcomes_;
};

/// Runs every binding of one access command against the source and feeds
/// each successful answer to the batch's consumer, in binding order. This
/// is the shared dispatch layer of both engines — `Batch` is TupleBatch for
/// the row engine and CodeBatch for the vectorized one — so their source
/// access sequences (and therefore seeded fault schedules) are identical by
/// construction.
///
/// Fast path: one batched call for the whole batch of bindings; bindings
/// whose batched first attempt failed transiently continue through the
/// per-binding retry loop. With a circuit breaker armed, dispatch stays
/// per-binding (sequential AccessWithRetry) so an opened breaker keeps the
/// remaining bindings away from the source — batching an admission decision
/// would defeat it.
template <typename Batch>
Status DispatchBindings(AccessSource& source, AccessMethodId method,
                        Batch& batch, RetryState& rs) {
  const size_t n = batch.size();
  if (n == 0) return Status::Ok();
  HealthReporter health(method, rs);

  if (rs.policy.breaker_threshold > 0) {
    for (size_t i = 0; i < n; ++i) {
      const auto& binding = batch.Binding(i);
      Result<AccessOutcome> outcome =
          AccessWithRetry(source, method, binding, rs);
      health.Report(outcome.status(), binding);
      if (!outcome.ok()) {
        if (DegradeOrFail(outcome.status(), rs)) continue;
        return outcome.status();
      }
      ++rs.result->source_calls;
      NoteTruncation(outcome->truncated, rs);
      batch.ConsumeRows(*outcome->tuples);
    }
    return Status::Ok();
  }

  ++rs.result->exec.access_batches;
  rs.result->exec.access_bindings += n;
  batch.Dispatch(source, method);

  RetryStats& stats = rs.result->retry;
  for (size_t i = 0; i < n; ++i) {
    if (rs.cancel != nullptr && rs.cancel->cancelled()) {
      return Status(rs.cancel->code(),
                    StrCat("execution cancelled while consuming batched "
                           "access to ",
                           source.schema().access_method(method).name));
    }
    ++stats.attempts;
    if (rs.plan_deadline_abs >= 0 &&
        rs.clock->NowMicros() >= rs.plan_deadline_abs) {
      ++stats.deadline_abandons;
      Status expired = DeadlineExceededError(
          StrCat("deadline expired consuming batched access to ",
                 source.schema().access_method(method).name));
      if (DegradeOrFail(expired, rs)) continue;
      return expired;
    }
    const Status& status = batch.status(i);
    if (status.ok()) {
      health.Success();
      ++rs.result->source_calls;
      NoteTruncation(batch.truncated(i), rs);
      batch.ConsumeEntry(i);
      continue;
    }
    if (status.code() != StatusCode::kUnavailable) {
      // Permanent error: never retried, always aborts the plan.
      return status;
    }
    ++stats.failures;
    const auto& binding = batch.Binding(i);
    Result<AccessOutcome> retried =
        AccessWithRetry(source, method, binding, rs, &status);
    health.Report(retried.status(), binding);
    if (!retried.ok()) {
      if (DegradeOrFail(retried.status(), rs)) continue;
      return retried.status();
    }
    ++rs.result->source_calls;
    NoteTruncation(retried->truncated, rs);
    batch.ConsumeRows(*retried->tuples);
  }
  return Status::Ok();
}

/// How each input slot of an access method gets its value: a column of the
/// input expression's result, or a constant from the plan.
struct AccessInputSpec {
  int num_inputs = 0;
  std::vector<int> column_of;
  std::vector<Value> constant_of;
  std::vector<bool> is_constant;
};

/// Resolves the plan's input bindings against the method signature.
/// `attr_index` maps an input attribute name to its column (or -1).
Result<AccessInputSpec> ResolveAccessInputs(
    const AccessCommand& access, const AccessMethod& method,
    const std::function<int(const std::string&)>& attr_index) {
  AccessInputSpec spec;
  spec.num_inputs = static_cast<int>(method.input_positions.size());
  spec.column_of.assign(spec.num_inputs, -1);
  spec.constant_of.assign(spec.num_inputs, Value());
  spec.is_constant.assign(spec.num_inputs, false);

  for (const auto& [attr, pos] : access.input_binding) {
    auto it = std::find(method.input_positions.begin(),
                        method.input_positions.end(), pos);
    if (it == method.input_positions.end()) {
      return InvalidArgumentError(StrCat("plan binds position ", pos,
                                         " which is not an input of ",
                                         method.name));
    }
    int slot = static_cast<int>(it - method.input_positions.begin());
    spec.column_of[slot] = attr_index(attr);
    if (spec.column_of[slot] < 0) {
      return InvalidArgumentError(
          StrCat("input attribute ", attr, " missing for ", method.name));
    }
  }
  for (const auto& [pos, value] : access.constant_inputs) {
    auto it = std::find(method.input_positions.begin(),
                        method.input_positions.end(), pos);
    if (it == method.input_positions.end()) {
      return InvalidArgumentError(StrCat("plan binds constant to position ",
                                         pos, " which is not an input of ",
                                         method.name));
    }
    int slot = static_cast<int>(it - method.input_positions.begin());
    spec.is_constant[slot] = true;
    spec.constant_of[slot] = value;
  }
  for (int slot = 0; slot < spec.num_inputs; ++slot) {
    if (!spec.is_constant[slot] && spec.column_of[slot] < 0) {
      return InvalidArgumentError(
          StrCat("input position ", method.input_positions[slot], " of ",
                 method.name, " is unbound"));
    }
  }
  return spec;
}

/// The all-constant binding of an input-free access command (the paper's ∅
/// convention), or an error if some input slot is unbound.
Result<Tuple> ConstantOnlyBinding(const AccessInputSpec& spec,
                                  const AccessMethod& method) {
  Tuple binding(spec.num_inputs);
  for (int slot = 0; slot < spec.num_inputs; ++slot) {
    if (!spec.is_constant[slot]) {
      return InvalidArgumentError(
          StrCat("access to ", method.name,
                 " has no input expression but unbound inputs"));
    }
    binding[slot] = spec.constant_of[slot];
  }
  return binding;
}

/// True iff `tuple` passes the access command's position selections.
bool PassesPositionFilters(const AccessCommand& access, const Tuple& tuple) {
  for (const auto& [a, b] : access.position_equalities) {
    if (tuple[a] != tuple[b]) return false;
  }
  for (const auto& [pos, value] : access.position_constants) {
    if (tuple[pos] != value) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Row-oracle engine
// ---------------------------------------------------------------------------

/// Runs one access command; appends retrieved rows to env[output_table].
Status RunAccessRow(const AccessCommand& access, const Schema& schema,
                    AccessSource& source, TableEnv& env, RetryState& rs) {
  const AccessMethod& method = schema.access_method(access.method);

  Table input_table;
  if (access.input != nullptr) {
    LCP_ASSIGN_OR_RETURN(input_table, EvaluateRa(*access.input, env));
  }
  LCP_ASSIGN_OR_RETURN(
      AccessInputSpec spec,
      ResolveAccessInputs(access, method, [&](const std::string& attr) {
        return input_table.AttrIndex(attr);
      }));

  // Distinct input bindings, in first-appearance order (the canonical
  // binding order both engines share).
  std::vector<Tuple> bindings;
  if (access.input != nullptr) {
    std::unordered_set<Tuple, TupleHash> seen;
    seen.reserve(input_table.size());
    for (const Tuple& row : input_table.rows()) {
      Tuple binding(spec.num_inputs);
      for (int slot = 0; slot < spec.num_inputs; ++slot) {
        binding[slot] = spec.is_constant[slot] ? spec.constant_of[slot]
                                               : row[spec.column_of[slot]];
      }
      if (seen.insert(binding).second) bindings.push_back(std::move(binding));
    }
  } else {
    LCP_ASSIGN_OR_RETURN(Tuple binding, ConstantOnlyBinding(spec, method));
    bindings.push_back(std::move(binding));
  }

  // Output table schema.
  std::vector<std::string> out_attrs;
  out_attrs.reserve(access.output_columns.size());
  for (const auto& [attr, pos] : access.output_columns) {
    out_attrs.push_back(attr);
  }
  Table& out = env.emplace(access.output_table, Table(out_attrs)).first->second;

  TupleBatch batch(bindings, [&](const std::vector<Tuple>& rows) {
    for (const Tuple& tuple : rows) {
      if (!PassesPositionFilters(access, tuple)) continue;
      Tuple row;
      row.reserve(access.output_columns.size());
      for (const auto& [attr, pos] : access.output_columns) {
        row.push_back(tuple[pos]);
      }
      out.Insert(std::move(row));
    }
  });
  return DispatchBindings(source, access.method, batch, rs);
}

Result<ExecutionResult> ExecutePlanRow(const Plan& plan, AccessSource& source,
                                       const ExecutionOptions& options,
                                       TableEnv* final_env) {
  ExecutionResult result;
  RetryState rs(options, source.schema(), result);
  TableEnv env;
  for (const Command& cmd : plan.commands) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status(options.cancel->code(),
                    "plan execution cancelled between commands");
    }
    if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
      ++result.access_commands;
      LCP_RETURN_IF_ERROR(
          RunAccessRow(*access, source.schema(), source, env, rs));
    } else {
      const QueryCommand& query = std::get<QueryCommand>(cmd);
      LCP_ASSIGN_OR_RETURN(Table table, EvaluateRa(*query.expr, env));
      env[query.output_table] = std::move(table);
    }
  }
  auto it = env.find(plan.output_table);
  if (it == env.end()) {
    return InvalidArgumentError(
        StrCat("plan output table ", plan.output_table, " never produced"));
  }
  if (!plan.output_attrs.empty()) {
    LCP_ASSIGN_OR_RETURN(
        result.output,
        EvaluateRa(*RaExpr::Project(RaExpr::TempScan(plan.output_table),
                                    plan.output_attrs),
                   env));
  } else {
    // Boolean plan: output is the nullary projection (empty vs. non-empty).
    Table boolean{std::vector<std::string>{}};
    if (!it->second.empty()) boolean.Insert(Tuple{});
    result.output = std::move(boolean);
  }
  if (final_env != nullptr) *final_env = std::move(env);
  return result;
}

// ---------------------------------------------------------------------------
// Vectorized engine
// ---------------------------------------------------------------------------

/// Distinct access bindings in first-appearance order, deduped over term
/// codes; they stay codes across the source boundary.
Result<CodeBindings> ComputeAccessBindings(const AccessCommand& access,
                                           const AccessInputSpec& spec,
                                           const AccessMethod& method,
                                           const ColumnBatch& input_batch,
                                           TermPool& pool) {
  CodeBindings bindings;
  bindings.width = static_cast<size_t>(spec.num_inputs);
  if (access.input != nullptr) {
    std::vector<TermCode> key(spec.num_inputs, 0);
    for (int slot = 0; slot < spec.num_inputs; ++slot) {
      if (spec.is_constant[slot]) {
        key[slot] = pool.Intern(spec.constant_of[slot]);
      }
    }
    const size_t n = input_batch.num_rows();
    CodeKeySet distinct(bindings.width, n);
    for (size_t i = 0; i < n; ++i) {
      for (int slot = 0; slot < spec.num_inputs; ++slot) {
        if (spec.is_constant[slot]) continue;
        key[slot] =
            input_batch.At(static_cast<size_t>(spec.column_of[slot]), i);
      }
      distinct.Insert(key.data());
    }
    bindings.count = distinct.size();
    bindings.codes = distinct.ReleaseKeys();
  } else {
    LCP_ASSIGN_OR_RETURN(Tuple binding, ConstantOnlyBinding(spec, method));
    for (const Value& v : binding) bindings.codes.push_back(pool.Intern(v));
    bindings.count = 1;
  }
  return bindings;
}

/// True iff the access's output columns copy every position of its
/// relation, so distinct answer tuples give distinct output rows.
bool CopiesEveryPosition(const AccessCommand& access, size_t arity) {
  std::vector<char> copied(arity, 0);
  for (const auto& [attr, pos] : access.output_columns) {
    if (pos >= 0 && static_cast<size_t>(pos) < arity) copied[pos] = 1;
  }
  return std::find(copied.begin(), copied.end(), 0) == copied.end();
}

/// Stores a fresh access answer batch into the environment with set
/// semantics, appending to an existing table of the same name if the plan
/// reuses it (mirrors the row engine's insert-into-existing-table), and
/// charges the per-access exec stats. A fresh table skips the dedup pass
/// when the caller knows its rows are `distinct`.
Status StoreAccessOutput(const AccessCommand& access, ColumnBatch fresh,
                         bool distinct, BatchEnv& env, ExecStats& exec) {
  auto it = env.find(access.output_table);
  size_t dropped = 0;
  if (it == env.end()) {
    env.emplace(access.output_table,
                distinct ? std::move(fresh) : fresh.Deduplicated(&dropped));
  } else {
    // Existing rows first, new rows appended, first appearance wins.
    const ColumnBatch& existing = it->second;
    if (existing.attrs() != fresh.attrs()) {
      return InvalidArgumentError(
          StrCat("access output table ", access.output_table,
                 " reused with different attributes"));
    }
    const size_t en = existing.num_rows();
    const size_t fn = fresh.num_rows();
    std::vector<std::vector<TermCode>> cols(existing.num_attrs());
    for (size_t c = 0; c < existing.num_attrs(); ++c) {
      cols[c].reserve(en + fn);
      for (size_t i = 0; i < en; ++i) cols[c].push_back(existing.At(c, i));
      for (size_t i = 0; i < fn; ++i) cols[c].push_back(fresh.At(c, i));
    }
    it->second =
        ColumnBatch::FromDense(existing.attrs(), std::move(cols), en + fn)
            .Deduplicated(&dropped);
  }
  const ColumnBatch& stored = env.find(access.output_table)->second;
  exec.dedup_drops += dropped;
  ++exec.batches;
  exec.rows_out += stored.num_rows();
  exec.max_batch_rows = std::max(exec.max_batch_rows, stored.num_rows());
  return Status::Ok();
}

/// The vectorized engine's side of DispatchBindings: code bindings answered
/// through TryAccessCodes, every answer row filtered and projected onto the
/// access command's output columns as codes, without decoding. Answers that
/// arrive as Tuples (the adapter's, and retried ones) are interned.
///
/// Rows kept only from code-native entries are pairwise distinct when the
/// output columns copy every position: an entry's rows are distinct
/// instance tuples, distinct bindings select disjoint tuples (each carries
/// its binding), position filters keep subsets, and copying every position
/// is injective (AccessSource's contract, DESIGN.md §9).
class CodeBatch {
 public:
  CodeBatch(const AccessCommand& access, const CodeBindings& bindings,
            size_t arity, TermPool& pool)
      : access_(access),
        bindings_(bindings),
        arity_(arity),
        pool_(pool),
        columns_(access.output_columns.size()) {
    for (const auto& [pos, value] : access.position_constants) {
      // An unseen constant gets a fresh code that matches no answer code.
      position_codes_.emplace_back(pos, pool.Intern(value));
    }
  }

  size_t size() const { return bindings_.count; }
  Tuple Binding(size_t i) const {
    const TermCode* codes = bindings_.binding(i);
    Tuple binding;
    binding.reserve(bindings_.width);
    for (size_t s = 0; s < bindings_.width; ++s) {
      binding.push_back(pool_.Decode(codes[s]));
    }
    return binding;
  }
  void Dispatch(AccessSource& source, AccessMethodId method) {
    source.TryAccessCodes(method, bindings_, pool_, answers_);
    LCP_CHECK_EQ(answers_.entries.size(), bindings_.count)
        << "TryAccessCodes must answer every binding";
  }
  const Status& status(size_t i) const { return answers_.entries[i].status; }
  bool truncated(size_t i) const { return answers_.entries[i].truncated; }

  void ConsumeEntry(size_t i) {
    const CodeEntryOutcome& entry = answers_.entries[i];
    if (entry.tuples != nullptr) {
      ConsumeRows(*entry.tuples);
      return;
    }
    for (size_t r = 0; r < entry.num_rows; ++r) {
      const TermCode* row = entry.rows + r * arity_;
      if (!Passes(row)) continue;
      for (size_t k = 0; k < columns_.size(); ++k) {
        columns_[k].push_back(row[access_.output_columns[k].second]);
      }
      ++num_rows_;
    }
  }
  void ConsumeRows(const std::vector<Tuple>& rows) {
    code_native_ = false;
    for (const Tuple& tuple : rows) {
      if (!PassesPositionFilters(access_, tuple)) continue;
      for (size_t k = 0; k < columns_.size(); ++k) {
        columns_[k].push_back(
            pool_.Intern(tuple[access_.output_columns[k].second]));
      }
      ++num_rows_;
    }
  }

  /// True while every row kept came from a code-native entry.
  bool code_native() const { return code_native_; }

  /// The kept answers as a dense batch named by the output columns.
  ColumnBatch TakeOutput() {
    std::vector<std::string> attrs;
    attrs.reserve(access_.output_columns.size());
    for (const auto& [attr, pos] : access_.output_columns) {
      attrs.push_back(attr);
    }
    return ColumnBatch::FromDense(std::move(attrs), std::move(columns_),
                                  num_rows_);
  }

 private:
  /// PassesPositionFilters over codes.
  bool Passes(const TermCode* row) const {
    for (const auto& [a, b] : access_.position_equalities) {
      if (row[a] != row[b]) return false;
    }
    for (const auto& [pos, code] : position_codes_) {
      if (row[pos] != code) return false;
    }
    return true;
  }

  const AccessCommand& access_;
  const CodeBindings& bindings_;
  size_t arity_;
  TermPool& pool_;
  std::vector<std::pair<int, TermCode>> position_codes_;
  CodeBatchOutcome answers_;
  std::vector<std::vector<TermCode>> columns_;
  size_t num_rows_ = 0;
  bool code_native_ = true;
};

/// Runs one access command against the batch environment: evaluates the
/// input expression columnar, dedups bindings over term codes, dispatches
/// one batch in codes, and keeps the answers as fresh columns.
Status RunAccessVectorized(const AccessCommand& access, const Schema& schema,
                           AccessSource& source, BatchEnv& env, TermPool& pool,
                           RetryState& rs) {
  const AccessMethod& method = schema.access_method(access.method);
  ExecStats& exec = rs.result->exec;

  ColumnBatch input_batch;
  if (access.input != nullptr) {
    LCP_ASSIGN_OR_RETURN(input_batch, EvaluateAccessInputVectorized(
                                          *access.input, env, pool, &exec));
  }
  LCP_ASSIGN_OR_RETURN(
      AccessInputSpec spec,
      ResolveAccessInputs(access, method, [&](const std::string& attr) {
        return input_batch.AttrIndex(attr);
      }));
  LCP_ASSIGN_OR_RETURN(
      CodeBindings bindings,
      ComputeAccessBindings(access, spec, method, input_batch, pool));

  const size_t arity =
      static_cast<size_t>(schema.relation(method.relation).arity);
  CodeBatch batch(access, bindings, arity, pool);
  LCP_RETURN_IF_ERROR(DispatchBindings(source, access.method, batch, rs));
  const bool distinct =
      batch.code_native() && CopiesEveryPosition(access, arity);
  return StoreAccessOutput(access, batch.TakeOutput(), distinct, env, exec);
}

Result<ExecutionResult> ExecutePlanVectorized(const Plan& plan,
                                              AccessSource& source,
                                              const ExecutionOptions& options,
                                              TableEnv* final_env) {
  ExecutionResult result;
  RetryState rs(options, source.schema(), result);
  // Layered over the source's dictionary (if it has one): source codes are
  // pool codes, and only values the source lacks are interned here.
  TermPool pool(source.dictionary());
  BatchEnv env;
  for (const Command& cmd : plan.commands) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status(options.cancel->code(),
                    "plan execution cancelled between commands");
    }
    if (const auto* access = std::get_if<AccessCommand>(&cmd)) {
      ++result.access_commands;
      LCP_RETURN_IF_ERROR(RunAccessVectorized(*access, source.schema(), source,
                                              env, pool, rs));
    } else {
      const QueryCommand& query = std::get<QueryCommand>(cmd);
      LCP_ASSIGN_OR_RETURN(
          ColumnBatch batch,
          EvaluateRaVectorized(*query.expr, env, pool, &result.exec));
      env[query.output_table] = std::move(batch);
    }
  }
  auto it = env.find(plan.output_table);
  if (it == env.end()) {
    return InvalidArgumentError(
        StrCat("plan output table ", plan.output_table, " never produced"));
  }
  if (!plan.output_attrs.empty()) {
    LCP_ASSIGN_OR_RETURN(
        ColumnBatch projected,
        EvaluateRaVectorized(*RaExpr::Project(RaExpr::TempScan(
                                                  plan.output_table),
                                              plan.output_attrs),
                             env, pool, &result.exec));
    result.output = projected.ToTable(pool);
  } else {
    // Boolean plan: output is the nullary projection (empty vs. non-empty).
    Table boolean{std::vector<std::string>{}};
    if (!it->second.empty()) boolean.Insert(Tuple{});
    result.output = std::move(boolean);
  }
  if (final_env != nullptr) {
    final_env->clear();
    for (const auto& [name, batch] : env) {
      final_env->emplace(name, batch.ToTable(pool));
    }
  }
  return result;
}

}  // namespace

Result<ExecutionResult> ExecutePlan(const Plan& plan, AccessSource& source,
                                    const ExecutionOptions& options,
                                    TableEnv* final_env) {
  switch (options.engine) {
    case ExecutionEngine::kRowOracle:
      return ExecutePlanRow(plan, source, options, final_env);
    case ExecutionEngine::kVectorized:
      return ExecutePlanVectorized(plan, source, options, final_env);
  }
  return InternalError("unreachable execution engine");
}

Result<ExecutionResult> ExecutePlan(const Plan& plan, SimulatedSource& source,
                                    TableEnv* final_env) {
  return ExecutePlan(plan, static_cast<AccessSource&>(source),
                     ExecutionOptions{}, final_env);
}

}  // namespace lcp
