// End-to-end serving benchmark: drives QueryService on one seeded workload
// and checks every answer against a direct-evaluation oracle.
//
//   lcp_e2e --workload <warm_hits|exec_heavy|plan_churn> --seed <n>
//           --seconds <s> --trace <0|1> [--corrupt-oracle]
//           [--spans-out <csv>] [--commit <sha>]
//
// --trace 0 measures the end-to-end metrics with tracing off: a closed loop
// (one generator thread keeps a fixed window of in-flight Submits) over the
// workload's request stream for --seconds. --trace 1 is the separate traced
// run: an untraced and a decorated service run (their throughput ratio is
// the tracing overhead) and a single-threaded replay of the same stream
// through each layer's public entry point, every call timed.
//
// Prints one JSON report on the last line of stdout; perfbench/run.py turns
// it into the benchmark result.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/data/query_eval.h"
#include "lcp/plan/opt/pass_manager.h"
#include "lcp/plan/validate.h"
#include "lcp/planner/proof_search.h"
#include "lcp/runtime/executor.h"
#include "lcp/runtime/source.h"
#include "lcp/service/canonical.h"
#include "lcp/service/plan_cache.h"
#include "lcp/service/service.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using lcp::QueryResponse;
using lcp::QueryService;
using lcp::Tuple;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics helpers.

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           uint64_t samples) {
    metrics_.push_back({name, unit, value, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Decorators the benchmark hands to the service in the traced run.

/// Aggregate of every TimedSource of one run. Sources fold their counters in
/// when they are destroyed (the service destroys worker sources on join), so
/// the hot path touches no shared cache line.
struct SourceMeter {
  std::mutex mutex;
  int64_t ns = 0;
};

/// Times both access entry points of the wrapped source.
class TimedSource : public lcp::AccessSource {
 public:
  TimedSource(std::unique_ptr<lcp::AccessSource> inner, SourceMeter* meter)
      : inner_(std::move(inner)), meter_(meter) {}
  ~TimedSource() override {
    if (meter_ == nullptr) return;
    std::lock_guard<std::mutex> lock(meter_->mutex);
    meter_->ns += ns_;
  }
  TimedSource(const TimedSource&) = delete;
  TimedSource& operator=(const TimedSource&) = delete;

  lcp::Result<lcp::AccessOutcome> TryAccess(lcp::AccessMethodId method,
                                            const Tuple& inputs) override {
    const int64_t start = NowNs();
    lcp::Result<lcp::AccessOutcome> out = inner_->TryAccess(method, inputs);
    ns_ += NowNs() - start;
    return out;
  }
  void TryAccessBatch(lcp::AccessMethodId method,
                      const std::vector<Tuple>& bindings,
                      std::vector<lcp::BatchEntryOutcome>& outcomes) override {
    const int64_t start = NowNs();
    inner_->TryAccessBatch(method, bindings, outcomes);
    ns_ += NowNs() - start;
  }
  const lcp::Schema& schema() const override { return inner_->schema(); }

  int64_t ns() const { return ns_; }

 private:
  std::unique_ptr<lcp::AccessSource> inner_;
  SourceMeter* meter_;
  int64_t ns_ = 0;
};

/// Counts Cost() calls (the planner's cost-bound pruning and the optimizer's
/// per-pass re-costing both go through it).
class CountingCost : public lcp::CostFunction {
 public:
  explicit CountingCost(const lcp::CostFunction* inner) : inner_(inner) {}
  double Cost(const lcp::Plan& plan) const override {
    evals_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Cost(plan);
  }
  uint64_t evals() const { return evals_.load(std::memory_order_relaxed); }

 private:
  const lcp::CostFunction* inner_;
  mutable std::atomic<uint64_t> evals_{0};
};

// ---------------------------------------------------------------------------
// Answer oracle.

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Expected answers (direct evaluation) and expected plan costs (a direct
/// ProofSearch::Run) per shape, computed once at set-up. Used from one
/// thread at a time.
class Oracle {
 public:
  lcp::Status Prepare(const Workload& w, bool corrupt) {
    lcp::SimpleCostFunction cost(w.schema.get());
    lcp::ProofSearch search(w.accessible.get(), &cost);
    lcp::SearchOptions options;
    options.optimize_plans = true;  // As the service plans.
    for (const Shape& shape : w.shapes) {
      lcp::Result<lcp::SearchOutcome> outcome = search.Run(shape.query, options);
      if (!outcome.ok()) return outcome.status();
      if (!outcome->best.has_value() || !outcome->exhaustion.ok()) {
        return lcp::InternalError("oracle search found no optimal plan");
      }
      costs_.push_back(outcome->best->cost);
      answers_.push_back(w.instance != nullptr
                             ? Sorted(lcp::EvaluateQuery(shape.query,
                                                         *w.instance))
                             : std::vector<Tuple>{});
    }
    verified_.assign(w.shapes.size(), {});
    if (corrupt) {
      // A deliberately wrong expectation: the run must report mismatches.
      costs_[0] += 1.0;
      if (!answers_[0].empty()) {
        answers_[0].pop_back();
      } else {
        answers_[0].push_back(Tuple(w.shapes[0].query.free_variables.size(),
                                    lcp::Value::Str("corrupt")));
      }
    }
    return lcp::Status::Ok();
  }

  /// Checks a served plan: it validates against the schema (once per plan
  /// object) and costs what a direct search of its shape costs.
  bool CheckPlan(uint32_t shape, const std::shared_ptr<const lcp::CachedPlan>& plan,
                 const lcp::Schema& schema) {
    if (plan == nullptr) return Fail("OK response without a plan");
    if (std::abs(plan->cost - costs_[shape]) > 1e-9 * std::max(1.0, costs_[shape])) {
      return Fail(lcp::StrCat("shape ", shape, " served cost ", plan->cost,
                              ", direct search cost ", costs_[shape]));
    }
    if (validated_.count(plan.get()) == 0) {
      lcp::Status valid = lcp::ValidatePlan(plan->plan, schema);
      if (!valid.ok()) return Fail("served plan fails ValidatePlan: " + valid.ToString());
      validated_.emplace(plan.get(), plan);
      if (validated_.size() > 4096) {
        // Forget plans nobody else holds any more (evicted or superseded),
        // so the set stays bounded under churn.
        std::erase_if(validated_, [](const auto& e) { return e.second.use_count() == 1; });
      }
    }
    return true;
  }

  /// Compares an executed answer with the oracle as sorted row sets. Output
  /// order is deterministic per plan, so a verified output is remembered and
  /// identical later outputs skip the sort.
  bool CheckAnswer(uint32_t shape, const lcp::Table& output) {
    if (output.rows() == verified_[shape]) return true;
    if (Sorted(output.rows()) != answers_[shape]) {
      return Fail(lcp::StrCat("shape ", shape, " answer has ", output.size(),
                              " rows, oracle ", answers_[shape].size()));
    }
    verified_[shape] = output.rows();
    return true;
  }

  bool CheckResponse(const Workload& w, uint32_t shape, const QueryResponse& r) {
    if (!r.status.ok()) return Fail("status " + r.status.ToString());
    if (!CheckPlan(shape, r.plan, *w.schema)) return false;
    if (!w.execute) return true;
    if (!r.executed) return Fail("executed request came back unexecuted");
    return CheckAnswer(shape, r.execution.output);
  }

  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  bool Fail(const std::string& why) {
    if (first_mismatch_.empty()) first_mismatch_ = why;
    return false;
  }

  std::vector<double> costs_;
  std::vector<std::vector<Tuple>> answers_;
  std::vector<std::vector<Tuple>> verified_;
  std::unordered_map<const lcp::CachedPlan*, std::shared_ptr<const lcp::CachedPlan>>
      validated_;
  std::string first_mismatch_;
};

// ---------------------------------------------------------------------------
// Set-up and the closed-loop load generator.

/// A service over the workload with default options except the worker
/// count and the workload's cache size. `meter` non-null wraps every worker
/// source in a TimedSource.
std::unique_ptr<QueryService> MakeService(const Workload& w, int workers,
                                          const lcp::CostFunction* cost,
                                          SourceMeter* meter) {
  lcp::ServiceOptions options;
  options.num_workers = workers;
  options.cache = w.cache;
  QueryService::SourceFactory factory;
  if (w.execute) {
    const lcp::Schema* schema = w.schema.get();
    const lcp::Instance* instance = w.instance.get();
    factory = [schema, instance, meter]() -> std::unique_ptr<lcp::AccessSource> {
      auto source = std::make_unique<lcp::SimulatedSource>(schema, instance);
      if (meter == nullptr) return source;
      return std::make_unique<TimedSource>(std::move(source), meter);
    };
  }
  return std::make_unique<QueryService>(w.accessible.get(), cost,
                                        std::move(factory), std::move(options));
}

/// Serves every shape once, sequentially, so the cache holds one
/// deterministic plan per shape before any measurement.
lcp::Status WarmUp(QueryService& service, const Workload& w) {
  for (const Shape& shape : w.shapes) {
    lcp::QueryRequest request;
    request.query = shape.query;
    request.execute = w.execute;
    QueryResponse response = service.Call(std::move(request));
    if (!response.status.ok()) return response.status;
  }
  return lcp::Status::Ok();
}

/// One OK request of the measured window.
struct RequestSample {
  double latency_us = 0;
  double queue_us = 0;
  double plan_us = 0;
  double exec_us = 0;
};

/// Uniform fixed-size sample of a stream (Algorithm R, fixed seed). The
/// buffer is allocated up front, so the benchmark's own memory does not grow
/// with throughput and peak RSS measures the service.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(size_t capacity) : samples_(capacity) {}

  void Add(const T& sample) {
    if (seen_ < samples_.size()) {
      samples_[seen_] = sample;
    } else if (const uint64_t j = rng_() % (seen_ + 1); j < samples_.size()) {
      samples_[j] = sample;
    }
    ++seen_;
  }
  uint64_t seen() const { return seen_; }
  /// The retained samples.
  std::vector<T> Samples() const {
    return std::vector<T>(samples_.begin(),
                          samples_.begin() + std::min<uint64_t>(seen_, samples_.size()));
  }

 private:
  std::vector<T> samples_;
  uint64_t seen_ = 0;
  std::mt19937_64 rng_{0x5a3b1e};
};

std::vector<double> Column(const std::vector<RequestSample>& samples,
                           double RequestSample::*field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const RequestSample& s : samples) out.push_back(s.*field);
  return out;
}

/// Client latency minus the phases the service reports.
std::vector<double> Handoff(const std::vector<RequestSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const RequestSample& s : samples) {
    out.push_back(std::max(0.0, s.latency_us - s.queue_us - s.plan_us - s.exec_us));
  }
  return out;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// The measured window is cut into equal slices; the end-to-end figures are
/// medians over slices, so a transient stall of the shared host moves one
/// slice rather than the run.
constexpr int kSlices = 20;
/// Slices are used only when each holds enough samples for the statistic:
/// kMinSliceSamples for rates and medians, 1000 for p99 (ten beyond it).
/// Otherwise the statistic comes from the whole window.
constexpr uint64_t kMinSliceSamples = 100;

uint64_t MinSamplesFor(double q) {
  return std::max<uint64_t>(kMinSliceSamples,
                            static_cast<uint64_t>(std::ceil(10 / (1 - q))));
}

struct LoopResult {
  LoopResult() : window(size_t{1} << 16) {
    for (int i = 0; i < kSlices; ++i) slices.emplace_back(size_t{1} << 14);
  }

  /// OK requests that completed inside the measured window: all phases, and
  /// latency per slice.
  Reservoir<RequestSample> window;
  std::vector<Reservoir<double>> slices;
  uint64_t window_ok = 0;
  double window_s = 0;
  /// Every response of the loop (warm-up, window and drain).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Served plan cost and source calls of the stream's first block.
  std::vector<double> block_cost;
  std::vector<double> block_calls;
  size_t block_served = 0;
  lcp::ServiceStats before, after;

  /// OK completions per second: the median over slices when every slice
  /// has enough samples, else over the whole window.
  double Throughput() const {
    std::vector<double> rates;
    for (const Reservoir<double>& s : slices) {
      if (s.seen() < kMinSliceSamples) return window_ok / window_s;
      rates.push_back(s.seen() / (window_s / kSlices));
    }
    return Median(rates);
  }

  /// Latency percentile: the median of per-slice percentiles when every
  /// slice has enough samples, else the percentile of the whole window.
  double Latency(double q) const {
    std::vector<double> per_slice;
    for (const Reservoir<double>& s : slices) {
      if (s.seen() < MinSamplesFor(q)) {
        std::vector<double> all = Column(window.Samples(), &RequestSample::latency_us);
        return Percentile(all, q);
      }
      std::vector<double> samples = s.Samples();
      per_slice.push_back(Percentile(samples, q));
    }
    return Median(per_slice);
  }

  /// Per-shape quantities are deterministic and every block holds the same
  /// shape counts, so a mean over one whole block is exact (and the same for
  /// every seed when the quantity depends on the shape alone), however many
  /// requests the window happened to serve.
  double BlockMean(const std::vector<double>& per_index) const {
    double sum = 0;
    for (double v : per_index) sum += v;
    return Ratio(sum, static_cast<double>(block_served));
  }
};

/// Closed loop: one generator thread keeps `window` Submits in flight and
/// replaces each as soon as its future is ready. Latency runs from Submit to
/// the moment the generator sees the future ready (it polls without
/// sleeping, on its own core).
std::unique_ptr<LoopResult> RunClosedLoop(QueryService& service,
                                          const Workload& w, Oracle& oracle,
                                          int window, double warmup_s,
                                          double measure_s) {
  struct Slot {
    std::future<QueryResponse> future;
    int64_t submit_ns = 0;
    uint64_t index = 0;
    bool busy = false;
  };
  auto result = std::make_unique<LoopResult>();
  const size_t length = w.stream.size();
  result->block_cost.assign(w.block, 0);
  result->block_calls.assign(w.block, 0);
  std::vector<Slot> slots(static_cast<size_t>(window));
  uint64_t next = 0;
  auto submit = [&](Slot& slot) {
    if (w.bump_every > 0 && next > 0 && next % w.bump_every == 0) {
      service.BumpEpoch();
    }
    const StreamEntry& entry = w.stream[next % length];
    lcp::QueryRequest request;
    request.query = w.shapes[entry.shape].variants[entry.variant];
    request.execute = w.execute;
    slot.index = next++;
    slot.submit_ns = NowNs();
    slot.future = service.Submit(std::move(request)).future;
    slot.busy = true;
  };
  const int64_t begin = NowNs();
  const int64_t measure_from = begin + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t slice_ns = static_cast<int64_t>(measure_s * 1e9) / kSlices;
  const int64_t measure_to = measure_from + slice_ns * kSlices;
  bool measuring = false;
  bool measured = false;
  for (Slot& slot : slots) submit(slot);
  size_t busy = slots.size();
  while (busy > 0) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.busy ||
          slot.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        continue;
      }
      const int64_t done = NowNs();
      progressed = true;
      QueryResponse response = slot.future.get();
      slot.busy = false;
      --busy;
      const uint32_t shape = w.stream[slot.index % length].shape;
      const bool ok = oracle.CheckResponse(w, shape, response);
      ++result->attempted;
      if (!ok) ++result->failed;
      if (slot.index < w.block && ok) {
        ++result->block_served;
        // Equal-cost plans of one shape can differ in the last bits (method
        // costs summed in another command order); nano-units keep the mean
        // exact.
        result->block_cost[slot.index] = std::round(response.plan->cost * 1e9) / 1e9;
        result->block_calls[slot.index] =
            static_cast<double>(response.execution.source_calls);
      }
      if (ok && done >= measure_from && done < measure_to) {
        ++result->window_ok;
        const double latency = (done - slot.submit_ns) / 1e3;
        result->slices[(done - measure_from) / slice_ns].Add(latency);
        result->window.Add({latency, static_cast<double>(response.queue_micros),
                            static_cast<double>(response.plan_micros),
                            static_cast<double>(response.exec_micros)});
      }
      if (done < measure_to) {
        submit(slot);
        ++busy;
      }
    }
    const int64_t now = NowNs();
    if (!measuring && now >= measure_from) {
      measuring = true;
      result->before = service.SnapshotStats();
    }
    if (!measured && now >= measure_to) {
      measured = true;
      result->after = service.SnapshotStats();
    }
    if (!progressed) std::this_thread::yield();
  }
  if (!measured) result->after = service.SnapshotStats();
  result->window_s = (measure_to - measure_from) / 1e9;
  return result;
}

long PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Single-threaded traced replay.

enum Layer { kCanonical, kLookup, kSearch, kOptimize, kInsert, kExecute, kNumLayers };
const char* const kLayerNames[kNumLayers] = {"canonical", "plan_cache.lookup",
                                             "planner.search", "plan_opt.optimize",
                                             "plan_cache.insert", "runtime.execute"};

/// One timed call; `layer` kNumLayers marks the whole request, the parent of
/// every layer span with the same request id.
struct Span {
  uint32_t request;
  uint8_t layer;
  int64_t start_ns;
  int64_t duration_ns;
};

/// Work counts of the replay's first stream block. The replay is
/// single-threaded and starts from the same warmed cache, so these repeat
/// exactly for a seed.
struct ReplayCounts {
  uint64_t searches = 0;
  uint64_t optimized = 0;
  uint64_t executions = 0;
  uint64_t cost_evals = 0;
  lcp::SearchStats search;  // Summed over searches.
  uint64_t commands_removed = 0;
  double cost_saved = 0;
  uint64_t source_calls = 0, batches = 0, bindings = 0, retries = 0;
  uint64_t rows_in = 0, rows_out = 0, probe_hits = 0, dedup_drops = 0,
           max_batch_rows = 0;
};

struct ReplayResult {
  uint64_t requests = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Timings, over the whole replay.
  int64_t wall_ns = 0;
  int64_t layer_ns[kNumLayers] = {};
  uint64_t layer_calls[kNumLayers] = {};
  std::vector<double> search_us, execute_us;
  int64_t source_ns = 0;
  uint64_t nodes_expanded = 0;
  uint64_t rows_in = 0;
  ReplayCounts first_block;
  std::vector<Span> spans;
};

constexpr size_t kMaxSpans = 200000;
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;

/// Feeds the stream through CanonicalizeQuery -> PlanCache::Lookup -> (miss)
/// ProofSearch::Run with the optimizer off -> PassManager::Optimize ->
/// PlanCache::Insert -> ExecutePlan, timing every call. Runs for `seconds`
/// and at least one whole stream block. Oracle checks run outside the timed
/// region.
std::unique_ptr<ReplayResult> RunReplay(const Workload& w, Oracle& oracle,
                                        double seconds) {
  auto result = std::make_unique<ReplayResult>();
  ReplayResult& r = *result;
  lcp::SimpleCostFunction simple(w.schema.get());
  CountingCost cost(&simple);
  lcp::ProofSearch search(w.accessible.get(), &cost);
  lcp::SearchOptions search_options;  // The service's template, optimizer off.
  const lcp::plan_opt::PassManager optimizer;
  lcp::PlanCache cache(w.cache);
  std::unique_ptr<TimedSource> source;
  if (w.execute) {
    source = std::make_unique<TimedSource>(
        std::make_unique<lcp::SimulatedSource>(w.schema.get(), w.instance.get()),
        nullptr);
  }
  const lcp::ExecutionOptions exec_options;
  uint64_t epoch = 1;

  // `timed` records spans and timings; `counts` (if set) receives the work
  // counts of the request.
  auto serve = [&](const lcp::ConjunctiveQuery& query, uint32_t shape,
                   bool timed, ReplayCounts* counts) {
    int64_t t = NowNs();
    const int64_t begin = t;
    auto span = [&](Layer layer) {
      const int64_t now = NowNs();
      if (timed) {
        r.layer_ns[layer] += now - t;
        ++r.layer_calls[layer];
        if (r.spans.size() < kMaxSpans) {
          r.spans.push_back({static_cast<uint32_t>(r.requests),
                             static_cast<uint8_t>(layer), t, now - t});
        }
      }
      const int64_t start = t;
      t = now;
      return now - start;
    };
    ReplayCounts ignored;
    ReplayCounts& c = counts != nullptr ? *counts : ignored;
    bool ok = true;
    const lcp::QueryFingerprint fingerprint = lcp::CanonicalizeQuery(query);
    span(kCanonical);
    std::shared_ptr<const lcp::CachedPlan> plan = cache.Lookup(fingerprint, epoch);
    span(kLookup);
    if (plan == nullptr) {
      const uint64_t evals = cost.evals();
      lcp::Result<lcp::SearchOutcome> outcome = search.Run(query, search_options);
      const int64_t search_ns = span(kSearch);
      if (!outcome.ok() || !outcome->best.has_value()) {
        ok = false;
      } else {
        const lcp::SearchStats& s = outcome->stats;
        if (timed) {
          r.search_us.push_back(search_ns / 1e3);
          r.nodes_expanded += s.nodes_expanded;
        }
        ++c.searches;
        c.cost_evals += cost.evals() - evals;
        c.search.nodes_created += s.nodes_created;
        c.search.nodes_expanded += s.nodes_expanded;
        c.search.pruned_cost += s.pruned_cost;
        c.search.pruned_dominance += s.pruned_dominance;
        c.search.root_chase_firings += s.root_chase_firings;
        c.search.closure_firings += s.closure_firings;
        t = NowNs();
        lcp::plan_opt::OptimizeStats stats;
        lcp::Result<lcp::Plan> optimized =
            optimizer.Optimize(outcome->best->plan, *w.schema, cost, &stats);
        lcp::Plan best = optimized.ok() ? std::move(optimized).value()
                                        : std::move(outcome->best->plan);
        const double best_cost = cost.Cost(best);
        span(kOptimize);
        ++c.optimized;
        if (optimized.ok()) {
          c.commands_removed += stats.commands_before - stats.commands_after;
          c.cost_saved += stats.cost_before - stats.cost_after;
        }
        plan = cache.Insert(fingerprint, epoch, std::move(best), best_cost);
        span(kInsert);
      }
    }
    lcp::Result<lcp::ExecutionResult> run = lcp::InternalError("not executed");
    if (ok && w.execute) {
      const int64_t source_before = source->ns();
      run = lcp::ExecutePlan(plan->plan, *source, exec_options);
      const int64_t execute_ns = span(kExecute);
      if (timed) {
        r.execute_us.push_back(execute_ns / 1e3);
        r.source_ns += source->ns() - source_before;
        if (run.ok()) r.rows_in += run->exec.rows_in;
      }
    }
    if (timed) {
      const int64_t end = NowNs();
      r.wall_ns += end - begin;
      if (r.spans.size() < kMaxSpans) {
        r.spans.push_back({static_cast<uint32_t>(r.requests),
                           static_cast<uint8_t>(kNumLayers), begin, end - begin});
      }
      ++r.requests;
    }
    // Oracle checks, untimed.
    ok = ok && oracle.CheckPlan(shape, plan, *w.schema);
    if (ok && w.execute) {
      ok = run.ok() && oracle.CheckAnswer(shape, run->output);
      if (run.ok()) {
        const lcp::ExecutionResult& e = *run;
        ++c.executions;
        c.source_calls += e.source_calls;
        c.batches += e.exec.access_batches;
        c.bindings += e.exec.access_bindings;
        c.retries += e.retry.retries;
        c.rows_in += e.exec.rows_in;
        c.rows_out += e.exec.rows_out;
        c.probe_hits += e.exec.probe_hits;
        c.dedup_drops += e.exec.dedup_drops;
        c.max_batch_rows = std::max<uint64_t>(c.max_batch_rows, e.exec.max_batch_rows);
      }
    }
    ++r.attempted;
    if (!ok) ++r.failed;
  };

  // Warm the replay's cache and source the way WarmUp warms the service's.
  for (uint32_t s = 0; s < w.shapes.size(); ++s) {
    serve(w.shapes[s].query, s, /*timed=*/false, nullptr);
  }
  const size_t length = w.stream.size();
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; i < w.block || NowNs() < deadline; ++i) {
    if (w.bump_every > 0 && i > 0 && i % w.bump_every == 0) {
      ++epoch;  // Mirrors QueryService::BumpEpoch.
      cache.EvictBelowEpoch(epoch);
    }
    const StreamEntry& entry = w.stream[i % length];
    serve(w.shapes[entry.shape].variants[entry.variant], entry.shape, true,
          i < w.block ? &r.first_block : nullptr);
  }
  return result;
}

void WriteSpans(const std::string& path, const ReplayResult& r) {
  std::ofstream out(path);
  if (!out) return;
  out << "request,span,parent,start_ns,duration_ns\n";
  for (const Span& s : r.spans) {
    const bool whole = s.layer == kNumLayers;
    out << s.request << ',' << (whole ? "request" : kLayerNames[s.layer]) << ','
        << (whole ? "" : "request") << ',' << s.start_ns << ',' << s.duration_ns
        << '\n';
  }
}

// ---------------------------------------------------------------------------
// Entry point.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_oracle = false;
  std::string spans_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (flag == "--spans-out") {
      args.spans_out = v;
    } else if (flag == "--commit") {
      args.commit = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

struct Outcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> checks;
};

void AddError(Outcome& out, const std::string& what) { out.errors.push_back(what); }

void RunMeasured(const Args& args, Outcome& out, double setup_s,
                 size_t setups, Workload& w, QueryService& service,
                 Oracle& oracle, int window) {
  std::unique_ptr<LoopResult> loop =
      RunClosedLoop(service, w, oracle, window, 1.0, args.seconds);
  out.attempted += loop->attempted;
  out.failed += loop->failed;
  const uint64_t n = loop->window.seen();
  Report& rep = out.report;
  rep.Add("throughput_rps", "req/s", loop->Throughput(), n);
  rep.Add("latency_p50_us", "us", loop->Latency(0.50), n);
  rep.Add("latency_p99_us", "us", loop->Latency(0.99), n);
  rep.Add("plan_cost_mean", "cost", loop->BlockMean(loop->block_cost),
          loop->block_served);
  rep.Add("setup_s", "s", setup_s, setups);
  rep.Add("peak_rss_mb", "MB", PeakRssKb() / 1024.0, 1);
  // Printed beside the contract metrics in the human summary. Both are 0 by
  // design (error_rate everywhere, source calls on plan-only workloads), so
  // BENCHMARK.json lists them with the traced metrics instead.
  out.checks["error_rate"] = Ratio(loop->failed, loop->attempted);
  out.checks["source_calls_per_request"] = loop->BlockMean(loop->block_calls);
  out.checks["first_block_complete"] = loop->block_served == w.block ? 1 : 0;
  out.checks["window_searches"] =
      static_cast<double>(loop->after.searches - loop->before.searches);
}

void RunTraced(const Args& args, int workers, Outcome& out, Workload& w,
               Oracle& oracle, int window) {
  const double part = args.seconds / 3.0;
  Report& rep = out.report;
  lcp::SimpleCostFunction simple(w.schema.get());

  // Untraced reference run.
  double untraced_rps = 0;
  double untraced_p50 = 0;
  uint64_t untraced_searches = 0;
  {
    std::unique_ptr<QueryService> service = MakeService(w, workers, &simple, nullptr);
    lcp::Status warm = WarmUp(*service, w);
    if (!warm.ok()) return AddError(out, "warm-up: " + warm.ToString());
    std::unique_ptr<LoopResult> loop =
        RunClosedLoop(*service, w, oracle, window, 0.5, part);
    out.attempted += loop->attempted;
    out.failed += loop->failed;
    untraced_rps = loop->Throughput();
    untraced_p50 = loop->Latency(0.5);
    untraced_searches = loop->after.searches - loop->before.searches;
  }

  // Decorated service run: timing source, counting cost function.
  SourceMeter meter;
  CountingCost counting(&simple);
  std::unique_ptr<LoopResult> loop;
  {
    std::unique_ptr<QueryService> service = MakeService(w, workers, &counting, &meter);
    lcp::Status warm = WarmUp(*service, w);
    if (!warm.ok()) return AddError(out, "warm-up: " + warm.ToString());
    loop = RunClosedLoop(*service, w, oracle, window, 0.5, part);
    out.attempted += loop->attempted;
    out.failed += loop->failed;
  }
  const std::vector<RequestSample> sample = loop->window.Samples();
  const uint64_t n = loop->window.seen();
  const double traced_rps = loop->Throughput();
  rep.Add("trace_overhead", "ratio", 1.0 - Ratio(traced_rps, untraced_rps), n);
  rep.Add("service.queue_us_p50", "us", Median(Column(sample, &RequestSample::queue_us)), n);
  rep.Add("service.handoff_us_p50", "us", Median(Handoff(sample)), n);
  rep.Add("service.plan_us_p50", "us", Median(Column(sample, &RequestSample::plan_us)), n);
  rep.Add("service.exec_us_p50", "us", Median(Column(sample, &RequestSample::exec_us)), n);
  const lcp::ServiceStats& a = loop->after;
  const lcp::ServiceStats& b = loop->before;
  const double completed = static_cast<double>(a.completed - b.completed);
  rep.Add("service.searches_per_request", "count",
          Ratio(a.searches - b.searches, completed), a.completed - b.completed);
  rep.Add("service.coalesced_per_request", "count",
          Ratio(a.coalesced_followers - b.coalesced_followers, completed),
          a.completed - b.completed);
  rep.Add("service.queue_depth_high_water", "count",
          static_cast<double>(a.queue_depth_high_water), 1);
  rep.Add("service.error_rate", "ratio", Ratio(out.failed, out.attempted), out.attempted);
  const double lookups = static_cast<double>((a.cache.hits - b.cache.hits) +
                                             (a.cache.misses - b.cache.misses));
  rep.Add("plan_cache.hit_rate", "ratio", Ratio(a.cache.hits - b.cache.hits, lookups),
          static_cast<uint64_t>(lookups));
  rep.Add("plan_cache.evictions_per_request", "count",
          Ratio(a.cache.evictions - b.cache.evictions, completed),
          a.completed - b.completed);
  rep.Add("plan_cache.stale_misses_per_request", "count",
          Ratio(a.cache.stale_misses - b.cache.stale_misses, completed),
          a.completed - b.completed);
  // The decorators' own totals cover the decorated service's whole life.
  out.checks["service_source_share_of_exec"] =
      Ratio(meter.ns / 1e3, static_cast<double>(a.exec_micros));
  out.checks["service_cost_evals_per_search"] =
      Ratio(static_cast<double>(counting.evals()), static_cast<double>(a.searches));

  // Single-threaded replay.
  std::unique_ptr<ReplayResult> replay = RunReplay(w, oracle, part);
  const ReplayResult& r = *replay;
  out.attempted += r.attempted;
  out.failed += r.failed;
  if (!args.spans_out.empty()) WriteSpans(args.spans_out, r);
  auto per_call_us = [&](Layer layer) {
    return Ratio(r.layer_ns[layer] / 1e3, static_cast<double>(r.layer_calls[layer]));
  };
  auto percentile = [](std::vector<double> values, double q) {
    return Percentile(values, q);
  };
  rep.Add("canonical.us_per_query", "us", per_call_us(kCanonical), r.layer_calls[kCanonical]);
  rep.Add("plan_cache.lookup_us", "us", per_call_us(kLookup), r.layer_calls[kLookup]);
  rep.Add("plan_cache.insert_us", "us", per_call_us(kInsert), r.layer_calls[kInsert]);

  // Timings cover the whole replay; counts cover its first stream block.
  const ReplayCounts& c = r.first_block;
  const double searches = static_cast<double>(c.searches);
  const uint64_t timed_searches = r.search_us.size();
  rep.Add("planner.search_us_p50", "us", percentile(r.search_us, 0.5), timed_searches);
  rep.Add("planner.search_us_p99", "us", percentile(r.search_us, 0.99), timed_searches);
  rep.Add("planner.us_per_expanded_node", "us",
          Ratio(r.layer_ns[kSearch] / 1e3, r.nodes_expanded), r.nodes_expanded);
  rep.Add("planner.nodes_created_per_search", "count",
          Ratio(c.search.nodes_created, searches), c.searches);
  rep.Add("planner.nodes_expanded_per_search", "count",
          Ratio(c.search.nodes_expanded, searches), c.searches);
  rep.Add("planner.pruned_dominance_per_search", "count",
          Ratio(c.search.pruned_dominance, searches), c.searches);
  rep.Add("planner.pruned_cost_per_search", "count",
          Ratio(c.search.pruned_cost, searches), c.searches);
  rep.Add("planner.prune_ratio", "ratio",
          Ratio(c.search.pruned_dominance + c.search.pruned_cost, c.search.nodes_expanded),
          c.searches);
  rep.Add("planner.cost_evals_per_search", "count", Ratio(c.cost_evals, searches),
          c.searches);
  rep.Add("chase.root_firings_per_search", "count",
          Ratio(c.search.root_chase_firings, searches), c.searches);
  rep.Add("chase.closure_firings_per_search", "count",
          Ratio(c.search.closure_firings, searches), c.searches);
  rep.Add("plan_opt.us_per_plan", "us", per_call_us(kOptimize), r.layer_calls[kOptimize]);
  rep.Add("plan_opt.commands_removed_per_plan", "count",
          Ratio(c.commands_removed, c.optimized), c.optimized);
  rep.Add("plan_opt.cost_saved_per_plan", "cost", Ratio(c.cost_saved, c.optimized),
          c.optimized);

  const uint64_t timed_runs = r.execute_us.size();
  const double executions = static_cast<double>(c.executions);
  const double operator_ns = static_cast<double>(r.layer_ns[kExecute] - r.source_ns);
  rep.Add("runtime.execute_us_p50", "us", percentile(r.execute_us, 0.5), timed_runs);
  rep.Add("runtime.source_us_per_request", "us",
          Ratio(r.source_ns / 1e3, static_cast<double>(timed_runs)), timed_runs);
  rep.Add("runtime.source_share", "ratio", Ratio(r.source_ns, r.layer_ns[kExecute]),
          timed_runs);
  rep.Add("runtime.source_calls_per_request", "count", Ratio(c.source_calls, executions),
          c.executions);
  rep.Add("runtime.access_batches_per_request", "count", Ratio(c.batches, executions),
          c.executions);
  rep.Add("runtime.access_bindings_per_request", "count", Ratio(c.bindings, executions),
          c.executions);
  rep.Add("runtime.retries_per_request", "count", Ratio(c.retries, executions),
          c.executions);
  rep.Add("ra.operator_us_per_request", "us",
          Ratio(operator_ns / 1e3, static_cast<double>(timed_runs)), timed_runs);
  rep.Add("ra.ns_per_row_in", "ns", Ratio(operator_ns, r.rows_in), timed_runs);
  rep.Add("ra.rows_in_per_request", "count", Ratio(c.rows_in, executions), c.executions);
  rep.Add("ra.rows_out_per_request", "count", Ratio(c.rows_out, executions), c.executions);
  rep.Add("ra.probe_hits_per_request", "count", Ratio(c.probe_hits, executions),
          c.executions);
  rep.Add("ra.dedup_drops_per_request", "count", Ratio(c.dedup_drops, executions),
          c.executions);
  rep.Add("ra.max_batch_rows", "count", static_cast<double>(c.max_batch_rows),
          c.executions);
  int64_t covered = 0;
  for (int64_t ns : r.layer_ns) covered += ns;
  rep.Add("replay.residual_share", "ratio",
          Ratio(static_cast<double>(r.wall_ns - covered), r.wall_ns), r.requests);

  // Layer dominance: each workload loads the layer it was chosen for.
  const double planner_share = Ratio(r.layer_ns[kSearch], r.wall_ns);
  const double execute_p50 = percentile(r.execute_us, 0.5);
  const uint64_t service_searches = untraced_searches + (a.searches - b.searches);
  out.checks["untraced_rps"] = untraced_rps;
  out.checks["traced_rps"] = traced_rps;
  out.checks["replay_requests"] = static_cast<double>(r.requests);
  out.checks["replay_searches"] = static_cast<double>(r.layer_calls[kSearch]);
  out.checks["service_searches"] = static_cast<double>(service_searches);
  out.checks["planner_share_of_replay"] = planner_share;
  out.checks["execute_p50_over_latency_p50"] = Ratio(execute_p50, untraced_p50);
  bool dominance = false;
  if (w.name == "plan_churn") {
    dominance = planner_share >= 0.5;
  } else {
    dominance = r.layer_calls[kSearch] == 0 && service_searches == 0;
    if (w.name == "exec_heavy") dominance = dominance && execute_p50 >= 0.5 * untraced_p50;
  }
  out.checks["layer_dominance_ok"] = dominance ? 1 : 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lcp_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--corrupt-oracle] [--spans-out <csv>] "
                 "[--commit <sha>]\n");
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "error: benchmark binary is a %s build, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  // Service workers plus the generator thread stay within the core count.
  const int workers = std::max(1, cores - 1);

  Outcome out;
  Workload w;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<lcp::SimpleCostFunction> cost_holder;
  // Set-up is repeated (at least kMinSetups times and 0.5 s in total) and
  // its median reported; the last set-up serves the measured run.
  std::vector<double> setup_times;
  double setup_total = 0;
  while (setup_times.empty() ||
         (!args.trace && setup_times.size() < kMaxSetups &&
          (setup_times.size() < kMinSetups || setup_total < 0.5))) {
    // Tear down the previous set-up outside the timed region.
    service.reset();
    cost_holder.reset();
    w = Workload();
    const int64_t start = NowNs();
    lcp::Result<Workload> made = MakeWorkload(args.workload, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
      return 2;
    }
    w = std::move(made).value();
    cost_holder = std::make_unique<lcp::SimpleCostFunction>(w.schema.get());
    if (!args.trace) {
      service = MakeService(w, workers, cost_holder.get(), nullptr);
      lcp::Status warm = WarmUp(*service, w);
      if (!warm.ok()) AddError(out, "warm-up: " + warm.ToString());
    }
    setup_times.push_back((NowNs() - start) / 1e9);
    setup_total += setup_times.back();
  }
  const double setup_s = Percentile(setup_times, 0.5);
  const int window = std::max(w.min_window, w.window_per_worker * workers);

  Oracle oracle;
  lcp::Status prepared = oracle.Prepare(w, args.corrupt_oracle);
  if (!prepared.ok()) AddError(out, "oracle: " + prepared.ToString());

  if (out.errors.empty()) {
    if (args.trace) {
      RunTraced(args, workers, out, w, oracle, window);
    } else {
      RunMeasured(args, out, setup_s, setup_times.size(), w, *service, oracle,
                  window);
    }
  }
  service.reset();
  if (!oracle.first_mismatch().empty()) out.errors.push_back("oracle: " + oracle.first_mismatch());

  std::string json = "{\"workload\": " + JsonString(args.workload);
  json += ", \"correct\": ";
  json += out.errors.empty() && out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.report.metrics()) {
    json += first ? "" : ", ";
    first = false;
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}, \"checks\": {";
  first = true;
  for (const auto& [name, value] : out.checks) {
    json += first ? "" : ", ";
    first = false;
    json += JsonString(name) + ": " + JsonNumber(value);
  }
  json += "}, \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    json += (i ? ", " : "") + JsonString(out.errors[i]);
  }
  json += "], \"provenance\": {\"host_cores\": " + std::to_string(cores);
  json += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  json += ", \"compiler\": " + JsonString(__VERSION__);
  json += ", \"commit\": " + JsonString(args.commit);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"workers\": " + std::to_string(workers);
  json += ", \"window\": " + std::to_string(window);
  json += ", \"seconds\": " + JsonNumber(args.seconds);
  json += ", \"stream_block\": " + std::to_string(w.block);
  json += ", \"shapes\": " + std::to_string(w.shapes.size());
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
