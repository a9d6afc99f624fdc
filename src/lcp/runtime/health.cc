#include "lcp/runtime/health.h"

#include <algorithm>
#include <utility>

#include "lcp/base/check.h"

namespace lcp {

SourceHealthRegistry::SourceHealthRegistry(const Schema* schema,
                                           HealthOptions options)
    : schema_(schema),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SystemClock::Instance()),
      states_(static_cast<size_t>(schema->num_access_methods())),
      quarantined_(static_cast<size_t>(schema->num_access_methods())) {
  LCP_CHECK(schema != nullptr);
  for (auto& flag : quarantined_) flag.store(0, std::memory_order_relaxed);
  if (options_.quarantine_after_consecutive < 1) {
    options_.quarantine_after_consecutive = 1;
  }
  if (options_.quarantine_micros < 1) options_.quarantine_micros = 1;
  if (options_.max_quarantine_micros < options_.quarantine_micros) {
    options_.max_quarantine_micros = options_.quarantine_micros;
  }
  if (options_.quarantine_backoff < 1.0) options_.quarantine_backoff = 1.0;
}

void SourceHealthRegistry::BumpEpoch() {
  availability_epoch_.fetch_add(1, std::memory_order_acq_rel);
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
}

void SourceHealthRegistry::Quarantine(size_t index, MethodState& s,
                                      bool backoff) {
  if (backoff) {
    s.window_micros = std::min(
        static_cast<int64_t>(static_cast<double>(s.window_micros) *
                             options_.quarantine_backoff),
        options_.max_quarantine_micros);
  } else {
    s.window_micros = options_.quarantine_micros;
  }
  s.quarantined_until = clock_->NowMicros() + s.window_micros;
  const bool was_excluded = s.state == MethodHealth::kQuarantined ||
                            s.state == MethodHealth::kProbing;
  s.state = MethodHealth::kQuarantined;
  quarantined_[index].store(1, std::memory_order_release);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  // A probe failure keeps the method excluded (probing methods stay out of
  // plans); only a fresh healthy -> quarantined transition changes the
  // mask.
  if (!was_excluded) BumpEpoch();
}

void SourceHealthRegistry::RecordSuccess(AccessMethodId method,
                                         uint64_t count) {
  const size_t index = static_cast<size_t>(method);
  LCP_CHECK(index < states_.size());
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  MethodState& s = states_[index];
  s.successes += count;
  s.consecutive_failures = 0;
  switch (s.state) {
    case MethodHealth::kProbing:
      // Probe answered: the source is back. Reset the backoff window so the
      // next wobble starts from a clean slate, re-admit the method, and
      // advance the epoch so stale detour plans fall out of the cache. The
      // rest of a run finds the method healthy, where a success only counts.
      s.state = MethodHealth::kHealthy;
      s.window_micros = 0;
      quarantined_[index].store(0, std::memory_order_release);
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      BumpEpoch();
      break;
    case MethodHealth::kQuarantined:
      // A straggler success from a request planned before the quarantine —
      // informative but not a probe; the timer decides re-admission.
      break;
    case MethodHealth::kHealthy:
      break;
  }
}

void SourceHealthRegistry::RecordFailure(AccessMethodId method,
                                         const Tuple& binding) {
  const size_t index = static_cast<size_t>(method);
  LCP_CHECK(index < states_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  MethodState& s = states_[index];
  ++s.failures;
  ++s.consecutive_failures;
  s.probe_binding = binding;
  switch (s.state) {
    case MethodHealth::kProbing:
      // The recovery probe itself failed: back off and wait longer.
      probes_failed_.fetch_add(1, std::memory_order_relaxed);
      Quarantine(index, s, /*backoff=*/true);
      break;
    case MethodHealth::kHealthy:
      if (s.consecutive_failures >= options_.quarantine_after_consecutive) {
        Quarantine(index, s, /*backoff=*/false);
      }
      break;
    case MethodHealth::kQuarantined:
      // Straggler failure from a pre-quarantine plan; already excluded.
      break;
  }
}

std::vector<SourceHealthRegistry::Probe>
SourceHealthRegistry::TakeDueProbes() {
  std::vector<Probe> due;
  const int64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < states_.size(); ++i) {
    MethodState& s = states_[i];
    if (s.state != MethodHealth::kQuarantined) continue;
    if (now < s.quarantined_until) continue;
    s.state = MethodHealth::kProbing;
    ++s.probes_sent;
    probes_sent_.fetch_add(1, std::memory_order_relaxed);
    due.push_back(Probe{static_cast<AccessMethodId>(i), s.probe_binding});
  }
  return due;
}

std::vector<AccessMethodId> SourceHealthRegistry::ExcludedMethods() const {
  std::vector<AccessMethodId> excluded;
  for (size_t i = 0; i < quarantined_.size(); ++i) {
    if (quarantined_[i].load(std::memory_order_acquire) != 0) {
      excluded.push_back(static_cast<AccessMethodId>(i));
    }
  }
  return excluded;
}

size_t SourceHealthRegistry::NumQuarantined() const {
  size_t count = 0;
  for (const auto& flag : quarantined_) {
    if (flag.load(std::memory_order_acquire) != 0) ++count;
  }
  return count;
}

MethodHealthSnapshot SourceHealthRegistry::Snapshot(
    AccessMethodId method) const {
  const size_t index = static_cast<size_t>(method);
  LCP_CHECK(index < states_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  const MethodState& s = states_[index];
  MethodHealthSnapshot snapshot;
  snapshot.state = s.state;
  snapshot.consecutive_failures = s.consecutive_failures;
  snapshot.quarantined_until = s.quarantined_until;
  snapshot.successes = s.successes;
  snapshot.failures = s.failures;
  snapshot.probes_sent = s.probes_sent;
  return snapshot;
}

HealthStats SourceHealthRegistry::stats() const {
  HealthStats stats;
  stats.quarantines = quarantines_.load(std::memory_order_relaxed);
  stats.probes_sent = probes_sent_.load(std::memory_order_relaxed);
  stats.probes_failed = probes_failed_.load(std::memory_order_relaxed);
  stats.recoveries = recoveries_.load(std::memory_order_relaxed);
  stats.epoch_bumps = epoch_bumps_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace lcp
