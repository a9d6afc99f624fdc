#include "lcp/base/budget.h"

#include <algorithm>
#include <utility>

#include "lcp/base/check.h"

namespace lcp {

void Budget::SetDeadline(Clock* clock, int64_t budget_micros) {
  LCP_CHECK(clock != nullptr);
  clock_ = clock;
  // Clamp to 0 so a negative budget means "already expired" even when the
  // clock itself reads near 0 (-1 would disarm the deadline instead).
  deadline_micros_ = std::max<int64_t>(clock->NowMicros() + budget_micros, 0);
}

Status Budget::Latch(Status status) {
  std::lock_guard<std::mutex> lock(latch_mutex_);
  if (!latched_.load(std::memory_order_relaxed)) {
    exhaustion_ = std::move(status);
    latched_.store(true, std::memory_order_release);
  }
  return exhaustion_;
}

Status Budget::Check() {
  if (latched_.load(std::memory_order_acquire)) return exhaustion_;
  if (cancel_token_ != nullptr && cancel_token_->cancelled()) {
    return Latch(Status(cancel_token_->code(), "budget cancelled via token"));
  }
  if (deadline_micros_ >= 0 && clock_->NowMicros() >= deadline_micros_) {
    return Latch(DeadlineExceededError("budget deadline exceeded"));
  }
  return Status::Ok();
}

}  // namespace lcp
