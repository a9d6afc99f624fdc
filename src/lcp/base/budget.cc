#include "lcp/base/budget.h"

#include <algorithm>

#include "lcp/base/check.h"

namespace lcp {

void Budget::SetDeadline(Clock* clock, int64_t budget_micros) {
  LCP_CHECK(clock != nullptr);
  clock_ = clock;
  // Clamp to 0 so a negative budget means "already expired" even when the
  // clock itself reads near 0 (-1 would disarm the deadline instead).
  deadline_micros_ = std::max<int64_t>(clock->NowMicros() + budget_micros, 0);
}

Status Budget::Check() {
  if (!exhaustion_.ok()) return exhaustion_;
  if (cancel_token_ != nullptr && cancel_token_->cancelled()) {
    exhaustion_ = Status(cancel_token_->code(), "budget cancelled via token");
  } else if (deadline_micros_ >= 0 && clock_->NowMicros() >= deadline_micros_) {
    exhaustion_ = DeadlineExceededError("budget deadline exceeded");
  }
  return exhaustion_;
}

}  // namespace lcp
