#ifndef LCP_BASE_WORK_STEAL_H_
#define LCP_BASE_WORK_STEAL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace lcp {

/// One worker's double-ended work queue for work-stealing schedulers. The
/// owner treats the *bottom* (back) as a LIFO stack — push and pop there to
/// keep depth-first locality — while thieves take from the *top* (front),
/// which in a tree-shaped search holds the shallowest, largest-subtree
/// items.
///
/// The implementation is a mutex around a std::deque rather than a lock-free
/// Chase-Lev deque: the intended work items are proof-search nodes whose
/// expansion costs microseconds to milliseconds, so an uncontended lock per
/// transfer is noise, and the mutex keeps the structure trivially correct
/// under TSan. Swap in a lock-free deque later if a workload with
/// fine-grained items ever shows up in a profile.
template <typename T>
class WorkStealingDeque {
 public:
  void PushBottom(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back(std::move(item));
  }

  /// Owner-side pop (LIFO).
  std::optional<T> TryPopBottom() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.back()));
    items_.pop_back();
    return item;
  }

  /// Thief-side pop (FIFO).
  std::optional<T> TrySteal() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mutex_;
  std::deque<T> items_;
};

/// Parks idle workers between steal attempts. Producers call NotifyOne/All
/// after publishing work; Park bounds the wait with a timeout so a missed
/// notification (push raced the park decision) costs one timeout, not a
/// hang — callers re-scan the deques and their termination condition on
/// every wakeup. HasIdlers() lets producers skip the notify syscall
/// entirely on the common nobody-is-parked path.
class IdleGate {
 public:
  void Park(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++idlers_;
    cv_.wait_for(lock, timeout);
    --idlers_;
  }

  bool HasIdlers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return idlers_ > 0;
  }

  void NotifyOne() {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_one();
  }

  void NotifyAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int idlers_ = 0;
};

/// Runs `body(worker_id)` on `num_workers` workers: ids 1..n-1 on fresh
/// threads, id 0 on the calling thread (so a single-worker "pool" never
/// spawns), then joins everything before returning. The body must provide
/// its own termination condition; exceptions must not escape it.
inline void RunWorkers(int num_workers,
                       const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(num_workers > 1 ? num_workers - 1 : 0);
  for (int id = 1; id < num_workers; ++id) {
    threads.emplace_back([&body, id] { body(id); });
  }
  body(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace lcp

#endif  // LCP_BASE_WORK_STEAL_H_
