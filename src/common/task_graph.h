// Static task-graph execution with work stealing, plus the bounded
// channel the serve admission queues use.
//
// TaskGraph is a single-shot DAG of std::function tasks with explicit
// dependencies. run(team) executes it on ThreadPool::run_team ranks:
// each rank owns a deque of ready tasks — the owner pushes and pops at
// the back (LIFO, cache-warm), idle ranks steal from the front (the
// oldest entry, GMP/csp run-queue style), and a task that completes
// pushes its newly-ready dependents onto the completing rank's deque.
// A rank whose steal round finds every deque empty parks on a
// condition variable until new work is pushed or the graph drains —
// idle ranks burn no CPU while another rank works a serial chain.
// Dependency release uses an acq_rel counter, so everything a task wrote
// happens-before every dependent — per-task-private data needs no other
// synchronisation (this is what lets the BSP runtime keep plain,
// non-atomic per-worker counters under a parallel schedule).
//
// run(1) — and run() from inside a pool body, where nested parallelism
// would degrade anyway — executes the tasks serially in deterministic
// Kahn order (ready tasks in FIFO id order). A cycle is detected up
// front and reported as std::logic_error before any task runs. If a
// task throws, remaining task bodies are skipped (dependency release
// still drains the graph) and the first exception is rethrown.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"

namespace ebv {

class TaskGraph {
 public:
  using TaskId = std::uint32_t;
  /// Sentinel accepted (and ignored) wherever a dependency is expected —
  /// lets callers write optional dependencies inline:
  ///   g.add(fn, {i > 0 ? prev : TaskGraph::kNone});
  static constexpr TaskId kNone = 0xFFFFFFFFu;

  /// Register a task. Returned ids are dense and ascending.
  TaskId add(std::function<void()> fn);
  TaskId add(std::function<void()> fn, std::initializer_list<TaskId> deps);

  /// `task` will not start until `on` completed. `on == kNone` is a
  /// no-op. Adding the same edge twice is allowed (counted twice,
  /// released twice — harmless but wasteful).
  void depend(TaskId task, TaskId on);

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }

  /// Execute the whole graph; returns when every task completed.
  /// Single-shot: a TaskGraph can be run once. team_size <= 1 (or a
  /// nested-pool caller) runs serially in deterministic topological
  /// order; larger teams run on ThreadPool::global().run_team with work
  /// stealing. Throws std::logic_error on a dependency cycle.
  void run(unsigned team_size);

 private:
  struct Task {
    std::function<void()> fn;
    std::vector<TaskId> dependents;
    std::uint32_t num_deps = 0;
  };

  std::vector<Task> tasks_;
  bool ran_ = false;
};

/// Outcome of BoundedChannel::pop_until_closed — the drain-aware timed
/// pop a long-lived consumer (e.g. a serve worker multiplexing several
/// admission queues) needs to tell "no work right now" (kTimedOut,
/// keep serving other queues) apart from "closed and fully drained"
/// (kClosed, exit for good).
enum class ChannelPopStatus { kItem, kTimedOut, kClosed };

/// Bounded multi-producer ring channel (mutex + condition variable).
/// try_push()/try_pop() never block: a full channel rejects the push,
/// which is how the caller sheds load. pop_until_closed() bounds the
/// wait so multiplexing consumers can drain several channels without
/// parking on one, and close() wakes every waiter.
template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1), buf_(capacity_) {}

  /// False when full or closed; never blocks.
  bool try_push(const T& v) EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (closed_ || size_ == capacity_) return false;
    buf_[(head_ + size_) % capacity_] = v;
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    not_empty_.notify_one();
    return true;
  }

  /// False when empty; never blocks.
  bool try_pop(T& out) EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (size_ == 0) return false;
    out = buf_[head_];
    head_ = (head_ + 1) % capacity_;
    --size_;
    return true;
  }

  /// Timed, drain-aware pop: kItem when an element arrived within
  /// `timeout` (written to `out`), kTimedOut when the channel is still
  /// open but stayed empty, kClosed only once the channel is closed AND
  /// drained — items pushed before close() are still delivered, so a
  /// consumer looping until kClosed never drops accepted work. A close()
  /// wakes every waiter immediately; the timeout is an upper bound, not
  /// a poll interval.
  ChannelPopStatus pop_until_closed(T& out, std::chrono::milliseconds timeout)
      EBV_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (size_ == 0 && !closed_) {
      if (not_empty_.wait_until(mu_, deadline) == std::cv_status::timeout) {
        if (size_ == 0 && !closed_) return ChannelPopStatus::kTimedOut;
        break;
      }
    }
    if (size_ == 0) return ChannelPopStatus::kClosed;
    out = buf_[head_];
    head_ = (head_ + 1) % capacity_;
    --size_;
    return ChannelPopStatus::kItem;
  }

  void close() EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  /// Most items the channel ever held at once. Counted under the lock
  /// together with the push, so it is exact and never exceeds the
  /// capacity; a counter kept beside the channel would race the pops.
  [[nodiscard]] std::size_t high_water() const EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return high_water_;
  }

 private:
  mutable Mutex mu_;
  CondVar not_empty_;
  const std::size_t capacity_;
  std::vector<T> buf_ EBV_GUARDED_BY(mu_);
  std::size_t head_ EBV_GUARDED_BY(mu_) = 0;
  std::size_t size_ EBV_GUARDED_BY(mu_) = 0;
  std::size_t high_water_ EBV_GUARDED_BY(mu_) = 0;
  bool closed_ EBV_GUARDED_BY(mu_) = false;
};

}  // namespace ebv
