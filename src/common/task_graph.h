// Static task-graph execution with work stealing.
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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

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

}  // namespace ebv
