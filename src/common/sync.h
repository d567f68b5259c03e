// Capability-annotated synchronisation primitives: the only mutex and
// condition-variable types the rest of the tree is allowed to use
// (scripts/ebvlint.py, rule `unannotated-mutex`, enforces this).
//
// std::mutex itself is not a Clang thread-safety capability, so members
// guarded by one can never be machine-checked. ebv::Mutex wraps it with
// the EBV_CAPABILITY attribute, ebv::MutexLock is the annotated RAII
// guard (std::unique_lock-shaped: mid-scope unlock()/lock() supported),
// and ebv::CondVar is a condition variable that waits directly on the
// Mutex (std::condition_variable_any — no unique_lock detour), with
// every wait annotated EBV_REQUIRES so a wait outside the lock is a
// compile error under -Wthread-safety.
//
// Two deliberate conventions, both load-bearing for the analysis:
//  * condition-wait predicates are written as explicit `while` loops in
//    the CALLER (where the analysis can see the lock is held), never as
//    predicate lambdas — a lambda body is a separate function to the
//    analysis and reads of guarded state inside one would be flagged.
//  * CondVar::wait's internal unlock/relock of the Mutex happens inside
//    libstdc++'s condition_variable_any, whose diagnostics are
//    system-header-suppressed; the EBV_REQUIRES contract on wait() is
//    what callers are checked against (the analysis's documented model
//    for condition variables: the lock is treated as held across the
//    wait).
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/thread_annotations.h"

namespace ebv {

class EBV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() EBV_ACQUIRE() { mu_.lock(); }
  void unlock() EBV_RELEASE() { mu_.unlock(); }
  bool try_lock() EBV_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII guard over an ebv::Mutex. Constructed holding the lock;
/// unlock()/lock() allow the std::unique_lock-style mid-scope window
/// (the destructor releases only if still held).
class EBV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) EBV_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() EBV_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() EBV_RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  void lock() EBV_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable waiting directly on an ebv::Mutex. Waits require
/// the mutex (checked); notify_* never do.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically release `mu`, sleep, and reacquire before returning.
  /// Spurious wakeups happen: always wait in a predicate `while` loop.
  void wait(Mutex& mu) EBV_REQUIRES(mu) { wait_impl(mu); }

 private:
  // The condition variable's internal unlock/relock of `mu` is invisible
  // to the analysis (it models the lock as held across a wait), so the
  // body opts out; the EBV_REQUIRES contract above is what callers are
  // checked against.
  void wait_impl(Mutex& mu) EBV_NO_THREAD_SAFETY_ANALYSIS { cv_.wait(mu); }

  std::condition_variable_any cv_;
};

/// First-exception capture slot for fork-join fan-outs (ThreadPool jobs,
/// TaskGraph teams, oversubscribed run_team ranks): every worker calls
/// capture() from its catch(...) handler, the join point calls
/// rethrow_if_set(). Internally locked, so call sites need no
/// annotations of their own.
class FirstError {
 public:
  /// Record std::current_exception() if no earlier error was recorded.
  void capture() EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (!error_) error_ = std::current_exception();
  }

  [[nodiscard]] bool set() const EBV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return error_ != nullptr;
  }

  /// Rethrow the recorded exception, if any (outside the lock).
  void rethrow_if_set() EBV_EXCLUDES(mu_) {
    std::exception_ptr error;
    {
      MutexLock lock(mu_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  mutable Mutex mu_;
  std::exception_ptr error_ EBV_GUARDED_BY(mu_);
};

}  // namespace ebv
