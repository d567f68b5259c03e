// Deterministic, seed-driven fault injection for the I/O and runtime
// layers ("failpoints"). A failpoint is a named site in production code
// that asks the registry what should happen at this hit; with no spec
// configured the query is one relaxed atomic load, so shipping the sites
// compiled-in costs nothing.
//
// Spec grammar (EBV_FAILPOINTS env var or `ebvpart … --failpoints`):
//   comma-separated clauses, each one of
//     <site>=<action>          fail at every hit of the site
//     <site>=<action>@N        fail at hit N only (hits are 1-based,
//                              counted per site since configure())
//     <site>=<action>@N-M      fail at hits N..M inclusive (transient
//                              failure window: retries past M succeed)
//     <site>=<action>~P        fail each hit with probability P, decided
//                              by a hash of (seed, site, hit index) — the
//                              same seed always fails the same hits
//     seed=S                   seed for the ~P clauses (default 1)
//   actions: shortread | err | enospc | mmapfail | abort
//
// Sites compiled into the tree (grep for failpoint::hit / maybe_fail_stream):
//   section_io.write   every write_raw() section append (EBVS/EBVW/EBVC)
//   section_io.mmap    MappedFile construction
//   snapshot.write     EBVS SnapshotWriter::finish
//   spill_store.write  EBVW SpillStoreWriter worker/table writes
//   checkpoint.write   EBVC checkpoint serialisation (retried)
//   checkpoint.rename  the atomic publish rename (retried)
//   checkpoint.read    checkpoint load (shortread → torn-file fallback)
//   bsp.superstep      the task-graph superstep boundary (abort = crash)
//
// Injection exercises the REAL error paths: stream sites are poisoned
// (badbit) so the caller's own `if (!out) fail(...)` check fires; only
// sites with no stream to poison (mmap, abort) throw InjectedFault.
#pragma once

#include <chrono>
#include <cstdint>
#include <ios>
#include <stdexcept>
#include <string>
#include <thread>

namespace ebv::failpoint {

enum class Action {
  kNone,
  kShortRead,
  kWriteError,
  kEnospc,
  kMmapFail,
  kAbort,
};

[[nodiscard]] const char* action_name(Action action);

/// Install a failpoint spec (replaces any previous one and resets all hit
/// counters). Throws std::invalid_argument naming the offending clause.
void configure(const std::string& spec);

/// configure() from the EBV_FAILPOINTS environment variable, if set.
void configure_from_env();

/// Remove every failpoint and reset hit counters.
void clear();

/// True when any failpoint is configured (lock-free).
[[nodiscard]] bool active();

/// Count a hit of `site` and return the action to inject at it (kNone =
/// proceed normally). The fast path when nothing is configured is a
/// single relaxed atomic load.
Action hit(const char* site);

/// Stream-site helper: a kWriteError/kEnospc/kShortRead hit poisons
/// `stream` (badbit) so the call site's existing error check fires its
/// production failure path. Returns the injected action (kNone when the
/// I/O may proceed).
Action maybe_fail_stream(const char* site, std::basic_ios<char>& stream);

/// Fault thrown by sites with no stream to poison (mmap, superstep
/// abort). Derives from std::runtime_error so callers' existing
/// error-path contracts hold unchanged.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(std::string site, Action action, const std::string& what);
  [[nodiscard]] const std::string& site() const { return site_; }
  [[nodiscard]] Action action() const { return action_; }

 private:
  std::string site_;
  Action action_;
};

/// RAII spec installation for tests: configure on entry, clear on exit.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec) { configure(spec); }
  ~ScopedFailpoints() { clear(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

/// Bounded retry with exponential backoff for transient I/O (the
/// checkpoint writer's policy; docs/ARCHITECTURE.md "Fault tolerance").
struct RetryPolicy {
  int max_attempts = 3;
  std::chrono::milliseconds base_backoff{1};  // doubled per retry
};

/// Run `op` up to policy.max_attempts times. After each failed attempt
/// `cleanup` runs (remove partial state), then the thread backs off
/// base_backoff·2^(attempt-1); the final failure propagates unchanged.
template <typename Op, typename Cleanup>
decltype(auto) with_retry(const RetryPolicy& policy, Op&& op,
                          Cleanup&& cleanup) {
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (...) {
      cleanup();
      if (attempt >= policy.max_attempts) throw;
      std::this_thread::sleep_for(policy.base_backoff * (1 << (attempt - 1)));
    }
  }
}

}  // namespace ebv::failpoint
