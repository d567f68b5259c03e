// Span tracer emitting Chrome trace-event JSON (chrome://tracing /
// https://ui.perfetto.dev), wired into the task-graph executor, the BSP
// superstep loop, and the serve request path.
//
// Contract (docs/OBSERVABILITY.md):
//  * Off by default. While disarmed, Span construction and instant() are
//    a single relaxed atomic load — no timestamp, no allocation, no lock.
//    Hot paths stay untouched unless `--trace` armed the collector.
//  * Event names must be string literals (stored as const char*, escaped
//    never — the tracer does not copy or quote them).
//  * Events buffer per-thread (lock-free append after a once-per-thread
//    registration); stop_and_collect() must run after traced work has
//    quiesced — it is the CLI epilogue, not a live sampler. Every view
//    (the JSON of `--trace`, the tables of `run --phase-stats`) is
//    derived from the one collected event vector.
//  * Tracks: tid 0 is the calling/main thread; the task-graph executor
//    assigns tid rank+1 via ThreadTrackGuard so every rank gets its own
//    row and spans nest per track.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ebv::obs::trace {

inline constexpr std::uint64_t kNoArg = ~static_cast<std::uint64_t>(0);

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// One buffered event, 48 bytes.
struct Event {
  const char* name;
  char ph;  // 'X' complete, 'i' instant
  std::uint64_t ts_ns;   // since start()
  std::uint64_t dur_ns;  // 0 for instants
  std::uint32_t tid;     // track
  std::uint64_t arg;     // kNoArg when none
};

/// True between start() and stop_and_collect(). Relaxed: instrumentation
/// gates on this and tolerates the boundary race (events straddling a
/// stop are dropped by their epoch check).
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Arm the collector: zero the clock, invalidate buffered events from
/// any earlier trace, start accepting events.
void start();

/// Disarm and return every event buffered since start(), per track by
/// start time, a parent before the children it contains when their
/// starts coincide. Call after traced work quiesced.
[[nodiscard]] std::vector<Event> stop_and_collect();

/// stop_and_collect() rendered as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}).
[[nodiscard]] std::string stop_and_render();

/// `events` as that JSON document, to a file; throws std::runtime_error
/// with the path on I/O failure.
void write(const std::string& path, const std::vector<Event>& events);

/// Set the calling thread's track id for subsequent events (0 = main).
void set_thread_track(std::uint32_t track);

[[nodiscard]] std::uint32_t thread_track();

/// Scoped track override; restores the previous track on destruction
/// (pool threads are reused across team invocations).
class ThreadTrackGuard {
 public:
  explicit ThreadTrackGuard(std::uint32_t track);
  ~ThreadTrackGuard();
  ThreadTrackGuard(const ThreadTrackGuard&) = delete;
  ThreadTrackGuard& operator=(const ThreadTrackGuard&) = delete;

 private:
  std::uint32_t prev_;
};

/// RAII complete-event ("ph":"X") span on the calling thread's track.
/// `name` must be a string literal; `arg` renders as args.v when given.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t arg = kNoArg);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t arg_;
  std::uint64_t epoch_ = 0;
  std::chrono::steady_clock::time_point begin_{};
  bool armed_;
};

/// Zero-duration instant event ("ph":"i", thread scope) — steal,
/// park/unpark markers.
void instant(const char* name, std::uint64_t arg = kNoArg);

/// Retrospective complete event from externally captured timestamps
/// (serve admission-queue wait: begin is enqueue time, end is dequeue).
void complete(const char* name, std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end,
              std::uint64_t arg = kNoArg);

}  // namespace ebv::obs::trace
