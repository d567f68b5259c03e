#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/sync.h"

namespace ebv::obs::trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

/// Per-thread event buffer. Appends come only from the owning thread;
/// stop_and_collect() reads it after traced work quiesced (the tracer's
/// documented contract), so the events vector itself needs no lock.
struct ThreadBuffer {
  std::uint64_t epoch = 0;
  std::vector<Event> events;
};

struct Collector {
  std::atomic<std::uint64_t> epoch{1};
  std::atomic<std::int64_t> t0_ns{0};
  Mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers EBV_GUARDED_BY(mu);
};

Collector& collector() {
  static Collector c;
  return c;
}

thread_local std::uint32_t t_track = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t since_start_ns(std::chrono::steady_clock::time_point tp) {
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              tp.time_since_epoch())
                              .count() -
                          collector().t0_ns.load(std::memory_order_relaxed);
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buf = owned.get();
    Collector& c = collector();
    MutexLock lock(c.mu);
    c.buffers.push_back(std::move(owned));
  }
  return *buf;
}

void append(const char* name, char ph, std::uint64_t ts_ns, std::uint64_t dur_ns,
            std::uint64_t arg) {
  Collector& c = collector();
  const std::uint64_t epoch = c.epoch.load(std::memory_order_relaxed);
  ThreadBuffer& buf = local_buffer();
  if (buf.epoch != epoch) {
    buf.events.clear();
    buf.epoch = epoch;
  }
  buf.events.push_back(Event{name, ph, ts_ns, dur_ns, t_track, arg});
}

/// Append `ns` nanoseconds as a microsecond decimal ("12.345").
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

/// `events` as a Chrome trace-event JSON document.
std::string render(const std::vector<Event>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  std::vector<std::uint32_t> tids;
  for (const Event& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  for (const std::uint32_t tid : tids) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    out += tid == 0 ? "main" : "rank " + std::to_string(tid - 1);
    out += "\"}}";
  }
  for (const Event& e : events) {
    comma();
    out += "{\"name\":\"";
    out += e.name;  // string literals by contract: no escaping needed
    out += "\",\"cat\":\"ebv\",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    append_us(out, e.ts_ns);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      append_us(out, e.dur_ns);
    } else {
      out += ",\"s\":\"t\"";
    }
    if (e.arg != kNoArg) {
      out += ",\"args\":{\"v\":";
      out += std::to_string(e.arg);
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace

void start() {
  Collector& c = collector();
  c.t0_ns.store(now_ns(), std::memory_order_relaxed);
  c.epoch.fetch_add(1, std::memory_order_relaxed);
  internal::g_enabled.store(true);
}

std::vector<Event> stop_and_collect() {
  internal::g_enabled.store(false);
  Collector& c = collector();
  std::vector<Event> events;
  {
    MutexLock lock(c.mu);
    const std::uint64_t epoch = c.epoch.load(std::memory_order_relaxed);
    for (const auto& buf : c.buffers) {
      if (buf->epoch != epoch) continue;
      events.insert(events.end(), buf->events.begin(), buf->events.end());
    }
  }
  // Stable presentation order: per track by start time, parents (longer
  // duration) before the children they contain when starts coincide.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;
  });
  return events;
}

std::string stop_and_render() { return render(stop_and_collect()); }

void write(const std::string& path, const std::vector<Event>& events) {
  std::ofstream out(path);
  out << render(events);
  out.flush();
  if (!out) {
    throw std::runtime_error("trace: cannot write " + path);
  }
}

void set_thread_track(std::uint32_t track) { t_track = track; }

std::uint32_t thread_track() { return t_track; }

ThreadTrackGuard::ThreadTrackGuard(std::uint32_t track) : prev_(t_track) {
  t_track = track;
}

ThreadTrackGuard::~ThreadTrackGuard() { t_track = prev_; }

Span::Span(const char* name, std::uint64_t arg)
    : name_(name), arg_(arg), armed_(enabled()) {
  if (!armed_) return;
  epoch_ = collector().epoch.load(std::memory_order_relaxed);
  begin_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!armed_ || !enabled()) return;
  if (collector().epoch.load(std::memory_order_relaxed) != epoch_) return;
  const auto end = std::chrono::steady_clock::now();
  const std::uint64_t ts = since_start_ns(begin_);
  const auto dur = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin_)
          .count());
  append(name_, 'X', ts, dur, arg_);
}

void instant(const char* name, std::uint64_t arg) {
  if (!enabled()) return;
  append(name, 'i', since_start_ns(std::chrono::steady_clock::now()), 0, arg);
}

void complete(const char* name, std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end, std::uint64_t arg) {
  if (!enabled()) return;
  const std::uint64_t ts = since_start_ns(begin);
  const std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count();
  append(name, 'X', ts, dur > 0 ? static_cast<std::uint64_t>(dur) : 0, arg);
}

}  // namespace ebv::obs::trace
