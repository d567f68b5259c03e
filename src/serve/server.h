// The snapshot-serving daemon behind `ebvpart serve`: a unix-domain
// stream listener whose sessions decode EBVQ frames (serve/protocol.h)
// and admit them to one arrival-order queue drained by a
// ThreadPool::run_team worker team.
//
// Admission control is the serving-side twin of the runtime's bounded
// residency budget: each RequestClass has an independent depth limit on
// its share of the queue, so an expensive class (kRun) backing up
// cannot grow memory without bound or crowd the cheap lookup classes
// out of admission — a request whose class is at its limit is rejected
// immediately with Status::kOverloaded instead of being buffered. kPing
// never queues (answered inline by the session reader), so health
// checks stay responsive under full load. Idle workers wait on one
// condition variable that every admission signals, and a free worker
// takes the oldest accepted request of any class.
//
// Shutdown is a graceful drain (request_stop(), typically from
// SIGTERM): new requests are answered kShuttingDown, the listener
// closes, session readers are unblocked via shutdown(SHUT_RD) and
// joined, and only then does the queue close — so admission never sees
// a closed queue, and a worker exits only once the queue is closed AND
// empty. Every accepted request gets exactly one response.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/handlers.h"
#include "serve/protocol.h"

namespace ebv::serve {

struct ServerConfig {
  std::string socket_path;
  /// Worker team size for request execution. At least 1.
  std::uint32_t num_workers = 2;
  /// Most queued requests per RequestClass (indexed by RequestClass);
  /// each at least 1. Cheap lookup classes get deeper limits than
  /// per-request analytics.
  std::array<std::uint32_t, kNumClasses> queue_depth = {64, 256, 64, 256, 8};
  /// Concurrent session cap. At least 1.
  std::uint32_t max_sessions = 64;
};

/// Monotonic per-class counters (latencies live in the server's metrics
/// registry; the queue high-water depth is counted under the queue lock).
struct ClassCounters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected_overloaded{0};
  std::atomic<std::uint64_t> rejected_bad{0};
  std::atomic<std::uint64_t> internal_errors{0};
};

/// Immutable snapshot of one class's counters + latency quantiles.
struct ClassStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_bad = 0;
  std::uint64_t internal_errors = 0;
  /// Most requests of the class the admission queue ever held at once
  /// (never above its queue_depth).
  std::uint32_t depth_high_water = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

struct ServerStats {
  std::array<ClassStats, kNumClasses> classes;
  std::uint64_t sessions_accepted = 0;
  std::uint64_t malformed_frames = 0;
  double uptime_seconds = 0.0;

  /// Rendered per-class table (the one `ebvpart serve` prints on drain).
  [[nodiscard]] std::string to_table() const;
};

class Server {
 public:
  /// Binds and listens on config.socket_path (unlinking a stale socket
  /// first) and starts the acceptor + worker team. Throws
  /// std::invalid_argument, before touching the socket, when
  /// num_workers, max_sessions or any queue_depth is 0, and
  /// std::runtime_error with errno detail on socket failures.
  Server(ServeContext context, ServerConfig config);

  /// Drains and joins if the caller never called request_stop()/wait().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Begin the graceful drain described above. Idempotent, thread-safe,
  /// and callable from a signal-watching thread.
  void request_stop();

  /// Block until the drain completed (listener closed, sessions joined,
  /// queue drained, workers exited, socket unlinked).
  void wait();

  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }
  [[nodiscard]] const ServeContext& context() const { return context_; }

  /// Point-in-time counters; callable while serving.
  [[nodiscard]] ServerStats stats() const;

  /// The full observability report: the per-class table from stats()
  /// followed by the metrics registry (queue-wait vs handler latency
  /// split, session/frame counters). One renderer for both surfaces —
  /// the drain print and the live kMetrics response return exactly this
  /// string, so `ebvpart query metrics` always matches the drain table.
  [[nodiscard]] std::string metrics_report() const;

  /// The server's private metrics registry (per-instance, so tests
  /// running several servers in one process do not cross-pollute).
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }

 private:
  struct Session {
    int fd = -1;
    /// Responses interleave worker + reader threads; every frame write
    /// goes through respond_locked(), which requires it.
    Mutex write_mu;
    std::thread reader;
    std::atomic<std::uint32_t> pending{0};  // accepted, not yet responded
    std::atomic<bool> done{false};
  };

  struct PendingRequest {
    std::shared_ptr<Session> session;
    MsgType type = MsgType::kPing;
    std::uint64_t request_id = 0;
    std::vector<std::uint8_t> body;
    std::chrono::steady_clock::time_point enqueued;
  };

  void accept_loop();
  void session_loop(const std::shared_ptr<Session>& session);
  /// Queues `request` and wakes one idle worker, or returns false
  /// (nothing counted or queued) when its class is at its queue_depth.
  bool admit(PendingRequest request, std::size_t cls)
      EBV_EXCLUDES(queue_mu_);
  /// Takes the oldest queued request until the queue is closed and empty.
  void worker_loop() EBV_EXCLUDES(queue_mu_);
  void process(const PendingRequest& request);
  /// Drops joined, fd-closed sessions from the table.
  void reap_finished_sessions() EBV_REQUIRES(sessions_mu_);
  /// Serialises one frame onto the session socket under its write mutex.
  static bool respond(Session& session, MsgType type, Status status,
                      std::uint64_t request_id,
                      std::span<const std::uint8_t> body)
      EBV_EXCLUDES(session.write_mu);
  /// The write itself, split out so the lock-assuming half carries a
  /// checkable contract.
  static bool respond_locked(Session& session, MsgType type, Status status,
                             std::uint64_t request_id,
                             std::span<const std::uint8_t> body)
      EBV_REQUIRES(session.write_mu);
  static bool respond_error(Session& session, MsgType type, Status status,
                            std::uint64_t request_id,
                            const std::string& message)
      EBV_EXCLUDES(session.write_mu);

  ServeContext context_;
  ServerConfig config_;
  int listen_fd_ = -1;

  /// The admission queue: accepted requests of every class in arrival
  /// order, with the per-class depth and high-water counted under the
  /// same lock, so the limit check, the push and the pop never race.
  mutable Mutex queue_mu_;
  CondVar queue_cv_;  // signalled on every push and on close
  std::deque<PendingRequest> queue_ EBV_GUARDED_BY(queue_mu_);
  std::array<std::uint32_t, kNumClasses> queued_
      EBV_GUARDED_BY(queue_mu_) = {};
  std::array<std::uint32_t, kNumClasses> high_water_
      EBV_GUARDED_BY(queue_mu_) = {};
  bool queue_closed_ EBV_GUARDED_BY(queue_mu_) = false;
  std::array<ClassCounters, kNumClasses> counters_;

  /// Latency + session instruments live in the registry (folded there so
  /// `query metrics` can render them from a RUNNING daemon, not only at
  /// drain). The pointers below are registered once in the constructor —
  /// stable for the server's lifetime — and recorded through lock-free.
  obs::Registry registry_;
  /// Admission-queue wait (enqueue → worker pickup) per class, ms.
  std::array<obs::Histogram*, kNumClasses> wait_ms_{};
  /// Handler execution time per class, ms (all processed requests).
  std::array<obs::Histogram*, kNumClasses> handler_ms_{};
  /// End-to-end latency of COMPLETED (kOk) requests per class, ms — the
  /// source of the stats() table's p50/p95/p99 columns.
  std::array<obs::Histogram*, kNumClasses> latency_ms_{};
  obs::Counter* sessions_accepted_ = nullptr;
  obs::Counter* malformed_frames_ = nullptr;
  obs::Counter* metrics_requests_ = nullptr;
  std::chrono::steady_clock::time_point started_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::thread acceptor_;
  std::thread worker_host_;  // carries the blocking run_team call
  Mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_ EBV_GUARDED_BY(sessions_mu_);
};

}  // namespace ebv::serve
