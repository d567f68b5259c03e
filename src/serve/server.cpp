#include "serve/server.h"

#ifndef _WIN32

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "analysis/table.h"
#include "common/assert.h"
#include "common/format.h"
#include "common/parallel.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace ebv::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::string ServerStats::to_table() const {
  analysis::Table table({"class", "accepted", "completed", "overloaded",
                         "bad", "errors", "q-max", "p50", "p95", "p99"});
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const ClassStats& s = classes[c];
    table.add_row({class_name(static_cast<RequestClass>(c)),
                   with_commas(s.accepted), with_commas(s.completed),
                   with_commas(s.rejected_overloaded),
                   with_commas(s.rejected_bad),
                   with_commas(s.internal_errors),
                   std::to_string(s.depth_high_water),
                   format_duration(s.p50_ms / 1e3),
                   format_duration(s.p95_ms / 1e3),
                   format_duration(s.p99_ms / 1e3)});
  }
  return table.to_string();
}

Server::Server(ServeContext context, ServerConfig config)
    : context_(std::move(context)), config_(std::move(config)) {
  EBV_REQUIRE(config_.num_workers >= 1,
              "serve needs at least one worker (--workers 0)");
  EBV_REQUIRE(config_.max_sessions >= 1,
              "serve needs at least one session (--max-sessions 0)");
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    EBV_REQUIRE(config_.queue_depth[c] >= 1,
                std::string("serve needs a queue depth of at least 1 for "
                            "the ") +
                    class_name(static_cast<RequestClass>(c)) +
                    " class (--queues has a 0)");
  }

  // Register every instrument before any thread starts, then record
  // through the cached pointers lock-free.
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const auto cls = class_name(static_cast<RequestClass>(c));
    wait_ms_[c] =
        &registry_.histogram(obs::suffixed(obs::names::kServeQueueWaitMs, cls));
    handler_ms_[c] =
        &registry_.histogram(obs::suffixed(obs::names::kServeHandlerMs, cls));
    latency_ms_[c] =
        &registry_.histogram(obs::suffixed(obs::names::kServeLatencyMs, cls));
  }
  sessions_accepted_ = &registry_.counter(obs::names::kServeSessionsAccepted);
  malformed_frames_ = &registry_.counter(obs::names::kServeFramesMalformed);
  metrics_requests_ = &registry_.counter(obs::names::kServeMetricsRequests);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket(" + config_.socket_path + ")");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    throw std::runtime_error("socket path too long: " + config_.socket_path);
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // A previous daemon that crashed leaves the inode behind; bind() would
  // fail on it forever. The stale-sweep shape (common/stale_sweep.h)
  // reclaims abandoned ones by pid; ours is re-created fresh here.
  ::unlink(config_.socket_path.c_str());
  // ebvlint: allow(raw-read-boundary): POSIX sockaddr idiom, not a
  // deserialising read — bind() only inspects the struct we just built.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw_errno("bind(" + config_.socket_path + ")");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    ::unlink(config_.socket_path.c_str());
    throw_errno("listen(" + config_.socket_path + ")");
  }

  started_ = std::chrono::steady_clock::now();
  acceptor_ = std::thread([this] { accept_loop(); });
  // run_team blocks its caller for the team's lifetime, so it gets a
  // dedicated host thread; the team itself drains the admission queue.
  worker_host_ = std::thread([this] {
    ThreadPool::global().run_team(config_.num_workers,
                                  [this](unsigned, unsigned) { worker_loop(); });
  });
}

Server::~Server() {
  request_stop();
  wait();
}

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    MutexLock lock(sessions_mu_);
    reap_finished_sessions();
    if (sessions_.size() >= config_.max_sessions ||
        draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    auto session = std::make_shared<Session>();
    session->fd = fd;
    sessions_accepted_->add();
    session->reader =
        std::thread([this, session] { session_loop(session); });
    sessions_.push_back(std::move(session));
  }
}

void Server::reap_finished_sessions() {
  std::erase_if(sessions_, [](const std::shared_ptr<Session>& s) {
    if (!s->done.load(std::memory_order_acquire)) return false;
    if (s->reader.joinable()) s->reader.join();
    // The fd stays open until here: a worker may still be writing a
    // response for a request this session enqueued before dying — it
    // holds its own shared_ptr, so close only at erase time.
    if (s->fd >= 0) ::close(s->fd);
    s->fd = -1;
    return true;
  });
}

bool Server::respond(Session& session, MsgType type, Status status,
                     std::uint64_t request_id,
                     std::span<const std::uint8_t> body) {
  MutexLock lock(session.write_mu);
  return respond_locked(session, type, status, request_id, body);
}

bool Server::respond_locked(Session& session, MsgType type, Status status,
                            std::uint64_t request_id,
                            std::span<const std::uint8_t> body) {
  return write_frame(session.fd, type, status, request_id, body);
}

bool Server::respond_error(Session& session, MsgType type, Status status,
                           std::uint64_t request_id,
                           const std::string& message) {
  const std::string text = "error: " + message;
  // ebvlint: allow(raw-read-boundary): outbound byte view of a string
  // this function owns — serialisation, not an unbounded read.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  return respond(session, type, status, request_id, {bytes, text.size()});
}

void Server::session_loop(const std::shared_ptr<Session>& session) {
  while (true) {
    ReadFrameResult frame = read_frame(session->fd, kMaxRequestBody);
    if (frame.outcome == ReadOutcome::kEof ||
        frame.outcome == ReadOutcome::kError) {
      break;  // clean close or truncation/IO error — nothing to answer
    }
    if (frame.outcome == ReadOutcome::kMalformed) {
      // Bad magic/version or hostile body_len: the stream cannot be
      // trusted past the header, so answer once and hang up.
      malformed_frames_->add();
      const MsgType echo = is_known_type(frame.header.type)
                               ? static_cast<MsgType>(frame.header.type)
                               : MsgType::kPing;
      respond_error(*session, echo, Status::kBadRequest, frame.header.request_id,
                    frame.error);
      break;
    }

    if (!is_known_type(frame.header.type)) {
      // The frame is structurally sound, so the stream stays usable.
      respond_error(*session, MsgType::kPing, Status::kBadRequest,
                    frame.header.request_id,
                    "unknown message type " +
                        std::to_string(frame.header.type));
      continue;
    }
    const auto type = static_cast<MsgType>(frame.header.type);

    if (type == MsgType::kPing) {
      if (!respond(*session, MsgType::kPing, Status::kOk,
                   frame.header.request_id, {})) {
        break;
      }
      continue;
    }

    if (type == MsgType::kMetrics) {
      // Answered inline like kPing — the report is a cheap read-only
      // snapshot and must stay available while the daemon is running
      // (including mid-drain), not only at the SIGTERM drain print.
      metrics_requests_->add();
      const std::string report = metrics_report();
      // ebvlint: allow(raw-read-boundary): outbound byte view of a
      // string this function owns — serialisation, not an unbounded read.
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(report.data());
      if (!respond(*session, MsgType::kMetrics, Status::kOk,
                   frame.header.request_id, {bytes, report.size()})) {
        break;
      }
      continue;
    }

    if (draining_.load(std::memory_order_acquire)) {
      respond_error(*session, type, Status::kShuttingDown,
                    frame.header.request_id, "server is draining");
      continue;
    }

    const auto cls = static_cast<std::size_t>(class_of(type));
    PendingRequest request;
    request.session = session;
    request.type = type;
    request.request_id = frame.header.request_id;
    request.body = std::move(frame.body);
    request.enqueued = std::chrono::steady_clock::now();
    if (!admit(std::move(request), cls)) {
      // Reject NOW — admission control means bounded per-class depths,
      // not unbounded buffering.
      counters_[cls].rejected_overloaded.fetch_add(1,
                                                   std::memory_order_relaxed);
      respond_error(*session, type, Status::kOverloaded,
                    frame.header.request_id,
                    std::string(class_name(static_cast<RequestClass>(cls))) +
                        " class is at its queue depth; retry later");
    }
  }
  // The reader is finished (EOF, error or hang-up after a malformed
  // frame), but requests this session already got admitted may still be
  // in flight — every accepted request gets exactly one response, so
  // wait them out, THEN close our half so the peer sees EOF promptly
  // (a client probing "does the server hang up after a bad frame?"
  // must not have to wait for the daemon to drain).
  while (session->pending.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::shutdown(session->fd, SHUT_RDWR);
  session->done.store(true, std::memory_order_release);
}

bool Server::admit(PendingRequest request, std::size_t cls) {
  {
    MutexLock lock(queue_mu_);
    if (queued_[cls] >= config_.queue_depth[cls]) return false;
    // Counted before the push, under the lock a worker needs to pop it:
    // no worker can answer a request before it reads as accepted and
    // pending. wait() closes the queue only after joining every session
    // reader, so no admission ever finds it closed.
    counters_[cls].accepted.fetch_add(1, std::memory_order_relaxed);
    request.session->pending.fetch_add(1, std::memory_order_acq_rel);
    high_water_[cls] = std::max(high_water_[cls], ++queued_[cls]);
    queue_.push_back(std::move(request));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::worker_loop() {
  while (true) {
    PendingRequest request;
    {
      MutexLock lock(queue_mu_);
      while (queue_.empty() && !queue_closed_) queue_cv_.wait(queue_mu_);
      if (queue_.empty()) return;  // closed and drained
      request = std::move(queue_.front());
      queue_.pop_front();
      --queued_[static_cast<std::size_t>(class_of(request.type))];
    }
    process(request);
  }
}

void Server::process(const PendingRequest& request) {
  const auto cls = static_cast<std::size_t>(class_of(request.type));
  // Split the admission-queue wait (enqueue → here) from handler time so
  // the registry can attribute latency to queueing vs execution.
  const auto picked_up = std::chrono::steady_clock::now();
  wait_ms_[cls]->record(std::chrono::duration<double, std::milli>(
                            picked_up - request.enqueued)
                            .count());
  obs::trace::complete("serve.queue-wait", request.enqueued, picked_up, cls);
  const obs::trace::Span span("serve.handler", cls);
  Status status = Status::kOk;
  std::vector<std::uint8_t> body;
  std::string error;
  try {
    body = handle_request(context_, request.type, request.body);
    if (body.size() > kMaxResponseBody) {
      status = Status::kInternalError;
      error = "response of " + std::to_string(body.size()) +
              " bytes exceeds the frame limit";
    }
  } catch (const ProtocolError& e) {
    status = Status::kBadRequest;
    error = e.what();
  } catch (const BadRequestError& e) {
    status = Status::kBadRequest;
    error = e.what();
  } catch (const std::invalid_argument& e) {
    status = Status::kBadRequest;
    error = e.what();
  } catch (const std::exception& e) {
    status = Status::kInternalError;
    error = e.what();
  }

  const auto finished = std::chrono::steady_clock::now();
  handler_ms_[cls]->record(
      std::chrono::duration<double, std::milli>(finished - picked_up).count());

  if (status == Status::kOk) {
    counters_[cls].completed.fetch_add(1, std::memory_order_release);
    latency_ms_[cls]->record(std::chrono::duration<double, std::milli>(
                                 finished - request.enqueued)
                                 .count());
    respond(*request.session, request.type, Status::kOk, request.request_id,
            body);
  } else {
    auto& counter = status == Status::kBadRequest
                        ? counters_[cls].rejected_bad
                        : counters_[cls].internal_errors;
    counter.fetch_add(1, std::memory_order_release);
    respond_error(*request.session, request.type, status, request.request_id,
                  error);
  }
  request.session->pending.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::request_stop() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Orderly drain; each step unblocks the next thread we join in wait().
  // 1. The acceptor's poll loop observes draining_ within 100 ms.
  // 2. Session readers are parked in recv(); SHUT_RD turns that into a
  //    clean EOF without racing a worker's concurrent response write
  //    (which a close() would).
  MutexLock lock(sessions_mu_);
  for (const auto& session : sessions_) {
    if (session->fd >= 0) ::shutdown(session->fd, SHUT_RD);
  }
}

void Server::wait() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // request_stop() already shut the sockets down; join the readers.
    MutexLock lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->reader.joinable()) session->reader.join();
    }
  }
  // No reader is admitting any more: close the queue so the workers
  // exit once it is empty...
  {
    MutexLock lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  // ...and every accepted request has been answered once they exit.
  if (worker_host_.joinable()) worker_host_.join();
  {
    MutexLock lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->fd >= 0) ::close(session->fd);
      session->fd = -1;
    }
    sessions_.clear();
  }
  ::unlink(config_.socket_path.c_str());
}

ServerStats Server::stats() const {
  ServerStats out;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const obs::HistogramSnapshot lat = latency_ms_[c]->snapshot();
    out.classes[c].p50_ms = lat.quantile(0.50);
    out.classes[c].p95_ms = lat.quantile(0.95);
    out.classes[c].p99_ms = lat.quantile(0.99);
  }
  {
    MutexLock lock(queue_mu_);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      out.classes[c].depth_high_water = high_water_[c];
    }
  }
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const ClassCounters& k = counters_[c];
    // Outcomes first (acquire, pairing with process()'s release), then
    // accepted: admit() counts a request before a worker can pop it, so
    // a live snapshot never shows more answered than accepted.
    out.classes[c].completed = k.completed.load(std::memory_order_acquire);
    out.classes[c].rejected_bad =
        k.rejected_bad.load(std::memory_order_acquire);
    out.classes[c].internal_errors =
        k.internal_errors.load(std::memory_order_acquire);
    out.classes[c].accepted = k.accepted.load(std::memory_order_relaxed);
    out.classes[c].rejected_overloaded =
        k.rejected_overloaded.load(std::memory_order_relaxed);
  }
  out.sessions_accepted = sessions_accepted_->value();
  out.malformed_frames = malformed_frames_->value();
  out.uptime_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started_)
                           .count();
  return out;
}

std::string Server::metrics_report() const {
  return stats().to_table() + "\n" +
         obs::format_metrics_table(registry_.snapshot());
}

}  // namespace ebv::serve

#else  // _WIN32

namespace ebv::serve {

std::string ServerStats::to_table() const { return {}; }

Server::Server(ServeContext, ServerConfig) {
  throw std::runtime_error("ebvpart serve is not supported on this platform");
}
Server::~Server() = default;
void Server::request_stop() {}
void Server::wait() {}
ServerStats Server::stats() const { return {}; }
std::string Server::metrics_report() const { return {}; }

}  // namespace ebv::serve

#endif
