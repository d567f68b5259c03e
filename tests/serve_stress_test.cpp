// Concurrency battery for the serve daemon, runs under TSan in CI: N
// client threads fire mixed query classes at an in-process server with
// deliberately tiny per-class queue depths. Pins the admission-control
// contract: the per-class queue depth never exceeds its configured
// bound, overload is an explicit kOverloaded response (not a hang or a
// drop), every accepted request is answered exactly once — counted on
// both the client side (each call returns or throws a typed error) and
// the server side (accepted == completed + bad + errors after the
// drain) — and an idle worker picks up a request of any class at once.
// Also pins that a zero worker, session or depth setting is rejected
// before the socket is bound.
#include <gtest/gtest.h>

#ifndef _WIN32

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/unique_id.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/mapped_graph.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "partition/registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace ebv::serve {
namespace {

namespace fs = std::filesystem;

struct StressRig {
  std::string dir;
  std::string snapshot;
  std::unique_ptr<Server> server;

  explicit StressRig(const ServerConfig& base_config) {
    dir = ::testing::TempDir() + "serve_stress_" + process_unique_suffix();
    fs::create_directories(dir);
    const Graph graph = gen::chung_lu(400, 3000, 2.3, false, 42);
    snapshot = dir + "/g.ebvs";
    io::write_snapshot_file(snapshot, graph);

    // Partition over the snapshot view so .ebvp edge indices line up
    // with the snapshot's sorted edge order.
    PartitionConfig pc;
    pc.num_parts = 4;
    const MappedGraph for_partition(snapshot);
    EdgePartition partition =
        make_partitioner("ebv")->partition_view(for_partition.view(), pc);

    ServeContext context;
    context.graphs.emplace_back("g", snapshot, MappedGraph(snapshot));
    GraphEntry& entry = context.graphs.back();
    entry.routing.emplace(entry.mapped.view(), partition);
    entry.partition.emplace(std::move(partition));

    ServerConfig config = base_config;
    config.socket_path = dir + "/ebv-serve.test.sock";
    server = std::make_unique<Server>(std::move(context), config);
  }

  ~StressRig() {
    server.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

TEST(ServeStress, MixedClassesEveryAcceptedRequestAnsweredOnce) {
  ServerConfig config;
  config.num_workers = 3;
  // Small queues so overload is actually reachable under the burst.
  config.queue_depth = {4, 8, 4, 8, 2};
  StressRig rig(config);

  constexpr unsigned kThreads = 6;
  constexpr unsigned kRequestsPerThread = 40;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> transport_errors{0};

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Client client(rig.server->socket_path());
      for (unsigned i = 0; i < kRequestsPerThread; ++i) {
        try {
          switch ((t + i) % 6) {
            case 0:
              client.ping();
              break;
            case 1:
              (void)client.stats();
              break;
            case 2: {
              DegreeRequest req;
              req.vertices = {(t * 31 + i) % 400};
              (void)client.degrees(req);
              break;
            }
            case 3: {
              NeighborsRequest req;
              req.source = (t * 17 + i) % 400;
              req.hops = 2;
              req.limit = 64;
              (void)client.neighbors(req);
              break;
            }
            case 4: {
              if (i % 2 == 0) {
                PartitionRequest req;
                req.edges = {(t * 13 + i) % 3000};
                (void)client.partition_of(req);
              } else {
                ReplicasRequest req;
                req.vertices = {(t * 7 + i) % 400};
                (void)client.replicas(req);
              }
              break;
            }
            case 5: {
              // Deliberately out of range: must be a typed kBadRequest,
              // never a crash or a dropped response.
              DegreeRequest req;
              req.vertices = {kInvalidVertex - 1};
              (void)client.degrees(req);
              break;
            }
          }
          ok.fetch_add(1);
        } catch (const ServeError& e) {
          if (e.status() == Status::kOverloaded) {
            overloaded.fetch_add(1);
          } else if (e.status() == Status::kBadRequest) {
            bad.fetch_add(1);
          } else {
            transport_errors.fetch_add(1);
          }
        } catch (const std::exception&) {
          transport_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  // Client side: every call resolved to exactly one outcome.
  EXPECT_EQ(ok.load() + overloaded.load() + bad.load() +
                transport_errors.load(),
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  // The case-5 probes are intentionally bad, so some kBadRequest MUST
  // have come back (they are per-request errors, not connection kills).
  EXPECT_GT(bad.load(), 0u);

  rig.server->request_stop();
  rig.server->wait();

  const ServerStats stats = rig.server->stats();
  std::uint64_t accepted = 0;
  std::uint64_t answered = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const ClassStats& s = stats.classes[c];
    // Admission bound: the observed high-water depth never exceeded the
    // configured channel capacity.
    EXPECT_LE(s.depth_high_water, config.queue_depth[c])
        << class_name(static_cast<RequestClass>(c));
    accepted += s.accepted;
    answered += s.completed + s.rejected_bad + s.internal_errors;
  }
  // Server side: exactly one response per accepted request, none lost
  // in the drain.
  EXPECT_EQ(accepted, answered);
  EXPECT_EQ(stats.classes[0].internal_errors +
                stats.classes[1].internal_errors +
                stats.classes[2].internal_errors +
                stats.classes[3].internal_errors +
                stats.classes[4].internal_errors,
            0u);
}

TEST(ServeStress, OverloadIsExplicitUnderBurst) {
  ServerConfig config;
  config.num_workers = 1;
  config.queue_depth = {1, 1, 1, 1, 1};  // every class trivially floodable
  StressRig rig(config);

  constexpr unsigned kThreads = 8;
  constexpr unsigned kRequestsPerThread = 25;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> other{0};

  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      Client client(rig.server->socket_path());
      for (unsigned i = 0; i < kRequestsPerThread; ++i) {
        try {
          (void)client.stats();
          ok.fetch_add(1);
        } catch (const ServeError& e) {
          (e.status() == Status::kOverloaded ? overloaded : other)
              .fetch_add(1);
        } catch (const std::exception&) {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(ok.load() + overloaded.load() + other.load(),
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);

  rig.server->request_stop();
  rig.server->wait();
  const ServerStats stats = rig.server->stats();
  const auto cls = static_cast<std::size_t>(RequestClass::kStats);
  EXPECT_LE(stats.classes[cls].depth_high_water, 1u);
  EXPECT_EQ(stats.classes[cls].accepted, stats.classes[cls].completed);
  // Overload observed by clients must match the server's rejection count.
  EXPECT_EQ(stats.classes[cls].rejected_overloaded, overloaded.load());
}

TEST(ServeStress, SessionCapIsEnforcedWithoutDeadlock) {
  ServerConfig config;
  config.num_workers = 1;
  config.max_sessions = 2;
  StressRig rig(config);

  // Two live sessions hold the cap; further connects are refused (the
  // daemon closes them immediately) and must surface as clean transport
  // errors on first use, not hangs.
  Client a(rig.server->socket_path());
  Client b(rig.server->socket_path());
  EXPECT_NO_THROW(a.ping());
  EXPECT_NO_THROW(b.ping());
  bool third_refused = false;
  try {
    Client c(rig.server->socket_path());
    c.ping();
  } catch (const std::exception&) {
    third_refused = true;
  }
  EXPECT_TRUE(third_refused);
}

TEST(ServeStress, IdleWorkerPicksUpEveryClassAtOnce) {
  // One worker and one client sending one request at a time: every
  // request reaches an idle worker, which must take it on arrival,
  // whatever its class.
  ServerConfig config;
  config.num_workers = 1;
  StressRig rig(config);

  constexpr std::uint64_t kRounds = 40;
  Client client(rig.server->socket_path());
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    DegreeRequest degree;
    degree.vertices = {static_cast<VertexId>(i % 400)};
    (void)client.degrees(degree);
    NeighborsRequest hood;
    hood.source = static_cast<VertexId>(i % 400);
    hood.hops = 1;
    hood.limit = 16;
    (void)client.neighbors(hood);
    PartitionRequest lookup;
    lookup.edges = {i % 3000};
    (void)client.partition_of(lookup);
    (void)client.stats();
  }

  const std::vector<obs::Metric> metrics = rig.server->registry().snapshot();
  for (const RequestClass cls : {RequestClass::kStats, RequestClass::kDegree,
                                 RequestClass::kNeighbors,
                                 RequestClass::kLookup}) {
    const std::string name =
        obs::suffixed(obs::names::kServeQueueWaitMs, class_name(cls));
    const auto it = std::find_if(
        metrics.begin(), metrics.end(),
        [&](const obs::Metric& m) { return m.name == name; });
    ASSERT_NE(it, metrics.end()) << name;
    EXPECT_EQ(it->histogram.count, kRounds) << name;
    EXPECT_LT(it->histogram.quantile(0.50), 1.0) << name;
  }
}

TEST(ServeStress, ZeroConfigValueIsRejectedBeforeBinding) {
  const std::string dir =
      ::testing::TempDir() + "serve_config_" + process_unique_suffix();
  fs::create_directories(dir);
  ServerConfig valid;
  valid.socket_path = dir + "/ebv-serve.test.sock";

  const auto expect_rejected = [&](const ServerConfig& config,
                                   const std::string& flag) {
    try {
      Server server(ServeContext{}, config);
      ADD_FAILURE() << "a zero " << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(fs::exists(config.socket_path)) << flag;
  };
  ServerConfig config = valid;
  config.num_workers = 0;
  expect_rejected(config, "--workers");
  config = valid;
  config.max_sessions = 0;
  expect_rejected(config, "--max-sessions");
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    config = valid;
    config.queue_depth[c] = 0;
    expect_rejected(config, "--queues");
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace ebv::serve

#endif  // !_WIN32
