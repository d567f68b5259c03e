// Pins for the deterministic fault-injection harness and the hardened
// I/O error paths it exercises: spec parsing and hit semantics, seeded
// reproducibility of probabilistic clauses, and — for every injected
// failure — a typed error naming the controlling flag, with partial
// output removed and no temp file leaked. Also pins the pid-liveness
// stale temp-file sweep the CLI entry points run at startup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#endif

#include "apps/cc.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "bsp/spill_store.h"
#include "common/failpoint.h"
#include "common/stale_sweep.h"
#include "graph/generators.h"
#include "graph/mapped_graph.h"
#include "graph/section_io.h"
#include "partition/registry.h"

namespace ebv {
namespace {

namespace fs = std::filesystem;

using bsp::BspRuntime;
using bsp::DistributedGraph;
using failpoint::Action;
using failpoint::ScopedFailpoints;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

const Graph& powerlaw_graph() {
  static const Graph g = gen::chung_lu(1500, 12000, 2.3, false, 17);
  return g;
}

EdgePartition ebv_partition(const Graph& g, PartitionId p) {
  return make_partitioner("ebv")->partition(g, {.num_parts = p});
}

std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  return names;
}

// ---------------------------------------------------------------------------
// Spec grammar and hit semantics.

TEST(Failpoint, InactiveByDefaultAndAfterClear) {
  EXPECT_FALSE(failpoint::active());
  EXPECT_EQ(failpoint::hit("any.site"), Action::kNone);
  failpoint::configure("x=err");
  EXPECT_TRUE(failpoint::active());
  failpoint::clear();
  EXPECT_FALSE(failpoint::active());
  EXPECT_EQ(failpoint::hit("x"), Action::kNone);
}

TEST(Failpoint, ScopedInstallationRestoresOnExit) {
  {
    const ScopedFailpoints fp("x=abort");
    EXPECT_EQ(failpoint::hit("x"), Action::kAbort);
  }
  EXPECT_FALSE(failpoint::active());
}

TEST(Failpoint, EveryHitAndSingleHitAndRange) {
  const ScopedFailpoints fp("a=err,b=enospc@2,c=shortread@2-3");
  EXPECT_EQ(failpoint::hit("a"), Action::kWriteError);
  EXPECT_EQ(failpoint::hit("a"), Action::kWriteError);
  EXPECT_EQ(failpoint::hit("b"), Action::kNone);     // hit 1
  EXPECT_EQ(failpoint::hit("b"), Action::kEnospc);   // hit 2
  EXPECT_EQ(failpoint::hit("b"), Action::kNone);     // hit 3
  EXPECT_EQ(failpoint::hit("c"), Action::kNone);     // 1
  EXPECT_EQ(failpoint::hit("c"), Action::kShortRead);  // 2
  EXPECT_EQ(failpoint::hit("c"), Action::kShortRead);  // 3
  EXPECT_EQ(failpoint::hit("c"), Action::kNone);     // 4: transient window over
  EXPECT_EQ(failpoint::hit("unlisted"), Action::kNone);
}

TEST(Failpoint, ConfigureResetsHitCounters) {
  failpoint::configure("s=err@1");
  EXPECT_EQ(failpoint::hit("s"), Action::kWriteError);
  EXPECT_EQ(failpoint::hit("s"), Action::kNone);
  failpoint::configure("s=err@1");  // counters restart
  EXPECT_EQ(failpoint::hit("s"), Action::kWriteError);
  failpoint::clear();
}

TEST(Failpoint, SeededProbabilityIsReproducible) {
  const auto draw_sequence = [](const std::string& spec) {
    failpoint::configure(spec);
    std::vector<bool> fails;
    fails.reserve(200);
    for (int i = 0; i < 200; ++i) {
      fails.push_back(failpoint::hit("p.site") != Action::kNone);
    }
    failpoint::clear();
    return fails;
  };
  const auto a = draw_sequence("p.site=err~0.5,seed=42");
  const auto b = draw_sequence("p.site=err~0.5,seed=42");
  EXPECT_EQ(a, b);  // same seed: the same hits fail
  const auto c = draw_sequence("p.site=err~0.5,seed=43");
  EXPECT_NE(a, c);  // a different seed picks different hits
  const auto frac = static_cast<double>(std::count(a.begin(), a.end(), true)) /
                    static_cast<double>(a.size());
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.75);
}

TEST(Failpoint, RejectsMalformedSpecsNamingTheClause) {
  for (const std::string spec :
       {"x", "x=", "x=frobnicate", "x=err@", "x=err@0", "x=err@3-2",
        "x=err@2~0.5", "x=err~1.5", "x=err~-0.25", "x=err~", "seed=",
        "seed=notanumber", "=err"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(failpoint::configure(spec), std::invalid_argument);
  }
  EXPECT_FALSE(failpoint::active());  // failed configure installs nothing
  failpoint::configure("");           // empty spec: valid, no rules
  EXPECT_FALSE(failpoint::active());
}

TEST(Failpoint, StreamPoisoningFiresTheCallersErrorPath) {
  const ScopedFailpoints fp("stream.site=err@1");
  std::ofstream out(testing::TempDir() + "/fp_stream.bin", std::ios::binary);
  ASSERT_TRUE(out.good());
  EXPECT_EQ(failpoint::maybe_fail_stream("stream.site", out),
            Action::kWriteError);
  EXPECT_FALSE(out.good());  // the production `if (!out)` check now fires
  out.clear();
  EXPECT_EQ(failpoint::maybe_fail_stream("stream.site", out), Action::kNone);
  EXPECT_TRUE(out.good());
}

TEST(Failpoint, WithRetrySucceedsAfterTransientFailures) {
  int attempts = 0;
  int cleanups = 0;
  const int result = failpoint::with_retry(
      failpoint::RetryPolicy{.max_attempts = 3},
      [&] {
        if (++attempts < 3) throw std::runtime_error("transient");
        return 7;
      },
      [&] { ++cleanups; });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(cleanups, 2);  // cleanup after each failed attempt only
}

TEST(Failpoint, WithRetryPropagatesTheFinalFailure) {
  int attempts = 0;
  int cleanups = 0;
  EXPECT_THROW(failpoint::with_retry(
                   failpoint::RetryPolicy{.max_attempts = 3},
                   [&]() -> int { throw std::runtime_error("persistent"); },
                   [&] {
                     ++attempts;
                     ++cleanups;
                   }),
               std::runtime_error);
  EXPECT_EQ(cleanups, 3);  // cleanup ran after the final attempt too
}

// ---------------------------------------------------------------------------
// Injection exercises the REAL error paths: typed error naming the
// controlling flag, partial output removed, no temp file leaked.

TEST(FailpointInjection, SpillStoreWriteErrorRemovesPartialSnapshot) {
  const std::string dir = fresh_dir("fp_spill_store");
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 4);
  const ScopedFailpoints fp("spill_store.write=err@1");
  try {
    const DistributedGraph spilled(g, partition,
                                   {.spill_path = dir + "/fp.ebvw"});
    FAIL() << "expected the injected write error to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--spill-dir"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(files_in(dir).empty());  // writer dtor reclaimed the partial
}

TEST(FailpointInjection, SectionWriteErrorAlsoSurfacesInSpillStore) {
  const std::string dir = fresh_dir("fp_section_write");
  const Graph& g = powerlaw_graph();
  const ScopedFailpoints fp("section_io.write=err@3");
  EXPECT_THROW(DistributedGraph(g, ebv_partition(g, 4),
                                {.spill_path = dir + "/fp.ebvw"}),
               std::runtime_error);
  EXPECT_TRUE(files_in(dir).empty());
}

TEST(FailpointInjection, MmapFailureSurfacesOnOpen) {
  const std::string dir = fresh_dir("fp_mmap");
  const std::string path = dir + "/fp.ebvw";
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 4);
  { const DistributedGraph spilled(g, partition, {.spill_path = path}); }
  ASSERT_TRUE(fs::exists(path));
  {
    // The raw mapping surfaces a typed InjectedFault...
    const ScopedFailpoints fp("section_io.mmap=mmapfail@1");
    try {
      const io::detail::MappedFile mapped(path);
      FAIL() << "expected the injected mmap failure to surface";
    } catch (const failpoint::InjectedFault& e) {
      EXPECT_EQ(std::string(e.site()), "section_io.mmap");
      EXPECT_EQ(e.action(), Action::kMmapFail);
    }
  }
  // ...which format loaders wrap with their own context prefix.
  const ScopedFailpoints fp("section_io.mmap=mmapfail@1");
  try {
    const bsp::SpillStore store(path);
    FAIL() << "expected the injected mmap failure to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos)
        << e.what();
  }
  const bsp::SpillStore store(path);  // past the window: opens fine
  EXPECT_EQ(store.num_workers(), 4u);
}

TEST(FailpointInjection, SnapshotWriteErrorRemovesPartialEbvs) {
  const std::string dir = fresh_dir("fp_snapshot");
  const std::string path = dir + "/fp.ebvs";
  const Graph& g = powerlaw_graph();
  const ScopedFailpoints fp("snapshot.write=err@1");
  try {
    io::write_snapshot_file(path, GraphView(g));
    FAIL() << "expected the injected snapshot write error to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot output"),
              std::string::npos)
        << e.what();
  }
  // A table-less snapshot must not survive to be mmapped later.
  EXPECT_TRUE(files_in(dir).empty());
  failpoint::clear();
  io::write_snapshot_file(path, GraphView(g));  // clean retry succeeds
  const MappedGraph mapped(path);
  EXPECT_EQ(mapped.view().num_vertices(), g.num_vertices());
}

TEST(FailpointInjection, RunIsUnperturbedPastTheInjectionWindow) {
  // A transient window that never triggers (hit 10^6) must not move a
  // bit — the instrumented sites cost nothing when armed-but-missed.
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 4);
  const DistributedGraph resident(g, partition);
  const apps::ConnectedComponents cc;
  const auto base = BspRuntime().run(resident, cc);
  const ScopedFailpoints fp("bsp.superstep=abort@1000000");
  const auto armed = BspRuntime().run(resident, cc);
  EXPECT_EQ(armed.supersteps, base.supersteps);
  EXPECT_EQ(armed.total_messages, base.total_messages);
  EXPECT_EQ(armed.values, base.values);
}

// ---------------------------------------------------------------------------
// Stale temp-file sweep (pid-liveness reclamation at CLI startup).

TEST(StaleSweep, RecognisesExactlyTheTempShapes) {
  EXPECT_EQ(temp_file_owner_pid("ebv-workers.99-2.ebvw"), 99);
  EXPECT_EQ(temp_file_owner_pid("edges.ebvs.run3.77-1.tmp"), 77);
  EXPECT_EQ(temp_file_owner_pid("ckpt-00000005.ebvc.tmp.41-9"), 41);
  EXPECT_EQ(temp_file_owner_pid("ebv-serve.314-2.sock"), 314);
  EXPECT_EQ(temp_file_owner_pid("graph.ebvs.wspool.55-3.tmp"), 55);
  // Not temp files: published outputs and foreign names stay untouched.
  EXPECT_FALSE(temp_file_owner_pid("graph.ebvs").has_value());
  EXPECT_FALSE(temp_file_owner_pid("ckpt-00000005.ebvc").has_value());
  // The runtime creates no mailbox overflow files, so their old shape is
  // a foreign name.
  EXPECT_FALSE(temp_file_owner_pid("ebv-mbox.123-4.7.tmp").has_value());
  EXPECT_FALSE(temp_file_owner_pid("ebv-workers.12.ebvw").has_value());
  EXPECT_FALSE(temp_file_owner_pid("ebv-serve.12.sock").has_value());
  EXPECT_FALSE(temp_file_owner_pid("graph.ebvs.wspool.tmp").has_value());
  EXPECT_FALSE(temp_file_owner_pid("readme.txt").has_value());
}

#if !defined(_WIN32)
TEST(StaleSweep, RemovesDeadOwnersKeepsLiveAndForeignFiles) {
  // A forked child that exits immediately (and is reaped) yields a pid
  // that is guaranteed dead and won't be recycled within this test.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_FALSE(process_alive(child));
  ASSERT_TRUE(process_alive(static_cast<long>(getpid())));

  const std::string dir = fresh_dir("stale_sweep");
  const std::string dead = std::to_string(child);
  const std::string live = std::to_string(getpid());
  const std::vector<std::string> stale = {
      "ebv-workers." + dead + "-2.ebvw",
      "edges.ebvs.run0." + dead + "-1.tmp",
      "ckpt-00000002.ebvc.tmp." + dead + "-5",
  };
  const std::vector<std::string> kept = {
      "ebv-workers." + live + "-1.ebvw",  // live owner: in use
      "graph.ebvs",                       // published output
      "notes.txt",                        // foreign file
  };
  for (const auto& name : stale) { std::ofstream(dir + "/" + name) << "x"; }
  for (const auto& name : kept) { std::ofstream(dir + "/" + name) << "x"; }

  // A dead daemon's socket is a socket inode, not a regular file; the
  // sweep must reclaim it all the same (and keep a live daemon's).
  const auto make_socket = [&](const std::string& name) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string path = dir + "/" + name;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);  // the inode outlives the descriptor
  };
  const std::string stale_sock = "ebv-serve." + dead + "-1.sock";
  const std::string kept_sock = "ebv-serve." + live + "-1.sock";
  make_socket(stale_sock);
  make_socket(kept_sock);

  EXPECT_EQ(sweep_stale_temp_files(dir), stale.size() + 1);
  EXPECT_FALSE(fs::exists(dir + "/" + stale_sock));
  EXPECT_TRUE(fs::exists(dir + "/" + kept_sock));
  for (const auto& name : stale) {
    EXPECT_FALSE(fs::exists(dir + "/" + name)) << name;
  }
  for (const auto& name : kept) {
    EXPECT_TRUE(fs::exists(dir + "/" + name)) << name;
  }
  EXPECT_EQ(sweep_stale_temp_files(dir), 0u);  // idempotent
}
#endif

TEST(StaleSweep, MissingDirectoryIsNotAnError) {
  EXPECT_EQ(sweep_stale_temp_files(testing::TempDir() + "/no_such_dir"), 0u);
}

}  // namespace
}  // namespace ebv
