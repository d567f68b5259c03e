// Acceptance pins for crash-consistent superstep checkpointing: an EBVC
// checkpoint round-trips bit-for-bit, a run killed at the superstep
// boundary and resumed finishes BIT-IDENTICAL to the uninterrupted run
// (values, supersteps, message counts, virtual time) at every point of
// the resume matrix (resident_workers, prefetch, team size, combining),
// a version-1 file is rejected by its version, corruption at
// any byte is detected cleanly and falls back to the previous
// checkpoint, and the durable-write protocol never publishes partial
// state or leaks temp files — even under injected write failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "bsp/checkpoint.h"
#include "bsp/runtime.h"
#include "common/failpoint.h"
#include "graph/generators.h"

namespace ebv {
namespace {

namespace fs = std::filesystem;

using bsp::Checkpoint;
using bsp::RunOptions;
using bsp::RunStats;
using failpoint::ScopedFailpoints;

/// A fresh, empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

const Graph& powerlaw_graph() {
  static const Graph g = [] {
    Graph graph = gen::chung_lu(1500, 12000, 2.3, false, 17);
    graph.set_name("ckpt-pin");
    return graph;
  }();
  return g;
}

const Graph& weighted_graph() {
  static const Graph g = gen::road_grid(20, 20, 0.9, 17);
  return g;
}

/// CC and SSSP run on the road grid: its ~38-superstep diameter leaves
/// plenty of room to kill a run mid-computation (CC on the powerlaw
/// graph converges in two supersteps). PageRank keeps the powerlaw
/// graph — its iteration count is fixed, not diameter-bound.
const Graph& graph_for(analysis::App app) {
  return app == analysis::App::kPageRank ? powerlaw_graph()
                                         : weighted_graph();
}

/// Everything except wall_seconds (real harness time, diagnostic only).
void expect_stats_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.raw_messages, b.raw_messages);
  EXPECT_EQ(a.messages_sent_per_worker, b.messages_sent_per_worker);
  EXPECT_EQ(a.peak_resident_workers, b.peak_resident_workers);
  EXPECT_EQ(a.values, b.values);  // exact doubles
  EXPECT_EQ(a.execution_seconds, b.execution_seconds);
  EXPECT_EQ(a.comp_seconds, b.comp_seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.delta_c_seconds, b.delta_c_seconds);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    ASSERT_EQ(a.steps[s].size(), b.steps[s].size());
    for (std::size_t i = 0; i < a.steps[s].size(); ++i) {
      EXPECT_EQ(a.steps[s][i].work_units, b.steps[s][i].work_units);
      EXPECT_EQ(a.steps[s][i].messages_sent, b.steps[s][i].messages_sent);
      EXPECT_EQ(a.steps[s][i].messages_received,
                b.steps[s][i].messages_received);
      EXPECT_EQ(a.steps[s][i].comp_seconds, b.steps[s][i].comp_seconds);
      EXPECT_EQ(a.steps[s][i].comm_seconds, b.steps[s][i].comm_seconds);
    }
  }
}

RunStats run_app(analysis::App app, const RunOptions& options) {
  return analysis::run_experiment(graph_for(app), "ebv", 6, app, options).run;
}

std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  return names;
}

bool any_temp_file_in(const std::string& dir) {
  for (const auto& name : files_in(dir)) {
    if (name.find(".tmp") != std::string::npos) return true;
  }
  return false;
}

/// A small synthetic checkpoint exercising every section: two workers of
/// different sizes, odd frontier counts (alignment padding), and two
/// supersteps of stats.
Checkpoint make_checkpoint(std::uint32_t completed) {
  Checkpoint c;
  c.completed_supersteps = completed;
  c.num_workers = 2;
  c.num_global_vertices = 5;
  c.num_global_edges = 9;
  c.program = "cc";
  c.total_messages = 10;
  c.raw_messages = 13;
  c.execution_seconds = 1.5;
  c.comp_seconds_sum = 0.25;
  c.comm_seconds_sum = 0.5;
  c.delta_c_seconds = 0.125;
  c.peak_resident_workers = 2;
  c.messages_sent_per_worker = {6, 4};
  c.steps.assign(completed, std::vector<bsp::WorkerStepStats>(2));
  for (std::uint32_t s = 0; s < completed; ++s) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      c.steps[s][i].work_units = 100 * s + i;
      c.steps[s][i].messages_sent = 7 + s;
      c.steps[s][i].messages_received = 3 + i;
      c.steps[s][i].comp_seconds = 0.5 * (s + 1);
      c.steps[s][i].comm_seconds = 0.25 * (i + 1);
    }
  }
  c.values = {{1.0, 2.0, 4.0}, {3.0}};
  c.last_sync = {{1.0, 2.5, 4.0}, {3.5}};
  c.updated = {{0, 2, 1}, {0}};  // odd count: exercises 8-byte padding
  return c;
}

void expect_checkpoints_equal(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.completed_supersteps, b.completed_supersteps);
  EXPECT_EQ(a.num_workers, b.num_workers);
  EXPECT_EQ(a.num_global_vertices, b.num_global_vertices);
  EXPECT_EQ(a.num_global_edges, b.num_global_edges);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.raw_messages, b.raw_messages);
  EXPECT_EQ(a.execution_seconds, b.execution_seconds);
  EXPECT_EQ(a.comp_seconds_sum, b.comp_seconds_sum);
  EXPECT_EQ(a.comm_seconds_sum, b.comm_seconds_sum);
  EXPECT_EQ(a.delta_c_seconds, b.delta_c_seconds);
  EXPECT_EQ(a.peak_resident_workers, b.peak_resident_workers);
  EXPECT_EQ(a.messages_sent_per_worker, b.messages_sent_per_worker);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    ASSERT_EQ(a.steps[s].size(), b.steps[s].size());
    for (std::size_t i = 0; i < a.steps[s].size(); ++i) {
      EXPECT_EQ(a.steps[s][i].work_units, b.steps[s][i].work_units);
      EXPECT_EQ(a.steps[s][i].messages_sent, b.steps[s][i].messages_sent);
      EXPECT_EQ(a.steps[s][i].messages_received,
                b.steps[s][i].messages_received);
      EXPECT_EQ(a.steps[s][i].comp_seconds, b.steps[s][i].comp_seconds);
      EXPECT_EQ(a.steps[s][i].comm_seconds, b.steps[s][i].comm_seconds);
    }
  }
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.last_sync, b.last_sync);
  EXPECT_EQ(a.updated, b.updated);
}

TEST(CheckpointFormat, FileNameIsZeroPadded) {
  EXPECT_EQ(bsp::checkpoint_file_name(42), "ckpt-00000042.ebvc");
  EXPECT_EQ(bsp::checkpoint_file_name(0), "ckpt-00000000.ebvc");
}

TEST(CheckpointFormat, RoundTripsEverySection) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  const Checkpoint original = make_checkpoint(2);
  const std::string path = bsp::write_checkpoint(dir, original);
  EXPECT_EQ(fs::path(path).filename().string(), "ckpt-00000002.ebvc");
  EXPECT_FALSE(any_temp_file_in(dir));
  expect_checkpoints_equal(bsp::read_checkpoint_file(path), original);

  const auto listed = bsp::list_checkpoints(dir);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].first, 2u);
  const auto latest = bsp::load_latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  expect_checkpoints_equal(*latest, original);
}

TEST(CheckpointFormat, PrunesToNewestTwo) {
  const std::string dir = fresh_dir("ckpt_prune");
  for (std::uint32_t s = 1; s <= 5; ++s) {
    bsp::write_checkpoint(dir, make_checkpoint(s));
  }
  const auto listed = bsp::list_checkpoints(dir);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].first, 4u);
  EXPECT_EQ(listed[1].first, 5u);
}

TEST(CheckpointFormat, RejectsCorruptionAtEveryProbedByte) {
  const std::string dir = fresh_dir("ckpt_corrupt");
  const std::string path = bsp::write_checkpoint(dir, make_checkpoint(3));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::string bad = dir + "/bad.ebvc";
  const auto write_bad = [&](const std::string& content) {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };

  // Bit-flips: header fields, section interior, worker table, checksum.
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{4}, std::size_t{8}, std::size_t{12},
        std::size_t{16}, std::size_t{24}, std::size_t{40}, std::size_t{56},
        std::size_t{108}, std::size_t{112}, std::size_t{4096},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 8,
        bytes.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "flip at " << offset);
    std::string flipped = bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x40);
    write_bad(flipped);
    EXPECT_THROW((void)bsp::read_checkpoint_file(bad), std::runtime_error);
  }
  // Truncations: inside the header, at the header edge, mid-body, just
  // shy of the checksum, one byte short.
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{100}, std::size_t{4095},
        std::size_t{4096}, bytes.size() - 9, bytes.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "truncate to " << size);
    write_bad(bytes.substr(0, size));
    EXPECT_THROW((void)bsp::read_checkpoint_file(bad), std::runtime_error);
  }
  // Trailing garbage shifts the checksum window: also rejected.
  write_bad(bytes + std::string(16, '\0'));
  EXPECT_THROW((void)bsp::read_checkpoint_file(bad), std::runtime_error);
  // The pristine file still parses after all that.
  expect_checkpoints_equal(bsp::read_checkpoint_file(path),
                           make_checkpoint(3));
}

TEST(CheckpointFormat, VersionOneFileIsRejectedNamingTheVersion) {
  // A version-1 file (which carried four per-worker message arrays) must
  // fail on its version field, not on its checksum: re-seal the trailing
  // FNV-1a-64 so the version check is the one that fires.
  const std::string dir = fresh_dir("ckpt_version1");
  const std::string path = bsp::write_checkpoint(dir, make_checkpoint(1));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::uint32_t version = 1;
  std::memcpy(bytes.data() + 4, &version, sizeof version);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ull;
  }
  std::memcpy(bytes.data() + bytes.size() - 8, &h, sizeof h);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)bsp::read_checkpoint_file(path);
    FAIL() << "expected a version-1 checkpoint to be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
  // --resume skips it like any unreadable file.
  EXPECT_FALSE(bsp::load_latest_checkpoint(dir).has_value());
}

TEST(CheckpointFormat, TornNewestFallsBackToPredecessor) {
  const std::string dir = fresh_dir("ckpt_fallback");
  bsp::write_checkpoint(dir, make_checkpoint(1));
  const std::string newest = bsp::write_checkpoint(dir, make_checkpoint(2));
  // Tear the newest mid-body (torn write survived past the header).
  {
    std::ifstream in(newest, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const auto latest = bsp::load_latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  expect_checkpoints_equal(*latest, make_checkpoint(1));
}

TEST(CheckpointFormat, EmptyOrMissingDirLoadsNothing) {
  EXPECT_FALSE(
      bsp::load_latest_checkpoint(fresh_dir("ckpt_empty")).has_value());
  EXPECT_FALSE(bsp::load_latest_checkpoint(testing::TempDir() +
                                           "/ckpt_never_created")
                   .has_value());
}

TEST(CheckpointFormat, TransientWriteErrorIsRetried) {
  const std::string dir = fresh_dir("ckpt_retry");
  // Attempts 1 and 2 fail, attempt 3 (the last the policy allows) lands.
  const ScopedFailpoints fp("checkpoint.write=err@1-2");
  const std::string path = bsp::write_checkpoint(dir, make_checkpoint(1));
  EXPECT_FALSE(any_temp_file_in(dir));
  expect_checkpoints_equal(bsp::read_checkpoint_file(path),
                           make_checkpoint(1));
}

TEST(CheckpointFormat, TransientRenameErrorIsRetried) {
  const std::string dir = fresh_dir("ckpt_retry_rename");
  const ScopedFailpoints fp("checkpoint.rename=enospc@1");
  const std::string path = bsp::write_checkpoint(dir, make_checkpoint(1));
  EXPECT_FALSE(any_temp_file_in(dir));
  expect_checkpoints_equal(bsp::read_checkpoint_file(path),
                           make_checkpoint(1));
}

TEST(CheckpointFormat, PersistentWriteFailureLeavesNoPartialState) {
  const std::string dir = fresh_dir("ckpt_fail");
  const std::string prev = bsp::write_checkpoint(dir, make_checkpoint(1));
  {
    const ScopedFailpoints fp("checkpoint.write=err");
    EXPECT_THROW((void)bsp::write_checkpoint(dir, make_checkpoint(2)),
                 std::runtime_error);
  }
  // No temp file leaked, nothing partial published, and the previously
  // published checkpoint is intact.
  EXPECT_FALSE(any_temp_file_in(dir));
  EXPECT_EQ(files_in(dir).size(), 1u);
  expect_checkpoints_equal(bsp::read_checkpoint_file(prev),
                           make_checkpoint(1));
}

TEST(CheckpointFormat, RejectsMalformedShapes) {
  const std::string dir = fresh_dir("ckpt_shape");
  Checkpoint bad = make_checkpoint(1);
  bad.last_sync[0].pop_back();  // last_sync must mirror values
  EXPECT_THROW((void)bsp::write_checkpoint(dir, bad), std::invalid_argument);
  bad = make_checkpoint(1);
  bad.values.pop_back();  // per-worker arrays must be sized num_workers
  EXPECT_THROW((void)bsp::write_checkpoint(dir, bad), std::invalid_argument);
  bad = make_checkpoint(2);
  bad.steps.pop_back();  // one stats row per completed superstep
  EXPECT_THROW((void)bsp::write_checkpoint(dir, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kill-and-resume bit-identity across the scheduling matrix.

struct ResumeCase {
  analysis::App app;
  std::uint32_t resident_workers;  // 0 = all resident
  bool parallel;                   // 4-rank work-stealing team
  bool prefetch;
  std::string tag;  // unique checkpoint/spill scratch name
  bool combine = false;  // RunOptions::combine_messages
};

class ResumeMatrix : public testing::TestWithParam<ResumeCase> {};

TEST_P(ResumeMatrix, KilledAndResumedRunIsBitIdentical) {
  const ResumeCase& c = GetParam();
  RunOptions base;
  base.resident_workers = c.resident_workers;
  base.prefetch = c.prefetch;
  base.combine_messages = c.combine;
  if (c.resident_workers > 0) base.spill_dir = fresh_dir("spill_" + c.tag);
  if (c.parallel) {
    base.policy = bsp::ExecutionPolicy::kParallel;
    base.num_threads = 4;
  }
  const RunStats uninterrupted = run_app(c.app, base);
  ASSERT_GT(uninterrupted.supersteps, 3u);

  // Crash the run at the third superstep boundary; checkpoints exist for
  // supersteps 1 and 2 and the abort is injected BEFORE the superstep's
  // results are accounted, so resume must replay superstep 3 exactly.
  const std::string ckpt_dir = fresh_dir("ckpt_" + c.tag);
  RunOptions mid = base;
  mid.checkpoint_dir = ckpt_dir;
  mid.checkpoint_every = 1;
  {
    const ScopedFailpoints fp("bsp.superstep=abort@3");
    EXPECT_THROW((void)run_app(c.app, mid), std::runtime_error);
  }
  EXPECT_FALSE(bsp::list_checkpoints(ckpt_dir).empty());
  EXPECT_FALSE(any_temp_file_in(ckpt_dir));

  RunOptions resume = mid;
  resume.resume = true;
  expect_stats_identical(run_app(c.app, resume), uninterrupted);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ResumeMatrix,
    testing::Values(
        ResumeCase{analysis::App::kCC, 0, false, true, "cc_resident"},
        ResumeCase{analysis::App::kCC, 1, false, true, "cc_k1"},
        ResumeCase{analysis::App::kCC, 3, false, false, "cc_k3_nopf"},
        ResumeCase{analysis::App::kCC, 6, false, true, "cc_kp"},
        ResumeCase{analysis::App::kCC, 3, true, true, "cc_k3_par"},
        ResumeCase{analysis::App::kCC, 3, true, true, "cc_k3_par_combine",
                   true},
        ResumeCase{analysis::App::kPageRank, 0, false, true, "pr_resident"},
        ResumeCase{analysis::App::kPageRank, 1, false, true, "pr_k1"},
        ResumeCase{analysis::App::kPageRank, 1, false, true, "pr_k1_combine",
                   true},
        ResumeCase{analysis::App::kPageRank, 3, false, true, "pr_k3"},
        ResumeCase{analysis::App::kSssp, 0, false, true, "sssp_resident"},
        ResumeCase{analysis::App::kSssp, 3, false, true, "sssp_k3"},
        ResumeCase{analysis::App::kSssp, 1, true, true, "sssp_k1_par"}),
    [](const testing::TestParamInfo<ResumeCase>& i) { return i.param.tag; });

TEST(CheckpointResume, EmptyDirStartsFromScratchAndStaysIdentical) {
  const RunStats base = run_app(analysis::App::kCC, {});
  RunOptions resume;
  resume.checkpoint_dir = fresh_dir("ckpt_resume_empty");
  resume.checkpoint_every = 1;
  resume.resume = true;  // nothing to load: a plain run with checkpointing
  expect_stats_identical(run_app(analysis::App::kCC, resume), base);
  EXPECT_FALSE(bsp::list_checkpoints(resume.checkpoint_dir).empty());
}

TEST(CheckpointResume, ResumeWithoutDirIsRejected) {
  RunOptions options;
  options.resume = true;
  EXPECT_THROW((void)run_app(analysis::App::kCC, options),
               std::invalid_argument);
}

TEST(CheckpointResume, NoCheckpointAtConvergenceAndPruningHolds) {
  RunOptions options;
  options.checkpoint_dir = fresh_dir("ckpt_cadence");
  options.checkpoint_every = 1;
  const RunStats stats = run_app(analysis::App::kCC, options);
  const auto listed = bsp::list_checkpoints(options.checkpoint_dir);
  ASSERT_EQ(listed.size(), 2u);  // pruned to the newest two
  // The final superstep converged, so no checkpoint was written for it —
  // resuming can never replay past convergence.
  EXPECT_EQ(listed[1].first, stats.supersteps - 1);
  EXPECT_FALSE(any_temp_file_in(options.checkpoint_dir));
}

TEST(CheckpointResume, CoarserCadenceCheckpointsLessButStaysIdentical) {
  const RunStats base = run_app(analysis::App::kPageRank, {});
  RunOptions options;
  options.checkpoint_dir = fresh_dir("ckpt_every4");
  options.checkpoint_every = 4;
  expect_stats_identical(run_app(analysis::App::kPageRank, options), base);
  for (const auto& [step, path] :
       bsp::list_checkpoints(options.checkpoint_dir)) {
    EXPECT_EQ(step % 4, 0u) << path;
  }
}

TEST(CheckpointResume, TornNewestCheckpointResumesFromPredecessor) {
  const RunStats base = run_app(analysis::App::kCC, {});
  RunOptions mid;
  mid.checkpoint_dir = fresh_dir("ckpt_torn_resume");
  mid.checkpoint_every = 1;
  {
    const ScopedFailpoints fp("bsp.superstep=abort@4");
    EXPECT_THROW((void)run_app(analysis::App::kCC, mid), std::runtime_error);
  }
  auto listed = bsp::list_checkpoints(mid.checkpoint_dir);
  ASSERT_EQ(listed.size(), 2u);
  {  // Tear the newest: resume must fall back to its predecessor.
    std::ifstream in(listed[1].second, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(listed[1].second, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 20));
  }
  RunOptions resume = mid;
  resume.resume = true;
  expect_stats_identical(run_app(analysis::App::kCC, resume), base);
}

TEST(CheckpointResume, FingerprintMismatchIsRejected) {
  RunOptions options;
  options.checkpoint_dir = fresh_dir("ckpt_fingerprint");
  options.checkpoint_every = 1;
  {
    const ScopedFailpoints fp("bsp.superstep=abort@3");
    EXPECT_THROW((void)run_app(analysis::App::kCC, options),
                 std::runtime_error);
  }
  RunOptions resume = options;
  resume.resume = true;
  // Same graph, different program: the checkpoint's fingerprint must
  // refuse to seed a PageRank run with CC state.
  EXPECT_THROW((void)run_app(analysis::App::kPageRank, resume),
               std::invalid_argument);
  // A different partition count changes the worker shape: also refused.
  EXPECT_THROW((void)analysis::run_experiment(graph_for(analysis::App::kCC),
                                              "ebv", 4, analysis::App::kCC,
                                              resume),
               std::invalid_argument);
}

}  // namespace
}  // namespace ebv
