// Acceptance pins for the worker-spill execution subsystem: the EBVW
// DistributedSnapshot round-trips every LocalSubgraph bit-for-bit, and
// the bounded-residency BSP scheduler (RunOptions::resident_workers)
// produces supersteps, message counts, final values and virtual-time
// accounting BIT-IDENTICAL to the all-resident path for every budget —
// with and without subgraph spilling.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "apps/bfs.h"
#include "apps/cc.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "bsp/spill_store.h"
#include "graph/generators.h"
#include "graph/mapped_graph.h"
#include "partition/registry.h"

namespace ebv {
namespace {

using bsp::BspRuntime;
using bsp::DistributedGraph;
using bsp::LocalSubgraph;
using bsp::RunOptions;
using bsp::RunStats;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

const Graph& powerlaw_graph() {
  static const Graph g = [] {
    Graph graph = gen::chung_lu(1500, 12000, 2.3, false, 17);
    graph.set_name("spill-pin");
    return graph;
  }();
  return g;
}

const Graph& weighted_graph() {
  static const Graph g = gen::road_grid(20, 20, 0.9, 17);
  return g;
}

EdgePartition ebv_partition(const Graph& g, PartitionId p) {
  return make_partitioner("ebv")->partition(g, {.num_parts = p});
}

void expect_subgraph_equal(const LocalSubgraph& a, const LocalSubgraph& b) {
  EXPECT_EQ(a.part, b.part);
  EXPECT_EQ(a.global_ids, b.global_ids);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.edge_weights, b.edge_weights);
  EXPECT_EQ(a.is_replicated, b.is_replicated);
  EXPECT_EQ(a.is_master, b.is_master);
  EXPECT_EQ(a.master_part, b.master_part);
  EXPECT_EQ(a.global_out_degree, b.global_out_degree);
}

void expect_stats_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.raw_messages, b.raw_messages);
  EXPECT_EQ(a.messages_sent_per_worker, b.messages_sent_per_worker);
  EXPECT_EQ(a.values, b.values);  // exact doubles
  // Virtual-time accounting must agree to the last bit too.
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

TEST(SpillStore, RoundTripMatchesResident) {
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 8);
  const DistributedGraph resident(g, partition);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("roundtrip.ebvw")});

  ASSERT_FALSE(resident.spilled());
  ASSERT_TRUE(spilled.spilled());
  ASSERT_EQ(spilled.num_workers(), resident.num_workers());
  ASSERT_EQ(spilled.num_global_vertices(), resident.num_global_vertices());
  ASSERT_EQ(spilled.num_global_edges(), resident.num_global_edges());
  EXPECT_EQ(spilled.total_replicas(), resident.total_replicas());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(spilled.master_of(v), resident.master_of(v));
    EXPECT_EQ(spilled.master_local_of(v), resident.master_local_of(v));
    const auto pa = spilled.parts_of(v);
    const auto pb = resident.parts_of(v);
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    const auto la = spilled.local_ids_of(v);
    const auto lb = resident.local_ids_of(v);
    ASSERT_TRUE(std::equal(la.begin(), la.end(), lb.begin(), lb.end()));
  }
  for (PartitionId i = 0; i < resident.num_workers(); ++i) {
    expect_subgraph_equal(spilled.load_worker(i), resident.local(i));
  }
}

TEST(SpillStore, WeightedRoundTrip) {
  const Graph& g = weighted_graph();
  ASSERT_TRUE(g.has_weights());
  const EdgePartition partition = ebv_partition(g, 4);
  const DistributedGraph resident(g, partition);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("roundtrip_w.ebvw")});
  for (PartitionId i = 0; i < resident.num_workers(); ++i) {
    expect_subgraph_equal(spilled.load_worker(i), resident.local(i));
  }
}

TEST(SpillStore, ResidentModeRejectsLoadAndSpilledRejectsLocal) {
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 4);
  const DistributedGraph resident(g, partition);
  EXPECT_THROW((void)resident.load_worker(0), std::invalid_argument);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("reject.ebvw")});
  EXPECT_THROW((void)spilled.local(0), std::invalid_argument);
  EXPECT_THROW((void)spilled.load_worker(4), std::invalid_argument);
}

TEST(SpillStore, RejectsCorruptFiles) {
  const Graph& g = powerlaw_graph();
  const std::string path = temp_path("corrupt.ebvw");
  {
    const DistributedGraph spilled(g, ebv_partition(g, 4),
                                   {.spill_path = path});
  }
  EXPECT_THROW(bsp::SpillStore("/nonexistent/x.ebvw"), std::runtime_error);

  auto clobber = [&](std::size_t offset, char value,
                     const std::string& out) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[offset] = value;
    std::ofstream o(out, std::ios::binary | std::ios::trunc);
    o.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string bad = temp_path("corrupt_bad.ebvw");
  clobber(0, 'X', bad);  // magic
  EXPECT_THROW(bsp::SpillStore{bad}, std::runtime_error);
  clobber(4, 9, bad);  // version
  EXPECT_THROW(bsp::SpillStore{bad}, std::runtime_error);
  // Truncated: drop the worker table.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream o(bad, std::ios::binary | std::ios::trunc);
    o.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(bsp::SpillStore{bad}, std::runtime_error);
}

class SpillRunApps : public testing::TestWithParam<analysis::App> {};

TEST_P(SpillRunApps, BoundedResidencyBitIdenticalForEveryBudget) {
  const analysis::App app = GetParam();
  const Graph& g =
      app == analysis::App::kSssp ? weighted_graph() : powerlaw_graph();
  const auto baseline = analysis::run_experiment(g, "ebv", 8, app);
  for (const std::uint32_t k : {1u, 3u, 8u}) {
    RunOptions options;
    options.resident_workers = k;
    options.spill_dir = testing::TempDir();
    const auto bounded = analysis::run_experiment(g, "ebv", 8, app, options);
    expect_stats_identical(bounded.run, baseline.run);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, SpillRunApps,
                         testing::Values(analysis::App::kCC,
                                         analysis::App::kPageRank,
                                         analysis::App::kSssp),
                         [](const testing::TestParamInfo<analysis::App>& i) {
                           return analysis::app_name(i.param);
                         });

TEST(SpillRun, SpilledGraphWithUnboundedBudgetIsIdentical) {
  // k = 0 (and k >= p) on a spilled graph loads every worker once into a
  // persistent cache — the all-resident schedule over spilled storage.
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 6);
  const DistributedGraph resident(g, partition);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("unbounded.ebvw")});
  const apps::ConnectedComponents cc;
  const RunStats base = BspRuntime().run(resident, cc);
  expect_stats_identical(BspRuntime().run(spilled, cc), base);
  RunOptions over;
  over.resident_workers = 100;  // >= p: same unbounded schedule
  expect_stats_identical(BspRuntime(over).run(spilled, cc), base);
}

TEST(SpillRun, DeclaredAdjacencyIsRebuiltAfterEveryRelease) {
  // BFS is the only kBoth program in src/apps. Under a binding budget
  // the runtime drops each worker's adjacency with its subgraph and
  // rebuilds it in the next superstep's compute task, also on a
  // stealing team where compute and release tasks run concurrently.
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 6);
  const DistributedGraph resident(g, partition);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("bfs_adjacency.ebvw")});
  const apps::Bfs bfs(0);
  const RunStats base = BspRuntime().run(resident, bfs);
  ASSERT_GT(base.supersteps, 1u);
  for (const std::uint32_t k : {1u, 3u}) {
    for (const bool parallel : {false, true}) {
      RunOptions options;
      options.resident_workers = k;
      if (parallel) {
        options.policy = bsp::ExecutionPolicy::kParallel;
        options.num_threads = 4;
      }
      SCOPED_TRACE(testing::Message() << "k=" << k << " par=" << parallel);
      expect_stats_identical(BspRuntime(options).run(spilled, bfs), base);
    }
  }
}

TEST(SpillRun, BoundedSchedulerOnResidentGraphIsIdentical) {
  // The 3-sweep schedule itself (no spilling at all) must not move a bit.
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 6);
  const DistributedGraph dist(g, partition);
  const apps::ConnectedComponents cc;
  const RunStats base = BspRuntime().run(dist, cc);
  for (const std::uint32_t k : {1u, 2u, 5u, 6u, 100u}) {
    RunOptions options;
    options.resident_workers = k;
    expect_stats_identical(BspRuntime(options).run(dist, cc), base);
  }
}

TEST(SpillRun, ParallelPolicyMatchesSequentialUnderBudget) {
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 8);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("parallel.ebvw")});
  const apps::ConnectedComponents cc;
  RunOptions seq;
  seq.resident_workers = 3;
  RunOptions par = seq;
  par.policy = bsp::ExecutionPolicy::kParallel;
  par.num_threads = 4;
  expect_stats_identical(BspRuntime(par).run(spilled, cc),
                         BspRuntime(seq).run(spilled, cc));
}

TEST(SpillRun, StrictSchedulerBitIdenticalAcrossTeamAndPrefetch) {
  // The work-stealing task graph's ordering chains must not move a
  // single bit relative to the all-resident sequential baseline — at
  // every budget, with and without group prefetch, sequential and on a
  // stealing team. (Prefetch halves the group size, so this also pins
  // that regrouping is observation-free.)
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 8);
  const DistributedGraph resident(g, partition);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("strict_grid.ebvw")});
  const apps::ConnectedComponents cc;
  const RunStats base = BspRuntime().run(resident, cc);
  for (const std::uint32_t k : {1u, 3u, 8u}) {
    for (const bool prefetch : {false, true}) {
      for (const bool parallel : {false, true}) {
        RunOptions options;
        options.resident_workers = k;
        options.prefetch = prefetch;
        if (parallel) {
          options.policy = bsp::ExecutionPolicy::kParallel;
          options.num_threads = 4;
        }
        SCOPED_TRACE(testing::Message() << "k=" << k << " prefetch="
                                        << prefetch << " par=" << parallel);
        const RunStats run = BspRuntime(options).run(spilled, cc);
        expect_stats_identical(run, base);
        // The budget is a hard cap, not a target: loads gate on the
        // chained release sequence, so no schedule can overshoot k.
        EXPECT_LE(run.peak_resident_workers, k);
        EXPECT_GE(run.peak_resident_workers, 1u);
      }
    }
  }
}

TEST(SpillRun, ResidencyBudgetHoldsUnderWorkStealing) {
  // Regression for a straggler-release race: a phase's second-to-last
  // release task had no dependents, so under work stealing it could
  // still be pending when the next phase reloaded the same group —
  // cache[i].reset() racing the reload and the merge tasks reading the
  // subgraph, with transient residency above the budget. Loads now gate
  // on a chained release sequence; repeated parallel runs (varying
  // steal schedules) must never push the high-water mark past k.
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 8);
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("residency.ebvw")});
  const apps::ConnectedComponents cc;
  for (const std::uint32_t k : {1u, 2u, 3u, 5u, 7u}) {
    for (const bool prefetch : {false, true}) {
      for (int rep = 0; rep < 3; ++rep) {
        RunOptions options;
        options.resident_workers = k;
        options.prefetch = prefetch;
        options.policy = bsp::ExecutionPolicy::kParallel;
        options.num_threads = 4;
        SCOPED_TRACE(testing::Message() << "k=" << k << " prefetch="
                                        << prefetch << " rep=" << rep);
        const RunStats run = BspRuntime(options).run(spilled, cc);
        EXPECT_GE(run.peak_resident_workers, 1u);
        EXPECT_LE(run.peak_resident_workers, k);
      }
    }
  }
  // An unbounded budget over spilled storage materialises all p workers
  // once; a resident DistributedGraph never loads at all.
  EXPECT_EQ(BspRuntime().run(spilled, cc).peak_resident_workers, 8u);
  const DistributedGraph resident(g, partition);
  EXPECT_EQ(BspRuntime().run(resident, cc).peak_resident_workers, 0u);
}

TEST(SpillRun, CombiningReducesMessagesAndPreservesMinValues) {
  const Graph& g = powerlaw_graph();
  const EdgePartition partition = ebv_partition(g, 8);
  const DistributedGraph dist(g, partition);
  const apps::ConnectedComponents cc;
  const RunStats off = BspRuntime().run(dist, cc);
  EXPECT_EQ(off.raw_messages, off.total_messages);

  RunOptions options;
  options.combine_messages = true;
  const RunStats on = BspRuntime(options).run(dist, cc);
  // CC combines with min, which is order-insensitive: values, supersteps
  // and the logical emission count are unchanged; only the wire count
  // shrinks.
  EXPECT_EQ(on.values, off.values);
  EXPECT_EQ(on.supersteps, off.supersteps);
  EXPECT_EQ(on.raw_messages, off.total_messages);
  EXPECT_LT(on.total_messages, off.total_messages);

  // Combining composes with the bounded scheduler.
  RunOptions bounded = options;
  bounded.resident_workers = 2;
  const DistributedGraph spilled(
      g, partition, {.spill_path = temp_path("combine.ebvw")});
  const RunStats both = BspRuntime(bounded).run(spilled, cc);
  EXPECT_EQ(both.values, on.values);
  EXPECT_EQ(both.total_messages, on.total_messages);
  EXPECT_EQ(both.raw_messages, on.raw_messages);
}

TEST(SpillRun, MmapPipelineWithBudgetMatchesResidentPipeline) {
  // Full out-of-core closure: EBVS snapshot → mmap view → partition →
  // spilled DistributedGraph → bounded BSP, vs the all-resident pipeline.
  Graph g = gen::chung_lu(1200, 9000, 2.3, false, 23);
  g.set_name("spill-mmap-pin");
  const std::string snap = temp_path("spill_pipeline.ebvs");
  io::write_snapshot_file(snap, g);
  const MappedGraph mapped(snap);
  mapped.validate();
  const Graph canonical = io::read_snapshot_file(snap);

  RunOptions options;
  options.resident_workers = 1;
  options.spill_dir = testing::TempDir();
  const auto bounded = analysis::run_experiment(mapped.view(), "ebv", 8,
                                                analysis::App::kCC, options);
  const auto resident =
      analysis::run_experiment(canonical, "ebv", 8, analysis::App::kCC);
  expect_stats_identical(bounded.run, resident.run);
}

}  // namespace
}  // namespace ebv
