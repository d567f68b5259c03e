// Acceptance pin for the out-of-core BSP path: DistributedGraph built
// straight from an mmap-backed EBVS snapshot view, and the whole
// `run --mmap` pipeline (partition_view → DistributedGraph → BSP
// supersteps), must be BIT-IDENTICAL to the resident path on the same
// snapshot — structures, supersteps, message counts and final values.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "apps/cc.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "graph/generators.h"
#include "graph/mapped_graph.h"
#include "partition/registry.h"

namespace ebv {
namespace {

using bsp::DistributedGraph;

struct Snapshot {
  std::string path;
  Graph resident;  // read back from the file: same canonical edge order
};

const Snapshot& powerlaw_snapshot() {
  static const Snapshot s = [] {
    Graph g = gen::chung_lu(2000, 16000, 2.3, false, 11);
    g.set_name("mmap-run-pin");
    const std::string path = testing::TempDir() + "/mmap_run.ebvs";
    io::write_snapshot_file(path, g);
    return Snapshot{path, io::read_snapshot_file(path)};
  }();
  return s;
}

const Snapshot& weighted_snapshot() {
  static const Snapshot s = [] {
    Graph g = gen::road_grid(24, 24, 0.9, 11);  // weighted, for SSSP
    g.set_name("mmap-run-weighted");
    const std::string path = testing::TempDir() + "/mmap_run_w.ebvs";
    io::write_snapshot_file(path, g);
    return Snapshot{path, io::read_snapshot_file(path)};
  }();
  return s;
}

void expect_identical(const DistributedGraph& a, const DistributedGraph& b) {
  ASSERT_EQ(a.num_workers(), b.num_workers());
  ASSERT_EQ(a.num_global_vertices(), b.num_global_vertices());
  ASSERT_EQ(a.num_global_edges(), b.num_global_edges());
  EXPECT_EQ(a.total_replicas(), b.total_replicas());
  for (VertexId v = 0; v < a.num_global_vertices(); ++v) {
    EXPECT_EQ(a.master_of(v), b.master_of(v));
    const auto pa = a.parts_of(v);
    const auto pb = b.parts_of(v);
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
  }
  for (PartitionId i = 0; i < a.num_workers(); ++i) {
    const auto& la = a.local(i);
    const auto& lb = b.local(i);
    EXPECT_EQ(la.global_ids, lb.global_ids);
    EXPECT_EQ(la.edges, lb.edges);
    EXPECT_EQ(la.edge_weights, lb.edge_weights);
    EXPECT_EQ(la.is_replicated, lb.is_replicated);
    EXPECT_EQ(la.is_master, lb.is_master);
    EXPECT_EQ(la.master_part, lb.master_part);
    EXPECT_EQ(la.global_out_degree, lb.global_out_degree);
  }
}

TEST(MmapRun, DistributedGraphMatchesResident) {
  const Snapshot& s = powerlaw_snapshot();
  const auto partition =
      make_partitioner("ebv")->partition(s.resident, {.num_parts = 8});

  const MappedGraph mapped(s.path);
  mapped.validate();
  const DistributedGraph via_mmap(mapped.view(), partition);
  const DistributedGraph via_resident(s.resident, partition);
  expect_identical(via_mmap, via_resident);
}

TEST(MmapRun, BspResultsBitIdentical) {
  const Snapshot& s = powerlaw_snapshot();
  const auto partition =
      make_partitioner("ebv")->partition(s.resident, {.num_parts = 8});

  const MappedGraph mapped(s.path);
  mapped.validate();
  const DistributedGraph via_mmap(mapped.view(), partition);
  const DistributedGraph via_resident(s.resident, partition);

  const apps::ConnectedComponents cc;
  const bsp::BspRuntime runtime;
  const bsp::RunStats rm = runtime.run(via_mmap, cc);
  const bsp::RunStats rr = runtime.run(via_resident, cc);
  EXPECT_EQ(rm.supersteps, rr.supersteps);
  EXPECT_EQ(rm.total_messages, rr.total_messages);
  EXPECT_EQ(rm.messages_sent_per_worker, rr.messages_sent_per_worker);
  EXPECT_EQ(rm.values, rr.values);  // exact doubles
}

class MmapRunPipeline : public testing::TestWithParam<analysis::App> {};

TEST_P(MmapRunPipeline, ExperimentPipelineBitIdentical) {
  const analysis::App app = GetParam();
  const Snapshot& s =
      app == analysis::App::kSssp ? weighted_snapshot() : powerlaw_snapshot();

  const MappedGraph mapped(s.path);
  mapped.validate();
  const auto via_mmap =
      analysis::run_experiment(mapped.view(), "ebv", 8, app);
  const auto via_resident = analysis::run_experiment(s.resident, "ebv", 8, app);

  EXPECT_EQ(via_mmap.num_parts, via_resident.num_parts);
  EXPECT_EQ(via_mmap.metrics.total_replicas,
            via_resident.metrics.total_replicas);
  EXPECT_EQ(via_mmap.metrics.edges_per_part,
            via_resident.metrics.edges_per_part);
  EXPECT_EQ(via_mmap.metrics.vertices_per_part,
            via_resident.metrics.vertices_per_part);
  EXPECT_EQ(via_mmap.run.supersteps, via_resident.run.supersteps);
  EXPECT_EQ(via_mmap.run.total_messages, via_resident.run.total_messages);
  EXPECT_EQ(via_mmap.run.messages_sent_per_worker,
            via_resident.run.messages_sent_per_worker);
  EXPECT_EQ(via_mmap.run.values, via_resident.run.values);
  // Virtual-time accounting is deterministic, so even the cost-model
  // outputs must agree to the last bit.
  EXPECT_EQ(via_mmap.run.execution_seconds, via_resident.run.execution_seconds);
  EXPECT_EQ(via_mmap.run.comp_seconds, via_resident.run.comp_seconds);
  EXPECT_EQ(via_mmap.run.comm_seconds, via_resident.run.comm_seconds);
  EXPECT_EQ(via_mmap.run.delta_c_seconds, via_resident.run.delta_c_seconds);
}

INSTANTIATE_TEST_SUITE_P(AllApps, MmapRunPipeline,
                         testing::Values(analysis::App::kCC,
                                         analysis::App::kPageRank,
                                         analysis::App::kSssp),
                         [](const auto& param_info) {
                           return analysis::app_name(param_info.param);
                         });

}  // namespace
}  // namespace ebv
