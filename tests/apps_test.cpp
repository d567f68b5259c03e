// Integration of the four applications with the BSP runtime: results must
// match the sequential references for EVERY partitioner in the registry.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/bfs.h"
#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "graph/generators.h"
#include "partition/registry.h"

namespace ebv {
namespace {

using bsp::BspRuntime;
using bsp::DistributedGraph;

class AppsOnAllPartitioners : public testing::TestWithParam<std::string> {
 protected:
  static DistributedGraph distribute(const Graph& g, PartitionId p,
                                     const std::string& name) {
    PartitionConfig c;
    c.num_parts = p;
    return DistributedGraph(g, make_partitioner(name)->partition(g, c));
  }
};

TEST_P(AppsOnAllPartitioners, CcMatchesUnionFind) {
  // Several components: two Chung-Lu blobs joined with an offset.
  Graph g = gen::chung_lu(400, 1500, 2.4, false, 3);
  const auto dist = distribute(g, 5, GetParam());
  const auto run = BspRuntime().run(dist, apps::ConnectedComponents());
  const auto expected = apps::cc_reference(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(run.values[v], static_cast<double>(expected[v])) << "v=" << v;
  }
}

TEST_P(AppsOnAllPartitioners, SsspMatchesDijkstraOnWeightedRoad) {
  const Graph g = gen::road_grid(15, 15, 0.9, 4);
  const auto dist = distribute(g, 4, GetParam());
  const auto run = BspRuntime().run(dist, apps::Sssp(0));
  const auto expected = apps::sssp_reference(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(run.values[v])) << "v=" << v;
    } else {
      EXPECT_NEAR(run.values[v], expected[v], 1e-4) << "v=" << v;
    }
  }
}

TEST_P(AppsOnAllPartitioners, PageRankMatchesPowerIteration) {
  const Graph g = gen::chung_lu(300, 2000, 2.4, false, 5);
  const auto dist = distribute(g, 4, GetParam());
  const apps::PageRank pr(g.num_vertices(), 15);
  const auto run = BspRuntime().run(dist, pr);
  const auto expected = apps::pagerank_reference(g, 15);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(run.values[v], expected[v], 1e-9) << "v=" << v;
  }
}

TEST_P(AppsOnAllPartitioners, BfsMatchesReference) {
  const Graph g = gen::erdos_renyi(300, 1200, 6);
  const auto dist = distribute(g, 3, GetParam());
  const auto run = BspRuntime().run(dist, apps::Bfs(0));
  const auto expected = apps::bfs_reference(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(run.values[v]));
    } else {
      EXPECT_EQ(run.values[v], expected[v]) << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, AppsOnAllPartitioners,
                         testing::ValuesIn(all_partitioners()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Single-partitioner behavioural checks ---------------------------------

TEST(Apps, CcConvergesInOneSuperstepOnOneWorker) {
  const Graph g = gen::erdos_renyi(100, 500, 9);
  PartitionConfig c;
  c.num_parts = 1;
  const DistributedGraph dist(
      g, make_partitioner("hash")->partition(g, c));
  const auto run = BspRuntime().run(dist, apps::ConnectedComponents());
  EXPECT_EQ(run.supersteps, 1u)
      << "local label propagation converges fully inside the subgraph";
}

TEST(Apps, SsspUnreachableStaysInfinite) {
  // Two disjoint edges; source 0 cannot reach {2,3}.
  const Graph g(4, {{0, 1}, {2, 3}});
  PartitionConfig c;
  c.num_parts = 2;
  const DistributedGraph dist(g, make_partitioner("hash")->partition(g, c));
  const auto run = BspRuntime().run(dist, apps::Sssp(0));
  EXPECT_EQ(run.values[1], 1.0);
  EXPECT_TRUE(std::isinf(run.values[2]));
  EXPECT_TRUE(std::isinf(run.values[3]));
}

TEST(Apps, PageRankMassIsBoundedWithoutDanglingRedistribution) {
  const Graph g = gen::chung_lu(200, 1500, 2.3, false, 7);
  PartitionConfig c;
  c.num_parts = 3;
  const DistributedGraph dist(g, make_partitioner("dbh")->partition(g, c));
  const apps::PageRank pr(g.num_vertices(), 10);
  const auto run = BspRuntime().run(dist, pr);
  double total = 0.0;
  for (const double r : run.values) {
    EXPECT_GT(r, 0.0);
    total += r;
  }
  EXPECT_LE(total, 1.0 + 1e-9);  // dangling vertices leak mass
  EXPECT_GT(total, 0.1);
}

TEST(Apps, PageRankSinkGraphPinsDanglingMassLoss) {
  // Explicit-sink pin of the documented deviation (src/apps/pagerank.h):
  // dangling mass is dropped, not redistributed. A 4-chain into sink 3
  // (plus a 0↔1 back edge so iteration keeps circulating mass) must lose
  // exactly the sink's damped mass each round — checked against the
  // reference implementation, which drops the same mass.
  const Graph g(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}});  // 3 is a sink
  PartitionConfig c;
  c.num_parts = 2;
  const DistributedGraph dist(g, make_partitioner("hash")->partition(g, c));

  const auto expected_short = apps::pagerank_reference(g, 5);
  const auto run_short =
      BspRuntime().run(dist, apps::PageRank(g.num_vertices(), 5));
  const auto expected_long = apps::pagerank_reference(g, 10);
  const auto run_long =
      BspRuntime().run(dist, apps::PageRank(g.num_vertices(), 10));
  double bsp_short = 0.0;
  double bsp_long = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(run_short.values[v], expected_short[v], 1e-9) << "v=" << v;
    EXPECT_NEAR(run_long.values[v], expected_long[v], 1e-9) << "v=" << v;
    bsp_short += run_short.values[v];
    bsp_long += run_long.values[v];
  }
  // The deviation itself: Σ rank < 1 and still shrinking with more
  // iterations. If someone adds dangling redistribution, this pin (and
  // the header note) must change together.
  EXPECT_LT(bsp_short, 1.0 - 1e-3);
  EXPECT_LT(bsp_long, bsp_short - 1e-4);
}

TEST(Apps, PageRankRunsExactlyConfiguredSupersteps) {
  const Graph g = gen::erdos_renyi(100, 600, 8);
  PartitionConfig c;
  c.num_parts = 2;
  const DistributedGraph dist(g, make_partitioner("hash")->partition(g, c));
  const apps::PageRank pr(g.num_vertices(), 12);
  const auto run = BspRuntime().run(dist, pr);
  EXPECT_EQ(run.supersteps, 12u);
}

TEST(Apps, SsspSourceOutsideGraphLeavesAllInfinite) {
  const Graph g(3, {{0, 1}, {1, 2}});
  PartitionConfig c;
  c.num_parts = 2;
  const DistributedGraph dist(g, make_partitioner("hash")->partition(g, c));
  const auto run = BspRuntime().run(dist, apps::Sssp(99));
  for (VertexId v = 0; v < 3; ++v) EXPECT_TRUE(std::isinf(run.values[v]));
}

TEST(Apps, CcMessageVolumeTracksReplication) {
  // More parts -> more replicas -> more messages for the same graph.
  const Graph g = gen::chung_lu(600, 5000, 2.2, false, 10);
  auto run_with_parts = [&](PartitionId p) {
    PartitionConfig c;
    c.num_parts = p;
    const DistributedGraph dist(g,
                                make_partitioner("random")->partition(g, c));
    return BspRuntime().run(dist, apps::ConnectedComponents()).total_messages;
  };
  EXPECT_LT(run_with_parts(2), run_with_parts(16));
}

}  // namespace
}  // namespace ebv
