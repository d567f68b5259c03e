// Shared validity properties for every registered partitioner, plus
// algorithm-specific behavioural tests for the baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.h"
#include "partition/cvc.h"
#include "partition/dbh.h"
#include "partition/metrics.h"
#include "partition/registry.h"

namespace ebv {
namespace {

class AllPartitioners : public testing::TestWithParam<std::string> {
 protected:
  static PartitionConfig config(PartitionId p) {
    PartitionConfig c;
    c.num_parts = p;
    return c;
  }
};

TEST_P(AllPartitioners, EveryEdgeAssignedToValidPart) {
  const Graph g = gen::chung_lu(800, 6000, 2.3, false, 3);
  const auto partitioner = make_partitioner(GetParam());
  const EdgePartition part = partitioner->partition(g, config(6));
  ASSERT_EQ(part.num_parts, 6u);
  ASSERT_EQ(part.part_of_edge.size(), g.num_edges());
  for (const PartitionId i : part.part_of_edge) EXPECT_LT(i, 6u);
}

TEST_P(AllPartitioners, DeterministicUnderFixedSeed) {
  const Graph g = gen::chung_lu(500, 3000, 2.4, false, 5);
  const auto partitioner = make_partitioner(GetParam());
  const auto a = partitioner->partition(g, config(4));
  const auto b = partitioner->partition(g, config(4));
  EXPECT_EQ(a.part_of_edge, b.part_of_edge);
}

TEST_P(AllPartitioners, SinglePartIsTrivial) {
  const Graph g = gen::erdos_renyi(200, 800, 9);
  const auto partitioner = make_partitioner(GetParam());
  const auto part = partitioner->partition(g, config(1));
  for (const PartitionId i : part.part_of_edge) EXPECT_EQ(i, 0u);
}

TEST_P(AllPartitioners, WorksOnRoadGraph) {
  const Graph g = gen::road_grid(20, 20, 0.9, 2);
  const auto partitioner = make_partitioner(GetParam());
  const auto part = partitioner->partition(g, config(4));
  const auto m = compute_metrics(g, part);
  EXPECT_GE(m.replication_factor, 1.0 - 1e-12);
}

TEST_P(AllPartitioners, RejectsZeroParts) {
  const Graph g = gen::erdos_renyi(50, 100, 1);
  const auto partitioner = make_partitioner(GetParam());
  EXPECT_THROW(partitioner->partition(g, config(0)), std::invalid_argument);
}

TEST_P(AllPartitioners, MorePartsNeverLowersReplication) {
  const Graph g = gen::chung_lu(600, 5000, 2.3, false, 8);
  const auto partitioner = make_partitioner(GetParam());
  const auto m2 = compute_metrics(g, partitioner->partition(g, config(2)));
  const auto m16 = compute_metrics(g, partitioner->partition(g, config(16)));
  EXPECT_LE(m2.replication_factor, m16.replication_factor + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Registry, AllPartitioners,
                         testing::ValuesIn(all_partitioners()),
                         [](const auto& param_info) {
                           // gtest names must be alphanumeric.
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_partitioner("bogus"), std::invalid_argument);
}

TEST(Registry, PaperSixAreRegistered) {
  for (const auto& name : paper_partitioners()) {
    EXPECT_EQ(make_partitioner(name)->name(), name);
  }
}

// --- DBH ------------------------------------------------------------------

TEST(Dbh, EdgesOfLowDegreeVertexStayTogether) {
  // Star + pendant: all star edges hash on the leaf (lower degree), so
  // each leaf's single edge placement is determined by that leaf alone —
  // two edges sharing the same low-degree endpoint must colocate.
  const Graph g(6, {{0, 1}, {1, 0}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  const DbhPartitioner dbh;
  PartitionConfig c;
  c.num_parts = 3;
  const auto part = dbh.partition(g, c);
  // Edges 0 and 1 both connect {0,1}; vertex 1 has the lower degree.
  EXPECT_EQ(part.part_of_edge[0], part.part_of_edge[1]);
}

TEST(Dbh, RoughEdgeBalanceOnPowerLaw) {
  const Graph g = gen::chung_lu(3000, 30000, 2.0, false, 4);
  const DbhPartitioner dbh;
  PartitionConfig c;
  c.num_parts = 8;
  const auto m = compute_metrics(g, dbh.partition(g, c));
  EXPECT_LT(m.edge_imbalance, 1.3);
  EXPECT_LT(m.vertex_imbalance, 1.3);
}

// --- CVC --------------------------------------------------------------------

TEST(Cvc, GridShapeFactorisations) {
  EXPECT_EQ(CvcPartitioner::grid_shape(12), (std::pair<PartitionId, PartitionId>{3, 4}));
  EXPECT_EQ(CvcPartitioner::grid_shape(32), (std::pair<PartitionId, PartitionId>{4, 8}));
  EXPECT_EQ(CvcPartitioner::grid_shape(7), (std::pair<PartitionId, PartitionId>{1, 7}));
  EXPECT_EQ(CvcPartitioner::grid_shape(16), (std::pair<PartitionId, PartitionId>{4, 4}));
  EXPECT_EQ(CvcPartitioner::grid_shape(1), (std::pair<PartitionId, PartitionId>{1, 1}));
}

TEST(Cvc, VertexReplicasBoundedByGridCross) {
  const Graph g = gen::chung_lu(1000, 10000, 2.0, false, 6);
  const CvcPartitioner cvc;
  PartitionConfig c;
  c.num_parts = 12;  // 3x4 grid: a vertex touches <= r + c - 1 = 6 parts
  const auto part = cvc.partition(g, c);
  std::vector<std::set<PartitionId>> parts_of(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    parts_of[g.edge(e).src].insert(part.part_of_edge[e]);
    parts_of[g.edge(e).dst].insert(part.part_of_edge[e]);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(parts_of[v].size(), 6u);
  }
}

// --- Ginger / HDRF behavioural expectations ---------------------------------

TEST(Ginger, BeatsRandomOnReplication) {
  const Graph g = gen::chung_lu(2000, 16000, 2.3, false, 12);
  PartitionConfig c;
  c.num_parts = 8;
  const auto ginger =
      compute_metrics(g, make_partitioner("ginger")->partition(g, c));
  const auto random =
      compute_metrics(g, make_partitioner("random")->partition(g, c));
  EXPECT_LT(ginger.replication_factor, random.replication_factor);
}

TEST(Hdrf, BeatsRandomOnReplicationAndStaysBalanced) {
  const Graph g = gen::chung_lu(2000, 16000, 2.3, false, 12);
  PartitionConfig c;
  c.num_parts = 8;
  const auto hdrf =
      compute_metrics(g, make_partitioner("hdrf")->partition(g, c));
  const auto random =
      compute_metrics(g, make_partitioner("random")->partition(g, c));
  EXPECT_LT(hdrf.replication_factor, random.replication_factor);
  EXPECT_LT(hdrf.edge_imbalance, 1.2);
}

// --- NE ----------------------------------------------------------------------

TEST(Ne, EdgeBalancedWithLowReplication) {
  const Graph g = gen::chung_lu(2000, 16000, 2.3, false, 13);
  PartitionConfig c;
  c.num_parts = 8;
  const auto ne = compute_metrics(g, make_partitioner("ne")->partition(g, c));
  const auto random =
      compute_metrics(g, make_partitioner("random")->partition(g, c));
  EXPECT_LT(ne.edge_imbalance, 1.15) << "NE balances edges by construction";
  EXPECT_LT(ne.replication_factor, random.replication_factor)
      << "NE keeps local structure";
}

TEST(Ne, VertexImbalanceGrowsWithSkew) {
  PartitionConfig c;
  c.num_parts = 8;
  const Graph skewed = gen::chung_lu(3000, 24000, 2.0, false, 14);
  const Graph road = gen::road_grid(55, 55, 0.92, 14);
  const auto m_skewed =
      compute_metrics(skewed, make_partitioner("ne")->partition(skewed, c));
  const auto m_road =
      compute_metrics(road, make_partitioner("ne")->partition(road, c));
  EXPECT_GT(m_skewed.vertex_imbalance, m_road.vertex_imbalance);
}

}  // namespace
}  // namespace ebv
