#include <gtest/gtest.h>

#include <vector>

#include "bsp/replica_table.h"
#include "graph/generators.h"
#include "partition/metrics.h"

namespace ebv {
namespace {

TEST(Metrics, HandComputedTriangle) {
  // Triangle split: edges (0,1),(1,2) in part 0, (2,0) in part 1.
  const Graph g(3, {{0, 1}, {1, 2}, {2, 0}});
  EdgePartition part{2, {0, 0, 1}};
  const auto m = compute_metrics(g, part);
  // V0 = {0,1,2}, V1 = {0,2}.
  EXPECT_EQ(m.edges_per_part, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(m.vertices_per_part, (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(m.total_replicas, 5u);
  EXPECT_DOUBLE_EQ(m.replication_factor, 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.edge_imbalance, 2.0 / (3.0 / 2.0));
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 3.0 / (5.0 / 2.0));
}

TEST(Metrics, PerfectSplit) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EdgePartition part{2, {0, 1}};
  const auto m = compute_metrics(g, part);
  EXPECT_DOUBLE_EQ(m.edge_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(m.replication_factor, 1.0);
}

TEST(Metrics, AllEdgesInOnePartOfTwo) {
  const Graph g(3, {{0, 1}, {1, 2}});
  EdgePartition part{2, {0, 0}};
  const auto m = compute_metrics(g, part);
  EXPECT_DOUBLE_EQ(m.edge_imbalance, 2.0);  // 2 / (2/2)
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 2.0);
  EXPECT_DOUBLE_EQ(m.replication_factor, 1.0);
}

TEST(Metrics, ReplicationFactorAtLeastOneWhenAllVerticesCovered) {
  const Graph g = gen::chung_lu(500, 5000, 2.3, false, 1);
  EdgePartition part{4, std::vector<PartitionId>(g.num_edges())};
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.part_of_edge[e] = static_cast<PartitionId>(e % 4);
  }
  const auto m = compute_metrics(g, part);
  // Isolated vertices are not covered, so the factor is over covered only.
  EXPECT_GT(m.replication_factor, 0.9);
  EXPECT_LE(m.replication_factor, 4.0);
}

TEST(Metrics, MismatchedSizesThrow) {
  const Graph g(3, {{0, 1}});
  EdgePartition bad{2, {0, 1}};  // two entries, one edge
  EXPECT_THROW(compute_metrics(g, bad), std::invalid_argument);
}

TEST(Metrics, OutOfRangePartThrows) {
  const Graph g(3, {{0, 1}});
  EdgePartition bad{2, {5}};
  EXPECT_THROW(compute_metrics(g, bad), std::invalid_argument);
}

// V_i = the vertices covered by E_i, as the routing table holds them.
TEST(Metrics, VertexMembershipMatchesDefinition) {
  const Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EdgePartition part{2, {0, 1, 0}};
  const bsp::ReplicaTable table(g, part);
  // Part 0 covers {0,1} and {2,3}; part 1 covers {1,2}.
  using Parts = std::vector<PartitionId>;
  const auto parts_of = [&](VertexId v) {
    const auto parts = table.parts_of(v);
    return Parts(parts.begin(), parts.end());
  };
  EXPECT_EQ(parts_of(0), (Parts{0}));
  EXPECT_EQ(parts_of(1), (Parts{0, 1}));
  EXPECT_EQ(parts_of(2), (Parts{0, 1}));
  EXPECT_EQ(parts_of(3), (Parts{0}));
  EXPECT_EQ(table.total_replicas(), compute_metrics(g, part).total_replicas);
}

TEST(EdgeCutMetrics, HandComputedTriangle) {
  // Triangle, vertex partition {0,1} -> part 0, {2} -> part 1.
  const Graph g(3, {{0, 1}, {1, 2}, {2, 0}});
  const std::vector<PartitionId> vpart = {0, 0, 1};
  const auto m = compute_edge_cut_metrics(g, vpart, 2);
  // E0 = all three edges (each touches 0 or 1); E1 = (1,2) and (2,0).
  EXPECT_EQ(m.edges_per_part, (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(m.vertices_per_part, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_DOUBLE_EQ(m.replication_factor, 5.0 / 3.0);  // Σ|Ei| / |E|
  EXPECT_DOUBLE_EQ(m.edge_imbalance, 3.0 / (3.0 / 2.0));
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 2.0 / (3.0 / 2.0));
}

TEST(EdgeCutMetrics, NoCutEdgesGiveReplicationOne) {
  const Graph g(4, {{0, 1}, {2, 3}});
  const std::vector<PartitionId> vpart = {0, 0, 1, 1};
  const auto m = compute_edge_cut_metrics(g, vpart, 2);
  EXPECT_DOUBLE_EQ(m.replication_factor, 1.0);
  EXPECT_DOUBLE_EQ(m.edge_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(m.vertex_imbalance, 1.0);
}

TEST(EdgeCutMetrics, ReplicationNeverExceedsTwo) {
  // An edge touches at most two parts, so Σ|Ei|/|E| ≤ 2 always.
  const Graph g = gen::chung_lu(500, 5000, 2.2, false, 9);
  std::vector<PartitionId> vpart(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vpart[v] = static_cast<PartitionId>(v % 7);
  }
  const auto m = compute_edge_cut_metrics(g, vpart, 7);
  EXPECT_GE(m.replication_factor, 1.0);
  EXPECT_LE(m.replication_factor, 2.0);
}

TEST(EdgeCutMetrics, RejectsBadInput) {
  const Graph g(3, {{0, 1}});
  EXPECT_THROW(compute_edge_cut_metrics(g, {0, 1}, 2),
               std::invalid_argument);  // size mismatch
  EXPECT_THROW(compute_edge_cut_metrics(g, {0, 5, 1}, 2),
               std::invalid_argument);  // part out of range
}

TEST(Metrics, EmptyPartsAreCounted) {
  const Graph g(2, {{0, 1}});
  EdgePartition part{3, {1}};
  const auto m = compute_metrics(g, part);
  EXPECT_EQ(m.edges_per_part, (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_DOUBLE_EQ(m.edge_imbalance, 3.0);
}

}  // namespace
}  // namespace ebv
