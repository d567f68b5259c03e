#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bsp/distributed_graph.h"
#include "graph/generators.h"
#include "partition/metrics.h"
#include "partition/registry.h"

namespace ebv {
namespace {

using bsp::DistributedGraph;
using bsp::ReplicaTable;

EdgePartition round_robin(const Graph& g, PartitionId p) {
  EdgePartition part{p, std::vector<PartitionId>(g.num_edges())};
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.part_of_edge[e] = static_cast<PartitionId>(e % p);
  }
  return part;
}

TEST(DistributedGraph, LocalEdgeCountsSumToGlobal) {
  const Graph g = gen::chung_lu(500, 4000, 2.3, false, 1);
  const auto part = round_robin(g, 4);
  const DistributedGraph dist(g, part);
  std::uint64_t total = 0;
  for (PartitionId i = 0; i < 4; ++i) total += dist.local(i).num_edges();
  EXPECT_EQ(total, g.num_edges());
}

TEST(DistributedGraph, TotalReplicasMatchesMetrics) {
  const Graph g = gen::chung_lu(800, 6000, 2.2, false, 2);
  const auto part = make_partitioner("ebv")->partition(g, {.num_parts = 8});
  const DistributedGraph dist(g, part);
  const auto m = compute_metrics(g, part);
  EXPECT_EQ(dist.total_replicas(), m.total_replicas);
  std::uint64_t local_vertices = 0;
  for (PartitionId i = 0; i < 8; ++i) {
    local_vertices += dist.local(i).num_vertices();
  }
  EXPECT_EQ(local_vertices, m.total_replicas);
}

TEST(DistributedGraph, ExactlyOneMasterPerCoveredVertex) {
  const Graph g = gen::chung_lu(600, 5000, 2.3, false, 3);
  const auto part = round_robin(g, 6);
  const DistributedGraph dist(g, part);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& parts = dist.parts_of(v);
    if (parts.empty()) {
      EXPECT_EQ(dist.master_of(v), kInvalidPartition);
      continue;
    }
    int masters = 0;
    for (const PartitionId i : parts) {
      const auto& ls = dist.local(i);
      const VertexId lv = ls.local_of(v);
      ASSERT_NE(lv, kInvalidVertex);
      if (ls.is_master[lv] != 0) ++masters;
      EXPECT_EQ(ls.master_part[lv], dist.master_of(v));
    }
    EXPECT_EQ(masters, 1) << "vertex " << v;
    EXPECT_NE(std::find(parts.begin(), parts.end(), dist.master_of(v)),
              parts.end())
        << "master must hold a replica";
  }
}

TEST(DistributedGraph, MasterHoldsMostIncidentEdges) {
  // All edges of vertex 0 in part 1 except one in part 0: master is 1.
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  EdgePartition part{2, {0, 1, 1}};
  const DistributedGraph dist(g, part);
  EXPECT_EQ(dist.master_of(0), 1u);
}

TEST(DistributedGraph, LocalEdgesMapBackToGlobalEndpoints) {
  const Graph g = gen::erdos_renyi(300, 1500, 4);
  const auto part = round_robin(g, 3);
  const DistributedGraph dist(g, part);
  // Count per-(src,dst) multiset equality through local translation.
  std::multiset<std::pair<VertexId, VertexId>> global_edges;
  for (const Edge& e : g.edges()) global_edges.insert({e.src, e.dst});
  std::multiset<std::pair<VertexId, VertexId>> reconstructed;
  for (PartitionId i = 0; i < 3; ++i) {
    const auto& ls = dist.local(i);
    for (const Edge& e : ls.edges) {
      reconstructed.insert({ls.global_ids[e.src], ls.global_ids[e.dst]});
    }
  }
  EXPECT_EQ(global_edges, reconstructed);
}

TEST(DistributedGraph, ReplicationFlagsConsistent) {
  const Graph g = gen::chung_lu(400, 3000, 2.4, false, 6);
  const auto part = round_robin(g, 5);
  const DistributedGraph dist(g, part);
  for (PartitionId i = 0; i < 5; ++i) {
    const auto& ls = dist.local(i);
    for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
      const VertexId gv = ls.global_ids[lv];
      EXPECT_EQ(ls.is_replicated[lv] != 0, dist.parts_of(gv).size() > 1);
      EXPECT_EQ(ls.local_of(gv), lv);
    }
  }
}

TEST(DistributedGraph, GlobalOutDegreesArePreserved) {
  const Graph g = gen::chung_lu(300, 2500, 2.4, false, 7);
  const auto part = round_robin(g, 4);
  const DistributedGraph dist(g, part);
  for (PartitionId i = 0; i < 4; ++i) {
    const auto& ls = dist.local(i);
    for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
      EXPECT_EQ(ls.global_out_degree[lv], g.out_degree(ls.global_ids[lv]));
    }
  }
}

TEST(DistributedGraph, WeightsFollowEdges) {
  const Graph g = gen::road_grid(12, 12, 0.9, 8);
  const auto part = round_robin(g, 3);
  const DistributedGraph dist(g, part);
  std::vector<EdgeId> cursor(3, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const PartitionId i = part.part_of_edge[e];
    const auto& ls = dist.local(i);
    EXPECT_FLOAT_EQ(ls.weight(cursor[i]), g.weight(e));
    ++cursor[i];
  }
}

TEST(DistributedGraph, UncoveredVertexHasNoReplicas) {
  const Graph g(5, {{0, 1}});  // vertices 2..4 uncovered
  EdgePartition part{2, {0}};
  const DistributedGraph dist(g, part);
  EXPECT_TRUE(dist.parts_of(3).empty());
  EXPECT_EQ(dist.master_of(3), kInvalidPartition);
  EXPECT_EQ(dist.local(1).num_vertices(), 0u);
}

TEST(DistributedGraph, RejectsMismatchedPartition) {
  const Graph g(3, {{0, 1}, {1, 2}});
  EdgePartition bad{2, {0}};
  EXPECT_THROW(DistributedGraph(g, bad), std::invalid_argument);
}

TEST(ReplicaTable, RejectsInvalidPartitions) {
  const Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(ReplicaTable(g, EdgePartition{2, {0}}), std::invalid_argument);
  EXPECT_THROW(ReplicaTable(g, EdgePartition{2, {0, 2}}),
               std::invalid_argument);
  EXPECT_THROW(ReplicaTable(g, EdgePartition{0, {0, 0}}),
               std::invalid_argument);
}

// Regression: a self-loop is ONE incidence of its vertex, not two. With
// the old double count, part 0's single self-loop would tie part 1's two
// real edges (2 vs 2) and steal the master via the lowest-id tie-break.
TEST(DistributedGraph, SelfLoopCountsOneIncidence) {
  const Graph g(3, {{0, 0}, {0, 1}, {0, 2}});
  const EdgePartition part{2, {0, 1, 1}};
  const DistributedGraph dist(g, part);
  // Correct counts for vertex 0: part 0 holds 1 incident edge (the
  // self-loop), part 1 holds 2 — the master must be part 1.
  EXPECT_EQ(dist.master_of(0), 1u);
  // Membership itself is unaffected: vertex 0 is replicated on both parts.
  const auto parts = dist.parts_of(0);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], 0u);
  EXPECT_EQ(parts[1], 1u);
  // And Σ|Vi| still matches the metrics module on the same partition.
  EXPECT_EQ(dist.total_replicas(), compute_metrics(g, part).total_replicas);
}

TEST(DistributedGraph, OutOfRangeVertexIdThrows) {
  const Graph g(4, {{0, 1}, {2, 3}});
  const EdgePartition part{2, {0, 1}};
  const DistributedGraph dist(g, part);
  EXPECT_THROW((void)dist.parts_of(4), std::invalid_argument);
  EXPECT_THROW((void)dist.master_of(4), std::invalid_argument);
  EXPECT_THROW((void)dist.parts_of(kInvalidVertex), std::invalid_argument);
  EXPECT_THROW((void)dist.master_of(kInvalidVertex), std::invalid_argument);
  EXPECT_THROW((void)dist.local_ids_of(4), std::invalid_argument);
  EXPECT_THROW((void)dist.master_local_of(4), std::invalid_argument);
  EXPECT_THROW((void)dist.local_ids_of(kInvalidVertex), std::invalid_argument);
  EXPECT_THROW((void)dist.master_local_of(kInvalidVertex),
               std::invalid_argument);
}

// The routing tables name every replica by its local id, and the runtime
// indexes worker arrays with those ids unchecked against global_ids.
// Above 64 parts a replica mask spans several words, so the slot ranks
// that produce the ids cross word boundaries (p = 65 and 200). A
// standalone ReplicaTable (what `ebvpart serve` keeps) built from the same
// inputs must hold exactly the DistributedGraph's tables.
TEST(DistributedGraph, LocalIdsNameEveryReplica) {
  // Vertices 1500..1599 are isolated: no edge covers them.
  const Graph base = gen::chung_lu(1500, 12000, 2.2, false, 11);
  std::vector<Edge> edges(base.edges().begin(), base.edges().end());
  const Graph g(1600, edges);
  for (const PartitionId p : {1u, 63u, 64u, 65u, 200u}) {
    const EdgePartition random =
        make_partitioner("random")->partition(g, {.num_parts = p});
    for (const EdgePartition& part : {round_robin(g, p), random}) {
      SCOPED_TRACE(testing::Message() << "p=" << p);
      const DistributedGraph dist(g, part);
      const ReplicaTable table(g, part);
      ASSERT_EQ(table.num_global_vertices(), dist.num_global_vertices());
      ASSERT_EQ(table.total_replicas(), dist.total_replicas());
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto parts = dist.parts_of(v);
        const auto lvs = dist.local_ids_of(v);
        ASSERT_TRUE(std::ranges::equal(table.parts_of(v), parts)) << "v=" << v;
        ASSERT_TRUE(std::ranges::equal(table.local_ids_of(v), lvs))
            << "v=" << v;
        ASSERT_EQ(table.master_of(v), dist.master_of(v)) << "v=" << v;
        ASSERT_EQ(table.master_local_of(v), dist.master_local_of(v))
            << "v=" << v;
        ASSERT_EQ(lvs.size(), parts.size()) << "v=" << v;
        if (parts.empty()) {
          ASSERT_EQ(dist.master_local_of(v), kInvalidVertex) << "v=" << v;
          continue;
        }
        VertexId master_lv = kInvalidVertex;
        for (std::size_t k = 0; k < parts.size(); ++k) {
          const auto& ls = dist.local(parts[k]);
          ASSERT_LT(lvs[k], ls.num_vertices()) << "v=" << v;
          ASSERT_EQ(ls.global_ids[lvs[k]], v) << "v=" << v << " k=" << k;
          if (parts[k] == dist.master_of(v)) master_lv = lvs[k];
        }
        ASSERT_EQ(dist.master_local_of(v), master_lv) << "v=" << v;
      }
    }
  }
}

TEST(DistributedGraph, IsolatedVerticesStayUncovered) {
  // Vertices 5..9 have no incident edge anywhere.
  const Graph g(10, {{0, 1}, {1, 2}, {3, 4}});
  const auto part = round_robin(g, 3);
  const DistributedGraph dist(g, part);
  const auto m = compute_metrics(g, part);
  EXPECT_EQ(dist.total_replicas(), m.total_replicas);
  for (VertexId v = 5; v < 10; ++v) {
    EXPECT_TRUE(dist.parts_of(v).empty());
    EXPECT_EQ(dist.master_of(v), kInvalidPartition);
    for (PartitionId i = 0; i < 3; ++i) {
      EXPECT_EQ(dist.local(i).local_of(v), kInvalidVertex);
    }
  }
}

TEST(DistributedGraph, SinglePartHoldsEverythingUnreplicated) {
  const Graph g = gen::chung_lu(400, 3000, 2.3, false, 9);
  const auto part = round_robin(g, 1);
  const DistributedGraph dist(g, part);
  const auto m = compute_metrics(g, part);
  EXPECT_EQ(dist.num_workers(), 1u);
  EXPECT_EQ(dist.total_replicas(), m.total_replicas);
  EXPECT_EQ(dist.local(0).num_edges(), g.num_edges());
  const auto& ls = dist.local(0);
  for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
    EXPECT_EQ(ls.is_replicated[lv], 0);
    EXPECT_EQ(ls.is_master[lv], 1);
    EXPECT_EQ(ls.master_part[lv], 0u);
  }
}

TEST(DistributedGraph, FullyReplicatedGraphMatchesMetrics) {
  // Even cycle with alternating edge parts: every vertex touches one edge
  // in part 0 and one in part 1, so every covered vertex is replicated
  // everywhere and Σ|Vi| = 2|V|.
  const VertexId n = 16;
  std::vector<Edge> edges;
  std::vector<PartitionId> assignment;
  for (VertexId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<VertexId>((v + 1) % n)});
    assignment.push_back(v % 2);
  }
  const Graph g(n, edges);
  const EdgePartition part{2, assignment};
  const DistributedGraph dist(g, part);
  const auto m = compute_metrics(g, part);
  EXPECT_EQ(dist.total_replicas(), m.total_replicas);
  EXPECT_EQ(dist.total_replicas(), 2u * n);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(dist.parts_of(v).size(), 2u);
    for (PartitionId i = 0; i < 2; ++i) {
      const VertexId lv = dist.local(i).local_of(v);
      ASSERT_NE(lv, kInvalidVertex);
      EXPECT_EQ(dist.local(i).is_replicated[lv], 1);
    }
  }
}

}  // namespace
}  // namespace ebv
