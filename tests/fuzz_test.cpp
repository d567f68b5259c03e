// Randomised equivalence sweeps: for random graphs × random partitions,
// the distributed programs must agree with the sequential references, and
// the runtime must be exactly deterministic.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "common/rng.h"
#include "graph/generators.h"

namespace ebv {
namespace {

using bsp::BspRuntime;
using bsp::DistributedGraph;

Graph random_graph(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0xF0));
  const auto n = static_cast<VertexId>(20 + bounded(rng, 400));
  const auto m = static_cast<EdgeId>(n + bounded(rng, n * 6));
  switch (bounded(rng, 3)) {
    case 0: return gen::erdos_renyi(n, m, seed);
    case 1:
      return gen::chung_lu(
          n, m, 2.0 + 0.01 * static_cast<double>(bounded(rng, 150)), false,
          seed);
    default: return gen::barabasi_albert(n, 2 + static_cast<std::uint32_t>(bounded(rng, 3)), seed);
  }
}

EdgePartition random_partition(const Graph& g, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0xF1));
  const auto p = static_cast<PartitionId>(1 + bounded(rng, 9));
  EdgePartition part{p, std::vector<PartitionId>(g.num_edges())};
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.part_of_edge[e] = static_cast<PartitionId>(bounded(rng, p));
  }
  return part;
}

class FuzzSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, CcMatchesReferenceUnderRandomPartition) {
  const Graph g = random_graph(GetParam());
  const DistributedGraph dist(g, random_partition(g, GetParam()));
  const auto run = BspRuntime().run(dist, apps::ConnectedComponents());
  const auto expected = apps::cc_reference(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(run.values[v], static_cast<double>(expected[v]))
        << "seed=" << GetParam() << " v=" << v;
  }
}

TEST_P(FuzzSweep, SsspMatchesReferenceUnderRandomPartition) {
  const Graph g = random_graph(GetParam() + 1000);
  const DistributedGraph dist(g, random_partition(g, GetParam() + 1000));
  const VertexId source = g.num_vertices() / 2;
  const auto run = BspRuntime().run(dist, apps::Sssp(source));
  const auto expected = apps::sssp_reference(g, source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (std::isinf(expected[v])) {
      ASSERT_TRUE(std::isinf(run.values[v])) << "seed=" << GetParam();
    } else {
      ASSERT_NEAR(run.values[v], expected[v], 1e-6) << "seed=" << GetParam();
    }
  }
}

TEST_P(FuzzSweep, RuntimeIsExactlyDeterministic) {
  const Graph g = random_graph(GetParam() + 2000);
  const auto part = random_partition(g, GetParam() + 2000);
  const DistributedGraph dist(g, part);
  const apps::PageRank pr(g.num_vertices(), 8);
  const auto a = BspRuntime().run(dist, pr);
  const auto b = BspRuntime().run(dist, pr);
  ASSERT_EQ(a.supersteps, b.supersteps);
  ASSERT_EQ(a.total_messages, b.total_messages);
  ASSERT_EQ(a.values, b.values);
  ASSERT_EQ(a.execution_seconds, b.execution_seconds);
}

TEST_P(FuzzSweep, MessageConservation) {
  const Graph g = random_graph(GetParam() + 3000);
  const DistributedGraph dist(g, random_partition(g, GetParam() + 3000));
  const auto run = BspRuntime().run(dist, apps::ConnectedComponents());
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& step : run.steps) {
    for (const auto& w : step) {
      sent += w.messages_sent;
      received += w.messages_received;
    }
  }
  EXPECT_EQ(sent, run.total_messages);
  EXPECT_EQ(received, run.total_messages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ebv
