#include "partition/metrics.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"
#include "obs/trace.h"
#include "partition/replica_masks.h"

namespace ebv {

PartitionMetrics compute_metrics(const GraphView& graph,
                                 const EdgePartition& partition) {
  const obs::trace::Span span("partition.metrics");
  EBV_REQUIRE(partition.part_of_edge.size() == graph.num_edges(),
              "partition size does not match the graph's edge count");
  const PartitionId p = partition.num_parts;

  PartitionMetrics m;
  m.edges_per_part.assign(p, 0);
  m.vertices_per_part.assign(p, 0);

  // Vertex membership as vertex-major bitmasks (|V|·⌈p/64⌉ words) rather
  // than a part-major p×|V| byte matrix: 8× smaller, which matters
  // because the metrics pass follows an out-of-core `--mmap` partition
  // run and must not become its resident high-water mark.
  ReplicaMasks member(graph.num_vertices(), p);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const PartitionId i = partition.part_of_edge[e];
    EBV_REQUIRE(i < p, "edge assigned to invalid part");
    ++m.edges_per_part[i];
    member.set(graph.edge(e).src, i);
    member.set(graph.edge(e).dst, i);
  }
  const std::uint32_t words = member.words_per_vertex();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const std::uint64_t* row = member.row(v);
    for (std::uint32_t w = 0; w < words; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        ++m.vertices_per_part[static_cast<PartitionId>(w) * 64 +
                              static_cast<PartitionId>(
                                  std::countr_zero(bits))];
        bits &= bits - 1;
      }
    }
  }
  for (PartitionId i = 0; i < p; ++i) {
    m.total_replicas += m.vertices_per_part[i];
  }

  const std::uint64_t max_edges =
      *std::max_element(m.edges_per_part.begin(), m.edges_per_part.end());
  const std::uint64_t max_vertices = *std::max_element(
      m.vertices_per_part.begin(), m.vertices_per_part.end());

  m.edge_imbalance = graph.num_edges() == 0
                         ? 1.0
                         : static_cast<double>(max_edges) /
                               (static_cast<double>(graph.num_edges()) / p);
  m.vertex_imbalance = m.total_replicas == 0
                           ? 1.0
                           : static_cast<double>(max_vertices) /
                                 (static_cast<double>(m.total_replicas) / p);
  m.replication_factor =
      graph.num_vertices() == 0
          ? 0.0
          : static_cast<double>(m.total_replicas) / graph.num_vertices();
  return m;
}

PartitionMetrics compute_edge_cut_metrics(
    const GraphView& graph, const std::vector<PartitionId>& vertex_part,
    PartitionId num_parts) {
  EBV_REQUIRE(vertex_part.size() == graph.num_vertices(),
              "vertex partition does not match the graph");
  PartitionMetrics m;
  m.edges_per_part.assign(num_parts, 0);
  m.vertices_per_part.assign(num_parts, 0);
  for (const PartitionId i : vertex_part) {
    EBV_REQUIRE(i < num_parts, "vertex assigned to invalid part");
    ++m.vertices_per_part[i];
  }
  std::uint64_t total_edge_replicas = 0;
  for (const Edge& e : graph.edges()) {
    const PartitionId a = vertex_part[e.src];
    const PartitionId b = vertex_part[e.dst];
    ++m.edges_per_part[a];
    ++total_edge_replicas;
    if (a != b) {
      ++m.edges_per_part[b];
      ++total_edge_replicas;
    }
  }
  m.total_replicas = graph.num_vertices();  // Σ|Vi| = |V| for edge-cut

  const std::uint64_t max_edges =
      *std::max_element(m.edges_per_part.begin(), m.edges_per_part.end());
  const std::uint64_t max_vertices = *std::max_element(
      m.vertices_per_part.begin(), m.vertices_per_part.end());
  m.edge_imbalance =
      graph.num_edges() == 0
          ? 1.0
          : static_cast<double>(max_edges) /
                (static_cast<double>(graph.num_edges()) / num_parts);
  m.vertex_imbalance =
      graph.num_vertices() == 0
          ? 1.0
          : static_cast<double>(max_vertices) /
                (static_cast<double>(graph.num_vertices()) / num_parts);
  m.replication_factor =
      graph.num_edges() == 0
          ? 0.0
          : static_cast<double>(total_edge_replicas) /
                static_cast<double>(graph.num_edges());
  return m;
}

}  // namespace ebv
