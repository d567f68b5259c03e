// The paper's three partition-quality metrics (§III-C):
//   edge imbalance factor    max_i |Ei| / (|E|/p)
//   vertex imbalance factor  max_i |Vi| / (Σ|Vi|/p)
//   replication factor       Σ|Vi| / |V|
// with V_i = vertices covered by E_i (vertex-cut semantics).
#pragma once

#include <vector>

#include "partition/partitioner.h"

namespace ebv {

struct PartitionMetrics {
  std::vector<std::uint64_t> edges_per_part;     // |Ei|
  std::vector<std::uint64_t> vertices_per_part;  // |Vi|
  std::uint64_t total_replicas = 0;              // Σ|Vi|
  double edge_imbalance = 0.0;
  double vertex_imbalance = 0.0;
  double replication_factor = 0.0;
};

/// Computes all metrics in one pass over the edge list. Accepts any
/// GraphView (a resident Graph converts implicitly; an mmap-backed
/// snapshot view streams its edge section).
/// Throws std::invalid_argument if the partition does not match the graph
/// (size mismatch or out-of-range part id).
PartitionMetrics compute_metrics(const GraphView& graph,
                                 const EdgePartition& partition);

/// Edge-cut (vertex partitioning) metrics — the paper's §III-C variant for
/// METIS-style partitioners: V_i are the *disjoint* owned vertex sets,
/// E_i = {(u,v) : u ∈ V_i ∨ v ∈ V_i} (cross edges replicated into both
/// parts), and the replication factor is Σ|Ei| / |E|.
PartitionMetrics compute_edge_cut_metrics(
    const GraphView& graph, const std::vector<PartitionId>& vertex_part,
    PartitionId num_parts);

}  // namespace ebv
