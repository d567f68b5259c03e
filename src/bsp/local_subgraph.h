// LocalSubgraph: one worker's share of a vertex-cut partitioned graph —
// local edges over dense local vertex ids, the ascending local→global id
// table, and the per-vertex replica/master metadata the BSP runtime
// routes by. Produced either resident (DistributedGraph keeps all p at
// once) or materialised on demand from a worker-spill snapshot
// (bsp/spill_store.h), which is what bounds aggregate subgraph residency
// for graphs whose partitions exceed RAM. It holds no adjacency index:
// the runtime builds the one CSR a program declares
// (SubgraphProgram::adjacency()) from `edges` when the program runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ebv::bsp {

/// Worker-local subgraph. Edge endpoints are local ids; `global_ids`
/// translates back.
struct LocalSubgraph {
  PartitionId part = 0;

  std::vector<VertexId> global_ids;  // local -> global, ascending

  std::vector<Edge> edges;          // endpoints are local ids
  std::vector<float> edge_weights;  // empty when the graph is unweighted

  std::vector<std::uint8_t> is_replicated;  // per local vertex
  std::vector<std::uint8_t> is_master;      // per local vertex
  std::vector<PartitionId> master_part;     // per local vertex
  std::vector<std::uint32_t> global_out_degree;  // per local vertex

  [[nodiscard]] VertexId num_vertices() const {
    return static_cast<VertexId>(global_ids.size());
  }
  [[nodiscard]] EdgeId num_edges() const { return edges.size(); }
  [[nodiscard]] float weight(EdgeId e) const {
    return edge_weights.empty() ? 1.0f : edge_weights[e];
  }
  /// Local id of a global vertex, or kInvalidVertex if absent here.
  /// Binary search over the ascending `global_ids` (local ids are assigned
  /// in ascending global order), so no global→local hash map is stored.
  /// It serves a program's one source lookup per run (SSSP, BFS); the
  /// runtime's messages and DistributedGraph's edges carry local ids
  /// from the routing tables instead (ReplicaTable::local_ids_of).
  [[nodiscard]] VertexId local_of(VertexId global) const {
    const auto it =
        std::lower_bound(global_ids.begin(), global_ids.end(), global);
    if (it == global_ids.end() || *it != global) return kInvalidVertex;
    return static_cast<VertexId>(it - global_ids.begin());
  }
};

}  // namespace ebv::bsp
