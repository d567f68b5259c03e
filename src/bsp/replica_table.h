// ReplicaTable: the replica routing metadata of a vertex-cut partitioned
// graph, kept apart from any worker's local edges (paper §IV-B):
//   - a vertex lives on every part holding one of its edges; one covered
//     by edges in several parts is *replicated*;
//   - one replica is designated the master (the part holding the most
//     incident edges, ties to the lowest part id; a self-loop counts as
//     one incidence) — masters combine values from mirrors and broadcast
//     the result back (PowerGraph-style sync);
//   - every part numbers its vertices in ascending global id, and every
//     replica's local id in its part is computed once here, so a message
//     between workers or an edge endpoint is addressed by the receiver's
//     local id and nothing searches `global_ids` per message or per edge.
//
// Built in two streaming passes over a GraphView's edge span (a resident
// Graph converts implicitly), never copying it: O(|V|·⌈p/64⌉ + Σ|Vi|)
// resident. `ebvpart serve` keeps only this table for its `replicas`
// lookups; DistributedGraph (bsp/distributed_graph.h) is this table plus
// the p worker subgraphs.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.h"
#include "graph/graph_view.h"
#include "partition/partitioner.h"
#include "partition/replica_masks.h"

namespace ebv::bsp {

class ReplicaTable {
 public:
  /// Throws std::invalid_argument when the partition does not cover the
  /// graph's edges, has no part, or assigns an edge to a part ≥ p.
  ReplicaTable(const GraphView& graph, const EdgePartition& partition);

  [[nodiscard]] VertexId num_global_vertices() const {
    return static_cast<VertexId>(master_of_vertex_.size());
  }

  /// Parts holding vertex v (ascending). Size 1 for non-replicated
  /// vertices; empty for vertices covered by no edge. Throws
  /// std::invalid_argument for an out-of-range global id.
  [[nodiscard]] std::span<const PartitionId> parts_of(VertexId global) const {
    EBV_REQUIRE(global < num_global_vertices(),
                "parts_of: global vertex id out of range");
    return {replica_parts_.data() + replica_offsets_[global],
            static_cast<std::size_t>(replica_offsets_[global + 1] -
                                     replica_offsets_[global])};
  }
  /// Local id of v in each part holding it: local_ids_of(v)[k] indexes
  /// worker parts_of(v)[k]'s subgraph, so
  /// local(parts_of(v)[k]).global_ids[local_ids_of(v)[k]] == v. Empty
  /// for vertices covered by no edge. Throws std::invalid_argument for an
  /// out-of-range global id.
  [[nodiscard]] std::span<const VertexId> local_ids_of(VertexId global) const {
    EBV_REQUIRE(global < num_global_vertices(),
                "local_ids_of: global vertex id out of range");
    return {replica_local_.data() + replica_offsets_[global],
            static_cast<std::size_t>(replica_offsets_[global + 1] -
                                     replica_offsets_[global])};
  }
  /// Master part of v, or kInvalidPartition for uncovered vertices.
  /// Throws std::invalid_argument for an out-of-range global id.
  [[nodiscard]] PartitionId master_of(VertexId global) const {
    EBV_REQUIRE(global < num_global_vertices(),
                "master_of: global vertex id out of range");
    return master_of_vertex_[global];
  }
  /// Local id of v in its master part (the local_ids_of entry at
  /// master_of(v)), or kInvalidVertex for uncovered vertices. Throws
  /// std::invalid_argument for an out-of-range global id.
  [[nodiscard]] VertexId master_local_of(VertexId global) const {
    EBV_REQUIRE(global < num_global_vertices(),
                "master_local_of: global vertex id out of range");
    return master_local_[global];
  }

  /// Σ|Vi| — total replicas, matching the metrics module.
  [[nodiscard]] std::uint64_t total_replicas() const {
    return replica_offsets_.back();
  }

 protected:
  /// Local id of v in `part`, which must hold v, found with no search.
  [[nodiscard]] VertexId local_id(VertexId v, PartitionId part) const {
    return replica_local_[slot_of(v, part)];
  }

  // Kept for DistributedGraph's subgraph pass: the membership bitmasks
  // (|V|·⌈p/64⌉ words) that local_id ranks in, and |Vi| and |Ei| per part
  // for exact reservations.
  ReplicaMasks masks_;
  std::vector<VertexId> vertices_per_part_;
  std::vector<std::uint64_t> edges_per_part_;

 private:
  /// v's replica slot on `part` (which must hold v): the popcount rank of
  /// `part` in v's mask row. Inline, because pass 3 calls it per endpoint.
  [[nodiscard]] std::uint64_t slot_of(VertexId v, PartitionId part) const {
    const std::uint64_t* row = masks_.row(v);
    const auto w = static_cast<std::uint32_t>(part >> 6);
    std::uint64_t rank = 0;
    for (std::uint32_t k = 0; k < w; ++k) {
      rank += static_cast<std::uint64_t>(std::popcount(row[k]));
    }
    const std::uint64_t below = (std::uint64_t{1} << (part & 63)) - 1;
    rank += static_cast<std::uint64_t>(std::popcount(row[w] & below));
    return replica_offsets_[v] + rank;
  }

  // parts_of(v) = replica_parts_[replica_offsets_[v] .. replica_offsets_[v+1])
  // — a flat CSR layout instead of |V| small vectors. replica_local_ is
  // parallel to replica_parts_ (one local id per replica slot) and
  // master_local_ to master_of_vertex_.
  std::vector<std::uint64_t> replica_offsets_;
  std::vector<PartitionId> replica_parts_;
  std::vector<VertexId> replica_local_;
  std::vector<PartitionId> master_of_vertex_;
  std::vector<VertexId> master_local_;
};

}  // namespace ebv::bsp
