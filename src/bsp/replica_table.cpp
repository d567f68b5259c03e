#include "bsp/replica_table.h"

#include <bit>

namespace ebv::bsp {

ReplicaTable::ReplicaTable(const GraphView& graph,
                           const EdgePartition& partition)
    : masks_(0, 0) {
  EBV_REQUIRE(partition.part_of_edge.size() == graph.num_edges(),
              "partition does not match graph");
  const PartitionId p = partition.num_parts;
  EBV_REQUIRE(p >= 1, "partition must have at least one part");
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();

  // Pass 1 (edge stream): replica membership as vertex-major bitmasks,
  // sized only once the checks pass. O(|V|·⌈p/64⌉) resident — nothing
  // per edge survives the pass.
  masks_ = ReplicaMasks(n, p);
  for (EdgeId e = 0; e < m; ++e) {
    const PartitionId part = partition.part_of_edge[e];
    EBV_REQUIRE(part < p, "edge assigned to invalid part");
    const Edge edge = graph.edge(e);
    masks_.set(edge.src, part);
    masks_.set(edge.dst, part);
  }

  // Flatten membership into the persistent CSR layout:
  // replica_parts_[replica_offsets_[v] .. replica_offsets_[v+1]) are the
  // parts holding v, ascending. Each part numbers its vertices in
  // ascending global order, so a running per-part counter is the local
  // id of every replica slot, and its final value is the part's |Vi|.
  const std::uint32_t words = masks_.words_per_vertex();
  replica_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t* row = masks_.row(v);
    std::uint64_t count = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      count += static_cast<std::uint64_t>(std::popcount(row[w]));
    }
    replica_offsets_[v + 1] = replica_offsets_[v] + count;
  }
  replica_parts_.resize(total_replicas());
  replica_local_.resize(total_replicas());
  vertices_per_part_.assign(p, 0);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t slot = replica_offsets_[v];
    const std::uint64_t* row = masks_.row(v);
    for (std::uint32_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const auto part = static_cast<PartitionId>(
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
        replica_parts_[slot] = part;
        replica_local_[slot++] = vertices_per_part_[part]++;
      }
    }
  }

  // Pass 2 (edge stream): incident-edge counts per replica slot (flat
  // array parallel to replica_parts_) for master selection, plus per-part
  // edge totals for exact reservations. Each (vertex, edge) incidence
  // counts ONCE — a self-loop touches its vertex as one incidence, not
  // two, so self-loop-heavy parts get no artificial master bias.
  std::vector<std::uint32_t> incident_count(total_replicas(), 0);
  edges_per_part_.assign(p, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const PartitionId part = partition.part_of_edge[e];
    const Edge edge = graph.edge(e);
    ++incident_count[slot_of(edge.src, part)];
    if (edge.dst != edge.src) ++incident_count[slot_of(edge.dst, part)];
    ++edges_per_part_[part];
  }

  // Master selection: most incident edges, ties to the lowest part id
  // (replica_parts_ is ascending per vertex, so the first strict maximum
  // is the lowest-id winner).
  master_of_vertex_.assign(n, kInvalidPartition);
  master_local_.assign(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t best = 0;
    for (std::uint64_t s = replica_offsets_[v]; s < replica_offsets_[v + 1];
         ++s) {
      if (incident_count[s] > best) {
        best = incident_count[s];
        master_of_vertex_[v] = replica_parts_[s];
        master_local_[v] = replica_local_[s];
      }
    }
  }
}

}  // namespace ebv::bsp
