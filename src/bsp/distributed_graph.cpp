#include "bsp/distributed_graph.h"

#include <bit>

#include "common/assert.h"
#include "obs/trace.h"
#include "partition/replica_masks.h"

namespace ebv::bsp {
namespace {

/// Per-vertex metadata shared by resident and spilled construction.
void fill_vertex_metadata(LocalSubgraph& ls, const GraphView& graph,
                          const DistributedGraph& dist) {
  const VertexId ln = ls.num_vertices();
  ls.is_replicated.resize(ln);
  ls.is_master.resize(ln);
  ls.master_part.resize(ln);
  ls.global_out_degree.resize(ln);
  for (VertexId lv = 0; lv < ln; ++lv) {
    const VertexId gv = ls.global_ids[lv];
    ls.is_replicated[lv] = dist.parts_of(gv).size() > 1 ? 1 : 0;
    ls.is_master[lv] = dist.master_of(gv) == ls.part ? 1 : 0;
    ls.master_part[lv] = dist.master_of(gv);
    ls.global_out_degree[lv] = graph.out_degree(gv);
  }
}

}  // namespace

DistributedGraph::DistributedGraph(const GraphView& graph,
                                   const EdgePartition& partition) {
  build(graph, partition, DistributeOptions{});
}

DistributedGraph::DistributedGraph(const GraphView& graph,
                                   const EdgePartition& partition,
                                   const DistributeOptions& options) {
  build(graph, partition, options);
}

void DistributedGraph::build(const GraphView& graph,
                             const EdgePartition& partition,
                             const DistributeOptions& options) {
  const obs::trace::Span span("bsp.distribute");
  EBV_REQUIRE(partition.part_of_edge.size() == graph.num_edges(),
              "partition does not match graph");
  const PartitionId p = partition.num_parts;
  EBV_REQUIRE(p >= 1, "partition must have at least one part");
  const VertexId n = graph.num_vertices();
  num_workers_ = p;
  num_global_vertices_ = n;
  num_global_edges_ = graph.num_edges();

  // Pass 1 (edge stream): replica membership as vertex-major bitmasks.
  // O(|V|·⌈p/64⌉) resident — nothing per edge survives the pass.
  ReplicaMasks masks(n, p);
  for (EdgeId e = 0; e < num_global_edges_; ++e) {
    const PartitionId part = partition.part_of_edge[e];
    EBV_REQUIRE(part < p, "edge assigned to invalid part");
    const Edge edge = graph.edge(e);
    masks.set(edge.src, part);
    masks.set(edge.dst, part);
  }

  // Flatten membership into the persistent CSR layout:
  // replica_parts_[replica_offsets_[v] .. replica_offsets_[v+1]) are the
  // parts holding v, ascending. Each part numbers its vertices in
  // ascending global order, so a running per-part counter is the local
  // id of every replica slot, and its final value is the part's |Vi|.
  const std::uint32_t words = masks.words_per_vertex();
  replica_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t* row = masks.row(v);
    std::uint64_t count = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      count += static_cast<std::uint64_t>(std::popcount(row[w]));
    }
    replica_offsets_[v + 1] = replica_offsets_[v] + count;
  }
  total_replicas_ = replica_offsets_[n];
  replica_parts_.resize(total_replicas_);
  replica_local_.resize(total_replicas_);
  std::vector<VertexId> vertices_per_part(p, 0);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t slot = replica_offsets_[v];
    const std::uint64_t* row = masks.row(v);
    for (std::uint32_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const auto part = static_cast<PartitionId>(
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
        replica_parts_[slot] = part;
        replica_local_[slot++] = vertices_per_part[part]++;
      }
    }
  }

  // Pass 2 (edge stream): incident-edge counts per replica slot (flat
  // array parallel to replica_parts_) for master selection, plus per-part
  // edge totals for exact reservations. Each (vertex, edge) incidence
  // counts ONCE — a self-loop touches its vertex as one incidence, not
  // two, so self-loop-heavy parts get no artificial master bias.
  std::vector<std::uint32_t> incident_count(total_replicas_, 0);
  std::vector<std::uint64_t> edges_per_part(p, 0);
  const auto slot_of = [&](VertexId v, PartitionId part) {
    const std::uint64_t* row = masks.row(v);
    const auto w = static_cast<std::uint32_t>(part >> 6);
    std::uint64_t rank = 0;
    for (std::uint32_t k = 0; k < w; ++k) {
      rank += static_cast<std::uint64_t>(std::popcount(row[k]));
    }
    const std::uint64_t below = (std::uint64_t{1} << (part & 63)) - 1;
    rank += static_cast<std::uint64_t>(std::popcount(row[w] & below));
    return replica_offsets_[v] + rank;
  };
  for (EdgeId e = 0; e < num_global_edges_; ++e) {
    const PartitionId part = partition.part_of_edge[e];
    const Edge edge = graph.edge(e);
    ++incident_count[slot_of(edge.src, part)];
    if (edge.dst != edge.src) ++incident_count[slot_of(edge.dst, part)];
    ++edges_per_part[part];
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
  incident_count = {};  // transient; release before building subgraphs

  // Pass 3 addresses each edge endpoint by its slot's precomputed local
  // id, found with the same popcount rank as pass 2.
  const auto local_id = [&](VertexId v, PartitionId part) {
    return replica_local_[slot_of(v, part)];
  };

  if (options.spill_path.empty()) {
    // --- Resident mode: one streaming pass fills all p subgraphs. -------
    locals_.resize(p);
    for (PartitionId i = 0; i < p; ++i) {
      locals_[i].part = i;
      locals_[i].global_ids.reserve(vertices_per_part[i]);
    }
    for (VertexId v = 0; v < n; ++v) {
      for (const PartitionId part : parts_of(v)) {
        locals_[part].global_ids.push_back(v);
      }
    }

    // Pass 3 (edge stream): local edges (+ weights) in global edge order.
    for (PartitionId i = 0; i < p; ++i) {
      locals_[i].edges.reserve(edges_per_part[i]);
      if (graph.has_weights()) {
        locals_[i].edge_weights.reserve(edges_per_part[i]);
      }
    }
    for (EdgeId e = 0; e < num_global_edges_; ++e) {
      const PartitionId part = partition.part_of_edge[e];
      LocalSubgraph& ls = locals_[part];
      const Edge edge = graph.edge(e);
      ls.edges.push_back({local_id(edge.src, part), local_id(edge.dst, part)});
      if (graph.has_weights()) ls.edge_weights.push_back(graph.weight(e));
    }

    // Per-worker replica flags.
    for (LocalSubgraph& ls : locals_) fill_vertex_metadata(ls, graph, *this);
    return;
  }

  // --- Spilled mode: build workers one at a time, streaming each into
  // its EBVW sections so the p-worker aggregate is never heap-resident.
  // One filtering pass over the edge span per worker (p passes total,
  // each sequential) replaces the single interleaved pass above; the
  // emitted per-worker edge order — ascending global edge id — is
  // identical, so a loaded worker is bit-identical to its resident twin.
  SpillStoreWriter writer(options.spill_path, p, n, num_global_edges_,
                          graph.has_weights());
  for (PartitionId i = 0; i < p; ++i) {
    LocalSubgraph ls;
    ls.part = i;
    ls.global_ids.reserve(vertices_per_part[i]);
    for (VertexId v = 0; v < n; ++v) {
      if (masks.test(v, i) != 0) ls.global_ids.push_back(v);
    }
    ls.edges.reserve(edges_per_part[i]);
    if (graph.has_weights()) ls.edge_weights.reserve(edges_per_part[i]);
    for (EdgeId e = 0; e < num_global_edges_; ++e) {
      if (partition.part_of_edge[e] != i) continue;
      const Edge edge = graph.edge(e);
      ls.edges.push_back({local_id(edge.src, i), local_id(edge.dst, i)});
      if (graph.has_weights()) ls.edge_weights.push_back(graph.weight(e));
    }
    fill_vertex_metadata(ls, graph, *this);
    writer.write_worker(ls);
  }
  writer.finish();
  store_.emplace(options.spill_path);
}

}  // namespace ebv::bsp
