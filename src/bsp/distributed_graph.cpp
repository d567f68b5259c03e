#include "bsp/distributed_graph.h"

namespace ebv::bsp {
namespace {

/// Per-vertex metadata shared by resident and spilled construction.
void fill_vertex_metadata(LocalSubgraph& ls, const GraphView& graph,
                          const ReplicaTable& table) {
  const VertexId ln = ls.num_vertices();
  ls.is_replicated.resize(ln);
  ls.is_master.resize(ln);
  ls.master_part.resize(ln);
  ls.global_out_degree.resize(ln);
  for (VertexId lv = 0; lv < ln; ++lv) {
    const VertexId gv = ls.global_ids[lv];
    ls.is_replicated[lv] = table.parts_of(gv).size() > 1 ? 1 : 0;
    ls.is_master[lv] = table.master_of(gv) == ls.part ? 1 : 0;
    ls.master_part[lv] = table.master_of(gv);
    ls.global_out_degree[lv] = graph.out_degree(gv);
  }
}

}  // namespace

DistributedGraph::DistributedGraph(const GraphView& graph,
                                   const EdgePartition& partition,
                                   const DistributeOptions& options)
    : DistributedGraph(obs::trace::Span("bsp.distribute"), graph, partition,
                       options) {}

DistributedGraph::DistributedGraph(const obs::trace::Span& /*span*/,
                                   const GraphView& graph,
                                   const EdgePartition& partition,
                                   const DistributeOptions& options)
    : ReplicaTable(graph, partition),
      num_workers_(partition.num_parts),
      num_global_edges_(graph.num_edges()) {
  const PartitionId p = num_workers_;
  const VertexId n = num_global_vertices();

  // Pass 3 addresses each edge endpoint by the table's local id for its
  // part (ReplicaTable::local_id, the popcount rank pass 2 uses).
  if (options.spill_path.empty()) {
    // --- Resident mode: one streaming pass fills all p subgraphs. -------
    locals_.resize(p);
    for (PartitionId i = 0; i < p; ++i) {
      locals_[i].part = i;
      locals_[i].global_ids.reserve(vertices_per_part_[i]);
    }
    for (VertexId v = 0; v < n; ++v) {
      for (const PartitionId part : parts_of(v)) {
        locals_[part].global_ids.push_back(v);
      }
    }

    // Pass 3 (edge stream): local edges (+ weights) in global edge order.
    for (PartitionId i = 0; i < p; ++i) {
      locals_[i].edges.reserve(edges_per_part_[i]);
      if (graph.has_weights()) {
        locals_[i].edge_weights.reserve(edges_per_part_[i]);
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
    ls.global_ids.reserve(vertices_per_part_[i]);
    for (VertexId v = 0; v < n; ++v) {
      if (masks_.test(v, i) != 0) ls.global_ids.push_back(v);
    }
    ls.edges.reserve(edges_per_part_[i]);
    if (graph.has_weights()) ls.edge_weights.reserve(edges_per_part_[i]);
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
