#include "serve/handlers.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/experiment.h"
#include "analysis/render.h"
#include "graph/stats.h"
#include "partition/registry.h"

namespace ebv::serve {
namespace {

/// CLI spelling of an app id (the "app" row of the run table), so a
/// daemon run response byte-matches `ebvpart run --app <label>`.
const char* app_label(std::uint8_t app) {
  switch (app) {
    case 0: return "cc";
    case 1: return "pr";
    case 2: return "sssp";
    default: throw BadRequestError("unknown app id");
  }
}

analysis::App app_of(std::uint8_t app) {
  switch (app) {
    case 0: return analysis::App::kCC;
    case 1: return analysis::App::kPageRank;
    case 2: return analysis::App::kSssp;
    default: throw BadRequestError("unknown app id");
  }
}

void check_vertex(const GraphEntry& entry, VertexId v) {
  if (v >= entry.mapped.view().num_vertices()) {
    throw BadRequestError("vertex " + std::to_string(v) +
                          " out of range for snapshot '" + entry.name +
                          "' with " +
                          std::to_string(entry.mapped.view().num_vertices()) +
                          " vertices");
  }
}

/// Deterministic bounded forward BFS over the snapshot's out-edge CSR:
/// frontier vertices expand in queue (insertion) order, neighbors in CSR
/// order, so the reachable set — and the truncation point — is the same
/// on every run. Returns the visited set (includes the source).
NeighborsResponse bounded_bfs(const GraphEntry& entry, VertexId source,
                              std::uint32_t hops, std::uint32_t limit) {
  const auto offsets = entry.mapped.csr_offsets();
  const auto edges = entry.mapped.view().edges();
  NeighborsResponse out;
  std::unordered_set<VertexId> visited;
  visited.reserve(std::min<std::size_t>(limit, 1u << 16));
  visited.insert(source);
  std::deque<VertexId> frontier{source};
  for (std::uint32_t hop = 0; hop < hops && !frontier.empty(); ++hop) {
    std::deque<VertexId> next;
    for (const VertexId u : frontier) {
      for (std::uint64_t e = offsets[u]; e != offsets[u + 1]; ++e) {
        const VertexId v = edges[e].dst;
        if (visited.contains(v)) continue;
        if (visited.size() >= limit) {
          out.truncated = true;
          break;
        }
        visited.insert(v);
        next.push_back(v);
      }
      if (out.truncated) break;
    }
    if (out.truncated) break;
    frontier = std::move(next);
  }
  out.vertices.assign(visited.begin(), visited.end());
  std::sort(out.vertices.begin(), out.vertices.end());
  return out;
}

}  // namespace

const GraphEntry& ServeContext::graph(std::uint32_t index) const {
  if (index >= graphs.size()) {
    throw BadRequestError("graph index " + std::to_string(index) +
                          " out of range; serving " +
                          std::to_string(graphs.size()) + " snapshot(s)");
  }
  return graphs[index];
}

std::string handle_stats(const ServeContext& context, const StatsRequest& req) {
  const GraphEntry& entry = context.graph(req.graph_index);
  const GraphStats stats = compute_stats(entry.mapped.view());
  return analysis::format_mmap_stats_table(stats, entry.mapped.mapped_bytes());
}

std::vector<DegreeInfo> handle_degree(const ServeContext& context,
                                      const DegreeRequest& req) {
  const GraphEntry& entry = context.graph(req.graph_index);
  if (req.vertices.size() > context.limits.max_batch) {
    throw BadRequestError("degree batch exceeds the server's --max-batch");
  }
  const GraphView view = entry.mapped.view();
  std::vector<DegreeInfo> out;
  out.reserve(req.vertices.size());
  for (const VertexId v : req.vertices) {
    check_vertex(entry, v);
    out.push_back({view.out_degree(v), view.in_degree(v)});
  }
  return out;
}

NeighborsResponse handle_neighbors(const ServeContext& context,
                                   const NeighborsRequest& req) {
  const GraphEntry& entry = context.graph(req.graph_index);
  check_vertex(entry, req.source);
  if (req.hops > context.limits.max_hops) {
    throw BadRequestError("hop count " + std::to_string(req.hops) +
                          " exceeds the server's --max-hops of " +
                          std::to_string(context.limits.max_hops));
  }
  std::uint32_t limit =
      req.limit == 0 ? context.limits.neighbor_limit : req.limit;
  limit = std::min(limit, context.limits.neighbor_limit);
  return bounded_bfs(entry, req.source, req.hops, std::max(limit, 1u));
}

std::vector<PartitionId> handle_partition(const ServeContext& context,
                                          const PartitionRequest& req) {
  const GraphEntry& entry = context.graph(req.graph_index);
  if (!entry.partition.has_value()) {
    throw BadRequestError("snapshot '" + entry.name +
                          "' is served without a partition; start the "
                          "daemon with --partition to enable lookups");
  }
  if (req.edges.size() > context.limits.max_batch) {
    throw BadRequestError("partition batch exceeds the server's --max-batch");
  }
  const EdgePartition& partition = *entry.partition;
  std::vector<PartitionId> out;
  out.reserve(req.edges.size());
  for (const EdgeId e : req.edges) {
    if (e >= partition.part_of_edge.size()) {
      throw BadRequestError("edge " + std::to_string(e) +
                            " out of range for snapshot '" + entry.name +
                            "' with " +
                            std::to_string(partition.part_of_edge.size()) +
                            " edges");
    }
    out.push_back(partition.part_of_edge[e]);
  }
  return out;
}

std::vector<ReplicaInfo> handle_replicas(const ServeContext& context,
                                         const ReplicasRequest& req) {
  const GraphEntry& entry = context.graph(req.graph_index);
  if (!entry.routing.has_value()) {
    throw BadRequestError("snapshot '" + entry.name +
                          "' is served without a partition; start the "
                          "daemon with --partition to enable lookups");
  }
  if (req.vertices.size() > context.limits.max_batch) {
    throw BadRequestError("replicas batch exceeds the server's --max-batch");
  }
  const bsp::ReplicaTable& routing = *entry.routing;
  std::vector<ReplicaInfo> out;
  out.reserve(req.vertices.size());
  for (const VertexId v : req.vertices) {
    check_vertex(entry, v);
    ReplicaInfo info;
    info.master = routing.master_of(v);
    const auto parts = routing.parts_of(v);
    info.parts.assign(parts.begin(), parts.end());
    out.push_back(std::move(info));
  }
  return out;
}

std::string handle_run(const ServeContext& context, const RunRequest& req) {
  const GraphEntry& entry = context.graph(req.graph_index);
  const analysis::App app = app_of(req.app);
  if (req.parts == 0 || req.parts > context.limits.max_run_parts) {
    throw BadRequestError("parts must be in [1, " +
                          std::to_string(context.limits.max_run_parts) + "]");
  }
  // Validate the algorithm name up front so an unknown --algo is a
  // kBadRequest, not an internal error from deep inside the pipeline.
  try {
    (void)make_partitioner(req.algo);
  } catch (const std::exception& e) {
    throw BadRequestError(e.what());
  }

  if (req.hops == 0) {
    // Whole-snapshot run: the exact pipeline `ebvpart run --mmap` drives,
    // so the rendered table is byte-identical to the CLI.
    if (app == analysis::App::kSssp && req.source != 0) {
      throw BadRequestError(
          "whole-snapshot sssp always sources vertex 0 (as `ebvpart run` "
          "does); pass source 0, or hops > 0 for a subgraph run seeded at "
          "the source");
    }
    const analysis::ExperimentResult result = analysis::run_experiment(
        entry.mapped.view(), req.algo, req.parts, app, {},
        context.limits.pagerank_iterations);
    return analysis::format_run_table(app_label(req.app), result,
                                      /*include_raw=*/false);
  }

  // Bounded subgraph run: induce the k-hop neighborhood of the source and
  // relabel it so the seed becomes local vertex 0 — which is exactly the
  // vertex run_experiment's SSSP sources, so `source` means the same
  // thing for every app.
  check_vertex(entry, req.source);
  if (req.hops > context.limits.max_hops) {
    throw BadRequestError("hop count " + std::to_string(req.hops) +
                          " exceeds the server's --max-hops of " +
                          std::to_string(context.limits.max_hops));
  }
  const NeighborsResponse hood = bounded_bfs(entry, req.source, req.hops,
                                             context.limits.neighbor_limit);
  std::unordered_map<VertexId, VertexId> local_of;
  local_of.reserve(hood.vertices.size());
  local_of.emplace(req.source, 0);
  VertexId next_local = 1;
  for (const VertexId v : hood.vertices) {
    if (v != req.source) local_of.emplace(v, next_local++);
  }

  const GraphView view = entry.mapped.view();
  const auto offsets = entry.mapped.csr_offsets();
  std::vector<Edge> edges;
  std::vector<float> weights;
  for (const VertexId u : hood.vertices) {
    for (std::uint64_t e = offsets[u]; e != offsets[u + 1]; ++e) {
      const auto it = local_of.find(view.edge(e).dst);
      if (it == local_of.end()) continue;  // endpoint outside the bound
      edges.push_back({local_of.at(u), it->second});
      if (view.has_weights()) weights.push_back(view.weight(e));
    }
  }
  if (edges.empty()) {
    throw BadRequestError("the " + std::to_string(req.hops) +
                          "-hop subgraph around vertex " +
                          std::to_string(req.source) + " has no edges");
  }
  if (req.parts > edges.size()) {
    throw BadRequestError("parts exceeds the subgraph's " +
                          std::to_string(edges.size()) + " edge(s)");
  }
  Graph subgraph(static_cast<VertexId>(hood.vertices.size()),
                 std::move(edges), std::move(weights));
  const analysis::ExperimentResult result =
      analysis::run_experiment(subgraph, req.algo, req.parts, app, {},
                               context.limits.pagerank_iterations);
  return analysis::format_run_table(app_label(req.app), result,
                                    /*include_raw=*/false);
}

std::vector<std::uint8_t> handle_request(const ServeContext& context,
                                         MsgType type,
                                         std::span<const std::uint8_t> body) {
  switch (type) {
    case MsgType::kStats: {
      const std::string text =
          handle_stats(context, decode_stats_request(body));
      return {text.begin(), text.end()};
    }
    case MsgType::kDegree:
      return encode_degree_response(
          handle_degree(context, decode_degree_request(body)));
    case MsgType::kNeighbors:
      return encode_neighbors_response(
          handle_neighbors(context, decode_neighbors_request(body)));
    case MsgType::kPartition:
      return encode_partition_response(
          handle_partition(context, decode_partition_request(body)));
    case MsgType::kReplicas:
      return encode_replicas_response(
          handle_replicas(context, decode_replicas_request(body)));
    case MsgType::kRun: {
      const std::string text = handle_run(context, decode_run_request(body));
      return {text.begin(), text.end()};
    }
    case MsgType::kPing:
      throw ProtocolError("ping is answered inline and never dispatched");
    case MsgType::kMetrics:
      // The report needs the live Server counters, which pure handlers
      // cannot see — the session reader answers it inline like kPing.
      throw ProtocolError("metrics is answered inline and never dispatched");
  }
  throw ProtocolError("unknown message type " +
                      std::to_string(static_cast<unsigned>(type)));
}

}  // namespace ebv::serve
