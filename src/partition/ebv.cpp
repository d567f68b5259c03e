#include "partition/ebv.h"

#include <cmath>
#include <limits>

#include "common/assert.h"
#include "obs/trace.h"
#include "partition/eva_scorer.h"

namespace ebv {

EdgePartition EbvPartitioner::partition(const Graph& graph,
                                        const PartitionConfig& config) const {
  std::vector<GrowthSample> unused;
  return partition_traced(graph, config, 0, unused);
}

EdgePartition EbvPartitioner::partition_view(
    const GraphView& view, const PartitionConfig& config) const {
  std::vector<GrowthSample> unused;
  return partition_traced(view, config, 0, unused);
}

EdgePartition EbvPartitioner::partition_traced(
    const GraphView& graph, const PartitionConfig& config,
    std::size_t num_samples, std::vector<GrowthSample>& trace) const {
  check_partition_config(graph, config);
  trace.clear();

  std::vector<EdgeId> order;
  {
    const obs::trace::Span span("partition.edge-order");
    order = make_edge_order(graph, config.edge_order, config.seed,
                            config.num_threads);
  }

  const obs::trace::Span span("partition.eva-score");
  detail::EvaState state(graph, config);
  std::uint64_t total_replicas = 0;  // Σ vcount[i], for the growth trace

  EdgePartition result;
  result.num_parts = config.num_parts;
  result.part_of_edge.assign(graph.num_edges(), kInvalidPartition);

  const EdgeId sample_every =
      num_samples == 0
          ? 0
          : std::max<EdgeId>(1, graph.num_edges() / num_samples);

  // Algorithm 1: visit edges in order; the scoring core evaluates every
  // subgraph (lines 8–15), picks the argmin with lowest-index tie-breaking
  // and applies the commit (lines 16–22). With num_threads > 1 the core
  // runs batched speculative team scoring, bit-identical to the sequential
  // scan for every (threads, batch) — see eva_scorer.h. Edges are pulled
  // in `order` and committed in the same order, so the sink tracks its own
  // cursor into `order`.
  std::size_t pull_pos = 0;
  std::size_t commit_pos = 0;
  detail::run_eva_scoring(
      state, config.num_threads, config.batch_size,
      [&](VertexId& u, VertexId& v) {
        if (pull_pos == order.size()) return false;
        const auto [src, dst] = graph.edge(order[pull_pos++]);
        u = src;
        v = dst;
        return true;
      },
      [&](PartitionId best, unsigned new_replicas) {
        result.part_of_edge[order[commit_pos++]] = best;
        total_replicas += new_replicas;
        const EdgeId processed = commit_pos;
        if (sample_every != 0 && (processed % sample_every == 0 ||
                                  processed == graph.num_edges())) {
          trace.push_back(
              {processed, static_cast<double>(total_replicas) /
                              std::max<VertexId>(graph.num_vertices(), 1)});
        }
      });
  return result;
}

double EbvPartitioner::edge_imbalance_bound(const GraphView& graph,
                                            const PartitionConfig& config) {
  EBV_REQUIRE(config.alpha > 0.0, "Theorem 1 requires alpha > 0");
  const double e = static_cast<double>(graph.num_edges());
  const double p = static_cast<double>(config.num_parts);
  const double inner =
      std::floor(2.0 * e / (config.alpha * p) +
                 (config.beta / config.alpha) * e);
  return 1.0 + (p - 1.0) / e * (1.0 + inner);
}

double EbvPartitioner::vertex_imbalance_bound(const GraphView& graph,
                                              const PartitionConfig& config,
                                              std::uint64_t sum_vi) {
  EBV_REQUIRE(config.beta > 0.0, "Theorem 2 requires beta > 0");
  EBV_REQUIRE(sum_vi > 0, "sum of |Vi| must be positive");
  const double v = static_cast<double>(graph.num_vertices());
  const double p = static_cast<double>(config.num_parts);
  const double inner =
      std::floor(2.0 * v / (config.beta * p) +
                 (config.alpha / config.beta) * v);
  return 1.0 + (p - 1.0) / static_cast<double>(sum_vi) * (1.0 + inner);
}

}  // namespace ebv
