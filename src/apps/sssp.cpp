#include "apps/sssp.h"

#include <queue>
#include <utility>
#include <vector>

namespace ebv::apps {

void Sssp::compute(bsp::WorkerContext& ctx, std::uint32_t superstep) const {
  const bsp::LocalSubgraph& ls = ctx.local();

  // Min-heap of (distance, local vertex); lazy deletion.
  using Item = std::pair<bsp::Value, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;

  if (superstep == 0) {
    const VertexId src = ls.local_of(source_);
    if (src != kInvalidVertex) heap.push({ctx.value(src), src});
  } else {
    for (const VertexId v : ctx.updated()) heap.push({ctx.value(v), v});
  }

  std::vector<std::uint8_t> changed(ls.num_vertices(), 0);
  std::uint64_t work = 0;
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    ++work;
    if (dist > ctx.value(v)) continue;  // stale entry
    const CsrGraph& out = ctx.adjacency();
    const auto neighbors = out.neighbors(v);
    const auto edge_ids = out.edge_ids(v);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      ++work;
      const VertexId w = neighbors[k];
      const bsp::Value candidate = dist + ls.weight(edge_ids[k]);
      if (candidate < ctx.value(w)) {
        ctx.set_value(w, candidate);
        changed[w] = 1;
        heap.push({candidate, w});
      }
    }
  }
  ctx.add_work(work);

  for (VertexId v = 0; v < ls.num_vertices(); ++v) {
    if (changed[v] != 0 && ls.is_replicated[v] != 0) {
      ctx.emit(v, ctx.value(v));
    }
  }
}

}  // namespace ebv::apps
