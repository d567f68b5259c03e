#include "apps/bfs.h"

#include <queue>
#include <vector>

namespace ebv::apps {

void Bfs::compute(bsp::WorkerContext& ctx, std::uint32_t superstep) const {
  const bsp::LocalSubgraph& ls = ctx.local();

  std::queue<VertexId> frontier;
  if (superstep == 0) {
    const VertexId src = ls.local_of(source_);
    if (src != kInvalidVertex) frontier.push(src);
  } else {
    for (const VertexId v : ctx.updated()) frontier.push(v);
  }

  std::vector<std::uint8_t> changed(ls.num_vertices(), 0);
  std::vector<std::uint8_t> queued(ls.num_vertices(), 0);
  std::uint64_t work = 0;
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    queued[v] = 0;
    const bsp::Value next_hop = ctx.value(v) + 1.0;
    for (const VertexId w : ctx.adjacency().neighbors(v)) {
      ++work;
      if (next_hop < ctx.value(w)) {
        ctx.set_value(w, next_hop);
        changed[w] = 1;
        if (queued[w] == 0) {
          queued[w] = 1;
          frontier.push(w);
        }
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
