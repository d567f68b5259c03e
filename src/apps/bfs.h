// Breadth-First Search hop counts (extension app, not in the paper's
// evaluation): SSSP over unit weights, but traversing the symmetrised
// adjacency so it reaches the whole weakly-connected component.
#pragma once

#include <limits>

#include "bsp/runtime.h"

namespace ebv::apps {

class Bfs final : public bsp::SubgraphProgram {
 public:
  static constexpr bsp::Value kUnreached =
      std::numeric_limits<bsp::Value>::infinity();

  explicit Bfs(VertexId source) : source_(source) {}

  [[nodiscard]] std::string name() const override { return "bfs"; }

  [[nodiscard]] bsp::Value init_value(VertexId global) const override {
    return global == source_ ? 0.0 : kUnreached;
  }
  [[nodiscard]] bsp::Value combine(bsp::Value a, bsp::Value b) const override {
    return a < b ? a : b;
  }
  [[nodiscard]] std::optional<CsrGraph::Direction> adjacency() const override {
    return CsrGraph::Direction::kBoth;
  }
  void compute(bsp::WorkerContext& ctx, std::uint32_t superstep) const override;

 private:
  VertexId source_;
};

}  // namespace ebv::apps
