// Single-Source Shortest Paths: local Dijkstra to local convergence per
// superstep; replica sync exchanges distance improvements (min-combine),
// making the global computation label-correcting across supersteps.
#pragma once

#include <limits>

#include "bsp/runtime.h"

namespace ebv::apps {

class Sssp final : public bsp::SubgraphProgram {
 public:
  static constexpr bsp::Value kInfinity =
      std::numeric_limits<bsp::Value>::infinity();

  explicit Sssp(VertexId source) : source_(source) {}

  [[nodiscard]] std::string name() const override { return "sssp"; }

  [[nodiscard]] bsp::Value init_value(VertexId global) const override {
    return global == source_ ? 0.0 : kInfinity;
  }
  [[nodiscard]] bsp::Value combine(bsp::Value a, bsp::Value b) const override {
    return a < b ? a : b;
  }
  [[nodiscard]] std::optional<CsrGraph::Direction> adjacency() const override {
    return CsrGraph::Direction::kOut;
  }
  void compute(bsp::WorkerContext& ctx, std::uint32_t superstep) const override;

 private:
  VertexId source_;
};

}  // namespace ebv::apps
