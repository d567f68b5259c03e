// Protocol-level tests of the BSP runtime using purpose-built tiny
// programs, independent of the real applications.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "apps/cc.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "bsp/runtime.h"
#include "graph/generators.h"
#include "partition/registry.h"

namespace ebv {
namespace {

using bsp::BspRuntime;
using bsp::DistributedGraph;
using bsp::RunStats;
using bsp::Value;
using bsp::WorkerContext;

EdgePartition round_robin(const Graph& g, PartitionId p) {
  EdgePartition part{p, std::vector<PartitionId>(g.num_edges())};
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.part_of_edge[e] = static_cast<PartitionId>(e % p);
  }
  return part;
}

/// Propagates the maximum vertex id one hop per superstep (no local
/// iteration): a minimal monotone program exercising the sync protocol.
/// `declare_adjacency = false` reads the adjacency without declaring it.
class MaxOneHop final : public bsp::SubgraphProgram {
 public:
  explicit MaxOneHop(bool declare_adjacency = true)
      : declare_adjacency_(declare_adjacency) {}
  [[nodiscard]] std::string name() const override { return "max1hop"; }
  [[nodiscard]] Value init_value(VertexId global) const override {
    return static_cast<Value>(global);
  }
  [[nodiscard]] Value combine(Value a, Value b) const override {
    return a > b ? a : b;
  }
  [[nodiscard]] std::optional<CsrGraph::Direction> adjacency() const override {
    if (!declare_adjacency_) return std::nullopt;
    return CsrGraph::Direction::kBoth;
  }
  void compute(WorkerContext& ctx, std::uint32_t superstep) const override {
    const auto& ls = ctx.local();
    std::vector<VertexId> frontier;
    if (superstep == 0) {
      frontier.resize(ls.num_vertices());
      for (VertexId v = 0; v < ls.num_vertices(); ++v) frontier[v] = v;
    } else {
      frontier = ctx.updated();
    }
    std::vector<std::uint8_t> changed(ls.num_vertices(), 0);
    for (const VertexId v : frontier) {
      for (const VertexId w : ctx.adjacency().neighbors(v)) {
        ctx.add_work(1);
        if (ctx.value(v) > ctx.value(w)) {
          ctx.set_value(w, ctx.value(v));
          changed[w] = 1;
        }
      }
    }
    for (VertexId v = 0; v < ls.num_vertices(); ++v) {
      if (changed[v] != 0 && ls.is_replicated[v] != 0) ctx.emit(v, ctx.value(v));
    }
  }

 private:
  bool declare_adjacency_;
};

/// Counts supersteps; used to verify fixed_supersteps handling.
class FixedRounds final : public bsp::SubgraphProgram {
 public:
  explicit FixedRounds(std::uint32_t rounds) : rounds_(rounds) {}
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] Value init_value(VertexId) const override { return 0.0; }
  [[nodiscard]] Value combine(Value a, Value b) const override {
    return a + b;
  }
  [[nodiscard]] bool combine_with_current() const override { return false; }
  [[nodiscard]] std::optional<std::uint32_t> fixed_supersteps()
      const override {
    return rounds_;
  }
  void compute(WorkerContext& ctx, std::uint32_t) const override {
    ctx.add_work(1);
  }

 private:
  std::uint32_t rounds_;
};

/// Emits a NaN on the first superstep — the halting-hazard regression
/// program (NaN != NaN would otherwise burn max_supersteps).
class NanEmitter final : public bsp::SubgraphProgram {
 public:
  [[nodiscard]] std::string name() const override { return "nan"; }
  [[nodiscard]] Value init_value(VertexId) const override { return 0.0; }
  [[nodiscard]] Value combine(Value a, Value b) const override {
    return a + b;
  }
  void compute(WorkerContext& ctx, std::uint32_t superstep) const override {
    if (superstep > 0) return;
    const auto& ls = ctx.local();
    for (VertexId v = 0; v < ls.num_vertices(); ++v) {
      ctx.emit(v, std::numeric_limits<Value>::quiet_NaN());
    }
  }
};

TEST(Runtime, SingleWorkerProducesNoMessages) {
  const Graph g = gen::erdos_renyi(100, 600, 1);
  const DistributedGraph dist(g, round_robin(g, 1));
  const BspRuntime runtime;
  const RunStats stats = runtime.run(dist, MaxOneHop());
  EXPECT_EQ(stats.total_messages, 0u);
  EXPECT_GT(stats.supersteps, 0u);
}

TEST(Runtime, ConvergesToGlobalMaxAcrossWorkers) {
  const Graph g = gen::erdos_renyi(200, 2000, 2);  // almost surely connected
  const DistributedGraph dist(g, round_robin(g, 4));
  const BspRuntime runtime;
  const RunStats stats = runtime.run(dist, MaxOneHop());
  // Every covered vertex in the giant component must reach the global max
  // of its component; spot-check that values only grew.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(stats.values[v], static_cast<Value>(v));
  }
  EXPECT_GT(stats.total_messages, 0u);
}

TEST(Runtime, FixedSuperstepsAreHonoured) {
  const Graph g = gen::erdos_renyi(50, 300, 3);
  const DistributedGraph dist(g, round_robin(g, 2));
  const BspRuntime runtime;
  const RunStats stats = runtime.run(dist, FixedRounds(7));
  EXPECT_EQ(stats.supersteps, 7u);
}

TEST(Runtime, StatsShapeIsConsistent) {
  const Graph g = gen::erdos_renyi(150, 1200, 4);
  const DistributedGraph dist(g, round_robin(g, 3));
  const BspRuntime runtime;
  const RunStats stats = runtime.run(dist, MaxOneHop());
  ASSERT_EQ(stats.steps.size(), stats.supersteps);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& step : stats.steps) {
    ASSERT_EQ(step.size(), 3u);
    for (const auto& w : step) {
      sent += w.messages_sent;
      received += w.messages_received;
    }
  }
  EXPECT_EQ(sent, stats.total_messages);
  EXPECT_EQ(received, stats.total_messages)
      << "every message sent must be received";
  std::uint64_t per_worker_total = 0;
  for (const auto m : stats.messages_sent_per_worker) per_worker_total += m;
  EXPECT_EQ(per_worker_total, stats.total_messages);
}

TEST(Runtime, StatsInvariantsRecomputeExactly) {
  // RunStats redundancy pins: the aggregate fields must be EXACTLY
  // recomputable from the per-superstep, per-worker matrix.
  const Graph g = gen::chung_lu(300, 2400, 2.3, false, 12);
  const PartitionId p = 5;
  const DistributedGraph dist(g, round_robin(g, p));
  const bsp::RunOptions opts;  // default cost model
  const RunStats stats = BspRuntime(opts).run(dist, MaxOneHop());

  // steps dimensions are supersteps × p.
  ASSERT_EQ(stats.steps.size(), stats.supersteps);
  for (const auto& step : stats.steps) ASSERT_EQ(step.size(), p);

  // total_messages == Σ messages_sent_per_worker.
  ASSERT_EQ(stats.messages_sent_per_worker.size(), p);
  std::uint64_t per_worker = 0;
  for (const auto m : stats.messages_sent_per_worker) per_worker += m;
  EXPECT_EQ(stats.total_messages, per_worker);
  EXPECT_GT(stats.total_messages, 0u);
  // Combining is off, so the raw count is the wire count.
  EXPECT_EQ(stats.raw_messages, stats.total_messages);

  // execution_seconds == Σ_k (max_i(comp+comm) + latency), recomputed in
  // the runtime's own association order — exact double equality, not
  // approximate.
  double execution = 0.0;
  double delta_c = 0.0;
  double comp = 0.0;
  double comm = 0.0;
  for (const auto& step : stats.steps) {
    double mx = 0.0;
    double mn = std::numeric_limits<double>::infinity();
    for (const auto& w : step) {
      const double t = w.comp_seconds + w.comm_seconds;
      mx = std::max(mx, t);
      mn = std::min(mn, t);
    }
    execution += mx + opts.cost_model.latency_seconds();
    delta_c += mx - mn;
    for (const auto& w : step) {
      comp += w.comp_seconds;
      comm += w.comm_seconds;
    }
  }
  EXPECT_EQ(stats.execution_seconds, execution);
  EXPECT_EQ(stats.delta_c_seconds, delta_c);
  EXPECT_EQ(stats.comp_seconds, comp / p);
  EXPECT_EQ(stats.comm_seconds, comm / p);
}

TEST(Runtime, ExecutionTimeDominatedBySlowestWorker) {
  const Graph g = gen::erdos_renyi(150, 1200, 5);
  const DistributedGraph dist(g, round_robin(g, 3));
  const BspRuntime runtime;
  const RunStats stats = runtime.run(dist, MaxOneHop());
  // execution >= comp average (max >= mean per superstep).
  EXPECT_GE(stats.execution_seconds + 1e-12,
            stats.comp_seconds + stats.comm_seconds);
  EXPECT_GE(stats.delta_c_seconds, 0.0);
}

TEST(Runtime, CostModelScalesCommCost) {
  const Graph g = gen::chung_lu(300, 3000, 2.3, false, 6);
  const DistributedGraph dist(g, round_robin(g, 4));
  bsp::RunOptions cheap;
  cheap.cost_model.msg_remote_us = 0.1;
  cheap.cost_model.msg_local_us = 0.1;
  bsp::RunOptions pricey;
  pricey.cost_model.msg_remote_us = 10.0;
  pricey.cost_model.msg_local_us = 10.0;
  const RunStats a = BspRuntime(cheap).run(dist, MaxOneHop());
  const RunStats b = BspRuntime(pricey).run(dist, MaxOneHop());
  EXPECT_EQ(a.total_messages, b.total_messages) << "protocol is cost-blind";
  EXPECT_LT(a.comm_seconds, b.comm_seconds);
}

TEST(Runtime, IntraNodeMessagesAreCheaper) {
  bsp::ClusterCostModel model;
  model.workers_per_node = 2;
  EXPECT_TRUE(model.same_node(0, 1));
  EXPECT_FALSE(model.same_node(1, 2));
  EXPECT_LT(model.comm_seconds(10, 0), model.comm_seconds(0, 10));
}

TEST(Runtime, MaxSuperstepsGuardStopsRunaway) {
  // FixedRounds(1000000) with the guard at 5 must stop at 5.
  const Graph g = gen::erdos_renyi(20, 60, 7);
  const DistributedGraph dist(g, round_robin(g, 2));
  bsp::RunOptions opts;
  opts.max_supersteps = 5;
  const RunStats stats = BspRuntime(opts).run(dist, FixedRounds(1'000'000));
  EXPECT_EQ(stats.supersteps, 5u);
}

TEST(Runtime, ParallelPolicyMatchesSequentialExactly) {
  // MaxOneHop walks ctx.updated() in list order and propagates in place,
  // so what it emits depends on the frontier's order, which follows the
  // inbox append order. A 4-rank stealing team must reproduce the
  // sequential run exactly, message counts per worker included.
  for (const std::uint64_t seed : {9u, 21u}) {
    const Graph g = gen::chung_lu(400, 3000, 2.3, false, seed);
    const DistributedGraph dist(g, round_robin(g, 6));
    bsp::RunOptions sequential;
    sequential.policy = bsp::ExecutionPolicy::kSequential;
    bsp::RunOptions parallel;
    parallel.policy = bsp::ExecutionPolicy::kParallel;
    parallel.num_threads = 4;
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const RunStats a = BspRuntime(sequential).run(dist, MaxOneHop());
    const RunStats b = BspRuntime(parallel).run(dist, MaxOneHop());
    EXPECT_EQ(a.supersteps, b.supersteps);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.raw_messages, b.raw_messages);
    EXPECT_EQ(a.messages_sent_per_worker, b.messages_sent_per_worker);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.execution_seconds, b.execution_seconds)
        << "virtual time must not depend on the execution policy";
  }
}

// Above 64 parts every replica mask spans several words. A message that
// names a wrong local id still inside the receiver's range passes the
// exchange's guards unless it lands on a master or a non-replica, so the
// exact references are what catch it.
TEST(Runtime, RandomPartitionAbove64PartsMatchesReferences) {
  const Graph g = gen::chung_lu(3000, 24000, 2.2, false, 31);
  const std::vector<VertexId> cc_expected = apps::cc_reference(g);
  const std::vector<double> sssp_expected = apps::sssp_reference(g, 0);
  for (const PartitionId p : {65u, 200u}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    const DistributedGraph dist(
        g, make_partitioner("random")->partition(g, {.num_parts = p}));
    const RunStats cc = BspRuntime().run(dist, apps::ConnectedComponents());
    const RunStats sssp = BspRuntime().run(dist, apps::Sssp(0));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(cc.values[v], static_cast<Value>(cc_expected[v])) << "v=" << v;
      if (std::isinf(sssp_expected[v])) {
        ASSERT_TRUE(std::isinf(sssp.values[v])) << "v=" << v;
      } else {
        ASSERT_NEAR(sssp.values[v], sssp_expected[v], 1e-6) << "v=" << v;
      }
    }
  }
}

TEST(Runtime, UncoveredVerticesKeepInitValue) {
  const Graph g(6, {{0, 1}});
  EdgePartition part{2, {0}};
  const DistributedGraph dist(g, part);
  const RunStats stats = BspRuntime().run(dist, MaxOneHop());
  EXPECT_EQ(stats.values[5], 5.0);
}

TEST(Runtime, NanProducingProgramFailsFast) {
  // A NaN apply() result makes `next != value` true in every superstep
  // (NaN never compares equal), so the change-driven halting test could
  // never converge. The runtime must detect it and throw immediately —
  // on both the single-copy and the master-merge apply paths, at any
  // residency budget.
  const Graph g = gen::erdos_renyi(60, 300, 11);
  const DistributedGraph dist(g, round_robin(g, 3));
  EXPECT_THROW(BspRuntime().run(dist, NanEmitter()), std::runtime_error);

  bsp::RunOptions bounded;
  bounded.resident_workers = 1;
  EXPECT_THROW(BspRuntime(bounded).run(dist, NanEmitter()),
               std::runtime_error);
}

TEST(Runtime, AdjacencyNeedsADeclaration) {
  // The runtime builds only the adjacency a program declares; reading
  // one without declaring it is a programming error, not an empty CSR.
  const Graph g = gen::erdos_renyi(40, 200, 13);
  const DistributedGraph dist(g, round_robin(g, 2));
  EXPECT_THROW(BspRuntime().run(dist, MaxOneHop(/*declare_adjacency=*/false)),
               std::invalid_argument);
}

TEST(Runtime, ZeroWorkersPerNodeIsRejectedAtRunEntry) {
  // workers_per_node = 0 would be integer-division UB inside
  // same_node(); the runtime validates the cost model up front.
  const Graph g = gen::erdos_renyi(20, 80, 12);
  const DistributedGraph dist(g, round_robin(g, 2));
  bsp::RunOptions opts;
  opts.cost_model.workers_per_node = 0;
  EXPECT_THROW(BspRuntime(opts).run(dist, MaxOneHop()),
               std::invalid_argument);
}

}  // namespace
}  // namespace ebv
