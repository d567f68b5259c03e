// TaskGraph (work-stealing DAG execution, the BSP scheduler's substrate).
// Includes the high-thread-count stress tests that hammer the steal and
// park paths (also run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/task_graph.h"

namespace ebv {
namespace {

TEST(TaskGraph, EmptyGraphRuns) {
  TaskGraph g;
  g.run(1);
  TaskGraph g2;
  g2.run(8);
}

TEST(TaskGraph, SerialModeRunsChainInOrder) {
  TaskGraph g;
  std::vector<int> order;
  TaskGraph::TaskId prev = TaskGraph::kNone;
  for (int i = 0; i < 5; ++i) {
    prev = g.add([&order, i] { order.push_back(i); }, {prev});
  }
  g.run(1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGraph, DiamondRespectsDependencies) {
  for (const unsigned team : {1u, 4u}) {
    TaskGraph g;
    std::vector<int> log;
    std::mutex mu;
    auto note = [&](int id) {
      std::lock_guard lock(mu);
      log.push_back(id);
    };
    const auto a = g.add([&] { note(0); });
    const auto b = g.add([&] { note(1); }, {a});
    const auto c = g.add([&] { note(2); }, {a});
    g.add([&] { note(3); }, {b, c});
    g.run(team);
    ASSERT_EQ(log.size(), 4u) << "team " << team;
    EXPECT_EQ(log.front(), 0);
    EXPECT_EQ(log.back(), 3);
  }
}

TEST(TaskGraph, EveryTaskRunsExactlyOnce) {
  constexpr std::size_t kTasks = 2'000;
  TaskGraph g;
  std::vector<std::atomic<std::uint32_t>> hits(kTasks);
  std::vector<TaskGraph::TaskId> ids;
  ids.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    const auto id = g.add([&hits, t] {
      hits[t].fetch_add(1, std::memory_order_relaxed);
    });
    // Random-ish acyclic edges: depend on a couple of earlier tasks.
    if (t > 0) g.depend(id, ids[(t * 7) % t]);
    if (t > 1) g.depend(id, ids[(t * 13) % (t - 1)]);
    ids.push_back(id);
  }
  g.run(8);
  for (std::size_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(hits[t].load(), 1u) << "task " << t;
  }
}

TEST(TaskGraph, DependencyOrderHoldsUnderStealing) {
  // Chains of 3 with a shared counter per chain: a dependent must observe
  // its predecessor's write (the acq_rel release edge).
  constexpr std::size_t kChains = 256;
  TaskGraph g;
  std::vector<std::uint64_t> cell(kChains, 0);  // plain: deps must order it
  std::vector<std::uint8_t> ok(kChains, 1);
  for (std::size_t c = 0; c < kChains; ++c) {
    const auto a = g.add([&cell, c] { cell[c] = c + 1; });
    const auto b = g.add(
        [&cell, &ok, c] {
          if (cell[c] != c + 1) ok[c] = 0;
          cell[c] *= 10;
        },
        {a});
    g.add(
        [&cell, &ok, c] {
          if (cell[c] != (c + 1) * 10) ok[c] = 0;
        },
        {b});
  }
  g.run(16);
  for (std::size_t c = 0; c < kChains; ++c) {
    ASSERT_EQ(ok[c], 1) << "chain " << c << " observed a stale value";
  }
}

TEST(TaskGraph, WideTeamDrainsSerialChain) {
  // A pure chain keeps at most one task ready, so the other team-1
  // ranks spend the whole run parked on the idle condition variable;
  // every completion must wake the team enough to keep the chain
  // moving and the final drain must release every sleeper. (Run under
  // TSan in CI — this is the park/notify path's stress.)
  TaskGraph g;
  std::vector<int> order;
  TaskGraph::TaskId prev = TaskGraph::kNone;
  for (int i = 0; i < 300; ++i) {
    prev = g.add([&order, i] { order.push_back(i); }, {prev});
  }
  g.run(8);
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(order[i], i);
}

TEST(TaskGraph, CycleIsReportedBeforeAnyTaskRuns) {
  TaskGraph g;
  std::atomic<int> ran{0};
  const auto a = g.add([&] { ran.fetch_add(1); });
  const auto b = g.add([&] { ran.fetch_add(1); }, {a});
  g.depend(a, b);  // a → b → a
  EXPECT_THROW(g.run(4), std::logic_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, FirstExceptionPropagatesAndSkipsRest) {
  for (const unsigned team : {1u, 4u}) {
    TaskGraph g;
    std::atomic<int> after{0};
    const auto a = g.add([] { throw std::runtime_error("boom"); });
    g.add([&] { after.fetch_add(1); }, {a});
    EXPECT_THROW(g.run(team), std::runtime_error) << "team " << team;
    EXPECT_EQ(after.load(), 0) << "dependent body ran after a failure";
  }
}

TEST(TaskGraph, IsSingleShot) {
  TaskGraph g;
  g.add([] {});
  g.run(1);
  EXPECT_THROW(g.run(1), std::invalid_argument);
}

TEST(TaskGraphStress, ManyIndependentTasksHighTeam) {
  // All tasks seed at once: maximal stealing traffic. Team 16 deliberately
  // oversubscribes small hosts (run_team carries extra ranks on temporary
  // threads).
  constexpr std::size_t kTasks = 5'000;
  TaskGraph g;
  std::atomic<std::uint64_t> sum{0};
  for (std::size_t t = 0; t < kTasks; ++t) {
    g.add([&sum, t] { sum.fetch_add(t, std::memory_order_relaxed); });
  }
  g.run(16);
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(TaskGraphStress, LayeredFanOutFanIn) {
  // Alternating wide/narrow layers force repeated drain-and-refill of the
  // deques — the pattern the BSP superstep graphs produce.
  constexpr int kLayers = 20;
  constexpr int kWidth = 64;
  TaskGraph g;
  std::atomic<std::uint64_t> count{0};
  std::vector<TaskGraph::TaskId> prev_layer;
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<TaskGraph::TaskId> layer_ids;
    if (layer % 2 == 0) {
      for (int w = 0; w < kWidth; ++w) {
        const auto id = g.add([&count] {
          count.fetch_add(1, std::memory_order_relaxed);
        });
        if (!prev_layer.empty()) g.depend(id, prev_layer[0]);
        layer_ids.push_back(id);
      }
    } else {
      const auto id = g.add([&count] {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      for (const auto dep : prev_layer) g.depend(id, dep);
      layer_ids.push_back(id);
    }
    prev_layer = std::move(layer_ids);
  }
  g.run(16);
  EXPECT_EQ(count.load(), std::uint64_t{kLayers / 2} * kWidth + kLayers / 2);
}

}  // namespace
}  // namespace ebv
