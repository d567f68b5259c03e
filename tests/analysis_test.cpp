#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/message_stats.h"
#include "analysis/render.h"
#include "analysis/table.h"
#include "bsp/checkpoint.h"
#include "common/failpoint.h"
#include "common/format.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "obs/trace.h"
#include "partition/registry.h"

namespace ebv {
namespace {

using analysis::App;
using analysis::compute_message_stats;
using analysis::Table;

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "23"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 23    |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(MessageStats, HandComputed) {
  const auto s = compute_message_stats(std::vector<std::uint64_t>{10, 20, 30});
  EXPECT_EQ(s.total, 60u);
  EXPECT_EQ(s.max_per_worker, 30u);
  EXPECT_DOUBLE_EQ(s.mean_per_worker, 20.0);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.5);
}

TEST(MessageStats, ZeroMessagesGiveRatioOne) {
  const auto s = compute_message_stats(std::vector<std::uint64_t>{0, 0});
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.0);
}

TEST(MessageStats, EmptyWorkersThrow) {
  EXPECT_THROW(compute_message_stats(std::vector<std::uint64_t>{}),
               std::invalid_argument);
}

TEST(Datasets, StandInsHaveExpectedClasses) {
  const auto datasets = analysis::standard_datasets(/*scale=*/0.1);
  ASSERT_EQ(datasets.size(), 4u);
  EXPECT_EQ(datasets[0].name, "usaroad");
  EXPECT_FALSE(datasets[0].power_law);
  EXPECT_EQ(datasets[3].name, "twitter");
  EXPECT_TRUE(datasets[3].power_law);
  for (const auto& d : datasets) {
    EXPECT_GT(d.graph.num_edges(), 0u);
    EXPECT_GT(d.table3_parts, 0u);
  }
}

TEST(Datasets, EtaOrderingMatchesPaperTable1) {
  // Paper: USARoad 6.30 > LiveJournal 2.64 > Friendster 2.43 > Twitter 1.87.
  const auto datasets = analysis::standard_datasets(/*scale=*/0.25);
  std::vector<double> measured;
  for (const auto& d : datasets) {
    measured.push_back(estimate_power_law_exponent(d.graph));
  }
  EXPECT_GT(measured[0], measured[1]);  // road least skewed
  EXPECT_GT(measured[1], measured[3]);  // livejournal less skewed than twitter
}

TEST(Datasets, ScaleControlsSize) {
  const auto small = analysis::make_livejournal_sim(0.05);
  const auto large = analysis::make_livejournal_sim(0.2);
  EXPECT_LT(small.graph.num_vertices(), large.graph.num_vertices());
  EXPECT_LT(small.graph.num_edges(), large.graph.num_edges());
}

TEST(Experiment, RunExperimentSmoke) {
  const auto d = analysis::make_livejournal_sim(0.02);
  const auto result =
      analysis::run_experiment(d.graph, "ebv", 4, App::kCC);
  EXPECT_EQ(result.partitioner, "ebv");
  EXPECT_EQ(result.num_parts, 4u);
  EXPECT_GT(result.run.supersteps, 0u);
  EXPECT_GT(result.metrics.replication_factor, 0.9);
}

TEST(Experiment, AppNames) {
  EXPECT_EQ(analysis::app_name(App::kCC), "CC");
  EXPECT_EQ(analysis::app_name(App::kPageRank), "PR");
  EXPECT_EQ(analysis::app_name(App::kSssp), "SSSP");
}

TEST(Experiment, SsspOnRoadRuns) {
  const auto d = analysis::make_usaroad_sim(0.02);
  const auto result = analysis::run_experiment(d.graph, "dbh", 4, App::kSssp);
  EXPECT_GT(result.run.supersteps, 0u);
  EXPECT_GT(result.run.total_messages, 0u);
}

TEST(Experiment, PaperMetricsUsesEdgeCutDefinitionsForMetis) {
  // METIS's edge-cut replication factor is Σ|Ei|/|E| ≤ 2, whereas its
  // vertex-cut projection typically exceeds 2 on skewed graphs.
  const auto d = analysis::make_livejournal_sim(0.05);
  const auto metis = analysis::paper_metrics(d.graph, "metis", 8);
  EXPECT_LE(metis.replication_factor, 2.0);
  EXPECT_GE(metis.replication_factor, 1.0);
  // Vertex-cut algorithms keep the vertex-cut definitions.
  const auto ebv = analysis::paper_metrics(d.graph, "ebv", 8);
  const auto direct = compute_metrics(
      d.graph, make_partitioner("ebv")->partition(
                   d.graph, PartitionConfig{.num_parts = 8}));
  EXPECT_DOUBLE_EQ(ebv.replication_factor, direct.replication_factor);
}

TEST(Experiment, PagerankIterationsForwarded) {
  const auto d = analysis::make_livejournal_sim(0.02);
  const auto result = analysis::run_experiment(d.graph, "hash", 2,
                                               App::kPageRank, {}, 5);
  EXPECT_EQ(result.run.supersteps, 5u);
}

// --- `run --phase-stats`: a view over the obs::trace spans ---------------

namespace fs = std::filesystem;
using obs::trace::Event;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The rows of every `width`-column table in `text`, header rows
/// included, each cell without its padding (a layer's indent stays).
std::vector<std::vector<std::string>> table_rows(const std::string& text,
                                                 std::size_t width) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    std::size_t pos = 1;
    for (std::size_t bar = line.find('|', pos); bar != std::string::npos;
         pos = bar + 1, bar = line.find('|', pos)) {
      std::string cell = line.substr(pos + 1, bar - pos - 1);
      cell.erase(cell.find_last_not_of(' ') + 1);
      cells.push_back(cell);
    }
    if (cells.size() == width) rows.push_back(std::move(cells));
  }
  return rows;
}

std::string seconds_cell(std::uint64_t ns) {
  return format_duration(static_cast<double>(ns) * 1e-9);
}

bool named(const Event& e, std::string_view name) {
  return e.ph == 'X' && std::string_view(e.name) == name;
}

/// The spans of `name` that start inside `window` (a superstep span).
std::uint64_t ns_inside(const std::vector<Event>& events,
                        std::string_view name, const Event& window) {
  std::uint64_t ns = 0;
  for (const Event& e : events) {
    if (named(e, name) && e.ts_ns >= window.ts_ns &&
        e.ts_ns <= window.ts_ns + window.dur_ns) {
      ns += e.dur_ns;
    }
  }
  return ns;
}

const std::vector<std::string_view> kTaskKinds = {
    "compute", "route", "merge", "broadcast", "install", "load", "release"};

/// A 4-rank team over a spilled 8-worker graph with at most 2 workers
/// resident, through the whole partition → distribute → run pipeline.
bsp::RunOptions spilled_team_options(const std::string& dir) {
  bsp::RunOptions options;
  options.policy = bsp::ExecutionPolicy::kParallel;
  options.num_threads = 4;
  options.resident_workers = 2;
  options.spill_dir = dir;
  return options;
}

const Graph& breakdown_graph() {
  static const Graph g = gen::chung_lu(1500, 12000, 2.3, false, 17);
  return g;
}

struct TracedRun {
  std::string dir;
  analysis::ExperimentResult result;
  std::vector<Event> events;
  std::string text;
};

/// One traced pipeline run, armed and collected as `run --phase-stats 1`
/// does it. Shared by the tests below.
const TracedRun& traced_run() {
  static const TracedRun run = [] {
    TracedRun r;
    r.dir = fresh_dir("phase_breakdown");
    obs::trace::start();
    r.result = analysis::run_experiment(GraphView(breakdown_graph()), "ebv",
                                        8, App::kPageRank,
                                        spilled_team_options(r.dir), 6);
    r.events = obs::trace::stop_and_collect();
    r.text = analysis::format_phase_breakdown(r.events, r.result.run);
    return r;
  }();
  return run;
}

TEST(PhaseBreakdown, OneRowPerSuperstepHoldingItsSpanSums) {
  const TracedRun& run = traced_run();
  std::vector<const Event*> windows;
  for (const Event& e : run.events) {
    if (named(e, "superstep")) windows.push_back(&e);
  }
  ASSERT_EQ(windows.size(), run.result.run.supersteps);
  const auto rows = table_rows(run.text, kTaskKinds.size() + 2);
  ASSERT_EQ(rows.size(), windows.size() + 2);  // + header, total
  EXPECT_EQ(rows.front()[0], "superstep");
  EXPECT_EQ(rows.back()[0], "total");
  std::sort(windows.begin(), windows.end(),
            [](const Event* a, const Event* b) { return a->ts_ns < b->ts_ns; });
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const std::vector<std::string>& row = rows[k + 1];
    EXPECT_EQ(row[0], std::to_string(k));
    EXPECT_EQ(windows[k]->arg, k);
    for (std::size_t c = 0; c < kTaskKinds.size(); ++c) {
      EXPECT_EQ(row[c + 1],
                seconds_cell(ns_inside(run.events, kTaskKinds[c], *windows[k])))
          << "superstep " << k << ", " << kTaskKinds[c];
    }
    EXPECT_EQ(row.back(), seconds_cell(windows[k]->dur_ns));
  }
  // The scheduler joins before the superstep span closes, so every span of
  // the five exchange kinds lies inside a window: the total row is the
  // whole per-name sum, as `--trace` would sum it.
  for (std::size_t c = 0; c < 5; ++c) {
    std::uint64_t all = 0;
    std::uint64_t inside = 0;
    for (const Event& e : run.events) {
      if (named(e, kTaskKinds[c])) all += e.dur_ns;
    }
    for (const Event* w : windows) {
      inside += ns_inside(run.events, kTaskKinds[c], *w);
    }
    EXPECT_GT(all, 0u) << kTaskKinds[c];
    EXPECT_EQ(inside, all) << kTaskKinds[c];
  }
}

TEST(PhaseBreakdown, InitAndGatherLoadsLandInTheLayerTable) {
  const TracedRun& run = traced_run();
  std::vector<std::vector<std::string>> layers = table_rows(run.text, 3);
  ASSERT_GE(layers.size(), 2u);
  EXPECT_EQ(layers.front()[0], "layer");
  const std::vector<std::string> total = layers.back();
  EXPECT_EQ(total[0], "total");
  const auto find = [&](const std::string& label) {
    for (const auto& row : layers) {
      if (row[0] == label) return row;
    }
    ADD_FAILURE() << "no layer row " << label;
    return std::vector<std::string>(3);
  };
  for (const std::string_view name : {"load", "release"}) {
    // Main-track spans of this name fall between supersteps (value init
    // and the final gather); rank-track ones inside them.
    std::uint64_t main_ns = 0;
    std::uint64_t main_count = 0;
    std::uint64_t rank_ns = 0;
    for (const Event& e : run.events) {
      if (!named(e, name)) continue;
      (e.tid == 0 ? main_ns : rank_ns) += e.dur_ns;
      if (e.tid == 0) ++main_count;
    }
    EXPECT_GT(main_count, 0u) << name;
    const auto row = find(std::string(name));
    EXPECT_EQ(row[1], std::to_string(main_count));
    EXPECT_EQ(row[2], seconds_cell(main_ns));
    const auto steps = table_rows(run.text, kTaskKinds.size() + 2);
    const std::size_t col = name == "load" ? 6 : 7;
    EXPECT_EQ(steps.back()[col], seconds_cell(rank_ns)) << name;
  }
  // Library layers, children indented under their parent; the total sums
  // the top-level rows once.
  std::uint64_t top_ns = 0;
  for (const std::string_view name :
       {"partition", "partition.metrics", "bsp.distribute"}) {
    std::uint64_t ns = 0;
    for (const Event& e : run.events) {
      if (named(e, name)) ns += e.dur_ns;
    }
    EXPECT_EQ(find(std::string(name))[2], seconds_cell(ns));
    top_ns += ns;
  }
  for (const Event& e : run.events) {
    if (e.tid == 0 && (named(e, "load") || named(e, "release"))) {
      top_ns += e.dur_ns;
    }
  }
  EXPECT_EQ(find("  partition.edge-order")[1], "1");
  EXPECT_EQ(find("  partition.eva-score")[1], "1");
  EXPECT_EQ(total[2], seconds_cell(top_ns));
}

TEST(PhaseBreakdown, CollectingDisarmsAndWritesNoFile) {
  const TracedRun& run = traced_run();
  EXPECT_FALSE(obs::trace::enabled());
  // The run's directory held only its EBVW snapshot, removed after the
  // run; collecting the spans wrote nothing anywhere.
  EXPECT_TRUE(fs::is_empty(run.dir));
}

TEST(PhaseBreakdown, ResumedRunNumbersRowsFromTheRestoredStep) {
  const std::string dir = fresh_dir("phase_breakdown_resume");
  bsp::RunOptions options = spilled_team_options(dir);
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  {
    // Hits are 1-based: superstep 3 aborts after checkpoints 1..3.
    const failpoint::ScopedFailpoints fp("bsp.superstep=abort@4");
    EXPECT_THROW((void)analysis::run_experiment(GraphView(breakdown_graph()),
                                                "ebv", 8, App::kPageRank,
                                                options, 6),
                 std::runtime_error);
  }
  ASSERT_EQ(bsp::list_checkpoints(dir).back().first, 3u);
  options.resume = true;
  obs::trace::start();
  const analysis::ExperimentResult resumed = analysis::run_experiment(
      GraphView(breakdown_graph()), "ebv", 8, App::kPageRank, options, 6);
  const std::vector<Event> events = obs::trace::stop_and_collect();
  const auto rows = table_rows(
      analysis::format_phase_breakdown(events, resumed.run),
      kTaskKinds.size() + 2);
  ASSERT_EQ(resumed.run.supersteps, 6u);
  ASSERT_EQ(rows.size(), 3u + 2u);  // supersteps 3, 4, 5 + header, total
  EXPECT_EQ(rows[1][0], "3");
  EXPECT_EQ(rows[2][0], "4");
  EXPECT_EQ(rows[3][0], "5");
}

}  // namespace
}  // namespace ebv
