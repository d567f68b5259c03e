#include "analysis/render.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <utility>

#include "analysis/table.h"
#include "bsp/runtime.h"
#include "common/format.h"

namespace ebv::analysis {

std::string format_mmap_stats_table(const GraphStats& stats,
                                    std::size_t mapped_bytes) {
  Table table({"metric", "value"});
  table.add_row({"vertices", with_commas(stats.num_vertices)});
  table.add_row({"edges", with_commas(stats.num_edges)});
  table.add_row({"average degree", format_fixed(stats.average_degree, 2)});
  table.add_row({"max total degree", with_commas(stats.max_total_degree)});
  table.add_row({"isolated vertices", with_commas(stats.isolated_vertices)});
  table.add_row({"power-law eta", format_fixed(stats.eta, 2)});
  table.add_row(
      {"mapped MB",
       format_fixed(static_cast<double>(mapped_bytes) / 1e6, 1)});
  return table.to_string();
}

std::string format_run_table(const std::string& app_label,
                             const ExperimentResult& result,
                             bool include_raw) {
  Table table({"metric", "value"});
  table.add_row({"app", app_label});
  table.add_row({"workers", std::to_string(result.num_parts)});
  table.add_row({"supersteps", std::to_string(result.run.supersteps)});
  table.add_row({"messages", with_commas(result.run.total_messages)});
  if (include_raw) {
    // Only under --combine 1: the default table stays byte-identical
    // across residency budgets (the CI e2e diffs them).
    table.add_row({"messages (raw)", with_commas(result.run.raw_messages)});
  }
  table.add_row({"comp (avg)", format_duration(result.run.comp_seconds)});
  table.add_row({"comm (avg)", format_duration(result.run.comm_seconds)});
  table.add_row({"delta C", format_duration(result.run.delta_c_seconds)});
  table.add_row(
      {"execution time", format_duration(result.run.execution_seconds)});
  return table.to_string();
}

std::string format_phase_breakdown(
    const std::vector<obs::trace::Event>& events, const bsp::RunStats& stats) {
  constexpr std::array<std::string_view, 7> kTasks = {
      "compute", "route", "merge", "broadcast", "install", "load", "release"};
  const auto cell = [](std::uint64_t ns) {
    return format_duration(static_cast<double>(ns) * 1e-9);
  };
  // Spans in start order, a parent before the children it contains.
  std::vector<const obs::trace::Event*> spans;
  for (const obs::trace::Event& e : events) {
    if (e.ph == 'X') spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
  });

  struct Step {
    std::uint64_t step;
    std::uint64_t end;
    std::array<std::uint64_t, kTasks.size() + 1> ns{};  // tasks, then wall
  };
  struct Layer {
    std::string_view name;
    std::size_t parent;
    std::size_t depth;
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
  };
  constexpr std::size_t kTop = ~std::size_t{0};
  std::vector<Step> steps;
  std::vector<Layer> layers;
  std::vector<std::pair<std::uint64_t, std::size_t>> open;  // (end, layer)
  for (const obs::trace::Event* e : spans) {
    const std::uint64_t end = e->ts_ns + e->dur_ns;
    if (std::string_view(e->name) == "superstep") {
      steps.push_back({e->arg, end});
      steps.back().ns.back() = e->dur_ns;
    } else if (!steps.empty() && e->ts_ns <= steps.back().end) {
      const auto kind = std::find(kTasks.begin(), kTasks.end(), e->name);
      if (kind != kTasks.end()) {
        steps.back().ns[static_cast<std::size_t>(kind - kTasks.begin())] +=
            e->dur_ns;
      }
    } else if (e->tid == 0) {  // a layer: main track, between supersteps
      while (!open.empty() && end > open.back().first) open.pop_back();
      const std::size_t parent = open.empty() ? kTop : open.back().second;
      std::size_t row = 0;
      while (row < layers.size() &&
             (layers[row].parent != parent || layers[row].name != e->name)) {
        ++row;
      }
      if (row == layers.size()) {
        layers.push_back({e->name, parent, open.size()});
      }
      ++layers[row].count;
      layers[row].ns += e->dur_ns;
      open.emplace_back(end, row);
    }
  }

  Table layer_table({"layer", "spans", "wall"});
  std::uint64_t layer_total = 0;
  const auto add_rows = [&](const auto& self, std::size_t parent) -> void {
    for (std::size_t row = 0; row < layers.size(); ++row) {
      const Layer& l = layers[row];
      if (l.parent != parent) continue;
      if (parent == kTop) layer_total += l.ns;
      layer_table.add_row({std::string(2 * l.depth, ' ') + std::string(l.name),
                           std::to_string(l.count), cell(l.ns)});
      self(self, row);
    }
  };
  add_rows(add_rows, kTop);
  layer_table.add_row({"total", "", cell(layer_total)});

  Table step_table({"superstep", "compute", "route", "merge", "broadcast",
                    "install", "load", "release", "wall"});
  const auto add_step = [&](std::string label, const Step& step) {
    std::vector<std::string> row = {std::move(label)};
    for (const std::uint64_t ns : step.ns) row.push_back(cell(ns));
    step_table.add_row(std::move(row));
  };
  Step total{};
  for (const Step& step : steps) {
    add_step(std::to_string(step.step), step);
    for (std::size_t k = 0; k < step.ns.size(); ++k) total.ns[k] += step.ns[k];
  }
  add_step("total", total);

  return layer_table.to_string() + step_table.to_string() + "run wall " +
         format_duration(stats.wall_seconds) + ", cpu " +
         format_duration(stats.cpu_seconds) + "\n";
}

}  // namespace ebv::analysis
