#include "analysis/experiment.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "bsp/distributed_graph.h"
#include "common/assert.h"
#include "common/unique_id.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "partition/metis_like.h"
#include "partition/registry.h"

namespace ebv::analysis {

// Stand-in sizes at scale 1.0. The paper's graphs are 10^2–10^3 larger;
// every generator preserves the degree-distribution class and the paper η
// (measured values are reported next to the paper's in Table I output).
Dataset make_usaroad_sim(double scale, std::uint64_t seed) {
  const auto side = static_cast<std::uint32_t>(
      std::max(8.0, 200.0 * std::sqrt(scale)));
  Dataset d{.name = "usaroad",
            .graph = gen::road_grid(side, side, 0.92, seed),
            .paper_eta = 6.30,
            .power_law = false,
            .table3_parts = 12};
  d.graph.set_name(d.name);
  return d;
}

Dataset make_livejournal_sim(double scale, std::uint64_t seed) {
  const auto n =
      static_cast<VertexId>(std::max(64.0, 40'000.0 * scale));
  // LiveJournal: directed, avg degree 14.23, η = 2.64.
  const auto m = static_cast<EdgeId>(14.23 * n);
  Dataset d{.name = "livejournal",
            .graph = gen::chung_lu(n, m, 2.64, /*undirected=*/false, seed),
            .paper_eta = 2.64,
            .power_law = true,
            .table3_parts = 12};
  d.graph.set_name(d.name);
  return d;
}

Dataset make_friendster_sim(double scale, std::uint64_t seed) {
  const auto n =
      static_cast<VertexId>(std::max(64.0, 50'000.0 * scale));
  // Friendster: undirected, avg degree 27.53, η = 2.43.
  const auto m = static_cast<EdgeId>(27.53 * n);
  Dataset d{.name = "friendster",
            .graph = gen::chung_lu(n, m, 2.43, /*undirected=*/true, seed),
            .paper_eta = 2.43,
            .power_law = true,
            .table3_parts = 32};
  d.graph.set_name(d.name);
  return d;
}

Dataset make_twitter_sim(double scale, std::uint64_t seed) {
  const auto n =
      static_cast<VertexId>(std::max(64.0, 36'000.0 * scale));
  // Twitter: directed, avg degree 35.25, η = 1.87 (the most skewed graph).
  const auto m = static_cast<EdgeId>(35.25 * n);
  Dataset d{.name = "twitter",
            .graph = gen::chung_lu(n, m, 1.87, /*undirected=*/false, seed),
            .paper_eta = 1.87,
            .power_law = true,
            .table3_parts = 32};
  d.graph.set_name(d.name);
  return d;
}

std::vector<Dataset> standard_datasets(double scale, std::uint64_t seed) {
  std::vector<Dataset> all;
  all.push_back(make_usaroad_sim(scale, seed));
  all.push_back(make_livejournal_sim(scale, seed));
  all.push_back(make_friendster_sim(scale, seed));
  all.push_back(make_twitter_sim(scale, seed));
  return all;
}

std::string app_name(App app) {
  switch (app) {
    case App::kCC: return "CC";
    case App::kPageRank: return "PR";
    case App::kSssp: return "SSSP";
  }
  EBV_ASSERT(false);
  return {};
}

namespace {

/// Removes the worker-spill snapshot when the run ends (success or not).
struct SpillFileGuard {
  std::string path;
  ~SpillFileGuard() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

bsp::RunStats run_app(const bsp::BspRuntime& runtime,
                      const bsp::DistributedGraph& dist, const GraphView& graph,
                      App app, std::uint32_t pagerank_iterations) {
  switch (app) {
    case App::kCC: {
      const apps::ConnectedComponents cc;
      return runtime.run(dist, cc);
    }
    case App::kPageRank: {
      const apps::PageRank pr(graph.num_vertices(), pagerank_iterations);
      return runtime.run(dist, pr);
    }
    case App::kSssp: {
      const apps::Sssp sssp(/*source=*/0);
      return runtime.run(dist, sssp);
    }
  }
  EBV_ASSERT(false);
  return {};
}

}  // namespace

ExperimentResult run_with_partition(const GraphView& graph,
                                    const EdgePartition& partition,
                                    const std::string& label, App app,
                                    const bsp::RunOptions& options,
                                    std::uint32_t pagerank_iterations) {
  ExperimentResult result;
  result.partitioner = label;
  result.num_parts = partition.num_parts;
  result.metrics = compute_metrics(graph, partition);

  // A binding residency budget routes the run through the worker-spill
  // subsystem: the DistributedGraph streams each worker's subgraph into
  // an EBVW snapshot during construction and the runtime materialises at
  // most `resident_workers` of them at a time. Results are bit-identical
  // to the all-resident path. A budget of 0 or >= p cannot bound
  // anything (the runtime would immediately materialise every worker),
  // so it stays on the plain resident path and pays no spill I/O;
  // spill_dir alone only picks WHERE the EBVW snapshot goes, it does not
  // enable spilling.
  const bool spill = options.resident_workers > 0 &&
                     options.resident_workers < partition.num_parts;
  const bsp::BspRuntime runtime(options);
  if (!spill) {
    const bsp::DistributedGraph dist(graph, partition);
    result.run = run_app(runtime, dist, graph, app, pagerank_iterations);
    return result;
  }

  namespace fs = std::filesystem;
  const fs::path dir = options.spill_dir.empty()
                           ? fs::temp_directory_path()
                           : fs::path(options.spill_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);  // best-effort; open errors report below
  SpillFileGuard guard{
      (dir / ("ebv-workers." + process_unique_suffix() + ".ebvw")).string()};

  const bsp::DistributedGraph dist(graph, partition,
                                   {.spill_path = guard.path});
  result.run = run_app(runtime, dist, graph, app, pagerank_iterations);
  return result;
}

PartitionMetrics paper_metrics(const Graph& graph,
                               const std::string& partitioner_name,
                               PartitionId num_parts) {
  PartitionConfig config;
  config.num_parts = num_parts;
  if (partitioner_name == "metis") {
    const MetisLikePartitioner metis;
    return compute_edge_cut_metrics(
        graph, metis.partition_vertices(graph, config), num_parts);
  }
  const auto partitioner = make_partitioner(partitioner_name);
  return compute_metrics(graph, partitioner->partition(graph, config));
}

ExperimentResult run_experiment(const GraphView& graph,
                                const std::string& partitioner_name,
                                PartitionId num_parts, App app,
                                const bsp::RunOptions& options,
                                std::uint32_t pagerank_iterations) {
  const auto partitioner = make_partitioner(partitioner_name);
  PartitionConfig config;
  config.num_parts = num_parts;

  EdgePartition partition;
  {
    // partition_view keeps an mmap-backed view zero-copy for the
    // streaming algorithms; the rest inherit the materialising fallback,
    // so every registered algorithm works here with identical results.
    const obs::trace::Span span("partition");
    partition = partitioner->partition_view(graph, config);
  }
  return run_with_partition(graph, partition, partitioner_name, app, options,
                            pagerank_iterations);
}

ExperimentResult run_experiment(const Graph& graph,
                                const std::string& partitioner_name,
                                PartitionId num_parts, App app,
                                const bsp::RunOptions& options,
                                std::uint32_t pagerank_iterations) {
  const auto partitioner = make_partitioner(partitioner_name);
  PartitionConfig config;
  config.num_parts = num_parts;

  EdgePartition partition;
  {
    const obs::trace::Span span("partition");
    partition = partitioner->partition(graph, config);
  }
  return run_with_partition(graph, partition, partitioner_name, app, options,
                            pagerank_iterations);
}

}  // namespace ebv::analysis
