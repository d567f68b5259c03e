// Experiment drivers shared by the bench binaries: the four dataset
// stand-ins (DESIGN.md §4) and the partition→distribute→run pipeline.
#pragma once

#include <string>
#include <vector>

#include "bsp/runtime.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"

namespace ebv::analysis {

/// A dataset stand-in plus the paper's reference numbers for Table I.
struct Dataset {
  std::string name;        // usaroad / livejournal / friendster / twitter
  Graph graph;
  double paper_eta = 0.0;  // η reported in the paper's Table I
  bool power_law = false;
  PartitionId table3_parts = 0;  // partition count in Tables III–V
};

/// `scale` multiplies the stand-ins' vertex counts (1.0 ≈ benchmark size,
/// ~0.1 for quick tests). All generators are seeded deterministically.
Dataset make_usaroad_sim(double scale = 1.0, std::uint64_t seed = 42);
Dataset make_livejournal_sim(double scale = 1.0, std::uint64_t seed = 42);
Dataset make_friendster_sim(double scale = 1.0, std::uint64_t seed = 42);
Dataset make_twitter_sim(double scale = 1.0, std::uint64_t seed = 42);

/// All four, in the paper's η-descending table order.
std::vector<Dataset> standard_datasets(double scale = 1.0,
                                       std::uint64_t seed = 42);

/// Application selector for the experiment pipeline.
enum class App { kCC, kPageRank, kSssp };

std::string app_name(App app);

/// One partition+run outcome.
struct ExperimentResult {
  std::string partitioner;
  PartitionId num_parts = 0;
  PartitionMetrics metrics;
  bsp::RunStats run;
};

/// Partition `graph` with the named algorithm, build the distributed graph
/// and execute the app on the simulated cluster. SSSP sources vertex 0.
///
/// Takes a GraphView, so the whole pipeline runs off an mmap-backed EBVS
/// snapshot (MappedGraph::view()) without a resident copy: partitioning
/// goes through Partitioner::partition_view (zero-copy for the streaming
/// algorithms, materialising fallback otherwise) and DistributedGraph
/// streams the view's edge section directly. A resident Graph converts
/// implicitly and produces bit-identical results for the same edge
/// sequence.
///
/// A binding options.resident_workers budget (0 < k < num_parts)
/// additionally routes execution through the worker-spill subsystem: the
/// per-worker subgraphs are streamed into a temporary EBVW snapshot
/// (options.spill_dir, defaulting to the system temp directory; removed
/// after the run) and at most k of them are materialised at a time —
/// same results, bounded subgraph residency. A budget of 0 or >= p stays
/// on the plain resident path (nothing to bound, so no spill I/O).
///
/// Scheduling options pass straight through: options.policy and
/// options.num_threads size the task-graph team and options.prefetch
/// controls double-buffered group loading under a binding budget — see
/// bsp::RunOptions for the determinism contract each one carries.
ExperimentResult run_experiment(const GraphView& graph,
                                const std::string& partitioner_name,
                                PartitionId num_parts, App app,
                                const bsp::RunOptions& options = {},
                                std::uint32_t pagerank_iterations = 20);

/// Resident overload: partitions through Partitioner::partition directly,
/// so algorithms without a streaming partition_view override don't pay the
/// view fallback's materialising copy of a graph that is already resident.
/// Results are identical to the view overload.
ExperimentResult run_experiment(const Graph& graph,
                                const std::string& partitioner_name,
                                PartitionId num_parts, App app,
                                const bsp::RunOptions& options = {},
                                std::uint32_t pagerank_iterations = 20);

/// Table III/V metrics with the paper's per-family definitions (§III-C):
/// vertex-cut metrics for the vertex-cut algorithms, edge-cut metrics
/// (disjoint V_i, replicated cross edges, Σ|Ei|/|E|) for METIS.
PartitionMetrics paper_metrics(const Graph& graph,
                               const std::string& partitioner_name,
                               PartitionId num_parts);

/// As run_experiment but with an externally produced partition (used for
/// the Blogel/Voronoi series and `ebvpart run --partition`).
ExperimentResult run_with_partition(const GraphView& graph,
                                    const EdgePartition& partition,
                                    const std::string& label, App app,
                                    const bsp::RunOptions& options = {},
                                    std::uint32_t pagerank_iterations = 20);

}  // namespace ebv::analysis
