// ebvpart — command-line front end for the library.
//
//   ebvpart generate  --family powerlaw --vertices 20000 --edges 200000
//                     [--eta 2.4] [--seed 42] --out graph.ebvg
//   ebvpart convert   --in edges.txt --out graph.ebvs [--budget-mb 256]
//   ebvpart stats     --graph graph.ebvg | --mmap graph.ebvs
//   ebvpart partition --graph graph.ebvg | --mmap graph.ebvs
//                     --algo ebv --parts 8 [--alpha 1.0] [--beta 1.0]
//                     [--order sorted|natural|desc|random] --out parts.ebvp
//   ebvpart run       --graph graph.ebvg | --mmap graph.ebvs
//                     [--partition parts.ebvp] --app cc|pr|sssp
//                     [--resident-workers 1] [--spill-dir DIR] [--combine 1]
//
// Graph files: .ebvg binary (ebvpart generate), .ebvs mmap snapshots
// (ebvpart convert; --graph loads them resident, --mmap maps them
// zero-copy) or plain text edge lists. Full reference: docs/CLI.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/render.h"
#include "analysis/table.h"
#include "common/cli_args.h"
#include "common/failpoint.h"
#include "common/format.h"
#include "common/parallel.h"
#include "common/stale_sweep.h"
#include "common/timer.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mapped_graph.h"
#include "graph/snapshot_convert.h"
#include "graph/stats.h"
#include "common/unique_id.h"
#include "obs/trace.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/registry.h"
#include "serve/client.h"
#include "serve/server.h"

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace ebv;
using cli::ArgMap;
using cli::get;
using cli::get_double;
using cli::get_uint;

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
// Id-typed flags must also exclude the u32 sentinels (kInvalidVertex,
// kInvalidPartition) so a maximal value can't alias "invalid".
constexpr std::uint64_t kVertexMax = kInvalidVertex - 1;
constexpr std::uint64_t kPartsMax = kInvalidPartition - 1;

/// `--trace PATH` support shared by convert/partition/run: arms the span
/// tracer before the command's work when PATH is given or `arm` is set
/// (run --phase-stats 1), and returns PATH ("" when not given).
std::string trace_path_from(const ArgMap& args, bool arm = false) {
  // Not via cli::get — an empty fallback there means "required flag".
  const std::string path =
      args.count("trace") != 0 ? args.at("trace") : std::string();
  if (arm || !path.empty()) obs::trace::start();
  return path;
}

/// Disarm the tracer and return its events (none when it was not armed),
/// writing them as Chrome trace-event JSON to `path` when given. The
/// "wrote trace" notice goes to STDERR — traced stdout must stay
/// byte-identical to the untraced run (the CI e2e diffs them).
std::vector<obs::trace::Event> finish_trace(const std::string& path) {
  if (!obs::trace::enabled()) return {};
  std::vector<obs::trace::Event> events = obs::trace::stop_and_collect();
  if (!path.empty()) {
    obs::trace::write(path, events);
    std::cerr << "wrote trace " << path << "\n";
  }
  return events;
}

Graph load_graph(const std::string& path) {
  const obs::trace::Span span("graph.open");
  if (path.ends_with(".ebvg")) return io::read_binary_file(path);
  if (path.ends_with(".ebvs")) return io::read_snapshot_file(path);
  return io::read_edge_list_file(path);
}

/// Open a validated mmap view for commands taking --mmap <snapshot>.
MappedGraph open_mapped(const std::string& path) {
  const obs::trace::Span span("graph.open");
  MappedGraph mapped(path);
  mapped.validate();
  return mapped;
}

int cmd_generate(const ArgMap& args) {
  const std::string family = get(args, "family", "powerlaw");
  const auto seed = get_uint(args, "seed", "42");
  Graph graph;
  if (family == "powerlaw") {
    graph = gen::chung_lu(
        static_cast<VertexId>(get_uint(args, "vertices", "", kVertexMax)),
        get_uint(args, "edges", ""), get_double(args, "eta", "2.4"), false,
        seed);
  } else if (family == "road") {
    const auto side =
        static_cast<std::uint32_t>(get_uint(args, "side", "200", kU32Max));
    graph = gen::road_grid(side, side, 0.92, seed);
  } else if (family == "uniform") {
    graph = gen::erdos_renyi(
        static_cast<VertexId>(get_uint(args, "vertices", "", kVertexMax)),
        get_uint(args, "edges", ""), seed);
  } else if (family == "ba") {
    graph = gen::barabasi_albert(
        static_cast<VertexId>(get_uint(args, "vertices", "", kVertexMax)),
        static_cast<std::uint32_t>(get_uint(args, "attach", "4", kU32Max)),
        seed);
  } else {
    throw std::invalid_argument("unknown family: " + family);
  }
  const std::string out = get(args, "out");
  if (out.ends_with(".txt")) {
    io::write_edge_list_file(out, graph);
  } else if (out.ends_with(".ebvs")) {
    io::write_snapshot_file(out, graph);
  } else {
    io::write_binary_file(out, graph);
  }
  std::cout << "wrote " << out << ": |V|=" << with_commas(graph.num_vertices())
            << " |E|=" << with_commas(graph.num_edges()) << "\n";
  return 0;
}

int cmd_convert(const ArgMap& args) {
  io::ConvertOptions options;
  options.memory_budget_bytes =
      get_uint(args, "budget-mb", "256",
               std::numeric_limits<std::uint64_t>::max() >> 20)
      << 20;
  options.num_threads =
      static_cast<std::uint32_t>(get_uint(args, "threads", "1", kU32Max));
  if (options.num_threads > 1) {
    request_global_threads(options.num_threads);
  }
  options.deduplicate = get_uint(args, "dedup", "0", 1) != 0;
  options.remove_self_loops = get_uint(args, "keep-self-loops", "0", 1) == 0;
  if (args.count("tmp") != 0) options.temp_dir = args.at("tmp");

  const std::string in = get(args, "in");
  const std::string out = get(args, "out");

  // Reclaim sort-run files a killed convert left behind (pid-liveness
  // checked, so concurrent converts sharing the directory are safe).
  {
    const std::filesystem::path out_path(out);
    const std::filesystem::path run_dir =
        options.temp_dir.empty()
            ? (out_path.has_parent_path() ? out_path.parent_path()
                                          : std::filesystem::path("."))
            : std::filesystem::path(options.temp_dir);
    sweep_stale_temp_files(run_dir.string());
  }

  const std::string trace_path = trace_path_from(args);
  const Timer timer;
  io::ConvertStats s;
  {
    // Coarse command-level span; the converter has no internal spans yet.
    const obs::trace::Span span("convert");
    s = io::convert_edge_list_to_snapshot(in, out, options);
  }
  const double elapsed = timer.seconds();
  finish_trace(trace_path);

  analysis::Table table({"metric", "value"});
  table.add_row({"input", in});
  table.add_row({"input MB",
                 format_fixed(static_cast<double>(s.input_bytes) / 1e6, 1)});
  table.add_row({"edges read", with_commas(s.edges_read)});
  table.add_row({"edges written", with_commas(s.edges_written)});
  table.add_row({"vertices", with_commas(s.num_vertices)});
  table.add_row({"self-loops dropped", with_commas(s.self_loops_dropped)});
  table.add_row({"duplicates dropped", with_commas(s.duplicates_dropped)});
  table.add_row({"sort runs", std::to_string(s.num_runs)});
  table.add_row({"weighted", s.weighted ? "yes" : "no"});
  table.add_row({"convert time", format_duration(elapsed)});
  table.add_row(
      {"ingest MB/s",
       format_fixed(static_cast<double>(s.input_bytes) / 1e6 /
                        std::max(elapsed, 1e-9),
                    1)});
  table.print(std::cout);
  std::cout << "wrote " << out << "\n";
  return 0;
}

int cmd_stats(const ArgMap& args) {
  if (args.count("mmap") != 0) {
    if (get_uint(args, "deep", "0", 1) != 0) {
      throw std::invalid_argument(
          "--deep needs a resident graph; use --graph " + args.at("mmap"));
    }
    const MappedGraph mapped = open_mapped(args.at("mmap"));
    const GraphStats s = compute_stats(mapped.view());
    // Shared renderer: the serve daemon's kStats responses go through the
    // same function, so daemon output is byte-identical to this command.
    std::cout << analysis::format_mmap_stats_table(s, mapped.mapped_bytes());
    return 0;
  }
  const Graph graph = load_graph(get(args, "graph"));
  const GraphStats s = compute_stats(graph);
  analysis::Table table({"metric", "value"});
  table.add_row({"vertices", with_commas(s.num_vertices)});
  table.add_row({"edges", with_commas(s.num_edges)});
  table.add_row({"average degree", format_fixed(s.average_degree, 2)});
  table.add_row({"max total degree", with_commas(s.max_total_degree)});
  table.add_row({"isolated vertices", with_commas(s.isolated_vertices)});
  table.add_row({"power-law eta", format_fixed(s.eta, 2)});
  if (get_uint(args, "deep", "0", 1) != 0) {
    const auto cores = core_decomposition(graph);
    std::uint32_t max_core = 0;
    for (const auto c : cores) max_core = std::max(max_core, c);
    table.add_row({"max core number", std::to_string(max_core)});
    table.add_row({"triangles", with_commas(total_triangles(graph))});
    table.add_row({"clustering coefficient",
                   format_fixed(global_clustering_coefficient(graph), 4)});
    table.add_row(
        {"diameter (lower bound)",
         std::to_string(estimate_diameter(graph, 4, 42))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_partition(const ArgMap& args) {
  const std::string algo = get(args, "algo", "ebv");
  PartitionConfig config;
  config.num_parts =
      static_cast<PartitionId>(get_uint(args, "parts", "8", kPartsMax));
  config.alpha = get_double(args, "alpha", "1.0");
  config.beta = get_double(args, "beta", "1.0");
  config.seed = get_uint(args, "seed", "42");
  config.num_threads =
      static_cast<std::uint32_t>(get_uint(args, "threads", "1", kU32Max));
  config.batch_size =
      static_cast<std::uint32_t>(get_uint(args, "batch", "256", kU32Max));
  // Size the shared pool to the requested team so the ranks run on
  // resident workers instead of per-call temporary threads.
  if (config.num_threads > 1) {
    request_global_threads(config.num_threads);
  }
  const std::string order = get(args, "order", "sorted");
  if (order == "sorted") {
    config.edge_order = EdgeOrder::kSortedAscending;
  } else if (order == "desc") {
    config.edge_order = EdgeOrder::kSortedDescending;
  } else if (order == "natural") {
    config.edge_order = EdgeOrder::kNatural;
  } else if (order == "random") {
    config.edge_order = EdgeOrder::kRandom;
  } else {
    throw std::invalid_argument("unknown order: " + order);
  }

  // --mmap <snapshot> streams the partitioner over the mapped sections
  // (O(|V|) resident state for the streaming algorithms); --graph loads a
  // resident Graph. Both produce bit-identical partitions for the same
  // snapshot.
  const bool use_mmap = args.count("mmap") != 0;
  const std::string trace_path = trace_path_from(args);
  EdgePartition partition;
  PartitionMetrics m;
  double elapsed = 0.0;
  if (use_mmap) {
    const MappedGraph mapped = open_mapped(args.at("mmap"));
    const Timer timer;
    {
      // Command-level span; EBV adds its edge-order and Eva-scoring
      // spans inside it, and compute_metrics its own.
      const obs::trace::Span span("partition");
      partition =
          make_partitioner(algo)->partition_view(mapped.view(), config);
    }
    elapsed = timer.seconds();
    m = compute_metrics(mapped.view(), partition);
  } else {
    const Graph graph = load_graph(get(args, "graph"));
    const Timer timer;
    {
      const obs::trace::Span span("partition");
      partition = make_partitioner(algo)->partition(graph, config);
    }
    elapsed = timer.seconds();
    m = compute_metrics(graph, partition);
  }
  finish_trace(trace_path);

  analysis::Table table({"metric", "value"});
  table.add_row({"algorithm", algo});
  table.add_row({"graph source", use_mmap ? "mmap snapshot" : "resident"});
  table.add_row({"parts", std::to_string(config.num_parts)});
  table.add_row({"threads", std::to_string(config.num_threads)});
  table.add_row({"partitioning time", format_duration(elapsed)});
  table.add_row({"edge imbalance", format_fixed(m.edge_imbalance, 3)});
  table.add_row({"vertex imbalance", format_fixed(m.vertex_imbalance, 3)});
  table.add_row({"replication factor", format_fixed(m.replication_factor, 3)});
  table.print(std::cout);

  if (args.count("out") != 0) {
    io::write_partition_binary_file(args.at("out"), partition);
    std::cout << "wrote " << args.at("out") << "\n";
  }
  return 0;
}

int cmd_run(const ArgMap& args) {
  const std::string app_name = get(args, "app", "cc");
  analysis::App app = analysis::App::kCC;
  if (app_name == "pr") {
    app = analysis::App::kPageRank;
  } else if (app_name == "sssp") {
    app = analysis::App::kSssp;
  } else if (app_name != "cc") {
    throw std::invalid_argument("unknown app: " + app_name);
  }

  // --threads T sizes the shared pool explicitly AND bounds the BSP
  // computation stage's fan-out (RunOptions::num_threads) — the knob is no
  // longer just a parallel-policy toggle. Results are identical to the
  // sequential policy for every T.
  bsp::RunOptions options;
  const auto threads =
      static_cast<std::uint32_t>(get_uint(args, "threads", "1", kU32Max));
  if (threads > 1) {
    // Warns on stderr when the pool already runs at a different size —
    // RunOptions::num_threads still bounds the fan-out exactly (run_team
    // carries extra ranks on temporary threads), so the knob holds either
    // way; the warning just surfaces the pool mismatch.
    request_global_threads(threads);
    options.policy = bsp::ExecutionPolicy::kParallel;
    options.num_threads = threads;
  }

  // --prefetch 0 disables the double-buffered group loader under a
  // bounded residency budget.
  options.prefetch = get_uint(args, "prefetch", "1", 1) != 0;

  // --resident-workers K bounds how many worker subgraphs are materialised
  // at a time; a binding budget (0 < K < parts) spills the per-worker
  // subgraphs to an EBVW snapshot in --spill-dir (default: the system temp
  // directory; the file is removed after the run), while 0 or K >= parts
  // stays all-resident with no spill I/O. Results are bit-identical for
  // every K. --combine 1 merges same-vertex mirror->master messages before
  // sending (message counts drop; the run table gains a raw-count row).
  options.resident_workers = static_cast<std::uint32_t>(
      get_uint(args, "resident-workers", "0", kU32Max));
  if (args.count("spill-dir") != 0) options.spill_dir = args.at("spill-dir");
  options.combine_messages = get_uint(args, "combine", "0", 1) != 0;

  // --checkpoint-dir DIR writes a crash-consistent EBVC checkpoint at the
  // superstep barrier every --checkpoint-every N supersteps (default 1
  // once a directory is given); --resume 1 restarts from the newest
  // readable checkpoint and finishes bit-identically to the uninterrupted
  // run. docs/ARCHITECTURE.md, "Fault tolerance".
  if (args.count("checkpoint-dir") != 0) {
    options.checkpoint_dir = args.at("checkpoint-dir");
  }
  options.checkpoint_every = static_cast<std::uint32_t>(get_uint(
      args, "checkpoint-every", options.checkpoint_dir.empty() ? "0" : "1",
      kU32Max));
  options.resume = get_uint(args, "resume", "0", 1) != 0;

  // --phase-stats 1 prints, AFTER the run table (additive; the default
  // table stays byte-identical), tables computed from the command's
  // obs::trace spans; --trace PATH writes those spans as Chrome JSON
  // (stdout unchanged, the notice goes to stderr). Either flag arms the
  // tracer before the graph opens, and one collection feeds both.
  const bool show_phases = get_uint(args, "phase-stats", "0", 1) != 0;

  // Reclaim temp files (EBVW spill snapshots, checkpoint temps) a
  // killed run left behind, before we create ours.
  sweep_stale_temp_files(
      options.spill_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : options.spill_dir);
  if (!options.checkpoint_dir.empty()) {
    sweep_stale_temp_files(options.checkpoint_dir);
  }

  // --mmap feeds the whole pipeline (partition → DistributedGraph → BSP)
  // from the mapped snapshot sections: no resident Graph is ever built,
  // and results are bit-identical to --graph on the same snapshot.
  const bool use_mmap = args.count("mmap") != 0;
  const std::string trace_path = trace_path_from(args, show_phases);
  std::optional<MappedGraph> mapped;
  Graph resident;
  if (use_mmap) {
    mapped.emplace(open_mapped(args.at("mmap")));
  } else {
    resident = load_graph(get(args, "graph"));
  }
  const GraphView view = use_mmap ? mapped->view() : GraphView(resident);

  analysis::ExperimentResult result;
  if (args.count("partition") != 0) {
    const EdgePartition partition =
        io::read_partition_binary_file(args.at("partition"));
    result =
        analysis::run_with_partition(view, partition, "file", app, options);
  } else {
    const auto algo = get(args, "algo", "ebv");
    const auto parts =
        static_cast<PartitionId>(get_uint(args, "parts", "8", kPartsMax));
    // The resident overload partitions without the view fallback's
    // materialising copy; results are identical either way.
    result = use_mmap
                 ? analysis::run_experiment(mapped->view(), algo, parts, app,
                                            options)
                 : analysis::run_experiment(resident, algo, parts, app,
                                            options);
  }

  const std::vector<obs::trace::Event> events = finish_trace(trace_path);

  // Shared renderer: the serve daemon's kRun responses go through the
  // same function, so daemon output is byte-identical to this command.
  std::cout << analysis::format_run_table(app_name, result,
                                          options.combine_messages);
  if (show_phases) {
    std::cout << analysis::format_phase_breakdown(events, result.run);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve / query: the snapshot-serving daemon and its protocol client.

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::vector<std::uint64_t> parse_id_list(const std::string& csv,
                                         std::uint64_t max_value,
                                         const std::string& flag) {
  std::vector<std::uint64_t> out;
  for (const std::string& token : split_csv(csv)) {
    if (token.empty()) {
      throw std::invalid_argument("--" + flag + ": empty list entry");
    }
    std::size_t used = 0;
    // ebvlint: allow(naked-number-parse): full-string validated below
    // (used must consume every character) with a flag-named error.
    const std::uint64_t value = std::stoull(token, &used);
    if (used != token.size() || value > max_value) {
      throw std::invalid_argument("--" + flag + ": bad id '" + token + "'");
    }
    out.push_back(value);
  }
  if (out.empty()) {
    throw std::invalid_argument("--" + flag + " needs at least one id");
  }
  return out;
}

volatile std::sig_atomic_t g_serve_stop = 0;
extern "C" void serve_signal_handler(int) { g_serve_stop = 1; }

int cmd_serve(const ArgMap& args) {
  serve::ServerConfig config;
  const std::string default_socket =
      (std::filesystem::temp_directory_path() /
       ("ebv-serve." + process_unique_suffix() + ".sock"))
          .string();
  config.socket_path = get(args, "socket", default_socket);
  config.num_workers =
      static_cast<std::uint32_t>(get_uint(args, "workers", "2", 256));
  config.max_sessions =
      static_cast<std::uint32_t>(get_uint(args, "max-sessions", "64", 4096));
  if (args.count("queues") != 0) {
    // --queues S,D,N,L,R: admission depth per class, in RequestClass
    // order (stats, degree, neighbors, lookup, run).
    const auto depths =
        parse_id_list(args.at("queues"), 1u << 20, "queues");
    if (depths.size() != serve::kNumClasses) {
      throw std::invalid_argument("--queues needs exactly " +
                                  std::to_string(serve::kNumClasses) +
                                  " comma-separated depths");
    }
    for (std::size_t c = 0; c < serve::kNumClasses; ++c) {
      config.queue_depth[c] = static_cast<std::uint32_t>(depths[c]);
    }
  }

  serve::ServeContext context;
  context.limits.neighbor_limit = static_cast<std::uint32_t>(get_uint(
      args, "neighbor-limit", "65536", serve::kMaxNeighborhood));
  context.limits.max_run_parts = static_cast<std::uint32_t>(
      get_uint(args, "max-run-parts", "256", kPartsMax));

  // Reclaim leftovers from crashed daemons (their .sock inodes) before
  // creating ours.
  {
    const std::filesystem::path sock(config.socket_path);
    sweep_stale_temp_files(sock.has_parent_path()
                               ? sock.parent_path().string()
                               : std::string("."));
  }

  // --mmap a.ebvs[,b.ebvs...] with optional positional --partition
  // p.ebvp[,...] ("-" skips a snapshot). Each pair also builds the
  // replica/master routing table (bsp::ReplicaTable) and nothing else.
  const std::vector<std::string> snapshots = split_csv(get(args, "mmap"));
  std::vector<std::string> partitions;
  if (args.count("partition") != 0) {
    partitions = split_csv(args.at("partition"));
    if (partitions.size() > snapshots.size()) {
      throw std::invalid_argument(
          "--partition lists more files than --mmap has snapshots");
    }
  }
  context.graphs.reserve(snapshots.size());
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    MappedGraph mapped = open_mapped(snapshots[i]);
    const std::string name =
        std::filesystem::path(snapshots[i]).stem().string();
    context.graphs.emplace_back(name, snapshots[i], std::move(mapped));
    serve::GraphEntry& entry = context.graphs.back();
    if (i >= partitions.size() || partitions[i].empty() ||
        partitions[i] == "-") {
      continue;
    }
    EdgePartition partition =
        io::read_partition_binary_file(partitions[i]);
    if (partition.part_of_edge.size() != entry.mapped.num_edges()) {
      throw std::invalid_argument(
          partitions[i] + " covers " +
          std::to_string(partition.part_of_edge.size()) +
          " edges but " + snapshots[i] + " has " +
          std::to_string(entry.mapped.num_edges()));
    }
    entry.routing.emplace(entry.mapped.view(), partition);
    entry.partition.emplace(std::move(partition));
  }

  serve::Server server(std::move(context), std::move(config));
#ifndef _WIN32
  std::cout << "serving " << snapshots.size() << " snapshot(s) on "
            << server.socket_path() << " (pid " << ::getpid() << ")"
            << std::endl;
#endif

  // Graceful drain on SIGTERM/SIGINT; --duration S self-stops (CI/bench).
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);
  const auto duration_s = get_uint(args, "duration", "0", 86'400);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(duration_s);
  while (g_serve_stop == 0 &&
         (duration_s == 0 ||
          std::chrono::steady_clock::now() < deadline)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "draining..." << std::endl;
  server.request_stop();
  server.wait();
  // The drain report and the live kMetrics response are the same string
  // (one renderer), so `ebvpart query --op metrics` always matches this.
  std::cout << server.metrics_report();
  return 0;
}

int cmd_query(const ArgMap& args) {
  const std::string socket = get(args, "socket");
  const std::string op = get(args, "op");
  const auto graph_index = static_cast<std::uint32_t>(
      get_uint(args, "graph-index", "0", kU32Max));

  if (op == "ping") {
    serve::Client client(socket);
    client.ping();
    std::cout << "pong\n";
    return 0;
  }
  if (op == "stats") {
    serve::Client client(socket);
    std::cout << client.stats(graph_index);
    return 0;
  }
  if (op == "metrics") {
    // Live observability report from a RUNNING daemon: the per-class
    // stats table plus the metrics registry, rendered server-side by the
    // same function as the drain print.
    serve::Client client(socket);
    std::cout << client.metrics();
    return 0;
  }
  if (op == "degree") {
    serve::Client client(socket);
    serve::DegreeRequest req;
    req.graph_index = graph_index;
    for (const auto v :
         parse_id_list(get(args, "vertices"), kVertexMax, "vertices")) {
      req.vertices.push_back(static_cast<VertexId>(v));
    }
    const auto degrees = client.degrees(req);
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      std::cout << req.vertices[i] << " " << degrees[i].out_degree << " "
                << degrees[i].in_degree << "\n";
    }
    return 0;
  }
  if (op == "neighbors") {
    serve::Client client(socket);
    serve::NeighborsRequest req;
    req.graph_index = graph_index;
    req.source =
        static_cast<VertexId>(get_uint(args, "source", "", kVertexMax));
    req.hops = static_cast<std::uint32_t>(
        get_uint(args, "hops", "1", serve::kMaxHops));
    req.limit = static_cast<std::uint32_t>(
        get_uint(args, "limit", "0", serve::kMaxNeighborhood));
    const serve::NeighborsResponse resp = client.neighbors(req);
    for (const VertexId v : resp.vertices) std::cout << v << "\n";
    if (resp.truncated) std::cerr << "note: neighborhood truncated\n";
    return 0;
  }
  if (op == "partition") {
    serve::Client client(socket);
    serve::PartitionRequest req;
    req.graph_index = graph_index;
    req.edges = parse_id_list(get(args, "edges"),
                              std::numeric_limits<EdgeId>::max(), "edges");
    const auto parts = client.partition_of(req);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      std::cout << req.edges[i] << " " << parts[i] << "\n";
    }
    return 0;
  }
  if (op == "replicas") {
    serve::Client client(socket);
    serve::ReplicasRequest req;
    req.graph_index = graph_index;
    for (const auto v :
         parse_id_list(get(args, "vertices"), kVertexMax, "vertices")) {
      req.vertices.push_back(static_cast<VertexId>(v));
    }
    const auto replicas = client.replicas(req);
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      std::cout << req.vertices[i] << " ";
      if (replicas[i].master == kInvalidPartition) {
        std::cout << "-";
      } else {
        std::cout << replicas[i].master;
      }
      for (std::size_t p = 0; p < replicas[i].parts.size(); ++p) {
        std::cout << (p == 0 ? " " : ",") << replicas[i].parts[p];
      }
      std::cout << "\n";
    }
    return 0;
  }
  if (op == "run") {
    serve::Client client(socket);
    serve::RunRequest req;
    req.graph_index = graph_index;
    const std::string app = get(args, "app", "cc");
    if (app == "cc") {
      req.app = 0;
    } else if (app == "pr") {
      req.app = 1;
    } else if (app == "sssp") {
      req.app = 2;
    } else {
      throw std::invalid_argument("unknown app: " + app);
    }
    req.parts =
        static_cast<std::uint32_t>(get_uint(args, "parts", "8", kPartsMax));
    req.source =
        static_cast<VertexId>(get_uint(args, "source", "0", kVertexMax));
    req.hops = static_cast<std::uint32_t>(
        get_uint(args, "hops", "0", serve::kMaxHops));
    req.algo = get(args, "algo", "ebv");
    std::cout << client.run(req);
    return 0;
  }
  if (op == "badframe") {
    // Hostile-input probe for the CI e2e: send one malformed frame, show
    // the server's verdict, and verify it hangs up afterwards.
    const std::string kind = get(args, "kind", "magic");
    unsigned char header[serve::kFrameHeaderBytes];
    serve::FrameHeader h;
    h.type = static_cast<std::uint16_t>(serve::MsgType::kStats);
    h.request_id = 7;
    if (kind == "magic") {
      h.magic = 0xDEADBEEFu;
    } else if (kind == "version") {
      h.version = 9'999;
    } else if (kind == "reserved") {
      h.reserved = 1;
    } else if (kind == "oversized") {
      h.body_len = 0xFFFF'FFFFu;  // hostile length prefix: reject, no alloc
    } else if (kind == "truncated") {
      h.body_len = 64;  // promise 64 body bytes, send none, close
    } else {
      throw std::invalid_argument("unknown badframe kind: " + kind);
    }
    serve::encode_frame_header(h, header);
    serve::Client client(socket);
    // ebvlint: allow(raw-read-boundary): outbound byte view of a frame
    // header this test helper just encoded — not an input read.
    if (!client.send_raw({reinterpret_cast<const std::uint8_t*>(header),
                          sizeof(header)})) {
      throw std::runtime_error("send failed");
    }
    if (kind == "truncated") {
      // Half-close so the server sees EOF mid-body; a clean close (no
      // response) is the expected outcome.
#ifndef _WIN32
      ::shutdown(client.fd(), SHUT_WR);
#endif
      const auto frame = client.read_response();
      std::cout << (frame.outcome == serve::ReadOutcome::kEof
                        ? "closed\n"
                        : "unexpected response\n");
      return 0;
    }
    const auto frame = client.read_response();
    if (frame.outcome != serve::ReadOutcome::kFrame) {
      std::cout << "closed without response\n";
      return 0;
    }
    std::cout << serve::status_name(
                     static_cast<serve::Status>(frame.header.status))
              << ": "
              << std::string(frame.body.begin(), frame.body.end()) << "\n";
    // The server must hang up after a malformed frame.
    const auto next = client.read_response();
    std::cout << (next.outcome == serve::ReadOutcome::kEof
                      ? "connection closed\n"
                      : "connection unexpectedly open\n");
    return 0;
  }
  if (op == "burst") {
    // Fire --count concurrent one-shot requests to pin admission
    // control: with a bounded queue some must come back kOverloaded.
    const auto count = static_cast<std::uint32_t>(
        get_uint(args, "count", "32", 4096));
    std::atomic<std::uint32_t> ok{0};
    std::atomic<std::uint32_t> overloaded{0};
    std::atomic<std::uint32_t> other{0};
    std::vector<std::thread> threads;
    threads.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      threads.emplace_back([&] {
        try {
          serve::Client client(socket);
          (void)client.stats(graph_index);
          ok.fetch_add(1);
        } catch (const serve::ServeError& e) {
          (e.status() == serve::Status::kOverloaded ? overloaded : other)
              .fetch_add(1);
        } catch (const std::exception&) {
          other.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::cout << "ok " << ok.load() << "\noverloaded " << overloaded.load()
              << "\nother " << other.load() << "\n";
    return 0;
  }
  if (op == "bench") {
    // Sequential per-class load; prints client-side throughput and
    // latency quantiles (the daemon's drain table has the server view).
    const auto count =
        static_cast<std::uint32_t>(get_uint(args, "count", "100", 1u << 20));
    serve::Client client(socket);
    const auto quantile = [](std::vector<double>& ms, double q) {
      std::sort(ms.begin(), ms.end());
      if (ms.empty()) return 0.0;
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(ms.size() - 1) + 0.5);
      return ms[std::min(rank, ms.size() - 1)];
    };
    analysis::Table table(
        {"class", "requests", "req/s", "p50", "p95", "p99"});
    const auto bench_class =
        [&](const std::string& label, std::uint32_t n,
            const std::function<void(std::uint32_t)>& one) {
          std::vector<double> ms;
          ms.reserve(n);
          const Timer wall;
          for (std::uint32_t i = 0; i < n; ++i) {
            const Timer t;
            one(i);
            ms.push_back(t.seconds() * 1e3);
          }
          const double elapsed = wall.seconds();
          table.add_row({label, with_commas(n),
                         format_fixed(n / std::max(elapsed, 1e-9), 1),
                         format_duration(quantile(ms, 0.50) / 1e3),
                         format_duration(quantile(ms, 0.95) / 1e3),
                         format_duration(quantile(ms, 0.99) / 1e3)});
        };

    bench_class("stats", std::max(1u, count / 10),
                [&](std::uint32_t) { (void)client.stats(graph_index); });
    bench_class("degree", count, [&](std::uint32_t i) {
      serve::DegreeRequest req;
      req.graph_index = graph_index;
      req.vertices = {i % 1024};
      (void)client.degrees(req);
    });
    bench_class("neighbors", count, [&](std::uint32_t i) {
      serve::NeighborsRequest req;
      req.graph_index = graph_index;
      req.source = i % 1024;
      req.hops = 2;
      req.limit = 512;
      (void)client.neighbors(req);
    });
    bool have_lookup = true;
    try {
      serve::PartitionRequest probe;
      probe.graph_index = graph_index;
      probe.edges = {0};
      (void)client.partition_of(probe);
    } catch (const serve::ServeError&) {
      have_lookup = false;  // served without a partition
    }
    if (have_lookup) {
      bench_class("lookup", count, [&](std::uint32_t i) {
        if (i % 2 == 0) {
          serve::PartitionRequest req;
          req.graph_index = graph_index;
          req.edges = {i % 4096};
          (void)client.partition_of(req);
        } else {
          serve::ReplicasRequest req;
          req.graph_index = graph_index;
          req.vertices = {i % 1024};
          (void)client.replicas(req);
        }
      });
    }
    bench_class("run", std::max(1u, count / 100), [&](std::uint32_t) {
      serve::RunRequest req;
      req.graph_index = graph_index;
      req.app = 0;
      req.parts = 8;
      (void)client.run(req);
    });
    table.print(std::cout);
    return 0;
  }
  throw std::invalid_argument("unknown op: " + op);
}

void print_usage(std::ostream& out) {
  // Keep in lockstep with docs/CLI.md (the CI docs check greps both).
  out << "usage: ebvpart <generate|convert|stats|partition|run|serve|query> [--flag value]...\n"
         "\n"
         "  generate  --family powerlaw|road|uniform|ba --out g.{ebvg,ebvs,txt}\n"
         "            [--vertices N] [--edges M] [--eta H] [--seed S]\n"
         "            [--side L (road)] [--attach K (ba)]\n"
         "  convert   --in edges.txt|g.ebvg --out g.ebvs\n"
         "            [--budget-mb MB] [--threads T] [--dedup 0|1]\n"
         "            [--keep-self-loops 0|1] [--tmp DIR] [--trace t.json]\n"
         "            external-merge-sort a text edge list into a page-\n"
         "            aligned EBVS snapshot under a bounded memory budget\n"
         "  stats     --graph g.{ebvg,ebvs,txt} [--deep 0|1]\n"
         "            | --mmap g.ebvs   (zero-copy; --deep 1 unsupported)\n"
         "  partition --graph g.{ebvg,ebvs,txt} | --mmap g.ebvs\n"
         "            [--algo ebv] [--parts 8] [--alpha A] [--beta B]\n"
         "            [--order sorted|natural|desc|random] [--seed S]\n"
         "            [--threads T] [--batch B] [--out p.ebvp]\n"
         "            [--trace t.json]\n"
         "  run       --graph g.{ebvg,ebvs,txt} | --mmap g.ebvs\n"
         "            --app cc|pr|sssp [--threads T]\n"
         "            (--partition p.ebvp | [--algo ebv] [--parts 8])\n"
         "            [--resident-workers K] [--spill-dir DIR] [--combine 0|1]\n"
         "            [--prefetch 0|1]\n"
         "            [--checkpoint-dir DIR] [--checkpoint-every N]\n"
         "            [--resume 0|1] [--trace t.json] [--phase-stats 0|1]\n"
         "  serve     --mmap g.ebvs[,h.ebvs...] [--partition p.ebvp[,...]]\n"
         "            [--socket PATH] [--workers N] [--queues S,D,N,L,R]\n"
         "            [--max-sessions N] [--neighbor-limit N]\n"
         "            [--max-run-parts P] [--duration S]\n"
         "            long-lived daemon serving EBVQ queries over a unix\n"
         "            socket; drains gracefully on SIGTERM/SIGINT and\n"
         "            prints a per-class stats table\n"
         "  query     --socket PATH --op ping|stats|metrics|degree|neighbors|\n"
         "            partition|replicas|run|badframe|burst|bench\n"
         "            [--graph-index I] [--vertices A,B,...] [--edges A,B,...]\n"
         "            [--source V] [--hops K] [--limit N] [--app cc|pr|sssp]\n"
         "            [--parts P] [--algo ebv] [--kind magic|version|reserved|\n"
         "            oversized|truncated] [--count N]\n"
         "\n"
         "--mmap maps an EBVS snapshot read-only and streams partitioning —\n"
         "and, for run, distributed-graph construction and the BSP\n"
         "supersteps — over it without a resident copy (bit-identical to\n"
         "--graph on the same snapshot).\n"
         "--resident-workers K spills the per-worker subgraphs to an EBVW\n"
         "snapshot (in --spill-dir, default the system temp dir) and keeps\n"
         "at most K of them materialised at a time — same output, bounded\n"
         "subgraph residency (0 = all resident); with K >= 2 the scheduler\n"
         "prefetches the next group while the current one computes.\n"
         "--checkpoint-dir DIR writes a crash-consistent EBVC checkpoint\n"
         "every --checkpoint-every N supersteps (default 1 once a dir is\n"
         "given); --resume 1 restarts from the newest readable checkpoint\n"
         "and finishes bit-identically to the uninterrupted run.\n"
         "--trace t.json (convert/partition/run) writes a Chrome\n"
         "trace-event JSON of the command (open in Perfetto or\n"
         "chrome://tracing); stdout stays byte-identical to the untraced\n"
         "run. run --phase-stats 1 appends a layer table and a\n"
         "per-superstep wall breakdown by scheduler task kind, both\n"
         "computed from those spans; query --op metrics renders a running\n"
         "daemon's live latency + counter registry (same renderer as the\n"
         "drain table).\n"
         "Flags shown as 0|1 accept exactly 0 or 1; a flag the command\n"
         "does not take is an error.\n"
         "--failpoints SPEC (any command; or EBV_FAILPOINTS) injects\n"
         "deterministic I/O faults for testing — see docs/CLI.md.\n"
         "Formats: docs/FORMATS.md; full flag reference: docs/CLI.md.\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(std::cout);
    return 0;
  }
  try {
    const ArgMap args = cli::parse_args(argc, argv, 2);
    cli::check_flags(command, args);
    // Deterministic fault injection for tests and CI: the EBV_FAILPOINTS
    // environment variable, overridden by --failpoints SPEC (any command).
    failpoint::configure_from_env();
    if (args.count("failpoints") != 0) {
      failpoint::configure(args.at("failpoints"));
    }
    if (command == "generate") return cmd_generate(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "partition") return cmd_partition(args);
    if (command == "run") return cmd_run(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "query") return cmd_query(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
