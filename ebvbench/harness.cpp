// ebvbench harness: the C++ half of the repository benchmark (see
// ebvbench/README.md). It drives the library only through its public API
// and measures every layer from the outside: steady_clock around each
// call, getrusage(RUSAGE_SELF) deltas around the same call, and an
// obs::trace::Span named bench.<call>, so the traced pass nests the
// library's own spans (superstep, compute, load, serve.handler, ...)
// under the call that caused them.
//
//   ebvbench prepare --workload W --seed S --dir D
//   ebvbench measure --workload W --seed S --dir D --seconds T
//                    --trace 0|1 --out raw.json
//
// `prepare` generates the workload's input and reference outputs from the
// seed, untimed, and caches them in D. Most of these files are library
// output, so a D belongs to one build of the code. `measure` runs in a
// process of its own, so ru_maxrss is a per-workload number; it checks
// every output against the references and writes raw samples as JSON,
// which ebvbench/run.py reduces to the metrics named in BENCHMARK.json.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/render.h"
#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "common/cli_args.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/unique_id.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mapped_graph.h"
#include "graph/snapshot_convert.h"
#include "graph/stats.h"
#include "obs/trace.h"
#include "partition/eva_scorer.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/registry.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace ebv;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr unsigned kThreads = 4;
constexpr std::uint32_t kPagerankIterations = 20;
// Reps after the discarded warm-up; the trace pass needs one traced and
// one untraced rep to report the tracing overhead.
constexpr int kMinMeasuredReps = 2;
constexpr int kDecompositionReps = 3;

// serve-mix load: Poisson arrivals summed over the mix connections, plus
// one connection issuing a whole-snapshot `run` on a fixed period. The
// class shares, batch sizes and run period are synthetic; no production
// trace exists. The rate is a fixed share of the mix's capacity: the
// highest offered rate whose lookup p99 stayed within the 10 ms limit in
// every trial on a 4-vCPU Xeon host (README.md lists the trials). A
// quarter of it is a light load, where lookup latency is set by how fast
// an idle worker picks a request up and by runs holding a worker, not by
// saturation.
constexpr PartitionId kServeParts = 8;
constexpr std::uint32_t kServeWorkers = 2;
constexpr int kServeSetupReps = 5;
constexpr unsigned kMixConnections = 3;
constexpr double kMixCapacityPerSecond = 1200.0;
constexpr double kMixRatePerSecond = 0.25 * kMixCapacityPerSecond;
constexpr double kRunPeriodSeconds = 2.0;
constexpr double kWarmupSeconds = 2.0;
constexpr std::uint32_t kBatch = 16;
constexpr std::uint32_t kNeighborHops = 2;
constexpr std::uint32_t kNeighborLimit = 512;

enum class Family { kPowerlaw, kRoad };

struct Workload {
  const char* name;
  Family family;
  analysis::App app;
  PartitionId parts;
  std::uint32_t resident_workers;  // 0 = every worker subgraph resident
  bool serve;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr std::array<Workload, 5> kWorkloads = {{
    {"powerlaw-cc", Family::kPowerlaw, analysis::App::kCC, 64, 0, false},
    {"powerlaw-pr", Family::kPowerlaw, analysis::App::kPageRank, 64, 0, false},
    {"road-sssp", Family::kRoad, analysis::App::kSssp, 16, 0, false},
    {"spill-pr", Family::kPowerlaw, analysis::App::kPageRank, 64, 8, false},
    {"serve-mix", Family::kPowerlaw, analysis::App::kCC, kServeParts, 0, true},
}};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Graph generate(Family family, std::uint64_t seed) {
  if (family == Family::kPowerlaw) {
    return gen::chung_lu(100'000, 1'000'000, 2.3, /*undirected=*/false, seed);
  }
  return gen::road_grid(300, 300, 0.92, seed);
}

const char* app_label(analysis::App app) {
  switch (app) {
    case analysis::App::kCC: return "cc";
    case analysis::App::kPageRank: return "pr";
    case analysis::App::kSssp: return "sssp";
  }
  return "?";
}

/// The cached inputs and references of one (graph family, seed).
struct Files {
  fs::path dir;

  [[nodiscard]] fs::path edges() const { return dir / "edges.txt"; }
  [[nodiscard]] fs::path reference(analysis::App app) const {
    return dir / (std::string("ref-") + app_label(app) + ".f64");
  }
  [[nodiscard]] fs::path degrees() const { return dir / "degrees.u32"; }
  [[nodiscard]] fs::path served_snapshot() const { return dir / "serve.ebvs"; }
  [[nodiscard]] fs::path served_partition() const {
    return dir / "serve.ebvp";
  }
  [[nodiscard]] fs::path expected_run() const { return dir / "serve-run.txt"; }
  [[nodiscard]] fs::path served_quality() const {
    return dir / "serve-quality.txt";
  }
  /// A pid-unique temporary path in the work dir.
  [[nodiscard]] fs::path temp_path(const std::string& stem,
                                   const std::string& ext) const {
    return dir / (stem + "." + process_unique_suffix() + ext);
  }
};

// --- small file helpers ------------------------------------------------------

/// Write through a pid-unique temp file and rename, so a killed prepare
/// never leaves a truncated cache entry behind.
template <typename Writer>
void write_atomically(const fs::path& path, Writer&& writer) {
  const fs::path tmp =
      path.string() + ".tmp." + process_unique_suffix();
  writer(tmp);
  fs::rename(tmp, path);
}

template <typename T>
void write_array(const fs::path& path, const std::vector<T>& values) {
  write_atomically(path, [&](const fs::path& tmp) {
    std::ofstream out(tmp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  });
}

template <typename T>
std::vector<T> read_array(const fs::path& path, std::size_t count) {
  if (fs::file_size(path) != count * sizeof(T)) {
    throw std::runtime_error(path.string() + ": expected " +
                             std::to_string(count) + " values");
  }
  std::vector<T> values(count);
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return values;
}

void write_text(const fs::path& path, const std::string& text) {
  write_atomically(path, [&](const fs::path& tmp) {
    std::ofstream out(tmp);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + tmp.string());
  });
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return text.str();
}

void remove_quietly(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

// --- measurement primitives --------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_ms(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1e3 +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e3;
}

/// Process-wide rusage deltas of one call into the library. Its wall time
/// is the bench.* span around the call, read from the trace.
struct CallSample {
  double cpu_ms = 0.0;
  long minflt = 0;
  long majflt = 0;
  long nvcsw = 0;
  long nivcsw = 0;
};

/// Run `fn` inside a bench.* span (`span_name` must be a literal) and
/// take the rusage deltas around it.
template <typename Fn>
CallSample layer_call(const char* span_name, Fn&& fn) {
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  {
    const obs::trace::Span span(span_name);
    fn();
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  return {cpu_ms(after) - cpu_ms(before),
          after.ru_minflt - before.ru_minflt,
          after.ru_majflt - before.ru_majflt,
          after.ru_nvcsw - before.ru_nvcsw,
          after.ru_nivcsw - before.ru_nivcsw};
}

double peak_rss_mb() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Operations attempted and failed verification, with the first few
/// failure messages.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
  void merge(const Checker& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 10) errors.push_back(e);
    }
  }
};

/// Minimal JSON writer for the raw-sample document.
class Json {
 public:
  Json& open(char bracket) {
    comma();
    out_ << bracket;
    first_.push_back(true);
    return *this;
  }
  Json& close(char bracket) {
    out_ << bracket;
    first_.pop_back();
    return *this;
  }
  Json& key(std::string_view name) {
    comma();
    text_literal(name);
    out_ << ':';
    after_key_ = true;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ << "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    comma();
    out_ << v;
    return *this;
  }
  Json& num(long v) {
    comma();
    out_ << v;
    return *this;
  }
  Json& boolean(bool v) {
    comma();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& text(std::string_view s) {
    comma();
    text_literal(s);
    return *this;
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }
  void text_literal(std::string_view s) {
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

void write_checks(Json& json, const Checker& checks) {
  json.key("attempted").num(checks.attempted);
  json.key("failed").num(checks.failed);
  json.key("errors").open('[');
  for (const std::string& e : checks.errors) json.text(e);
  json.close(']');
}

// --- quality -----------------------------------------------------------------

/// The exact (thread-invariant) outputs of one pipeline.
struct Quality {
  double replication_factor = 0.0;
  double edge_imbalance = 0.0;
  double vertex_imbalance = 0.0;
  std::uint64_t messages = 0;
  double virtual_exec_s = 0.0;

  bool operator==(const Quality&) const = default;
};

Quality quality_of(const PartitionMetrics& m, const bsp::RunStats& run) {
  return {m.replication_factor, m.edge_imbalance, m.vertex_imbalance,
          run.total_messages, run.execution_seconds};
}

void write_quality(Json& json, const Quality& q) {
  json.key("quality").open('{');
  json.key("replication_factor").num(q.replication_factor);
  json.key("edge_imbalance").num(q.edge_imbalance);
  json.key("vertex_imbalance").num(q.vertex_imbalance);
  json.key("messages").num(q.messages);
  json.key("virtual_exec_s").num(q.virtual_exec_s);
  json.close('}');
}

// --- prepare -----------------------------------------------------------------

std::vector<double> reference_values(analysis::App app, const Graph& graph) {
  switch (app) {
    case analysis::App::kCC: {
      const std::vector<VertexId> labels = apps::cc_reference(graph);
      return {labels.begin(), labels.end()};
    }
    case analysis::App::kPageRank:
      return apps::pagerank_reference(graph, kPagerankIterations);
    case analysis::App::kSssp:
      return apps::sssp_reference(graph, 0);
  }
  return {};
}

int cmd_prepare(const cli::ArgMap& args) {
  const Workload& w = find_workload(cli::get(args, "workload"));
  const std::uint64_t seed = cli::get_uint(args, "seed", "");
  const Files files{cli::get(args, "dir")};
  fs::create_directories(files.dir);

  std::optional<Graph> graph;
  const auto generated = [&]() -> const Graph& {
    if (!graph) graph.emplace(generate(w.family, seed));
    return *graph;
  };

  if (!fs::exists(files.edges())) {
    write_atomically(files.edges(), [&](const fs::path& tmp) {
      io::write_edge_list_file(tmp.string(), generated());
    });
  }
  if (!w.serve) {
    if (!fs::exists(files.reference(w.app))) {
      write_array(files.reference(w.app), reference_values(w.app, generated()));
    }
    return 0;
  }

  if (!fs::exists(files.degrees())) {
    const Graph& g = generated();
    std::vector<std::uint32_t> degrees(g.out_degrees().begin(),
                                       g.out_degrees().end());
    degrees.insert(degrees.end(), g.in_degrees().begin(), g.in_degrees().end());
    write_array(files.degrees(), degrees);
  }
  if (!fs::exists(files.served_snapshot())) {
    write_atomically(files.served_snapshot(), [&](const fs::path& tmp) {
      io::convert_edge_list_to_snapshot(files.edges().string(), tmp.string());
    });
  }
  if (fs::exists(files.served_partition()) &&
      fs::exists(files.expected_run()) && fs::exists(files.served_quality())) {
    return 0;
  }
  // The served partition and the expected `run` response are computed on
  // the canonical (src, dst)-sorted snapshot the server maps, not on the
  // generator's edge order.
  MappedGraph mapped(files.served_snapshot().string());
  mapped.validate();
  PartitionConfig config;
  config.num_parts = kServeParts;
  const EdgePartition partition =
      make_partitioner("ebv")->partition_view(mapped.view(), config);
  const analysis::ExperimentResult result = analysis::run_experiment(
      mapped.view(), "ebv", kServeParts, w.app, {}, kPagerankIterations);
  write_atomically(files.served_partition(), [&](const fs::path& tmp) {
    io::write_partition_binary_file(tmp.string(), partition);
  });
  write_text(files.expected_run(),
             analysis::format_run_table(app_label(w.app), result, false));
  const Quality q = quality_of(result.metrics, result.run);
  char line[160];
  std::snprintf(line, sizeof line, "%.17g %.17g %.17g %llu %.17g\n",
                q.replication_factor, q.edge_imbalance, q.vertex_imbalance,
                static_cast<unsigned long long>(q.messages), q.virtual_exec_s);
  write_text(files.served_quality(), line);
  return 0;
}

Quality read_served_quality(const Files& files) {
  std::ifstream in(files.served_quality());
  Quality q;
  in >> q.replication_factor >> q.edge_imbalance >> q.vertex_imbalance >>
      q.messages >> q.virtual_exec_s;
  if (!in) {
    throw std::runtime_error("cannot read " + files.served_quality().string());
  }
  return q;
}

// --- pipeline workloads ------------------------------------------------------

/// Empty when `got` matches the reference within the app's tolerance:
/// CC labels exact, SSSP distances within 1e-6 (relative above 1), PR
/// within 1e-9 absolute.
std::string compare_values(analysis::App app, const std::vector<double>& got,
                           const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return "value count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    const double g = got[v];
    const double r = want[v];
    bool ok = false;
    switch (app) {
      case analysis::App::kCC: ok = g == r; break;
      case analysis::App::kSssp:
        ok = (std::isinf(g) && std::isinf(r)) ||
             std::fabs(g - r) <= 1e-6 * std::max(1.0, std::fabs(r));
        break;
      case analysis::App::kPageRank: ok = std::fabs(g - r) <= 1e-9; break;
    }
    if (!ok) {
      std::ostringstream msg;
      msg << "vertex " << v << ": got " << g << ", reference " << r;
      return msg.str();
    }
  }
  return {};
}

struct Rep {
  bool warmup = false;
  bool traced = false;
  double setup_s = 0.0;
  double pipeline_s = 0.0;
  std::vector<std::pair<const char*, CallSample>> calls;
  std::string trace_file;
};

class PipelineBench {
 public:
  PipelineBench(const Workload& w, Files files)
      : w_(w), files_(std::move(files)) {
    config_.num_parts = w.parts;
    config_.num_threads = kThreads;
    options_.policy = bsp::ExecutionPolicy::kParallel;
    options_.num_threads = kThreads;
    options_.resident_workers = w.resident_workers;
    if (spilled()) options_.spill_dir = files_.dir.string();
  }

  Rep run_rep(std::uint64_t index, bool warmup, bool traced) {
    Rep rep;
    rep.warmup = warmup;
    rep.traced = traced;
    const fs::path snapshot = files_.temp_path("rep", ".ebvs");
    const fs::path spill = files_.temp_path("workers", ".ebvw");
    std::optional<MappedGraph> mapped;
    EdgePartition partition;
    PartitionMetrics metrics;
    std::optional<bsp::DistributedGraph> dist;
    bsp::RunStats stats;

    if (traced) obs::trace::start();
    {
      const obs::trace::Span span("bench.rep", index);
      const auto setup_start = Clock::now();
      rep.calls.emplace_back("graph.convert", layer_call("bench.convert", [&] {
        io::convert_edge_list_to_snapshot(files_.edges().string(),
                                          snapshot.string());
      }));
      rep.calls.emplace_back("graph.open", layer_call("bench.open", [&] {
        mapped.emplace(snapshot.string());
        mapped->validate();
      }));
      const auto pipeline_start = Clock::now();
      const GraphView view = mapped->view();
      rep.calls.emplace_back("partition.total",
                             layer_call("bench.partition", [&] {
        partition = make_partitioner("ebv")->partition_view(view, config_);
      }));
      rep.calls.emplace_back("partition.metrics",
                             layer_call("bench.metrics", [&] {
        metrics = compute_metrics(view, partition);
      }));
      rep.calls.emplace_back("bsp.distribute",
                             layer_call("bench.distribute", [&] {
        if (spilled()) {
          dist.emplace(view, partition,
                       bsp::DistributeOptions{.spill_path = spill.string()});
        } else {
          dist.emplace(view, partition);
        }
      }));
      rep.calls.emplace_back("bsp.run", layer_call("bench.run", [&] {
        stats = run_program(*dist, view.num_vertices());
      }));
      const auto end = Clock::now();
      rep.setup_s = ms_between(setup_start, pipeline_start) / 1e3;
      rep.pipeline_s = ms_between(pipeline_start, end) / 1e3;
    }
    if (traced) {
      const fs::path trace = files_.temp_path("trace", ".json");
      write_text(trace, obs::trace::stop_and_render());
      rep.trace_file = trace.string();
    }

    verify(*mapped, partition, metrics, *dist, stats);
    peak_resident_workers_ =
        std::max(peak_resident_workers_, stats.peak_resident_workers);
    dist.reset();
    mapped.reset();
    remove_quietly(snapshot);
    remove_quietly(spill);
    return rep;
  }

  /// The two stages of partition_view run separately, as the partitioner
  /// runs them: make_edge_order, then the Eva scoring core over that
  /// order, each inside its bench.* span; checked against partition_view's
  /// own output. Returns the trace file holding the spans.
  std::string decompose() {
    const fs::path snapshot = files_.temp_path("decompose", ".ebvs");
    io::convert_edge_list_to_snapshot(files_.edges().string(),
                                      snapshot.string());
    const fs::path trace = files_.temp_path("trace", ".json");
    {
      const MappedGraph mapped(snapshot.string());
      const GraphView view = mapped.view();
      const EdgePartition expected =
          make_partitioner("ebv")->partition_view(view, config_);
      obs::trace::start();
      for (int k = 0; k < kDecompositionReps; ++k) {
        std::vector<EdgeId> order;
        layer_call("bench.edge-order", [&] {
          order = make_edge_order(view, config_.edge_order, config_.seed,
                                  config_.num_threads);
        });
        std::vector<PartitionId> parts(view.num_edges(), kInvalidPartition);
        layer_call("bench.eva-score", [&] {
          detail::EvaState state(view, config_);
          std::size_t pulled = 0;
          std::size_t committed = 0;
          detail::run_eva_scoring(
              state, config_.num_threads, config_.batch_size,
              [&](VertexId& u, VertexId& v) {
                if (pulled == order.size()) return false;
                const Edge& e = view.edge(order[pulled++]);
                u = e.src;
                v = e.dst;
                return true;
              },
              [&](PartitionId best, unsigned) {
                parts[order[committed++]] = best;
              });
        });
        checks_.record(parts == expected.part_of_edge,
                       "edge order + Eva scoring differ from partition_view");
      }
      write_text(trace, obs::trace::stop_and_render());
    }
    remove_quietly(snapshot);
    return trace.string();
  }

  [[nodiscard]] const Checker& checks() const { return checks_; }
  [[nodiscard]] const std::optional<Quality>& quality() const {
    return quality_;
  }
  [[nodiscard]] std::uint32_t peak_resident_workers() const {
    return peak_resident_workers_;
  }
  [[nodiscard]] EdgeId num_edges() const { return num_edges_; }

 private:
  [[nodiscard]] bool spilled() const { return w_.resident_workers > 0; }

  bsp::RunStats run_program(const bsp::DistributedGraph& dist,
                            VertexId num_vertices) const {
    const bsp::BspRuntime runtime(options_);
    switch (w_.app) {
      case analysis::App::kCC: {
        const apps::ConnectedComponents cc;
        return runtime.run(dist, cc);
      }
      case analysis::App::kPageRank: {
        const apps::PageRank pr(num_vertices, kPagerankIterations);
        return runtime.run(dist, pr);
      }
      case analysis::App::kSssp: {
        const apps::Sssp sssp(0);
        return runtime.run(dist, sssp);
      }
    }
    throw std::logic_error("unknown app");
  }

  void verify(const MappedGraph& mapped, const EdgePartition& partition,
              const PartitionMetrics& metrics,
              const bsp::DistributedGraph& dist, const bsp::RunStats& stats) {
    if (reference_.empty()) {
      reference_ =
          read_array<double>(files_.reference(w_.app), mapped.num_vertices());
      // A vertex no edge covers is on no worker and keeps the program's
      // init value; for PageRank that is 1/N, where the reference
      // applies one teleport step.
      if (w_.app == analysis::App::kPageRank) {
        const GraphView view = mapped.view();
        for (VertexId v = 0; v < view.num_vertices(); ++v) {
          if (view.degree(v) == 0) {
            reference_[v] = 1.0 / static_cast<double>(view.num_vertices());
          }
        }
      }
    }
    std::string error;
    const bool shape_ok =
        partition.num_parts == w_.parts &&
        partition.part_of_edge.size() == mapped.num_edges() &&
        std::all_of(partition.part_of_edge.begin(),
                    partition.part_of_edge.end(),
                    [&](PartitionId p) { return p < w_.parts; });
    std::uint64_t assigned = 0;
    for (const std::uint64_t e : metrics.edges_per_part) assigned += e;
    const Quality q = quality_of(metrics, stats);
    if (!shape_ok) {
      error = "partition does not assign every edge to a part < p";
    } else if (assigned != mapped.num_edges() ||
               metrics.total_replicas != dist.total_replicas()) {
      error = "partition metrics disagree with the distributed graph";
    } else if (quality_.has_value() && !(q == *quality_)) {
      error = "quality or message count changed between reps";
    } else {
      error = compare_values(w_.app, stats.values, reference_);
    }
    if (!quality_.has_value()) quality_ = q;
    num_edges_ = mapped.num_edges();
    checks_.record(error.empty(), std::string(w_.name) + ": " + error);
  }

  const Workload& w_;
  Files files_;
  PartitionConfig config_;
  bsp::RunOptions options_;
  std::vector<double> reference_;
  std::optional<Quality> quality_;
  std::uint32_t peak_resident_workers_ = 0;
  EdgeId num_edges_ = 0;
  Checker checks_;
};

void write_call(Json& json, const char* name, const CallSample& s) {
  json.key(name).open('{');
  json.key("cpu_ms").num(s.cpu_ms);
  json.key("minflt").num(s.minflt);
  json.key("majflt").num(s.majflt);
  json.key("nvcsw").num(s.nvcsw);
  json.key("nivcsw").num(s.nivcsw);
  json.close('}');
}

std::string measure_pipeline(const Workload& w, const Files& files,
                             double seconds, bool trace) {
  PipelineBench bench(w, files);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<Rep> reps;
  reps.push_back(bench.run_rep(0, /*warmup=*/true, /*traced=*/false));
  int measured = 0;
  while (measured < kMinMeasuredReps || Clock::now() < deadline) {
    const bool traced = trace && measured % 2 == 0;
    reps.push_back(bench.run_rep(reps.size(), false, traced));
    ++measured;
  }
  PipelineBench decomposition(w, files);
  const std::string decomposition_trace =
      trace ? decomposition.decompose() : std::string();

  Checker checks = bench.checks();
  checks.merge(decomposition.checks());
  Json json;
  json.open('{');
  json.key("workload").text(w.name);
  json.key("threads").num(std::uint64_t{kThreads});
  json.key("edges").num(std::uint64_t{bench.num_edges()});
  write_checks(json, checks);
  json.key("peak_rss_mb").num(peak_rss_mb());
  if (bench.quality().has_value()) write_quality(json, *bench.quality());
  json.key("peak_resident_workers")
      .num(std::uint64_t{bench.peak_resident_workers()});
  json.key("reps").open('[');
  for (const Rep& rep : reps) {
    json.open('{');
    json.key("warmup").boolean(rep.warmup);
    json.key("traced").boolean(rep.traced);
    json.key("setup_s").num(rep.setup_s);
    json.key("pipeline_s").num(rep.pipeline_s);
    json.key("trace_file").text(rep.trace_file);
    json.key("calls").open('{');
    for (const auto& [name, sample] : rep.calls) write_call(json, name, sample);
    json.close('}');
    json.close('}');
  }
  json.close(']');
  json.key("decomposition_trace_file").text(decomposition_trace);
  json.close('}');
  return json.str();
}

// --- serve-mix ---------------------------------------------------------------

/// What every serve response is checked against.
struct ServeReference {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  std::vector<std::uint32_t> degrees;  // out-degrees, then in-degrees
  EdgePartition partition;
  // parts_of(v) = replica_parts[replica_offsets[v] .. replica_offsets[v+1])
  std::vector<std::uint64_t> replica_offsets;
  std::vector<PartitionId> replica_parts;
  std::vector<PartitionId> master;
  std::string stats_table;
  std::string run_table;
};

/// Replica sets and masters recomputed from the partition alone, by the
/// rule bsp/distributed_graph.h states: a vertex lives on every part
/// holding one of its edges, and its master is the part holding the most
/// of them (ties to the lowest part id; a self-loop counts once).
void expected_replicas(const GraphView& view, ServeReference& ref) {
  const PartitionId p = ref.partition.num_parts;
  const VertexId n = view.num_vertices();
  std::vector<std::uint32_t> count(static_cast<std::size_t>(n) * p, 0);
  for (EdgeId e = 0; e < view.num_edges(); ++e) {
    const Edge& edge = view.edge(e);
    const PartitionId part = ref.partition.part_of_edge[e];
    ++count[static_cast<std::size_t>(edge.src) * p + part];
    if (edge.dst != edge.src) {
      ++count[static_cast<std::size_t>(edge.dst) * p + part];
    }
  }
  ref.replica_offsets.assign(1, 0);
  ref.master.assign(n, kInvalidPartition);
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t best = 0;
    for (PartitionId i = 0; i < p; ++i) {
      const std::uint32_t c = count[static_cast<std::size_t>(v) * p + i];
      if (c == 0) continue;
      ref.replica_parts.push_back(i);
      if (c > best) {
        best = c;
        ref.master[v] = i;
      }
    }
    ref.replica_offsets.push_back(ref.replica_parts.size());
  }
}

/// One in-window request: its class, and when it was due, sent and
/// answered, in ms since the measured window opened.
struct RequestRecord {
  serve::RequestClass cls = serve::RequestClass::kStats;
  double intended_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;
};

struct Connection {
  std::vector<RequestRecord> records;
  Checker checks;
};

struct LoadWindow {
  Clock::time_point start;       // first request may be due here
  Clock::time_point warmup_end;  // records start here
  Clock::time_point end;         // no request is due at or after this
};

/// Issue one request, check its response, return "" when it is correct.
std::string send_request(serve::Client& client, const ServeReference& ref,
                         serve::RequestClass cls, Rng& rng,
                         std::uint64_t& lookups) {
  const auto random_vertex = [&] {
    return static_cast<VertexId>(bounded(rng, ref.num_vertices));
  };
  switch (cls) {
    case serve::RequestClass::kStats:
      return client.stats(0) == ref.stats_table ? "" : "stats table differs";
    case serve::RequestClass::kDegree: {
      serve::DegreeRequest req;
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        req.vertices.push_back(random_vertex());
      }
      const auto got = client.degrees(req);
      if (got.size() != req.vertices.size()) return "degree batch size";
      for (std::size_t i = 0; i < got.size(); ++i) {
        const VertexId v = req.vertices[i];
        if (got[i].out_degree != ref.degrees[v] ||
            got[i].in_degree != ref.degrees[ref.num_vertices + v]) {
          return "degree of vertex " + std::to_string(v);
        }
      }
      return "";
    }
    case serve::RequestClass::kNeighbors: {
      serve::NeighborsRequest req;
      req.source = random_vertex();
      req.hops = kNeighborHops;
      req.limit = kNeighborLimit;
      const serve::NeighborsResponse got = client.neighbors(req);
      const auto& vs = got.vertices;
      const bool ok = vs.size() <= kNeighborLimit &&
                      std::is_sorted(vs.begin(), vs.end()) &&
                      std::binary_search(vs.begin(), vs.end(), req.source);
      return ok ? "" : "neighbors of " + std::to_string(req.source);
    }
    case serve::RequestClass::kLookup: {
      if (lookups++ % 2 == 0) {
        serve::PartitionRequest req;
        for (std::uint32_t i = 0; i < kBatch; ++i) {
          req.edges.push_back(bounded(rng, ref.num_edges));
        }
        const auto got = client.partition_of(req);
        if (got.size() != req.edges.size()) return "partition batch size";
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i] != ref.partition.part_of_edge[req.edges[i]]) {
            return "part of edge " + std::to_string(req.edges[i]);
          }
        }
        return "";
      }
      serve::ReplicasRequest req;
      for (std::uint32_t i = 0; i < kBatch; ++i) {
        req.vertices.push_back(random_vertex());
      }
      const auto got = client.replicas(req);
      if (got.size() != req.vertices.size()) return "replicas batch size";
      for (std::size_t i = 0; i < got.size(); ++i) {
        const VertexId v = req.vertices[i];
        const std::vector<PartitionId> parts(
            ref.replica_parts.begin() +
                static_cast<std::ptrdiff_t>(ref.replica_offsets[v]),
            ref.replica_parts.begin() +
                static_cast<std::ptrdiff_t>(ref.replica_offsets[v + 1]));
        if (got[i].master != ref.master[v] || got[i].parts != parts) {
          return "replicas of vertex " + std::to_string(v);
        }
      }
      return "";
    }
    case serve::RequestClass::kRun: {
      serve::RunRequest req;
      req.app = 0;
      req.parts = kServeParts;
      req.hops = 0;
      return client.run(req) == ref.run_table ? "" : "run table differs";
    }
  }
  return "unknown request class";
}

serve::RequestClass draw_mix_class(Rng& rng) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  if (u < 0.40) return serve::RequestClass::kDegree;
  if (u < 0.70) return serve::RequestClass::kLookup;
  if (u < 0.95) return serve::RequestClass::kNeighbors;
  return serve::RequestClass::kStats;
}

/// One generator connection. Open loop: request k is due at a time fixed
/// in advance (Poisson arrivals for the mix, a fixed period for runs); a
/// late generator sends as soon as it can, and latency is measured from
/// the due time, so a stall shows in every request queued behind it.
void drive_connection(const std::string& socket, const ServeReference& ref,
                      const LoadWindow& window, unsigned track,
                      std::uint64_t seed, bool runs, Connection& out) {
  try {
    const obs::trace::ThreadTrackGuard guard(track);
    serve::Client client(socket);
    Rng rng(seed);
    std::exponential_distribution<double> gap(kMixRatePerSecond /
                                              kMixConnections);
    std::uint64_t lookups = 0;
    double due_s = runs ? 0.0 : gap(rng);
    for (;;) {
      const auto due = window.start +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_s));
      if (due >= window.end) break;
      const serve::RequestClass cls =
          runs ? serve::RequestClass::kRun : draw_mix_class(rng);
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      std::string error;
      try {
        const obs::trace::Span span("bench.request",
                                    static_cast<std::uint64_t>(cls));
        error = send_request(client, ref, cls, rng, lookups);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const auto done = Clock::now();
      out.checks.record(error.empty(), std::string(serve::class_name(cls)) +
                                           ": " + error);
      if (due >= window.warmup_end) {
        out.records.push_back({cls, ms_between(window.warmup_end, due),
                               ms_between(window.warmup_end, sent),
                               ms_between(window.warmup_end, done),
                               error.empty()});
      }
      due_s += runs ? kRunPeriodSeconds : gap(rng);
    }
  } catch (const std::exception& e) {
    out.checks.record(false, std::string("connection: ") + e.what());
  }
}

/// Convert, open + validate, read the partition, build the routing
/// tables and bind the server: everything `ebvpart serve` does before it
/// answers its first request.
std::unique_ptr<serve::Server> start_server(const Files& files,
                                            const fs::path& snapshot,
                                            const std::string& socket) {
  io::convert_edge_list_to_snapshot(files.edges().string(), snapshot.string());
  MappedGraph mapped(snapshot.string());
  mapped.validate();
  EdgePartition partition =
      io::read_partition_binary_file(files.served_partition().string());
  if (partition.part_of_edge.size() != mapped.num_edges()) {
    throw std::runtime_error("served partition does not match the snapshot");
  }
  serve::ServeContext context;
  context.graphs.emplace_back("graph", snapshot.string(), std::move(mapped));
  serve::GraphEntry& entry = context.graphs.back();
  entry.routing.emplace(entry.mapped.view(), partition);
  entry.partition.emplace(std::move(partition));
  serve::ServerConfig config;
  config.socket_path = socket;
  config.num_workers = kServeWorkers;
  return std::make_unique<serve::Server>(std::move(context), std::move(config));
}

std::uint64_t overloaded_total(const serve::ServerStats& stats) {
  std::uint64_t total = 0;
  for (const serve::ClassStats& c : stats.classes) {
    total += c.rejected_overloaded;
  }
  return total;
}

std::string measure_serve(const Workload& w, const Files& files,
                          std::uint64_t seed, double seconds, bool trace) {
  const std::string socket =
      fs::proximate(files.temp_path("serve", ".sock")).string();
  if (socket.size() >= 100) {
    throw std::runtime_error("socket path too long for AF_UNIX: " + socket);
  }

  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  fs::path snapshot;
  for (int k = 0; k < kServeSetupReps; ++k) {
    if (server) {
      server.reset();
      remove_quietly(snapshot);
    }
    snapshot = files.temp_path("serve", ".ebvs");
    const auto start = Clock::now();
    server = start_server(files, snapshot, socket);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  ServeReference ref;
  {
    const MappedGraph& mapped = server->context().graphs.front().mapped;
    ref.num_vertices = mapped.num_vertices();
    ref.num_edges = mapped.num_edges();
    ref.degrees = read_array<std::uint32_t>(files.degrees(),
                                            2 * std::size_t{ref.num_vertices});
    ref.partition = *server->context().graphs.front().partition;
    expected_replicas(mapped.view(), ref);
    ref.stats_table = analysis::format_mmap_stats_table(
        compute_stats(mapped.view()), mapped.mapped_bytes());
    ref.run_table = read_text(files.expected_run());
  }

  const auto start = Clock::now() + std::chrono::milliseconds(50);
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  LoadWindow window{start, start + to_duration(kWarmupSeconds),
                    start + to_duration(kWarmupSeconds + seconds)};
  std::vector<Connection> connections(kMixConnections + 1);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c <= kMixConnections; ++c) {
    const bool runs = c == kMixConnections;
    threads.emplace_back(drive_connection, socket, std::cref(ref),
                         std::cref(window), 100 + c, derive_seed(seed, c),
                         runs, std::ref(connections[c]));
  }
  std::this_thread::sleep_until(window.warmup_end);
  // The server's queue-wait and handler spans give the per-layer split;
  // its registry histograms round to power-of-two buckets, too coarse to
  // show a change smaller than 2x.
  if (trace) obs::trace::start();
  const std::uint64_t overloaded_before = overloaded_total(server->stats());
  for (std::thread& t : threads) t.join();
  const std::uint64_t overloaded =
      overloaded_total(server->stats()) - overloaded_before;
  std::string trace_file;
  if (trace) {
    const fs::path path = files.temp_path("trace", ".json");
    write_text(path, obs::trace::stop_and_render());
    trace_file = path.string();
  }
  server.reset();
  remove_quietly(snapshot);

  Checker checks;
  for (const Connection& c : connections) checks.merge(c.checks);
  Json json;
  json.open('{');
  json.key("workload").text(w.name);
  json.key("threads").num(std::uint64_t{kThreads});
  write_checks(json, checks);
  json.key("peak_rss_mb").num(peak_rss_mb());
  // The served partition's quality and the served run's message count
  // come from prepare, which run.py caches per digest of the code, so
  // they are this build's; every run response is checked byte-equal to
  // the table they were rendered with.
  write_quality(json, read_served_quality(files));
  json.key("setup_s").open('[');
  for (const double s : setup_s) json.num(s);
  json.close(']');
  json.key("trace_file").text(trace_file);
  json.key("overloaded").num(overloaded);
  json.key("requests").open('[');
  for (const Connection& c : connections) {
    for (const RequestRecord& r : c.records) {
      json.open('[');
      json.text(serve::class_name(r.cls));
      json.num(r.intended_ms).num(r.sent_ms).num(r.done_ms).boolean(r.ok);
      json.close(']');
    }
  }
  json.close(']');
  json.close('}');
  return json.str();
}

int cmd_measure(const cli::ArgMap& args) {
  const Workload& w = find_workload(cli::get(args, "workload"));
  const std::uint64_t seed = cli::get_uint(args, "seed", "");
  const Files files{cli::get(args, "dir")};
  const double seconds = cli::get_double(args, "seconds", "");
  const bool trace = cli::get(args, "trace", "0") != "0";
  const std::string out_path = cli::get(args, "out");
  if (!ThreadPool::set_global_threads(kThreads)) {
    throw std::runtime_error("could not size the thread pool");
  }
  const std::string json =
      w.serve ? measure_serve(w, files, seed, seconds, trace)
              : measure_pipeline(w, files, seconds, trace);
  write_text(out_path, json + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ebvbench prepare|measure --workload W ...\n";
    return 2;
  }
  try {
    const std::string command = argv[1];
    const cli::ArgMap args = cli::parse_args(argc, argv, 2);
    if (command == "prepare") return cmd_prepare(args);
    if (command == "measure") return cmd_measure(args);
    std::cerr << "unknown command: " << command << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
