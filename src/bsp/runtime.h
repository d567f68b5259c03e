// Subgraph-centric bulk-synchronous-parallel runtime (paper §IV-B).
//
// Execution is organised in supersteps with the paper's three stages:
//   1. computation     — every worker runs the program's local compute over
//                        its subgraph (typically to *local* convergence:
//                        that is the subgraph-centric advantage);
//   2. communication   — replica synchronisation: mirrors send accumulated
//                        values to masters (1 message each), masters merge
//                        with the program's combine()/apply() and broadcast
//                        changes back to mirrors (1 message per mirror);
//   3. synchronisation — a barrier; its cost is the max-minus-min skew ΔC.
//
// Programs exchange values through WorkerContext::emit(local, value); the
// runtime owns all routing and counts every inter-worker message, which is
// the paper's platform-independent comparison metric (§V-C).
//
// Residency: with RunOptions::resident_workers = k < p the runtime holds
// at most k materialised worker subgraphs at a time (loading them from a
// spilled DistributedGraph's EBVW snapshot) — same results, bounded
// memory. Inter-group messages wait in in-memory inboxes until their
// destination's merge or install task consumes them later in the same
// superstep; no message ever crosses the superstep barrier.
//
// Scheduling: each superstep is a per-worker task graph — compute+route,
// master-merge, mirror-install, plus loader/release tasks that prefetch
// the next residency group while the current one computes — executed by
// a work-stealing scheduler (common/task_graph.h). Inbox appends run on
// deterministic ordering chains, so supersteps, messages, values and
// virtual time are bit-identical to the historical three-sweep schedule
// at every budget and team size (docs/ARCHITECTURE.md, "The task-graph
// superstep scheduler").
//
// Instrumentation: the runtime's one timing path is obs::trace spans —
// one per task body (compute/route/merge/broadcast/install/load/
// release), one `superstep` span around each task graph (arg: the
// absolute step) and one per checkpoint publish. They cost one relaxed
// load each while the tracer is disarmed. `run --trace` renders them and
// `run --phase-stats` aggregates them (analysis::format_phase_breakdown);
// RunStats itself carries only the run's wall and CPU seconds.
#pragma once

#include <any>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bsp/cost_model.h"
#include "bsp/distributed_graph.h"
#include "common/assert.h"
#include "graph/csr.h"

namespace ebv::bsp {

/// Universal vertex value. doubles represent CC labels and BFS hop counts
/// exactly (integers < 2^53), SSSP distances, and PageRank mass.
using Value = double;

class WorkerContext;

/// A subgraph-centric program. One instance is shared by all workers (it
/// must be stateless apart from configuration); per-vertex state lives in
/// the runtime's value arrays.
class SubgraphProgram {
 public:
  virtual ~SubgraphProgram() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Initial value of global vertex v.
  [[nodiscard]] virtual Value init_value(VertexId global) const = 0;

  /// Merge two emitted values for the same vertex (min for CC/SSSP/BFS,
  /// sum for PageRank partials). Must be associative and commutative.
  [[nodiscard]] virtual Value combine(Value a, Value b) const = 0;

  /// Whether the master folds the vertex's current value into the combine
  /// (true for monotonic programs; false when emissions are partial
  /// aggregates that replace the value, as in PageRank).
  [[nodiscard]] virtual bool combine_with_current() const { return true; }

  /// Master-side transform applied after combining, before broadcast.
  /// PageRank applies teleport + damping here. Default: identity.
  [[nodiscard]] virtual Value apply([[maybe_unused]] VertexId global,
                                    Value combined) const {
    return combined;
  }

  /// Local computation for one superstep. Read/write values via ctx;
  /// report emitted updates with ctx.emit() and work with ctx.add_work().
  virtual void compute(WorkerContext& ctx, std::uint32_t superstep) const = 0;

  /// The one local adjacency compute() reads through
  /// WorkerContext::adjacency(): kOut (SSSP), kBoth (BFS), or none for
  /// programs that walk LocalSubgraph::edges directly (CC, PageRank).
  /// The runtime builds it in the compute task and drops it together
  /// with the worker's subgraph, so no other adjacency is ever built.
  [[nodiscard]] virtual std::optional<CsrGraph::Direction> adjacency() const {
    return std::nullopt;
  }

  /// If set, the runtime executes exactly this many supersteps (PageRank);
  /// otherwise it halts when a superstep changes no value anywhere.
  [[nodiscard]] virtual std::optional<std::uint32_t> fixed_supersteps()
      const {
    return std::nullopt;
  }

  /// Rebuild per-worker scratch (WorkerContext::state()) after a
  /// checkpoint restore, before the superstep loop re-enters at
  /// `next_superstep` (always >= 1). Programs that build scratch lazily
  /// at superstep 0 (CC's union-find) must override this; the runtime
  /// discards the restore context's work accounting, so the rebuild
  /// costs no virtual time and bit-identity is preserved. Default: no-op
  /// for programs whose compute() keeps no persistent scratch.
  virtual void restore_state([[maybe_unused]] WorkerContext& ctx,
                             [[maybe_unused]] std::uint32_t next_superstep)
      const {}
};

/// Per-worker, per-superstep instrumentation (virtual time).
struct WorkerStepStats {
  double comp_seconds = 0.0;
  double comm_seconds = 0.0;
  std::uint64_t work_units = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
};

/// Full run result: final values + the measurements behind Tables II/IV/V
/// and Figures 2/3/4.
struct RunStats {
  std::uint32_t supersteps = 0;
  /// steps[k][i] — superstep k, worker i.
  std::vector<std::vector<WorkerStepStats>> steps;

  double execution_seconds = 0.0;  // Σ_k (max_i(comp+comm) + latency)
  double comp_seconds = 0.0;       // paper `comp`:  Σ_i Σ_k comp_k_i / p
  double comm_seconds = 0.0;       // paper `comm`:  Σ_i Σ_k comm_k_i / p
  double delta_c_seconds = 0.0;    // paper ΔC: Σ_k (max_i − min_i)(comp+comm)
  double wall_seconds = 0.0;       // real harness time (diagnostic only)

  /// Process CPU seconds consumed by the run (diagnostic only; paired
  /// with wall_seconds, cpu/wall approximates busy cores).
  double cpu_seconds = 0.0;

  std::uint64_t total_messages = 0;
  /// Messages before combining (RunOptions::combine_messages): every
  /// mirror→master emission and master broadcast counts here even when a
  /// pending same-vertex message absorbed it. Equal to total_messages
  /// when combining is off — which is how the paper's Table IV counts.
  std::uint64_t raw_messages = 0;
  std::vector<std::uint64_t> messages_sent_per_worker;

  /// High-water mark of simultaneously materialised worker subgraphs
  /// (0 for a resident DistributedGraph, which never loads; p for a
  /// spilled graph under an unbounded budget). Diagnostic only — never
  /// part of the bit-identity contract — but under a bounded budget the
  /// scheduler guarantees peak_resident_workers <= resident_workers in
  /// EVERY schedule, steal order included (pinned by spill_run_test).
  std::uint32_t peak_resident_workers = 0;

  /// Final vertex values indexed by global id (uncovered vertices keep
  /// their init_value).
  std::vector<Value> values;
};

/// Who executes each superstep's task graph. kSequential (the default)
/// runs it inline on the calling thread in deterministic topological
/// order; kParallel runs it on a work-stealing team of
/// RunOptions::num_threads ranks (the whole shared pool when 0).
/// Results and virtual-time accounting are identical under both: the
/// route and broadcast chains fix every inbox's append order whatever
/// the steal schedule.
enum class ExecutionPolicy { kSequential, kParallel };

/// Runtime options.
struct RunOptions {
  ClusterCostModel cost_model;
  /// Hard cap to guard against non-converging programs.
  std::uint32_t max_supersteps = 10'000;
  ExecutionPolicy policy = ExecutionPolicy::kSequential;
  /// Upper bound on the kParallel task-graph team size (same rule as
  /// PartitionConfig::num_threads: the knob bounds the fan-out exactly,
  /// the shared pool only carries the ranks). 0 = use the whole pool.
  std::uint32_t num_threads = 0;
  /// Under a bounded residency budget of k >= 2, shrink the residency
  /// groups to ⌊k/2⌋ so a loader task maps group g+1's EBVW sections
  /// while group g computes — double buffering, with current + next
  /// group together still inside the budget. Results are bit-identical
  /// either way: the contract holds for every budget, hence for every
  /// grouping; the knob only trades group granularity for compute/I-O
  /// overlap.
  bool prefetch = true;

  /// Residency budget: at most this many workers' subgraphs materialised
  /// at a time. 0 (or >= p) keeps everything resident — the exact
  /// pre-existing behaviour. With a budget of k < p each superstep's
  /// task graph gates compute/merge/install tasks on per-group loader
  /// and release tasks (at most k workers materialised; see prefetch),
  /// with inter-group messages held in memory until the destination
  /// becomes resident later in the same superstep. Supersteps,
  /// message counts, final values and virtual-time accounting are
  /// BIT-IDENTICAL for every budget. Only a spilled DistributedGraph
  /// actually frees memory; a resident one just runs the same schedule.
  std::uint32_t resident_workers = 0;

  /// Where the analysis drivers put the EBVW worker snapshot of a
  /// spilled run (see analysis::run_with_partition); empty = the system
  /// temp directory. The runtime itself writes no file here.
  std::string spill_dir;

  /// Crash consistency: when non-empty (and checkpoint_every > 0) the
  /// runtime serialises an EBVC checkpoint of the superstep cut into
  /// this directory at the configured cadence — per-worker values,
  /// last-synced values, update frontier and accumulated RunStats —
  /// under an atomic temp-fsync-rename protocol (bsp/checkpoint.h).
  /// Never written after the final superstep, so a resumed run never
  /// replays past convergence.
  std::string checkpoint_dir;

  /// Checkpoint cadence in supersteps; 0 disables checkpointing.
  std::uint32_t checkpoint_every = 0;

  /// Resume from the newest readable checkpoint in checkpoint_dir
  /// (scanning back past torn files; starting from scratch when none is
  /// readable). The resumed run is BIT-IDENTICAL to the uninterrupted
  /// one — values, supersteps, message counts, virtual time — at every
  /// resident_workers × prefetch × team-size combination. Rejects a
  /// checkpoint whose graph shape or program name does not match.
  bool resume = false;

  /// Opt-in combining: merge same-destination-vertex mirror→master
  /// messages with the program's combine() before enqueue, PowerGraph
  /// style. Default off, so Table-IV-style message counts are unchanged;
  /// RunStats::raw_messages reports the pre-combining count either way.
  /// Combining changes the master's fold order, so float-summing
  /// programs (PageRank) may differ in final bits from the uncombined
  /// run; min/max programs (CC, SSSP, BFS) do not.
  bool combine_messages = false;
};

class BspRuntime {
 public:
  explicit BspRuntime(RunOptions options = RunOptions()) : options_(options) {}

  /// Execute `program` over the distributed graph until convergence (or
  /// the program's fixed superstep count).
  RunStats run(const DistributedGraph& graph,
               const SubgraphProgram& program) const;

 private:
  RunOptions options_;
};

/// The program's window into one worker. Created by the runtime.
class WorkerContext {
 public:
  WorkerContext(const LocalSubgraph& local, std::vector<Value>& values,
                std::vector<Value>& acc, std::vector<std::uint8_t>& has_acc,
                std::vector<VertexId>& emitted, const SubgraphProgram& program)
      : local_(local),
        values_(values),
        acc_(acc),
        has_acc_(has_acc),
        emitted_(emitted),
        program_(program) {}

  [[nodiscard]] const LocalSubgraph& local() const { return local_; }

  /// The CSR over local().edges that the program declared with
  /// SubgraphProgram::adjacency(); for compute() only, no other hook gets
  /// one. Throws std::invalid_argument when the program declared none.
  [[nodiscard]] const CsrGraph& adjacency() const {
    EBV_REQUIRE(adjacency_ != nullptr,
                "adjacency(): the program declares no adjacency");
    return *adjacency_;
  }

  [[nodiscard]] Value value(VertexId local_v) const { return values_[local_v]; }
  void set_value(VertexId local_v, Value v) { values_[local_v] = v; }

  /// Emit an update for a local vertex; the runtime combines emissions
  /// across replicas during the communication stage.
  void emit(VertexId local_v, Value v) {
    if (has_acc_[local_v] != 0) {
      acc_[local_v] = program_.combine(acc_[local_v], v);
    } else {
      acc_[local_v] = v;
      has_acc_[local_v] = 1;
      emitted_.push_back(local_v);
    }
  }

  /// Local vertices whose values changed in the previous communication
  /// stage — the frontier for incremental programs. Its order (single-
  /// copy resolutions, master merges, then mirror installs in inbox
  /// append order) is part of the determinism contract
  /// (docs/ARCHITECTURE.md, "Delivery order").
  [[nodiscard]] const std::vector<VertexId>& updated() const {
    return *updated_;
  }

  /// Account `units` of local work (≈ edges traversed).
  void add_work(std::uint64_t units) { work_units_ += units; }
  [[nodiscard]] std::uint64_t work_units() const { return work_units_; }

  /// Per-worker scratch that persists across supersteps (e.g. CC keeps its
  /// precomputed local components here). Empty on the first superstep.
  [[nodiscard]] std::any& state() { return *state_; }

 private:
  friend class BspRuntime;
  const LocalSubgraph& local_;
  std::vector<Value>& values_;
  std::vector<Value>& acc_;
  std::vector<std::uint8_t>& has_acc_;
  std::vector<VertexId>& emitted_;
  const SubgraphProgram& program_;
  const std::vector<VertexId>* updated_ = nullptr;
  std::any* state_ = nullptr;
  const CsrGraph* adjacency_ = nullptr;
  std::uint64_t work_units_ = 0;
};

}  // namespace ebv::bsp
