#include "bsp/runtime.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/checkpoint.h"
#include "common/assert.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/task_graph.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace ebv::bsp {
namespace {

/// One value in flight between two workers within a superstep. It names
/// the vertex by its local id at the receiver, read from the routing
/// tables (DistributedGraph::master_local_of, local_ids_of), so merge and
/// install index their arrays directly.
struct WireMessage {
  VertexId local = kInvalidVertex;
  Value value = 0.0;
};

/// A master value staged by merge(m) for the broadcast chain. It keeps
/// the global id because broadcast runs without the master's subgraph
/// under a residency budget and resolves each peer's local id from the
/// routing tables.
struct StagedValue {
  VertexId global = kInvalidVertex;
  Value value = 0.0;
};

[[noreturn]] void fail_nan(const SubgraphProgram& program, VertexId gv,
                           std::uint32_t step) {
  throw std::runtime_error(
      "bsp: program '" + program.name() + "' produced NaN for vertex " +
      std::to_string(gv) + " in superstep " + std::to_string(step) +
      "; NaN never compares equal to itself, so the change-driven halting "
      "test would burn max_supersteps without converging");
}

}  // namespace

RunStats BspRuntime::run(const DistributedGraph& graph,
                         const SubgraphProgram& program) const {
  const Timer wall;
  const double cpu_start = process_cpu_seconds();
  const PartitionId p = graph.num_workers();
  EBV_REQUIRE(p >= 1, "need at least one worker");
  options_.cost_model.validate();
  const ClusterCostModel& cost = options_.cost_model;

  // --- Residency plan ---------------------------------------------------
  // k workers materialised at a time; k == p (the default) is the
  // all-resident schedule. For a spilled graph the cache below holds the
  // materialised workers; for a resident graph it stays empty and sub()
  // reads graph.local() directly, so the bounded schedule is runnable —
  // and bit-identical — on both representations.
  PartitionId k = options_.resident_workers;
  if (k == 0 || k > p) k = p;
  const bool spilled = graph.spilled();
  const bool bounded = k < p;
  const bool with_loads = spilled && bounded;
  // Prefetch shrinks the residency groups to ⌊k/2⌋ so the loader task
  // for group g+1 can run while group g computes, current + next group
  // together still inside the budget. Legal because results are pinned
  // bit-identical for every budget, hence for every grouping.
  const bool prefetch = options_.prefetch && with_loads && k >= 2;
  const PartitionId group_size =
      bounded ? (prefetch ? std::max<PartitionId>(1, k / 2) : k) : p;
  struct Group {
    PartitionId first;
    PartitionId last;
  };
  std::vector<Group> groups;
  for (PartitionId g = 0; g < p; g += group_size) {
    groups.push_back({g, std::min<PartitionId>(g + group_size, p)});
  }
  const std::size_t ng = groups.size();

  std::vector<std::unique_ptr<LocalSubgraph>> cache;
  if (spilled) cache.resize(p);
  // The one adjacency the program declared: compute(i) builds worker i's
  // on first use and release() drops it with the subgraph, so it is
  // built once per run, or once per phase-1 residency under a binding
  // budget, and never for the merge and install loads.
  const std::optional<CsrGraph::Direction> direction = program.adjacency();
  std::vector<std::optional<CsrGraph>> adjacency(p);

  // Observed-residency accounting: every materialisation/release of a
  // worker subgraph moves resident_now, and resident_peak records the
  // high-water mark. A loader and a (different group's) release task can
  // run concurrently under prefetch, hence atomics. Reported via
  // RunStats::peak_resident_workers and pinned <= k by tests.
  std::atomic<std::uint32_t> resident_now{0};
  std::atomic<std::uint32_t> resident_peak{0};

  auto sub = [&](PartitionId i) -> const LocalSubgraph& {
    return spilled ? *cache[i] : graph.local(i);
  };
  auto ensure_loaded = [&](PartitionId first, PartitionId last) {
    if (!spilled) return;
    const obs::trace::Span span("load", first);
    for (PartitionId i = first; i < last; ++i) {
      if (cache[i] == nullptr) {
        // An unbounded budget loads every worker once and keeps it; a
        // bounded one materialises per phase.
        cache[i] = std::make_unique<LocalSubgraph>(graph.load_worker(i));
        const std::uint32_t now =
            1 + resident_now.fetch_add(1, std::memory_order_relaxed);
        std::uint32_t peak = resident_peak.load(std::memory_order_relaxed);
        while (now > peak &&
               !resident_peak.compare_exchange_weak(
                   peak, now, std::memory_order_relaxed)) {
        }
      }
    }
  };
  auto release = [&](PartitionId first, PartitionId last) {
    if (!spilled || !bounded) return;
    const obs::trace::Span span("release", first);
    for (PartitionId i = first; i < last; ++i) {
      if (cache[i] != nullptr) {
        cache[i].reset();
        adjacency[i].reset();
        resident_now.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  };
  /// Run `body(first, last)` over the residency groups in ascending
  /// worker order (one-shot stages: value init and the final gather).
  auto for_each_group = [&](auto&& body) {
    for (const Group& grp : groups) {
      ensure_loaded(grp.first, grp.last);
      body(grp.first, grp.last);
      release(grp.first, grp.last);
    }
  };

  // --- Communication topology ------------------------------------------
  // last_sender[m] — the highest worker that routes mirror accumulators
  // to master m, or m itself; last_master[i] — the highest master that
  // broadcasts into worker i, or i itself. Derived once from the routing
  // tables; these ARE the scheduler's cross-worker dependencies, because
  // the route and broadcast chains run in ascending worker order.
  std::vector<PartitionId> last_sender(p);
  std::vector<PartitionId> last_master(p);
  for (PartitionId i = 0; i < p; ++i) last_sender[i] = last_master[i] = i;
  for (VertexId gv = 0; gv < graph.num_global_vertices(); ++gv) {
    const auto parts = graph.parts_of(gv);
    if (parts.size() < 2) continue;
    const PartitionId m = graph.master_of(gv);
    for (const PartitionId i : parts) {
      last_sender[m] = std::max(last_sender[m], i);
      last_master[i] = std::max(last_master[i], m);
    }
  }

  // --- Per-worker state (resident regardless of the budget: O(Σ|Vi|),
  // the same order as the routing tables) ------------------------------
  std::vector<std::vector<Value>> values(p);
  std::vector<std::vector<Value>> acc(p);
  std::vector<std::vector<std::uint8_t>> has_acc(p);
  std::vector<std::vector<VertexId>> emitted(p);
  std::vector<std::vector<VertexId>> updated(p);   // frontier after sync
  // last_sync[m][lv]: at a master replica, the value its mirrors last
  // received. Masters broadcast whenever the merged value diverges from
  // it — comparing against the *current* value would miss improvements
  // the master made in-place during local compute. Mirror entries keep
  // their initial value and are never read.
  std::vector<std::vector<Value>> last_sync(p);
  for_each_group([&](PartitionId first, PartitionId last) {
    for (PartitionId i = first; i < last; ++i) {
      const LocalSubgraph& ls = sub(i);
      values[i].resize(ls.num_vertices());
      for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
        values[i][lv] = program.init_value(ls.global_ids[lv]);
      }
      acc[i].assign(ls.num_vertices(), Value{});
      has_acc[i].assign(ls.num_vertices(), 0);
      last_sync[i] = values[i];
    }
  });

  // Inboxes: to_master[j] / to_mirror[j] hold the messages addressed to
  // worker j. merge(j) and install(j) consume them in append order and
  // clear them within the superstep, so no message crosses a barrier
  // (asserted there). Per superstep an inbox holds at most one message
  // per mirror replica, so it needs no bound of its own.
  std::vector<std::vector<WireMessage>> to_master(p);
  std::vector<std::vector<WireMessage>> to_mirror(p);
  // Combining state: pending[j][lv] is 1 + the index in to_master[j] of
  // the message pending for the master with local id lv at worker j, or
  // 0 when none is. merge(j) resets the slot of each message it consumes,
  // so every slot is 0 again at the barrier.
  std::vector<std::vector<std::uint32_t>> pending(
      options_.combine_messages ? p : 0);
  for (PartitionId j = 0; j < pending.size(); ++j) {
    pending[j].assign(values[j].size(), 0);
  }

  // Program-defined per-worker scratch, persistent across supersteps.
  std::vector<std::any> worker_state(p);
  // Staged master broadcasts: filled by merge(m), shipped by the
  // broadcast chain.
  std::vector<std::vector<StagedValue>> bcast(p);

  RunStats stats;
  stats.messages_sent_per_worker.assign(p, 0);
  const std::optional<std::uint32_t> fixed = program.fixed_supersteps();

  // --- Checkpoint/restore (bsp/checkpoint.h) ---------------------------
  const bool checkpoint_on =
      !options_.checkpoint_dir.empty() && options_.checkpoint_every > 0;
  EBV_REQUIRE(!options_.resume || !options_.checkpoint_dir.empty(),
              "resume needs checkpoint_dir (--resume without "
              "--checkpoint-dir)");

  /// Snapshot the full superstep cut after `completed` barriers. Every
  /// field is either a plain copy of loop state or, for comp/comm, the
  /// still-undivided accumulation sums, so restoring them continues the
  /// identical float accumulation order.
  auto collect_checkpoint = [&](std::uint32_t completed) {
    Checkpoint ck;
    ck.completed_supersteps = completed;
    ck.num_workers = p;
    ck.num_global_vertices = graph.num_global_vertices();
    ck.num_global_edges = graph.num_global_edges();
    ck.program = program.name();
    ck.total_messages = stats.total_messages;
    ck.raw_messages = stats.raw_messages;
    ck.execution_seconds = stats.execution_seconds;
    ck.comp_seconds_sum = stats.comp_seconds;
    ck.comm_seconds_sum = stats.comm_seconds;
    ck.delta_c_seconds = stats.delta_c_seconds;
    ck.peak_resident_workers =
        resident_peak.load(std::memory_order_relaxed);
    ck.messages_sent_per_worker = stats.messages_sent_per_worker;
    ck.steps = stats.steps;
    ck.values = values;
    ck.last_sync = last_sync;
    ck.updated = updated;
    return ck;
  };

  std::uint32_t start_step = 0;
  if (options_.resume) {
    if (std::optional<Checkpoint> ck =
            load_latest_checkpoint(options_.checkpoint_dir)) {
      EBV_REQUIRE(
          ck->num_workers == p &&
              ck->num_global_vertices == graph.num_global_vertices() &&
              ck->num_global_edges == graph.num_global_edges() &&
              ck->program == program.name(),
          "resume: the checkpoint in checkpoint_dir was written by a "
          "different run (graph shape or program mismatch)");
      for (PartitionId i = 0; i < p; ++i) {
        EBV_REQUIRE(ck->values[i].size() == values[i].size(),
                    "resume: checkpoint worker state does not match this "
                    "partition");
      }
      start_step = ck->completed_supersteps;
      stats.supersteps = start_step;
      stats.steps = std::move(ck->steps);
      stats.execution_seconds = ck->execution_seconds;
      stats.comp_seconds = ck->comp_seconds_sum;
      stats.comm_seconds = ck->comm_seconds_sum;
      stats.delta_c_seconds = ck->delta_c_seconds;
      stats.total_messages = ck->total_messages;
      stats.raw_messages = ck->raw_messages;
      stats.messages_sent_per_worker =
          std::move(ck->messages_sent_per_worker);
      if (ck->peak_resident_workers >
          resident_peak.load(std::memory_order_relaxed)) {
        resident_peak.store(ck->peak_resident_workers,
                            std::memory_order_relaxed);
      }
      for (PartitionId i = 0; i < p; ++i) {
        values[i] = std::move(ck->values[i]);
        last_sync[i] = std::move(ck->last_sync[i]);
        updated[i] = std::move(ck->updated[i]);
      }
      if (start_step > 0) {
        // Programs rebuild their per-worker scratch; the throwaway
        // context discards any work accounting so virtual time stays
        // bit-identical to the uninterrupted run.
        for_each_group([&](PartitionId first, PartitionId last) {
          for (PartitionId i = first; i < last; ++i) {
            WorkerContext ctx(sub(i), values[i], acc[i], has_acc[i],
                              emitted[i], program);
            ctx.updated_ = &updated[i];
            ctx.state_ = &worker_state[i];
            program.restore_state(ctx, start_step);
          }
        });
      }
    }
  }

  // Scheduler fan-out. The sequential policy runs each superstep's graph
  // serially in deterministic topological order; kParallel runs it on a
  // work-stealing team — the whole pool, or exactly num_threads when set.
  unsigned team = 1;
  if (options_.policy == ExecutionPolicy::kParallel) {
    team = options_.num_threads > 0
               ? static_cast<unsigned>(options_.num_threads)
               : ThreadPool::global().num_threads();
  }

  for (std::uint32_t step = start_step; step < options_.max_supersteps;
       ++step) {
    std::vector<WorkerStepStats> step_stats(p);
    // Message counters, reduced after the graph drains. Plain arrays:
    // every send happens on the route-then-broadcast chain, which orders
    // all their writes.
    std::vector<std::uint64_t> msgs_local(p, 0);
    std::vector<std::uint64_t> msgs_remote(p, 0);
    std::vector<std::uint64_t> sent(p, 0);
    std::vector<std::uint64_t> raw(p, 0);
    std::vector<std::uint64_t> received(p, 0);
    // Written at most once per task, from a local flag: the p bytes share
    // cache lines, so a store per updated vertex from concurrent compute,
    // merge and install tasks bounces those lines between cores.
    std::vector<std::uint8_t> changed(p, 0);

    auto count_send = [&](PartitionId from, PartitionId to) {
      ++sent[from];
      ++received[to];
      if (cost.same_node(from, to)) {
        ++msgs_local[from];
      } else {
        ++msgs_remote[from];
      }
    };

    // --- Task bodies ---------------------------------------------------
    // compute(i): the program's local compute plus the worker-local half
    // of emission routing — single-copy vertices resolve in place.
    auto compute_worker = [&](PartitionId i) {
      const obs::trace::Span span("compute", i);
      const LocalSubgraph& ls = sub(i);
      WorkerContext ctx(ls, values[i], acc[i], has_acc[i], emitted[i],
                        program);
      ctx.updated_ = &updated[i];
      ctx.state_ = &worker_state[i];
      if (direction.has_value()) {
        std::optional<CsrGraph>& adj = adjacency[i];
        if (!adj.has_value()) {
          adj = CsrGraph::build(ls.num_vertices(), ls.edges, *direction);
        }
        ctx.adjacency_ = &*adj;
      }
      program.compute(ctx, step);
      step_stats[i].work_units = ctx.work_units();
      step_stats[i].comp_seconds = cost.comp_seconds(ctx.work_units());
      updated[i].clear();
      bool worker_changed = false;
      for (const VertexId lv : emitted[i]) {
        if (ls.is_replicated[lv] != 0) continue;
        Value merged = acc[i][lv];
        if (program.combine_with_current()) {
          merged = program.combine(merged, values[i][lv]);
        }
        const Value next = program.apply(ls.global_ids[lv], merged);
        if (std::isnan(next)) fail_nan(program, ls.global_ids[lv], step);
        if (next != values[i][lv]) {
          values[i][lv] = next;
          updated[i].push_back(lv);
          worker_changed = true;
        }
        has_acc[i][lv] = 0;
      }
      if (worker_changed) changed[i] = 1;
      // Master replicas keep has_acc set; consumed by merge(i).
    };

    // route(i): ship mirror accumulators to their master parts. These
    // run on an ascending ordering chain so every to-master inbox sees
    // the historical append order.
    auto route_worker = [&](PartitionId i) {
      const obs::trace::Span span("route", i);
      const LocalSubgraph& ls = sub(i);
      for (const VertexId lv : emitted[i]) {
        if (ls.is_replicated[lv] == 0 || ls.is_master[lv] != 0) continue;
        const PartitionId m = ls.master_part[lv];
        const VertexId master_lv = graph.master_local_of(ls.global_ids[lv]);
        ++raw[i];
        bool enqueue = true;
        if (options_.combine_messages) {
          // A message for this vertex already pending at m? Merge into it.
          std::uint32_t& slot = pending[m][master_lv];
          if (slot != 0) {
            EBV_ASSERT(slot <= to_master[m].size() &&
                       to_master[m][slot - 1].local == master_lv);
            WireMessage& msg = to_master[m][slot - 1];
            msg.value = program.combine(msg.value, acc[i][lv]);
            enqueue = false;
          } else {
            slot = static_cast<std::uint32_t>(to_master[m].size()) + 1;
          }
        }
        if (enqueue) {
          to_master[m].push_back({master_lv, acc[i][lv]});
          count_send(i, m);
        }
        has_acc[i][lv] = 0;
      }
    };

    // broadcast(m): ship the values staged by merge(m) to every mirror
    // peer. These run on their own ascending chain, gated behind the
    // route chain so the two never interleave counter writes.
    auto broadcast_worker = [&](PartitionId m) {
      const obs::trace::Span span("broadcast", m);
      for (const StagedValue& staged : bcast[m]) {
        const auto peers = graph.parts_of(staged.global);
        const auto peer_lvs = graph.local_ids_of(staged.global);
        for (std::size_t j = 0; j < peers.size(); ++j) {
          if (peers[j] == m) continue;
          ++raw[m];
          to_mirror[peers[j]].push_back({peer_lvs[j], staged.value});
          count_send(m, peers[j]);
        }
      }
      bcast[m].clear();
    };

    // merge(m): fold routed messages into the master's accumulators,
    // apply, and stage broadcasts for changed values.
    auto merge_worker = [&](PartitionId m) {
      const obs::trace::Span span("merge", m);
      const LocalSubgraph& ls = sub(m);
      for (const WireMessage& msg : to_master[m]) {
        const VertexId lv = msg.local;
        EBV_ASSERT(lv < ls.num_vertices());
        EBV_ASSERT(ls.is_master[lv] != 0);
        if (options_.combine_messages) pending[m][lv] = 0;
        if (has_acc[m][lv] != 0) {
          acc[m][lv] = program.combine(acc[m][lv], msg.value);
        } else {
          acc[m][lv] = msg.value;
          has_acc[m][lv] = 1;
          emitted[m].push_back(lv);
        }
      }
      to_master[m].clear();

      bool worker_changed = false;
      for (const VertexId lv : emitted[m]) {
        if (has_acc[m][lv] == 0) continue;  // already resolved in compute
        if (ls.is_replicated[lv] == 0) continue;    // resolved in compute
        if (ls.is_master[lv] == 0) continue;        // mirror: routed away
        Value merged = acc[m][lv];
        if (program.combine_with_current()) {
          merged = program.combine(merged, values[m][lv]);
        }
        const Value next = program.apply(ls.global_ids[lv], merged);
        if (std::isnan(next)) fail_nan(program, ls.global_ids[lv], step);
        has_acc[m][lv] = 0;
        if (next != values[m][lv]) {
          values[m][lv] = next;
          updated[m].push_back(lv);
          worker_changed = true;
        }
        if (next == last_sync[m][lv]) continue;  // mirrors are up to date
        last_sync[m][lv] = next;
        worker_changed = true;
        bcast[m].push_back({ls.global_ids[lv], next});
      }
      if (worker_changed) changed[m] = 1;
      emitted[m].clear();
    };

    // install(i): mirrors adopt broadcast values.
    auto install_worker = [&](PartitionId i) {
      const obs::trace::Span span("install", i);
      const LocalSubgraph& ls = sub(i);
      bool worker_changed = false;
      for (const WireMessage& msg : to_mirror[i]) {
        const VertexId lv = msg.local;
        EBV_ASSERT(lv < ls.num_vertices());
        EBV_ASSERT(ls.is_replicated[lv] != 0 && ls.is_master[lv] == 0);
        if (values[i][lv] != msg.value) {
          values[i][lv] = msg.value;
          updated[i].push_back(lv);
          worker_changed = true;
        }
      }
      if (worker_changed) changed[i] = 1;
      to_mirror[i].clear();
      emitted[i].clear();  // all consumed (mirrors cleared acc in route)
    };

    // --- Superstep task graph ------------------------------------------
    // Three phases (compute+route, merge+broadcast, install), each with
    // optional per-group loader/release tasks under a binding budget.
    // The loads form one global chain across the phases (L1[0..],
    // L2[0..], L3[0..]) and so do the releases (Rel1[0..], Rel2[0..],
    // Rel3[0..], each gated on its chain predecessor); every load also
    // waits for the release `overlap` positions behind it in the global
    // load order. Chaining the releases makes that gate transitive —
    // when a load runs, EVERY earlier release outside its overlap window
    // has executed (not merely become ready), so at most `overlap`
    // groups are materialised at any instant under any steal schedule:
    // 2 × ⌊k/2⌋ ≤ k with prefetch, 1 × k without. In particular a group
    // is provably released before a later phase reloads it — without
    // the chain, a ready-but-unexecuted straggler release (e.g. phase
    // 1's second-to-last, which no later task would otherwise depend
    // on) could reset a subgraph AFTER phase 2 reloaded it, racing the
    // merge tasks reading it.
    const std::size_t overlap = prefetch ? 2 : 1;
    TaskGraph tg;
    constexpr TaskGraph::TaskId kNone = TaskGraph::kNone;
    std::vector<TaskGraph::TaskId> C(p), R(p), M(p), B(p), I(p);
    std::vector<TaskGraph::TaskId> L1(ng, kNone), Rel1(ng, kNone);
    std::vector<TaskGraph::TaskId> L2(ng, kNone), Rel2(ng, kNone);
    std::vector<TaskGraph::TaskId> L3(ng, kNone), Rel3(ng, kNone);
    TaskGraph::TaskId prev_rel = kNone;  // release-chain tail

    // Phase 1: load → compute (+ local resolve) → route → release.
    TaskGraph::TaskId prev_r = kNone;
    for (std::size_t g = 0; g < ng; ++g) {
      const Group grp = groups[g];
      if (with_loads) {
        L1[g] = tg.add(
            [&, grp] { ensure_loaded(grp.first, grp.last); },
            {g > 0 ? L1[g - 1] : kNone,
             g >= overlap ? Rel1[g - overlap] : kNone});
      }
      for (PartitionId i = grp.first; i < grp.last; ++i) {
        C[i] = tg.add([&, i] { compute_worker(i); }, {L1[g]});
        R[i] = tg.add([&, i] { route_worker(i); }, {C[i], prev_r});
        prev_r = R[i];
      }
      if (with_loads) {
        Rel1[g] = tg.add([&, grp] { release(grp.first, grp.last); },
                         {prev_rel});
        for (PartitionId i = grp.first; i < grp.last; ++i) {
          tg.depend(Rel1[g], R[i]);
        }
        prev_rel = Rel1[g];
      }
    }

    // Phase 2: load → merge → release; the broadcast chain is gated
    // behind the full route chain. Each load
    // carries an explicit release-before-reload edge on its own group's
    // phase-1 release (also implied by the chain — kept direct so the
    // correctness invariant survives future overlap changes).
    for (std::size_t g = 0; g < ng; ++g) {
      const Group grp = groups[g];
      if (with_loads) {
        L2[g] = tg.add(
            [&, grp] { ensure_loaded(grp.first, grp.last); },
            {g > 0 ? L2[g - 1] : kNone, Rel1[g],
             g >= overlap ? Rel2[g - overlap] : Rel1[ng - overlap + g]});
      }
      for (PartitionId m = grp.first; m < grp.last; ++m) {
        // The route chain is ascending, so one dependency covers every
        // sender (plus compute(m)'s own state, via R(m) ⊆ the chain).
        M[m] = tg.add([&, m] { merge_worker(m); },
                      {L2[g], R[last_sender[m]]});
      }
      if (with_loads) {
        Rel2[g] = tg.add([&, grp] { release(grp.first, grp.last); },
                         {prev_rel});
        for (PartitionId m = grp.first; m < grp.last; ++m) {
          tg.depend(Rel2[g], M[m]);
        }
        prev_rel = Rel2[g];
      }
    }
    // broadcast(m) reads only bcast[m] and graph-level routing tables,
    // so it needs no residency; B(0) waits for the whole route chain so
    // the two serial chains never interleave.
    TaskGraph::TaskId prev_b = R[p - 1];
    for (PartitionId m = 0; m < p; ++m) {
      B[m] = tg.add([&, m] { broadcast_worker(m); }, {M[m], prev_b});
      prev_b = B[m];
    }

    // Phase 3: load → install → release.
    for (std::size_t g = 0; g < ng; ++g) {
      const Group grp = groups[g];
      if (with_loads) {
        L3[g] = tg.add(
            [&, grp] { ensure_loaded(grp.first, grp.last); },
            {g > 0 ? L3[g - 1] : kNone, Rel2[g],
             g >= overlap ? Rel3[g - overlap] : Rel2[ng - overlap + g]});
      }
      for (PartitionId i = grp.first; i < grp.last; ++i) {
        I[i] = tg.add([&, i] { install_worker(i); },
                      {L3[g], B[last_master[i]]});
      }
      if (with_loads) {
        Rel3[g] = tg.add([&, grp] { release(grp.first, grp.last); },
                         {prev_rel});
        for (PartitionId i = grp.first; i < grp.last; ++i) {
          tg.depend(Rel3[g], I[i]);
        }
        prev_rel = Rel3[g];
      }
    }

    {
      const obs::trace::Span span("superstep", step);
      tg.run(team);
    }

    // A crash inside the superstep (modelled by the injected abort)
    // reaches the outside world before any of this superstep's state is
    // accounted or checkpointed — resume replays it from the last cut.
    if (failpoint::hit("bsp.superstep") == failpoint::Action::kAbort) {
      throw failpoint::InjectedFault(
          "bsp.superstep", failpoint::Action::kAbort,
          "bsp: superstep " + std::to_string(step) + " aborted (injected)");
    }

    // --- Stage 3: synchronisation (reduction + accounting) --------------
    // Replica synchronisation finished inside the superstep: merge and
    // install emptied every inbox, so no message crosses the barrier and
    // a checkpoint here needs none.
    bool any_change = false;
    for (PartitionId i = 0; i < p; ++i) {
      EBV_ASSERT(to_master[i].empty() && to_mirror[i].empty());
      if (changed[i] != 0) any_change = true;
      step_stats[i].messages_sent = sent[i];
      step_stats[i].messages_received = received[i];
      stats.messages_sent_per_worker[i] += sent[i];
      stats.total_messages += sent[i];
      stats.raw_messages += raw[i];
    }
    double step_max = 0.0;
    double step_min = std::numeric_limits<double>::infinity();
    for (PartitionId i = 0; i < p; ++i) {
      step_stats[i].comm_seconds =
          cost.comm_seconds(msgs_local[i], msgs_remote[i]);
      const double t = step_stats[i].comp_seconds + step_stats[i].comm_seconds;
      step_max = std::max(step_max, t);
      step_min = std::min(step_min, t);
    }
    stats.execution_seconds += step_max + cost.latency_seconds();
    stats.delta_c_seconds += step_max - step_min;
    for (PartitionId i = 0; i < p; ++i) {
      stats.comp_seconds += step_stats[i].comp_seconds;
      stats.comm_seconds += step_stats[i].comm_seconds;
    }
    stats.steps.push_back(std::move(step_stats));
    ++stats.supersteps;

    const bool more_fixed = fixed.has_value() && step + 1 < *fixed;
    const bool done = fixed.has_value() ? !more_fixed : !any_change;
    // Checkpoint at the barrier — the consistent cut — but never after
    // the final superstep (a resumed converged run must not replay one).
    if (!done && checkpoint_on &&
        (step + 1) % options_.checkpoint_every == 0) {
      const obs::trace::Span span("checkpoint.publish", step + 1);
      write_checkpoint(options_.checkpoint_dir,
                       collect_checkpoint(step + 1));
    }
    if (done) break;
  }

  stats.comp_seconds /= p;
  stats.comm_seconds /= p;

  // --- Gather final values from masters (uncovered vertices keep init).
  // Written master-side so a bounded budget only materialises one group
  // at a time; for every covered vertex exactly one worker holds
  // is_master, so this writes the same values as a per-vertex gather.
  stats.values.assign(graph.num_global_vertices(), Value{});
  for_each_group([&](PartitionId first, PartitionId last) {
    for (PartitionId m = first; m < last; ++m) {
      const LocalSubgraph& ls = sub(m);
      for (VertexId lv = 0; lv < ls.num_vertices(); ++lv) {
        if (ls.is_master[lv] != 0) {
          stats.values[ls.global_ids[lv]] = values[m][lv];
        }
      }
    }
  });
  for (VertexId gv = 0; gv < graph.num_global_vertices(); ++gv) {
    if (graph.master_of(gv) == kInvalidPartition) {
      stats.values[gv] = program.init_value(gv);
    }
  }
  stats.peak_resident_workers = resident_peak.load(std::memory_order_relaxed);
  stats.wall_seconds = wall.seconds();
  stats.cpu_seconds = process_cpu_seconds() - cpu_start;
  return stats;
}

}  // namespace ebv::bsp
