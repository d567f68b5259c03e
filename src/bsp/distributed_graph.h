// DistributedGraph: the per-worker view of a vertex-cut partitioned graph.
//
// It is the graph's ReplicaTable (bsp/replica_table.h, which states the
// routing rule: a vertex lives on every part holding one of its edges, and
// its master holds the most of them) plus, for every worker, a local
// subgraph over dense *local* vertex ids, emitted by a third streaming
// pass that addresses every endpoint by the table's local id.
//
// Taking a GraphView (a resident Graph converts implicitly) makes this the
// out-of-core half of `ebvpart run --mmap`: the edge section of an
// mmap-backed EBVS snapshot is streamed, never copied.
//
// Two residency modes, bit-identical in results:
//   - resident (default): all p LocalSubgraphs are held in memory, so the
//     aggregate is O(|E|);
//   - spilled (DistributeOptions::spill_path): each worker's subgraph is
//     built ONE AT A TIME and streamed into an EBVW worker-spill snapshot
//     (bsp/spill_store.h); only the table stays resident, and the runtime
//     materialises workers on demand under RunOptions::resident_workers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bsp/local_subgraph.h"
#include "bsp/replica_table.h"
#include "bsp/spill_store.h"
#include "common/assert.h"
#include "graph/graph_view.h"
#include "obs/trace.h"
#include "partition/partitioner.h"

namespace ebv::bsp {

/// Construction-time options.
struct DistributeOptions {
  /// When non-empty, write every worker's subgraph to an EBVW snapshot at
  /// this path during construction instead of keeping it resident. The
  /// file must outlive the DistributedGraph; it is NOT removed on
  /// destruction (callers own the lifecycle — see
  /// analysis::run_with_partition for the self-cleaning driver).
  std::string spill_path;
};

class DistributedGraph : public ReplicaTable {
 public:
  /// Builds the table and the worker subgraphs in O(|E| + Σ|Vi|) time,
  /// reading the edge span in three sequential passes without copying it.
  /// `options.spill_path` selects spilled construction: p more filtering
  /// passes (one per worker), never more than one worker's subgraph in
  /// memory. Throws std::invalid_argument as ReplicaTable does.
  DistributedGraph(const GraphView& graph, const EdgePartition& partition,
                   const DistributeOptions& options = {});

  [[nodiscard]] PartitionId num_workers() const { return num_workers_; }
  [[nodiscard]] EdgeId num_global_edges() const { return num_global_edges_; }

  /// Whether subgraphs live in the spill store instead of memory.
  [[nodiscard]] bool spilled() const { return store_.has_value(); }

  /// Resident mode only — spilled graphs have no long-lived subgraph to
  /// reference; use load_worker(). Throws std::invalid_argument when
  /// spilled.
  [[nodiscard]] const LocalSubgraph& local(PartitionId i) const {
    EBV_REQUIRE(!spilled(),
                "local(): subgraphs are spilled to disk; use load_worker()");
    return locals_[i];
  }

  /// Spilled mode only: materialise worker i from the spill store (its
  /// id tables, flags and edges; no adjacency index). Throws
  /// std::invalid_argument in resident mode.
  [[nodiscard]] LocalSubgraph load_worker(PartitionId i) const {
    EBV_REQUIRE(spilled(), "load_worker(): subgraphs are resident; use local()");
    return store_->load_worker(i);
  }

 private:
  // Opens `bsp.distribute` before the ReplicaTable base is built: the
  // temporary bound to `span` lives through the whole delegated build.
  DistributedGraph(const obs::trace::Span& span, const GraphView& graph,
                   const EdgePartition& partition,
                   const DistributeOptions& options);

  PartitionId num_workers_ = 0;
  EdgeId num_global_edges_ = 0;
  std::vector<LocalSubgraph> locals_;  // empty in spilled mode
  std::optional<SpillStore> store_;    // engaged in spilled mode
};

}  // namespace ebv::bsp
