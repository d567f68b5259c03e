// Per-class request handlers for the serve daemon, written as pure
// functions over an immutable ServeContext so they are trivially
// callable from any worker thread: the context is mmapped/built once at
// startup (MappedGraph snapshots + ReplicaTable routing tables) and only
// read afterwards.
//
// Handlers signal caller mistakes with BadRequestError (mapped to
// Status::kBadRequest and a flag-named "error: ..." body by the server);
// anything else escaping is an internal error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/replica_table.h"
#include "graph/mapped_graph.h"
#include "partition/partitioner.h"
#include "serve/protocol.h"

namespace ebv::serve {

/// A caller-visible request error; the server answers kBadRequest with
/// the message.
class BadRequestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tunable bounds a deployment can tighten from the CLI.
struct ServeLimits {
  std::uint32_t max_batch = kMaxBatch;
  std::uint32_t max_hops = kMaxHops;
  /// Default + cap on vertices returned by a neighbors query and on the
  /// vertex count of a run-request subgraph.
  std::uint32_t neighbor_limit = 1u << 16;
  std::uint32_t max_run_parts = 256;
  std::uint32_t pagerank_iterations = 20;  // matches `ebvpart run`
};

/// One served snapshot: the mmapped EBVS graph, plus (when a partition
/// was given) the .ebvp assignment and its replica/master routing table.
/// Only the table is built: the `replicas` lookup reads nothing else, so
/// no worker subgraph exists until a `run` request builds its own.
struct GraphEntry {
  std::string name;           // display name (file stem)
  std::string snapshot_path;  // the .ebvs file
  MappedGraph mapped;
  std::optional<EdgePartition> partition;
  std::optional<bsp::ReplicaTable> routing;

  GraphEntry(std::string name_, std::string snapshot_path_,
             MappedGraph mapped_)
      : name(std::move(name_)),
        snapshot_path(std::move(snapshot_path_)),
        mapped(std::move(mapped_)) {}
};

struct ServeContext {
  std::vector<GraphEntry> graphs;
  ServeLimits limits;

  /// Entry for a request's graph_index; throws BadRequestError when out
  /// of range.
  [[nodiscard]] const GraphEntry& graph(std::uint32_t index) const;
};

/// Decode `body` for `type`, execute the query and encode the kOk
/// response body. Throws ProtocolError / BadRequestError for caller
/// mistakes (the server maps both to kBadRequest). kPing is handled
/// inline by the session layer and is rejected here.
std::vector<std::uint8_t> handle_request(const ServeContext& context,
                                         MsgType type,
                                         std::span<const std::uint8_t> body);

// Individual handlers, exposed for the golden-equivalence tests.
std::string handle_stats(const ServeContext& context, const StatsRequest& req);
std::vector<DegreeInfo> handle_degree(const ServeContext& context,
                                      const DegreeRequest& req);
NeighborsResponse handle_neighbors(const ServeContext& context,
                                   const NeighborsRequest& req);
std::vector<PartitionId> handle_partition(const ServeContext& context,
                                          const PartitionRequest& req);
std::vector<ReplicaInfo> handle_replicas(const ServeContext& context,
                                         const ReplicasRequest& req);
std::string handle_run(const ServeContext& context, const RunRequest& req);

}  // namespace ebv::serve
