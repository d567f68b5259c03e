// Crash-consistent superstep checkpoints (EBVC files).
//
// The BSP superstep barrier is a textbook consistent cut: replica
// synchronisation finishes inside the superstep, so when its install
// phase has completed no message is in flight between workers (the
// runtime asserts every inbox empty at the barrier), and every worker's
// per-vertex state is a plain array. A checkpoint taken at the barrier
// therefore needs only: per-worker values, last-synced values, the
// update frontier, and the accumulated RunStats — restoring them and
// re-entering the superstep loop reproduces the uninterrupted run
// BIT-IDENTICALLY (values, supersteps, message counts, virtual time) at
// every resident_workers × prefetch × team-size combination.
//
// Durability protocol (docs/ARCHITECTURE.md, "Fault tolerance"):
// serialise to a temp file named with process_unique_suffix(), fsync,
// atomically rename to ckpt-<step>.ebvc, fsync the directory. A trailing
// FNV-1a checksum over the whole file detects torn writes; the loader
// scans newest-first and falls back past corrupt files, so the previous
// checkpoint always survives a crash mid-write. Transient write errors
// are retried with bounded exponential backoff (failpoint::RetryPolicy), the
// partial temp file removed between attempts.
//
// Byte layout: docs/FORMATS.md, "EBVC". Unlike EBVS/EBVW the sections
// are 8-byte aligned rather than page-aligned — a checkpoint is read
// once on resume, never served from a long-lived mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bsp/runtime.h"

namespace ebv::bsp {

/// Everything the runtime needs to re-enter the superstep loop at the
/// cut after `completed_supersteps` barriers.
struct Checkpoint {
  std::uint32_t completed_supersteps = 0;

  // Run fingerprint: resume refuses a checkpoint whose shape does not
  // match the graph/program it is being applied to.
  PartitionId num_workers = 0;
  VertexId num_global_vertices = 0;
  EdgeId num_global_edges = 0;
  std::string program;

  // Accumulated RunStats at the cut. comp/comm are the per-worker SUMS —
  // the runtime divides by p only after the loop, so the restored run
  // continues the identical accumulation order. values and wall_seconds
  // are excluded (regenerated by the final gather / diagnostic only).
  std::uint64_t total_messages = 0;
  std::uint64_t raw_messages = 0;
  double execution_seconds = 0.0;
  double comp_seconds_sum = 0.0;
  double comm_seconds_sum = 0.0;
  double delta_c_seconds = 0.0;
  std::uint32_t peak_resident_workers = 0;
  std::vector<std::uint64_t> messages_sent_per_worker;
  /// steps[k][i] — superstep k, worker i (completed supersteps only).
  std::vector<std::vector<WorkerStepStats>> steps;

  // Per-worker state at the cut, indexed by worker then local vertex.
  std::vector<std::vector<Value>> values;
  std::vector<std::vector<Value>> last_sync;
  /// The update frontier: local vertices changed by the last install.
  std::vector<std::vector<VertexId>> updated;
};

/// "ckpt-00000042.ebvc" for completed_supersteps = 42 (zero-padded so
/// lexicographic order is numeric order).
[[nodiscard]] std::string checkpoint_file_name(
    std::uint32_t completed_supersteps);

/// Durably write `ckpt` into `dir` (created if absent) under the atomic
/// temp-fsync-rename protocol with bounded retry, then prune all but the
/// newest two checkpoints. Returns the published path. Throws
/// std::runtime_error after the final failed attempt — with the temp
/// file removed and every previously published checkpoint intact.
std::string write_checkpoint(const std::string& dir, const Checkpoint& ckpt);

/// Parse and fully validate one EBVC file (checksum first). Throws
/// std::runtime_error prefixed "EBVC:" on any corruption.
[[nodiscard]] Checkpoint read_checkpoint_file(const std::string& path);

/// Load the newest readable checkpoint in `dir`: scan descending by
/// superstep, skipping files that fail validation (a torn newest file
/// falls back to its predecessor). nullopt when none is readable.
[[nodiscard]] std::optional<Checkpoint> load_latest_checkpoint(
    const std::string& dir);

/// Published checkpoints in `dir`, ascending by completed superstep.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>>
list_checkpoints(const std::string& dir);

}  // namespace ebv::bsp
