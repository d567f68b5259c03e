// Startup reclamation of temp files orphaned by killed processes.
//
// Every transient file the system creates embeds the owner's
// process_unique_suffix() ("<pid>-<n>"), so any other process can tell
// whether the creator is still alive. A crashed or kill -9'd run leaves
// its EBVW worker snapshots, converter run files and checkpoint temps
// behind; the run/convert entry points call
// sweep_stale_temp_files() on their scratch directories before starting,
// deleting exactly the recognised temp shapes whose owner pid is dead.
#pragma once

#include <optional>
#include <string>

namespace ebv {

/// If `file_name` (no directory) matches one of the temp-file shapes the
/// system creates — `ebv-workers.<pid>-<n>.ebvw`,
/// `<out>.run<k>.<pid>-<n>.tmp`,
/// `<ckpt>.ebvc.tmp.<pid>-<n>`, `ebv-serve.<pid>-<n>.sock` — return the
/// owning pid; otherwise nullopt. Exposed for tests.
[[nodiscard]] std::optional<long> temp_file_owner_pid(
    const std::string& file_name);

/// True when `pid` is a live process (or one we cannot signal, which we
/// conservatively treat as live). On platforms without kill(2) every pid
/// is treated as live, making the sweep a no-op.
[[nodiscard]] bool process_alive(long pid);

/// Remove recognised temp files in `dir` (non-recursive) whose owner is
/// dead. Best-effort: unreadable directories or losing a removal race is
/// not an error. Returns the number of files removed.
std::size_t sweep_stale_temp_files(const std::string& dir);

}  // namespace ebv
