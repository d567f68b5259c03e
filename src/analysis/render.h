// Shared table renderers for outputs that exist on TWO surfaces: the
// one-shot CLI (`ebvpart stats --mmap`, `ebvpart run`) and the serve
// daemon's stats/run query classes. Both call these, so the daemon's
// responses are byte-identical to the CLI by construction — the golden
// equivalence the serve tests and the CI e2e byte-diffs pin.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "graph/stats.h"
#include "obs/trace.h"

namespace ebv::analysis {

/// The `ebvpart stats --mmap` table: vertices/edges/average degree/max
/// total degree/isolated/eta plus the trailing "mapped MB" row.
std::string format_mmap_stats_table(const GraphStats& stats,
                                    std::size_t mapped_bytes);

/// The `ebvpart run` result table. `app_label` is the CLI spelling
/// ("cc", "pr", "sssp"); `include_raw` adds the "messages (raw)" row
/// that `run --combine 1` prints.
std::string format_run_table(const std::string& app_label,
                             const ExperimentResult& result, bool include_raw);

/// The `run --phase-stats` tables, a view over one command's collected
/// spans (docs/OBSERVABILITY.md): a layer table of the main-track spans
/// outside every superstep window, children indented under their parent;
/// one row per `superstep` span, numbered by its arg, summing each task
/// kind's spans that start inside it; and a footer with `stats`' run
/// wall and CPU. Additive output — printed AFTER the run table, never
/// altering it (the bit-identity contract covers format_run_table alone).
std::string format_phase_breakdown(
    const std::vector<obs::trace::Event>& events, const bsp::RunStats& stats);

}  // namespace ebv::analysis
