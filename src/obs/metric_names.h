// Registered metric names for the obs:: registry. Every name handed to
// Registry::counter/histogram must be a constant from this header
// (scripts/ebvlint.py, rule `inline-metric-name`, enforces this), so the
// full metric namespace is reviewable in one place and docs/OBSERVABILITY.md
// can stay in lockstep.
//
// Naming convention: `kebab.dotted` — dot-separated segments, each segment
// lower-case alphanumeric words joined by dashes, at least two segments
// (`subsystem.metric` or `subsystem.object.metric`). The lint self-checks
// every literal in this file against that grammar. Per-instance suffixes
// (a request class, a worker id) are appended by the call site with
// obs::suffixed(); the suffix must follow the same grammar.
#pragma once

namespace ebv::obs::names {

// --- serve: admission + request path ----------------------------------
// Suffixed with the request-class name (stats/degree/neighbors/lookup/run).
inline constexpr char kServeQueueWaitMs[] = "serve.queue-wait-ms";
inline constexpr char kServeHandlerMs[] = "serve.handler-ms";
inline constexpr char kServeLatencyMs[] = "serve.latency-ms";
inline constexpr char kServeAccepted[] = "serve.accepted";
inline constexpr char kServeCompleted[] = "serve.completed";
inline constexpr char kServeOverloaded[] = "serve.overloaded";
inline constexpr char kServeBadRequest[] = "serve.bad-request";
inline constexpr char kServeHandlerErrors[] = "serve.handler-errors";

// --- serve: session/frame level (not per-class) ------------------------
inline constexpr char kServeSessionsAccepted[] = "serve.sessions-accepted";
inline constexpr char kServeFramesMalformed[] = "serve.frames-malformed";
inline constexpr char kServeMetricsRequests[] = "serve.metrics-requests";

}  // namespace ebv::obs::names
