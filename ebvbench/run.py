#!/usr/bin/env python3
"""ebvbench: the repository benchmark (see ebvbench/README.md).

One run measures one workload with one seed and prints every metric by
name and unit, then, as its last line, one JSON object:

    python3 ebvbench/run.py --workload powerlaw-cc --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics, from a pass with the span tracer armed. The run
builds the C++ harness (ebvbench/harness.cpp) from the checkout into
$CARGO_TARGET_DIR (default .bench_build), generates the inputs from the
seed, checks every output, and exits non-zero when one is wrong.

    python3 ebvbench/run.py sweep --seeds 1-10 --trace both --out set.json
    python3 ebvbench/run.py sweep --seeds 1-10 --checkouts ../base . \
        --out base.json change.json
    python3 ebvbench/run.py compare base.json change.json

`sweep` runs every workload over several seeds and records each metric's
values, median and quartiles with the git sha and a host fingerprint; with
several checkouts it alternates between them seed by seed. `compare`
prints one row per workload and metric with a verdict against the
metric's bound, from the two sides' per-seed pairs. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CATALOGUE_PATH = ROOT / "BENCHMARK.json"

# Metrics the determinism contract makes thread-invariant: for one seed
# they must read bit-equal on every run.
EXACT_METRICS = frozenset({"replication_factor", "edge_imbalance",
                           "vertex_imbalance", "messages", "virtual_exec_s"})

# Latency limits for serve.slo_ratio.
REQUEST_LIMIT_MS = 10.0
RUN_LIMIT_MS = 3000.0
# serve::RequestClass::kRun, as the server's spans carry it.
SERVE_RUN_CLASS = 4

# Calls the harness times with getrusage deltas, and the fields it takes.
CALLS = ("graph.convert", "graph.open", "partition.total",
         "partition.metrics", "bsp.distribute", "bsp.run")
RUSAGE_FIELDS = ("cpu_ms", "minflt", "majflt", "nvcsw", "nivcsw")

# Library task spans counted as busy rank time in bsp.team_util.
BUSY_SPANS = ("compute", "route", "merge", "broadcast", "install", "load",
              "release")

BUILD_TYPES = ("Release", "RelWithDebInfo")
KEEP_WORK_DIRS = 4  # cached seeds per graph family
TEMP_OWNER_RE = re.compile(r"\.(\d+)-\d+(?:\.|$)")
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def load_catalogue() -> dict:
    with open(CATALOGUE_PATH, encoding="utf-8") as f:
        return json.load(f)


# --- statistics -----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it (q in [0, 1]; q = 0 gives the minimum)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


# --- trace analysis -------------------------------------------------------

def _ns(us) -> int:
    """Chrome trace microseconds (three decimals) as integer nanoseconds."""
    return round(float(us) * 1000)


def self_times(spans):
    """Self time of each span: its duration minus the union of the spans on
    the same track that lie inside it. `spans` is a list of
    (track, start_ns, duration_ns); returns a list of self times in ns."""
    result = [0] * len(spans)
    by_track = {}
    for i, (track, start, dur) in enumerate(spans):
        by_track.setdefault(track, []).append((start, -dur, i))
    for entries in by_track.values():
        entries.sort()
        for k, (start, neg_dur, i) in enumerate(entries):
            end = start - neg_dur
            covered = 0
            covered_end = start
            for child_start, child_neg_dur, _ in entries[k + 1:]:
                if child_start >= end:
                    break
                child_end = child_start - child_neg_dur
                if child_end > end:
                    continue  # overlaps the boundary: not a child
                lo = max(child_start, covered_end)
                if child_end > lo:
                    covered += child_end - lo
                covered_end = max(covered_end, child_end)
            result[i] = -neg_dur - covered
    return result


class TraceSummary:
    """Per span name: total and self time (ms) and count; instants are
    counted by name."""

    def __init__(self, events):
        spans = [e for e in events if e.get("ph") == "X"]
        selfs = self_times([(e["tid"], _ns(e["ts"]), _ns(e["dur"]))
                            for e in spans])
        self.total = {}
        self.self = {}
        self.count = {}
        for e, own in zip(spans, selfs):
            name = e["name"]
            self.total[name] = self.total.get(name, 0.0) + _ns(e["dur"]) / 1e6
            self.self[name] = self.self.get(name, 0.0) + own / 1e6
            self.count[name] = self.count.get(name, 0) + 1
        for e in events:
            if e.get("ph") == "i":
                self.count[e["name"]] = self.count.get(e["name"], 0) + 1

    def total_ms(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_ms(self, name: str) -> float:
        return self.self.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.count.get(name, 0)


def read_trace(path: str):
    """The events of a Chrome trace file, which is removed once read."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    os.remove(path)
    return events


def span_ms(events, name):
    """Durations (ms) of every `name` span, in trace order."""
    return [_ns(e["dur"]) / 1e6 for e in events
            if e.get("ph") == "X" and e["name"] == name]


def serve_span_ms(events, name):
    """Durations (ms) of the server's `name` spans, split into lookup
    requests and runs by the request class the span carries as its arg."""
    mix, runs = [], []
    for e in events:
        if e.get("ph") == "X" and e["name"] == name:
            is_run = e.get("args", {}).get("v") == SERVE_RUN_CLASS
            (runs if is_run else mix).append(_ns(e["dur"]) / 1e6)
    return mix, runs


# --- metrics from the harness's raw samples -------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _measured(raw):
    return [r for r in raw["reps"] if not r["warmup"]]


def pipeline_end_to_end(raw) -> dict:
    reps = _measured(raw)
    q = raw["quality"]
    return {
        "setup_s": _median([r["setup_s"] for r in reps]),
        "latency_ms": _median([r["pipeline_s"] for r in reps]) * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
        **{name: q[name] for name in EXACT_METRICS},
    }


def _zero_layers(names) -> dict:
    return {name: 0 for name in names}


def pipeline_layers(raw, traces, decomposition, names) -> dict:
    """Per-layer metrics of a pipeline workload: span totals and self times
    of the traced reps (median over reps), rusage deltas of every measured
    rep, and the spans of the post-rep decomposition of partition_view
    (`decomposition` holds that trace's events)."""
    m = _zero_layers(names)
    per_rep = []
    threads = raw["threads"]
    for t in traces:
        superstep = t.total_ms("superstep")
        busy = sum(t.total_ms(name) for name in BUSY_SPANS)
        rep_ms = t.total_ms("bench.rep")
        partition_ms = t.total_ms("bench.partition")
        per_rep.append({
            "graph.convert_ms": t.total_ms("bench.convert"),
            "graph.open_ms": t.total_ms("bench.open"),
            "partition.total_ms": partition_ms,
            "partition.metrics_ms": t.total_ms("bench.metrics"),
            "partition.edges_per_s":
                raw["edges"] / (partition_ms / 1e3) if partition_ms else 0.0,
            "bsp.distribute_ms": t.total_ms("bench.distribute"),
            "bsp.run_ms": t.total_ms("bench.run"),
            "bsp.supersteps": t.n("superstep"),
            "bsp.superstep_ms": superstep,
            "bsp.run_unattributed_ms": t.self_ms("bench.run"),
            "bsp.compute_ms": t.total_ms("compute"),
            "bsp.route_ms": t.total_ms("route"),
            "bsp.merge_ms": t.total_ms("merge"),
            "bsp.broadcast_ms": t.total_ms("broadcast"),
            "bsp.install_ms": t.total_ms("install"),
            "bsp.team_util": busy / (threads * superstep) if superstep else 0.0,
            "task_graph.steals": t.n("steal"),
            "task_graph.parks": t.n("park"),
            "bsp.load_ms": t.total_ms("load"),
            "bsp.release_ms": t.total_ms("release"),
            "bsp.mailbox_spills": t.n("mailbox.spill"),
            "trace.coverage_pct":
                100.0 * (1.0 - t.self_ms("bench.rep") / rep_ms) if rep_ms else 0.0,
        })
    for name in per_rep[0] if per_rep else ():
        values = [rep[name] for rep in per_rep]
        # Coverage must hold for every rep, so report the worst one.
        m[name] = min(values) if name == "trace.coverage_pct" else _median(values)

    reps = _measured(raw)
    for call in CALLS:
        for field in RUSAGE_FIELDS:
            m[f"{call}.{field}"] = _median([r["calls"][call][field] for r in reps])
    m["partition.edge_order_ms"] = _median(span_ms(decomposition,
                                                   "bench.edge-order"))
    m["partition.eva_score_ms"] = _median(span_ms(decomposition,
                                                  "bench.eva-score"))
    m["bsp.peak_resident_workers"] = raw["peak_resident_workers"]
    traced = [r["pipeline_s"] for r in reps if r["traced"]]
    untraced = [r["pipeline_s"] for r in reps if not r["traced"]]
    if traced and untraced:
        m["trace.overhead_pct"] = (_median(traced) / _median(untraced) - 1) * 100
    return m


def serve_requests(raw):
    """Split the window's requests into (mix latencies, run latencies,
    generator lags, answered-within-limit count). Latency runs from the
    time a request was due, not the time it was sent, so a late generator
    still charges the wait to every request behind it."""
    mix, runs, lags = [], [], []
    within = 0
    for cls, intended, sent, done, ok in raw["requests"]:
        latency = done - intended
        lags.append(sent - intended)
        limit = RUN_LIMIT_MS if cls == "run" else REQUEST_LIMIT_MS
        (runs if cls == "run" else mix).append(latency)
        if ok and latency <= limit:
            within += 1
    return mix, runs, lags, within


def serve_end_to_end(raw) -> dict:
    """latency_ms is the p95 of the lookup requests: the median sits where
    requests served at once meet those waiting out a worker's idle park,
    so it moves with scheduling luck from run to run; p95 has ~200
    samples beyond it in a 15 s window and reads the queueing itself."""
    mix, _, _, _ = serve_requests(raw)
    q = raw["quality"]
    return {
        "setup_s": _median(raw["setup_s"]),
        "latency_ms": percentile(mix, 0.95),
        "peak_rss_mb": raw["peak_rss_mb"],
        **{name: q[name] for name in EXACT_METRICS},
    }


def _percentile_or_zero(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def serve_layers(raw, events, names) -> dict:
    """Per-layer metrics of serve-mix: the server's queue-wait and handler
    spans from the traced window, and the client side of the same
    requests."""
    m = _zero_layers(names)
    wait, _ = serve_span_ms(events, "serve.queue-wait")
    handler, run_handler = serve_span_ms(events, "serve.handler")
    m["serve.queue_wait_p50_ms"] = _percentile_or_zero(wait, 0.50)
    m["serve.queue_wait_p99_ms"] = _percentile_or_zero(wait, 0.99)
    m["serve.handler_p50_ms"] = _percentile_or_zero(handler, 0.50)
    m["serve.handler_p99_ms"] = _percentile_or_zero(handler, 0.99)
    m["serve.run_handler_p50_ms"] = _percentile_or_zero(run_handler, 0.50)
    m["serve.overloaded"] = raw["overloaded"]
    mix, runs, lags, within = serve_requests(raw)
    m["serve.gen_lag_p99_ms"] = percentile(lags, 0.99)
    m["serve.request_p99_ms"] = percentile(mix, 0.99)
    m["serve.run_p50_ms"] = _percentile_or_zero(runs, 0.50)
    m["serve.slo_ratio"] = within / len(raw["requests"])
    return m


# --- build, fingerprint, harness ------------------------------------------

def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def cmake_cache(build: Path) -> dict:
    cache = {}
    path = build / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            m = re.match(r"^([A-Za-z_][\w-]*):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build_harness(build: Path) -> Path:
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources at {ROOT / 'src'}: run from a "
                         "full checkout of the repository")
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    build_type = cmake_cache(build).get("CMAKE_BUILD_TYPE", "")
    if build_type not in BUILD_TYPES:
        raise BenchError(f"refusing to time a {build_type or 'default'} build; "
                         f"configure {build} as Release or RelWithDebInfo")
    subprocess.run(["cmake", "--build", str(build), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build / "ebvbench"


def _git(*args) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def fingerprint(build: Path) -> dict:
    def proc_field(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    compiler = "unknown"
    for f in sorted(build.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = f.read_text(encoding="utf-8", errors="replace")
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if sha else None,
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cmake_cache(build).get("CMAKE_BUILD_TYPE", "unknown"),
    }


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def code_digest(root: Path = ROOT) -> str:
    """A digest of every file the harness is built from: the library
    sources, the harness and both build files. `prepare` writes library
    output (the generated graph, references, the served partition, the
    expected run table and its quality), so its cache is keyed by this."""
    files = sorted(p for p in (root / "src").rglob("*") if p.is_file())
    files += [root / "CMakeLists.txt", root / BENCH_DIR.name / "CMakeLists.txt",
              root / BENCH_DIR.name / "harness.cpp"]
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root)}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:16]


def work_dir(build: Path, workload: str, seed: int, code: str) -> Path:
    """The cached inputs of (graph family, seed) for the code whose
    digest is `code`. The oldest caches of the family beyond
    KEEP_WORK_DIRS are removed, and so are temporary files a killed run
    left behind: every such name carries its creator's "<pid>-<n>"."""
    family = "road" if workload.startswith("road") else "powerlaw"
    root = build / "work"
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{family}-{seed}-{code}"
    path.mkdir(exist_ok=True)
    os.utime(path)
    siblings = sorted(root.glob(f"{family}-*"), key=lambda p: p.stat().st_mtime)
    for old in siblings[:-KEEP_WORK_DIRS]:
        shutil.rmtree(old, ignore_errors=True)
    for f in path.iterdir():
        owner = TEMP_OWNER_RE.search(f.name)
        if owner and not _alive(int(owner.group(1))):
            f.unlink(missing_ok=True)
    return path


def run_harness(harness: Path, *args) -> None:
    try:
        subprocess.run([str(harness), *args], check=True,
                       stdout=sys.stderr, timeout=HARNESS_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        raise BenchError(f"harness {args[0]} exited with {e.returncode}") from e
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"harness {args[0]} timed out") from e


def measure(workload: str, seed: int, seconds: float, trace: bool,
            catalogue: dict, build: Path, harness: Path) -> dict:
    """One run: prepare (cached), measure, reduce. Returns the result
    object printed as the run's last line."""
    workloads = [w["name"] for w in catalogue["workloads"]]
    if workload not in workloads:
        raise BenchError(f"unknown workload {workload!r}; one of {workloads}")
    work = work_dir(build, workload, seed, code_digest())
    run_harness(harness, "prepare", "--workload", workload, "--seed",
                str(seed), "--dir", str(work))
    raw_path = work / f"raw.{os.getpid()}-0.json"
    run_harness(harness, "measure", "--workload", workload, "--seed",
                str(seed), "--dir", str(work), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--out", str(raw_path))
    with open(raw_path, encoding="utf-8") as f:
        raw = json.load(f)
    raw_path.unlink()

    wanted = catalogue["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    serve = "requests" in raw
    if trace:
        if serve:
            values = serve_layers(raw, read_trace(raw["trace_file"]), names)
        else:
            traces = [TraceSummary(read_trace(r["trace_file"]))
                      for r in raw["reps"] if r["trace_file"]]
            values = pipeline_layers(
                raw, traces, read_trace(raw["decomposition_trace_file"]), names)
    else:
        values = serve_end_to_end(raw) if serve else pipeline_end_to_end(raw)
    if sorted(values) != sorted(names):
        raise BenchError(f"metric set mismatch: {sorted(set(values) ^ set(names))}")
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    for error in raw["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


# --- sweep and compare ----------------------------------------------------

def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def paired_ratios(base: dict, change: dict):
    """change / base for every seed both sides ran, where base is not 0."""
    return [change[s] / base[s] for s in sorted(base.keys() & change.keys())
            if base[s]]


def verdict(spec: dict, base: dict, change: dict) -> str:
    """Compare a change's values of one metric with a baseline's; each maps
    seed -> value. An exact metric is compared seed by seed: `worse` if any
    seed reads worse, `bit-equal` if all read the same, else `better`. Any
    other metric is compared by its bound, over the per-seed ratios
    change / base, which cancel what the seeds' inputs differ by:
    `unresolved` (their spread is wider than the bound, unless the change
    wins every seed, which is `better`), `worse` (their median is worse by
    more than the bound), else `within bound`. Without a common seed the
    verdict is `unresolved`."""
    lower = spec["better"] == "lower"
    if spec["name"] in EXACT_METRICS:
        seeds = base.keys() & change.keys()
        if not seeds:
            return "unresolved"
        if any(change[s] > base[s] if lower else change[s] < base[s]
               for s in seeds):
            return "worse"
        if all(change[s] == base[s] for s in seeds):
            return "bit-equal"
        return "better"
    bound = spec.get("bound")
    if bound is None:
        return "no bound"
    ratios = paired_ratios(base, change)
    if not ratios:
        return "unresolved"
    if relative_iqr(ratios) > bound:
        wins = all(r < 1 if lower else r > 1 for r in ratios)
        return "better" if wins else "unresolved"
    worse = statistics.median(ratios) - 1
    return "worse" if (worse if lower else -worse) > bound else "within bound"


def run_in_checkout(checkout: Path, workload: str, seed: int, seconds: float,
                    trace: bool):
    """One run of the benchmark of `checkout`, in a process of its own.
    This checkout builds where the caller's environment says; any other
    builds into its own .bench_build. Returns (result, fingerprint)."""
    env = dict(os.environ)
    if checkout.resolve() != ROOT:
        env["CARGO_TARGET_DIR"] = str(checkout.resolve() / ".bench_build")
    proc = subprocess.run(
        [sys.executable, str(checkout / BENCH_DIR.name / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    prints = [line for line in lines if line.startswith("fingerprint ")]
    if proc.returncode not in (0, 1) or not prints:
        raise BenchError(f"{checkout}: {workload} seed {seed} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1]), json.loads(prints[-1].split(" ", 1)[1])


def cmd_sweep(args, catalogue: dict) -> int:
    """Every workload over every seed, for each checkout in turn. Which
    checkout runs first rotates from seed to seed, so the sets see the
    same drift of the host."""
    checkouts = [Path(c) for c in args.checkouts]
    if len(args.out) != len(checkouts):
        raise BenchError("--out names one file per checkout")
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in catalogue["workloads"]]
    passes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    seconds = args.seconds or catalogue["run_seconds"]
    seeds = parse_seeds(args.seeds)
    sets = [{"fingerprint": None, "seconds": seconds, "seeds": seeds,
             "workloads": {}} for _ in checkouts]
    ok = True
    for workload in workloads:
        samples = [{} for _ in checkouts]
        failed = [0 for _ in checkouts]
        for trace in passes:
            for i, seed in enumerate(seeds):
                first = i % len(checkouts)
                for k in [*range(first, len(checkouts)), *range(first)]:
                    result, sets[k]["fingerprint"] = run_in_checkout(
                        checkouts[k], workload, seed, seconds, trace)
                    ok = ok and result["correct"]
                    failed[k] += result["failed"]
                    for name, metric in result["metrics"].items():
                        samples[k].setdefault(name, []).append(metric["value"])
                    print(f"{checkouts[k]} {workload} seed {seed} trace "
                          f"{int(trace)}: "
                          f"{'ok' if result['correct'] else 'FAILED'}",
                          file=sys.stderr)
        for k, out in enumerate(sets):
            out["workloads"][workload] = {
                "failed": failed[k],
                "metrics": {name: summarize(v) for name, v in samples[k].items()}}
    print(f"{'set':<4} {'workload':<12} {'metric':<20} {'median':>14} "
          f"{'IQR/median':>11} {'bound':>6}")
    for k, out in enumerate(sets):
        with open(args.out[k], "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
        for workload, entry in out["workloads"].items():
            for spec in catalogue["end_to_end"]:
                summary = entry["metrics"].get(spec["name"])
                if summary is None:
                    continue
                spread = relative_iqr(summary["values"])
                print(f"{k + 1:<4} {workload:<12} {spec['name']:<20} "
                      f"{summary['median']:>14.6g} {spread:>11.4f} "
                      f"{spec['bound']:>6}")
    return 0 if ok else 1


def cmd_compare(args, catalogue: dict) -> int:
    with open(args.base, encoding="utf-8") as f:
        base = json.load(f)
    with open(args.change, encoding="utf-8") as f:
        change = json.load(f)
    specs = {m["name"]: m for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    print(f"{'workload':<12} {'metric':<32} {'base median [IQR]':>30} "
          f"{'change median [IQR]':>30} {'delta':>8}  verdict")
    worse = 0
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for name, a in entry["metrics"].items():
            b = other["metrics"].get(name)
            if b is None or name not in specs:
                continue
            a_seeds = dict(zip(base["seeds"], a["values"]))
            b_seeds = dict(zip(change["seeds"], b["values"]))
            v = verdict(specs[name], a_seeds, b_seeds)
            worse += v == "worse"
            ratios = paired_ratios(a_seeds, b_seeds)
            delta = (f"{(statistics.median(ratios) - 1) * 100:>+7.2f}%"
                     if ratios else f"{'-':>8}")
            print(f"{workload:<12} {name:<32} "
                  f"{a['median']:>12.6g} [{a['q1']:.4g}, {a['q3']:.4g}] "
                  f"{b['median']:>12.6g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                  f"{delta}  {v}")
    return 1 if worse else 0


def cmd_run(args, catalogue: dict) -> int:
    build = build_dir()
    harness = build_harness(build)
    result = measure(args.workload, args.seed, args.seconds, args.trace == 1,
                     catalogue, build, harness)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"fingerprint {json.dumps(fingerprint(build), sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    if argv and argv[0] == "sweep":
        parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,5,9")
        parser.add_argument("--workloads", default="")
        parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
        parser.add_argument("--seconds", type=float, default=0)
        parser.add_argument("--checkouts", nargs="+", default=[str(ROOT)],
                            help="checkouts to run, in turn per seed")
        parser.add_argument("--out", nargs="+", required=True,
                            help="one result file per checkout")
        handler = cmd_sweep
        argv = argv[1:]
    elif argv and argv[0] == "compare":
        parser.add_argument("base")
        parser.add_argument("change")
        handler = cmd_compare
        argv = argv[1:]
    else:
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        handler = cmd_run
    args = parser.parse_args(argv)
    try:
        return handler(args, load_catalogue())
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        print(f"ebvbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
