#!/usr/bin/env python3
"""ebvlint: project-invariant linter for the EBV partitioning runtime.

Enforces the repo-specific conventions that generic tools (clang-tidy,
-Wthread-safety) cannot express — the bounded-read I/O boundary, the
centralised number parsing, checked stream writes, the capability-
annotated locking discipline, and pid-unique temp-file naming. See
docs/STATIC_ANALYSIS.md for the conventions themselves.

Usage:
    python3 scripts/ebvlint.py [--root DIR] [FILE...]

With no FILE arguments, scans every .h/.cpp under src/ and tools/
(tests/ is deliberately out of scope: test code may use std::mutex etc.
directly). Exit status: 0 clean, 1 findings, 2 usage/IO error.

Suppressing a finding
---------------------
Add an inline allow on the offending line or in the comment block
immediately above it, with a reason (the reason is mandatory):

    // ebvlint: allow(rule-name): why this specific use is sound

File-level allowlists for whole modules that ARE the boundary a rule
protects (e.g. the binary readers for raw-read-boundary) live in the
RULES table below; extending one is a reviewed change to this script.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

SCAN_DIRS = ("src", "tools")
EXTENSIONS = (".h", ".cpp")

ALLOW_RE = re.compile(r"//\s*ebvlint:\s*allow\(([a-z0-9-]+)\)\s*:\s*(\S.*)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|\*|/\*)")


@dataclass
class Rule:
    name: str
    description: str
    # Regex matched against comment-stripped line text.
    pattern: re.Pattern
    # Repo-relative paths where the pattern is the module's job.
    allowed_files: frozenset = field(default_factory=frozenset)
    # Extra per-file predicate: called once per file with the full
    # comment-stripped text; returning True suppresses every match in
    # the file (used by tempfile-unique-id).
    file_exempt: object = None


def _uses_unique_suffix(text: str) -> bool:
    return "process_unique_suffix" in text


RULES = [
    Rule(
        name="raw-read-boundary",
        description=(
            "raw byte reinterpretation (reinterpret_cast / fread / "
            "read_raw) outside the bounded-read boundary modules — "
            "hostile input must go through the checked readers"
        ),
        pattern=re.compile(r"reinterpret_cast|(?<![\w.])fread\s*\(|\bread_raw\b"),
        allowed_files=frozenset({
            "src/common/binary_io.h",
            "src/graph/section_io.h",
            "src/graph/section_io.cpp",
            "src/graph/io.cpp",
            "src/graph/mapped_graph.cpp",
            "src/graph/snapshot_convert.cpp",
            "src/partition/partition_io.cpp",
            "src/bsp/checkpoint.cpp",
            "src/bsp/spill_store.cpp",
            "src/serve/protocol.cpp",
        }),
    ),
    Rule(
        name="naked-number-parse",
        description=(
            "std::sto* outside cli_args.cpp — these accept trailing "
            "junk and throw untyped errors; use cli::parse_uint / "
            "cli::parse_double (full-string validated, flag-named "
            "errors)"
        ),
        pattern=re.compile(r"std::sto[a-z]+\s*\(|\bstrtol{1,2}\s*\(|\bstrtou?ll?\s*\("),
        allowed_files=frozenset({"src/common/cli_args.cpp"}),
    ),
    Rule(
        name="naked-stream-write",
        description=(
            "raw ostream .write() outside the writer modules — binary "
            "writers must report failures with flag-named errors "
            "(failpoint::maybe_fail_stream + checked state), not "
            "silently truncate"
        ),
        pattern=re.compile(r"\.write\s*\("),
        allowed_files=frozenset({
            "src/common/binary_io.h",
            "src/graph/section_io.cpp",
            "src/graph/io.cpp",
            "src/graph/mapped_graph.cpp",
            "src/graph/snapshot_convert.cpp",
            "src/partition/partition_io.cpp",
            "src/bsp/checkpoint.cpp",
            "src/bsp/spill_store.cpp",
        }),
    ),
    Rule(
        name="unannotated-mutex",
        description=(
            "raw std::mutex / std::condition_variable — not a Clang "
            "capability, so guarded members can never be machine-"
            "checked; use ebv::Mutex / ebv::CondVar from common/sync.h"
        ),
        pattern=re.compile(r"std::(mutex|recursive_mutex|condition_variable)\b"),
        allowed_files=frozenset({"src/common/sync.h"}),
    ),
    Rule(
        name="inline-metric-name",
        description=(
            "metrics registry lookup with an inline string literal — "
            "metric names must be the kebab.dotted constants from "
            "src/obs/metric_names.h (one grep-able catalogue whose "
            "grammar is machine-checked; composites go through "
            "obs::suffixed)"
        ),
        pattern=re.compile(r"\.(counter|gauge|histogram)\s*\(\s*\""),
    ),
    Rule(
        name="tempfile-unique-id",
        description=(
            "temp-file name built without process_unique_suffix() — "
            "concurrent writers would clobber each other and the stale "
            "sweep (common/stale_sweep.h) cannot reclaim the file by "
            "pid after a crash"
        ),
        pattern=re.compile(r"\+\s*\"[^\"]*\.tmp[^\"]*\"|\"[^\"]*\.tmp[^\"]*\"\s*\+"),
        file_exempt=_uses_unique_suffix,
    ),
]

# Every string literal in the metric-name catalogue must follow the
# kebab.dotted grammar: lower-case kebab segments joined by dots, at
# least two dot segments ("serve.queue-wait-ms"). The inline-metric-name
# rule funnels all names through this file; this check is what makes the
# funnel worth having.
METRIC_NAME_FILE = "src/obs/metric_names.h"
METRIC_NAME_RULE = "metric-name-format"
METRIC_NAME_RE = re.compile(
    r"^[a-z0-9]+(-[a-z0-9]+)*(\.[a-z0-9]+(-[a-z0-9]+)*)+$")
STRING_LITERAL_RE = re.compile(r'"([^"\\]*)"')

# ebv::Mutex declarations must have an annotation partner: the declared
# name referenced by some EBV_* annotation in the same file (GUARDED_BY,
# REQUIRES, ACQUIRE, ..., ACQUIRED_BEFORE on the declaration itself).
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:ebv::)?Mutex\s+([A-Za-z_]\w*)\s*(?:;|\s+EBV_)")
MUTEX_PARTNER_RULE = "unannotated-mutex"


def strip_comments(lines):
    """Return lines with // and /* */ comment text blanked out (string
    literals are left alone; a // inside a literal is rare enough in
    this tree that the simpler scan wins)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            result.append(line[i])
            i += 1
        out.append("".join(result))
    return out


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def inline_allows(raw_lines, idx):
    """Rules allowed at raw_lines[idx]: same-line allow, or allows in the
    contiguous comment block immediately above."""
    allows = set()
    m = ALLOW_RE.search(raw_lines[idx])
    if m:
        allows.add(m.group(1))
    j = idx - 1
    while j >= 0 and COMMENT_ONLY_RE.match(raw_lines[j]):
        m = ALLOW_RE.search(raw_lines[j])
        if m:
            allows.add(m.group(1))
        j -= 1
    return allows


def lint_file(rel_path: str, raw_text: str):
    findings = []
    raw_lines = raw_text.splitlines()
    code_lines = strip_comments(raw_lines)
    code_text = "\n".join(code_lines)

    for rule in RULES:
        if rel_path in rule.allowed_files:
            continue
        if rule.file_exempt is not None and rule.file_exempt(code_text):
            continue
        for idx, line in enumerate(code_lines):
            if not rule.pattern.search(line):
                continue
            if rule.name in inline_allows(raw_lines, idx):
                continue
            findings.append(
                Finding(rel_path, idx + 1, rule.name, rule.description))

    # Grammar check for the metric-name catalogue itself.
    if rel_path == METRIC_NAME_FILE:
        for idx, line in enumerate(code_lines):
            for m in STRING_LITERAL_RE.finditer(line):
                name = m.group(1)
                if METRIC_NAME_RE.match(name):
                    continue
                if METRIC_NAME_RULE in inline_allows(raw_lines, idx):
                    continue
                findings.append(Finding(
                    rel_path, idx + 1, METRIC_NAME_RULE,
                    f'metric name "{name}" is not kebab.dotted (lower-'
                    f"case kebab segments joined by dots, at least two "
                    f"segments, e.g. \"serve.queue-wait-ms\")"))

    # Annotation-partner check for ebv::Mutex declarations.
    if rel_path != "src/common/sync.h":
        annotation_args = " ".join(
            re.findall(r"EBV_[A-Z_]+\s*\(([^)]*)\)", code_text))
        for idx, line in enumerate(code_lines):
            m = MUTEX_DECL_RE.match(line)
            if not m:
                continue
            name = m.group(1)
            if re.search(rf"\bEBV_[A-Z_]+\s*\(", line):
                continue  # annotated at the declaration (lock ordering)
            if re.search(rf"\b{re.escape(name)}\b", annotation_args):
                continue  # referenced by a GUARDED_BY/REQUIRES/... partner
            if MUTEX_PARTNER_RULE in inline_allows(raw_lines, idx):
                continue
            findings.append(Finding(
                rel_path, idx + 1, MUTEX_PARTNER_RULE,
                f"mutex '{name}' has no thread-safety annotation partner "
                f"(no EBV_GUARDED_BY/EBV_REQUIRES/... references it) — "
                f"annotate what it guards or add an inline allow with the "
                f"external ordering that substitutes"))
    return findings


def collect_files(root: str, explicit):
    if explicit:
        for p in explicit:
            rel = os.path.relpath(p, root) if os.path.isabs(p) else p
            yield rel.replace(os.sep, "/")
        return
    for base in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, base)):
            for fn in sorted(filenames):
                if fn.endswith(EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, fn), root)
                    yield rel.replace(os.sep, "/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("files", nargs="*",
                        help="repo-relative files to lint (default: all of "
                             "src/ and tools/)")
    args = parser.parse_args(argv)

    all_findings = []
    scanned = 0
    for rel in collect_files(args.root, args.files):
        full = os.path.join(args.root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"ebvlint: cannot read {full}: {e}", file=sys.stderr)
            return 2
        scanned += 1
        all_findings.extend(lint_file(rel, text))

    for finding in all_findings:
        print(finding.render())
    if all_findings:
        print(f"ebvlint: {len(all_findings)} finding(s) in {scanned} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"ebvlint: clean ({scanned} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
