#!/usr/bin/env python3
"""Tripwire: machine-readable bench results stay valid and fast.

Two duties:

1. **Schema validation** — every ``BENCH_*.json`` (the repo-root
   trajectory baselines and ``benchmarks/results/``) must conform to the
   shared schema emitted by :func:`benchmarks.common.emit_json`: an object
   with ``benchmark`` (str), ``schema_version`` (int), ``git_rev`` (str),
   ``timestamp`` (ISO-8601 string), and a non-empty ``metrics`` list of
   ``{"name": str, "value": finite number, "units": str}``.
2. **Throughput regression** — ``--compare NEW BASELINE`` additionally
   fails when a gated higher-is-better metric drops more than
   ``--tolerance`` (default 20%) below BASELINE's: the step pipeline's
   ``vectorized_speedup``, the fleet server's
   ``batched_decision_speedup`` and the experience journal's
   ``journal_pipeline_speedup``.  Speedup ratios are compared rather
   than absolute throughput so the gate holds on machines slower or
   faster than the one that produced the baseline; pass ``--absolute``
   to also gate the machine-dependent metrics when old and new runs
   share one machine: higher-is-better ``steps_per_sec_vectorized``,
   ``decisions_per_sec`` and ``experience_records_per_sec`` floors,
   plus the lower-is-better ``regression_recovery_p99_ms`` ceiling.
   Metrics absent from the baseline are skipped, so one gate serves
   every ``BENCH_*.json`` pair.

Exits non-zero listing every violation.  Run from anywhere:
``python scripts/check_bench_schema.py [--compare NEW BASELINE]``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

RATIO_METRICS = ("vectorized_speedup", "batched_decision_speedup",
                 "journal_pipeline_speedup")
"""Machine-independent higher-is-better metrics gated by ``--compare``."""

ABSOLUTE_METRICS = ("steps_per_sec_vectorized", "decisions_per_sec",
                    "experience_records_per_sec")
"""Machine-dependent higher-is-better metrics gated only with
``--absolute``."""

CEILING_METRICS = ("regression_recovery_p99_ms",)
"""Machine-dependent *lower-is-better* latency metrics gated only with
``--absolute``: the fresh value may not exceed the baseline by more
than the tolerance."""


def validate(path: Path) -> List[str]:
    """Schema problems of one bench JSON file (empty when valid)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    problems = []
    if not isinstance(payload, dict):
        return [f"{path}: top level must be a JSON object"]
    for key, kind in (("benchmark", str), ("schema_version", int),
                      ("git_rev", str), ("timestamp", str),
                      ("metrics", list)):
        if not isinstance(payload.get(key), kind):
            problems.append(
                f"{path}: field {key!r} missing or not {kind.__name__}")
    metrics = payload.get("metrics")
    if isinstance(metrics, list):
        if not metrics:
            problems.append(f"{path}: metrics list is empty")
        for i, entry in enumerate(metrics):
            if not isinstance(entry, dict):
                problems.append(f"{path}: metrics[{i}] is not an object")
                continue
            if not isinstance(entry.get("name"), str) or not entry.get("name"):
                problems.append(f"{path}: metrics[{i}] has no name")
            value = entry.get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(value):
                problems.append(
                    f"{path}: metrics[{i}] value is not a finite number")
            if not isinstance(entry.get("units"), str):
                problems.append(f"{path}: metrics[{i}] has no units")
    return problems


def metric_values(path: Path) -> Dict[str, float]:
    """``{name: value}`` of one validated bench JSON file."""
    payload = json.loads(path.read_text())
    return {m["name"]: float(m["value"]) for m in payload["metrics"]}


def compare(new: Path, baseline: Path, tolerance: float,
            absolute: bool) -> List[str]:
    """Regression problems of ``new`` vs ``baseline`` (empty when OK)."""
    fresh = metric_values(new)
    old = metric_values(baseline)
    gated = RATIO_METRICS + (ABSOLUTE_METRICS if absolute else ())
    problems = []
    for name in gated:
        if name not in old:
            continue  # baseline predates the metric; nothing to gate
        if name not in fresh:
            problems.append(
                f"{new}: metric {name!r} present in baseline {baseline} "
                "but missing from the fresh run")
            continue
        floor = (1.0 - tolerance) * old[name]
        if fresh[name] < floor:
            drop = 100.0 * (1.0 - fresh[name] / old[name])
            problems.append(
                f"{new}: {name} regressed {drop:.1f}% "
                f"({fresh[name]:.2f} vs baseline {old[name]:.2f}, "
                f"tolerance {100 * tolerance:.0f}%)")
    for name in (CEILING_METRICS if absolute else ()):
        if name not in old:
            continue
        if name not in fresh:
            problems.append(
                f"{new}: metric {name!r} present in baseline {baseline} "
                "but missing from the fresh run")
            continue
        ceiling = (1.0 + tolerance) * old[name]
        if fresh[name] > ceiling:
            rise = 100.0 * (fresh[name] / old[name] - 1.0)
            problems.append(
                f"{new}: {name} regressed {rise:.1f}% upward "
                f"({fresh[name]:.2f} vs baseline {old[name]:.2f}, "
                f"tolerance {100 * tolerance:.0f}%)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compare", nargs=2, metavar=("NEW", "BASELINE"),
                        help="also gate NEW's throughput against BASELINE")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop (default 0.20)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate machine-dependent absolute metrics")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    candidates = sorted(root.glob("BENCH_*.json")) + sorted(
        (root / "benchmarks" / "results").glob("BENCH_*.json"))
    if args.compare:
        candidates.extend(Path(p) for p in args.compare)
    seen = []
    for path in candidates:
        if path.resolve() not in [p.resolve() for p in seen]:
            seen.append(path)
    if not seen:
        print("check_bench_schema: FAIL", file=sys.stderr)
        print("  no BENCH_*.json files found (has the throughput bench "
              "ever been run?)", file=sys.stderr)
        return 1

    problems = []
    for path in seen:
        problems.extend(validate(path))
    if not problems and args.compare:
        problems.extend(compare(Path(args.compare[0]),
                                Path(args.compare[1]),
                                args.tolerance, args.absolute))
    if problems:
        print("check_bench_schema: FAIL", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    gate = " + regression gate" if args.compare else ""
    print(f"check_bench_schema: OK ({len(seen)} file(s) valid{gate})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
