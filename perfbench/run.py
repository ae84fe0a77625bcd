#!/usr/bin/env python3
"""The repository's benchmark: one command, one single-threaded process.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 45 \\
        --trace 0

Every run drives three stages in turn (``train_eval``, ``fleet_serve``,
``online_round``; see ``workloads.py``), each as a closed loop of units
that gets a fixed share of ``--seconds``.  The first unit of each stage
is a warm-up whose timings are discarded.  The process keeps to one CPU.
The workload picks the drive cycles all stages use; the seed picks the
controller, exploration and training-start streams, the served Q-table
and the fleet population.

``--trace 0`` prints the end-to-end metrics: times are scaled to a
reference host speed measured by probes that run beside the program (see
``hostspeed.py``), and each metric is a median over the run.
``--trace 1`` alternates untraced and traced units of every stage and
prints the per-layer ledger (calls, self time per call, share of wall per
layer, see ``ledger.py``), the kernel cost model, the ledger residual and
the tracing overhead; these times are not scaled.

Outputs are checked: units of one seed must reproduce their results bit
for bit, traced units must reproduce the untraced ones, and nothing may
be shed, quarantined, refused or non-finite.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a failed check exits 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STAGE_SHARES = (("train_eval", 0.35), ("fleet_serve", 0.15),
                ("online_round", 0.50))
MIN_UNITS = 3
SETUP_PROBES = 5
SETUP_SPEED_PROBES = 40
SETUP_TIMEOUT_S = 60
LEDGER_TOLERANCE = 0.02
"""Largest share of a traced stage's wall time that may fall outside the
ledger's wrapped calls (or be double-counted) before the run fails."""

END_TO_END = (
    ("train_steps_per_s", "1/s"),
    ("eval_steps_per_s", "1/s"),
    ("control_step_p50_us", "us"),
    ("eval_paper_cost", "reward"),
    ("fleet_decisions_per_s", "1/s"),
    ("fleet_request_p50_ms", "ms"),
    ("online_round_s", "s"),
    ("online_records_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _single_threaded() -> None:
    """One BLAS thread, and one CPU for this process and its children, so
    the host-speed probes and the program always share a CPU."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _median(values) -> float:
    return float(statistics.median(values))


def _interleaved(units: dict, seconds: float,
                 min_units: int = MIN_UNITS) -> dict:
    """Run each stage's unit back to back, interleaving the stages.

    The next unit goes to the stage furthest below its share of the time
    spent so far, so every stage samples the whole run rather than one
    stretch of it.  Stops once the time is spent and every stage has run
    ``min_units`` units.
    """
    shares = dict(STAGE_SHARES)
    spent = dict.fromkeys(units, 0.0)
    results = {stage: [] for stage in units}
    end = time.perf_counter() + seconds
    while True:
        short = [s for s in units if len(results[s]) < min_units]
        if not short and time.perf_counter() >= end:
            return results
        stage = min(short or units, key=lambda s: spent[s] / shares[s])
        start = time.perf_counter()
        results[stage].append(units[stage]())
        spent[stage] += time.perf_counter() - start


class Checks:
    """Collects output-check failures; any failure fails the run."""

    def __init__(self):
        self.failures = []

    def same(self, what: str, values) -> None:
        values = list(values)
        if any(v != values[0] for v in values[1:]):
            self.failures.append(
                f"{what} differs between units of one seed: {values!r}")

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)


def _check_stage(checks: Checks, stage: str, units: list) -> None:
    checks.same(f"{stage} outputs", [u["outputs"] for u in units])
    checks.true(f"{stage}: {sum(u['failed'] for u in units)} failed "
                "operations", all(u["failed"] == 0 for u in units))


def _check_outputs(checks: Checks, sizes, units: dict) -> None:
    for stage, stage_units in units.items():
        _check_stage(checks, stage, stage_units)
    for u in units["train_eval"]:
        checks.true("train_eval: non-finite drive totals",
                    all(math.isfinite(x) for pair in u["outputs"]
                        for x in pair))
    expected = sizes.fleet_vehicles * sizes.fleet_ticks
    for u in units["fleet_serve"]:
        checks.true(f"fleet_serve: {u['decisions']} decisions, expected "
                    f"vehicles x ticks = {expected}",
                    u["decisions"] == expected)
    for u in units["online_round"]:
        checks.true(f"online_round: {u['streamed']} records streamed but "
                    f"{u['ingested']} ingested",
                    u["streamed"] == u["ingested"] > 0)


def _setup_seconds(args, probe_root: Path, hs) -> list:
    """Set-up time of fresh processes that import and build every stage,
    each at the reference host speed (``hostspeed.py``) of the probe
    bursts taken just before and after it."""
    samples = []
    for i in range(SETUP_PROBES):
        workdir = probe_root / f"setup-{i}"
        hs.burst(SETUP_SPEED_PROBES)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(workdir)],
            check=True, timeout=SETUP_TIMEOUT_S, cwd=str(ROOT),
            stdout=subprocess.DEVNULL)
        end = time.perf_counter()
        hs.burst(SETUP_SPEED_PROBES)
        samples.append((end - start) * hs.factor(
            start, end, min_probes=2 * SETUP_SPEED_PROBES))
        shutil.rmtree(workdir, ignore_errors=True)
    return samples


def _units(args, sizes, workdir: Path, hs=None):
    """The unit callables of the three stages, in order.  With a host-speed
    sampler ``hs``, control steps and requests are timed without the
    probes' time."""
    import workloads as w
    wl = w.WORKLOADS[args.workload]
    table, fingerprint = w.seeded_policy(args.seed)
    registry = w.publish(workdir / "registry", table, fingerprint)
    counter = itertools.count()
    act_clock = w.clock if hs is None else hs.work_clock
    server_clock = time.monotonic if hs is None else hs.work_clock

    def train_eval(record=False):
        return w.train_eval_unit(wl, sizes, args.seed, record, act_clock)

    def fleet_serve():
        return w.fleet_unit(wl, sizes, args.seed, registry, server_clock)

    def online_round():
        return w.online_unit(wl, sizes, args.seed,
                             workdir / f"online-{next(counter)}", table,
                             fingerprint)

    return train_eval, fleet_serve, online_round


def measure(args, sizes, workdir: Path) -> tuple:
    """End-to-end run: returns (checks, units per stage, metrics).

    Every time is taken over a window of one unit or episode and scaled
    to the reference host speed (``hostspeed.py``); each metric is the
    median over the run's units or episodes.
    """
    import numpy as np
    from hostspeed import REFERENCE_PROBE_S, HostSpeed
    hs = HostSpeed()
    setup = _setup_seconds(args, workdir, hs)
    train_eval, fleet_serve, online_round = _units(args, sizes, workdir, hs)
    with hs:
        units = _interleaved({"train_eval": train_eval,
                              "fleet_serve": fleet_serve,
                              "online_round": online_round}, args.seconds)
    checks = Checks()
    _check_outputs(checks, sizes, units)

    # The first unit of each stage is a warm-up.
    te = units["train_eval"][1:]
    episodes = [ep for u in te for ep in u["episodes"]]
    fl = units["fleet_serve"][1:]
    on = units["online_round"][1:]
    sec = lambda u: hs.seconds(*u["window"])  # noqa: E731
    values = {
        "train_steps_per_s": _median(
            len(act) / hs.seconds(start, end)
            for learn, start, end, act in episodes if learn),
        "eval_steps_per_s": _median(
            len(act) / hs.seconds(start, end)
            for learn, start, end, act in episodes if not learn),
        "control_step_p50_us": _median(
            np.percentile(act, 50) * 1e6 * hs.factor(start, end)
            for _, start, end, act in episodes),
        "eval_paper_cost": -units["train_eval"][0]["paper_reward"],
        "fleet_decisions_per_s": _median(u["decisions"] / sec(u)
                                         for u in fl),
        "fleet_request_p50_ms": _median(
            np.percentile(u["latencies_s"], 50) * 1e3
            * hs.factor(*u["window"]) for u in fl),
        "online_round_s": _median(sec(u) / u["rounds"] for u in on),
        "online_records_per_s": _median(u["ingested"] / sec(u) for u in on),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"samples: {len(episodes)} episodes, {len(fl)} fleet units, "
          f"{len(on)} online units, {len(setup)} setup probes; median "
          f"host probe {hs.median_probe_s() * 1e6:.1f} us (reference "
          f"{REFERENCE_PROBE_S * 1e6:.1f} us)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return checks, units, metrics


def _layer_metrics(stage: str, specs, ledgers: list, walls: list) -> dict:
    """calls per unit, self time per call and share of wall per layer."""
    from ledger import layers_of
    out = {}
    total_wall = sum(walls)
    for layer in layers_of(specs):
        calls = ledgers[0][0][layer]
        self_s = sum(led[1][layer] for led in ledgers)
        per_call = self_s / (calls * len(ledgers)) if calls else 0.0
        out[f"{stage}.{layer}.calls"] = (calls, "count")
        out[f"{stage}.{layer}.self_us"] = (per_call * 1e6, "us")
        out[f"{stage}.{layer}.share_pct"] = (100.0 * self_s / total_wall,
                                             "%")
    return out


def trace(args, sizes, workdir: Path) -> tuple:
    """Traced run: returns (checks, units per stage, per-layer metrics)."""
    import ledger as lg
    import workloads as w
    train_eval, fleet_serve, online_round = _units(args, sizes, workdir)
    specs = {"train_eval": lg.TRAIN_EVAL_SPECS,
             "fleet_serve": lg.FLEET_SPECS,
             "online_round": lg.ONLINE_SPECS}
    stage_units = {
        "train_eval": lambda: train_eval(record=True),
        "fleet_serve": fleet_serve,
        "online_round": online_round,
    }
    warm = {stage: unit() for stage, unit in stage_units.items()}
    plain = {stage: [] for stage in stage_units}
    traced = {stage: [] for stage in stage_units}
    ledgers = {stage: [] for stage in stage_units}

    def pair(stage):
        """One untraced and one traced unit; returns the ledger residual."""
        plain[stage].append(stage_units[stage]())
        with lg.Ledger(specs[stage]) as led:
            traced[stage].append(stage_units[stage]())
        ledgers[stage].append((dict(led.calls), dict(led.self_s)))
        return lg.residual(led.self_s, traced[stage][-1]["wall_s"])

    residuals = _interleaved(
        {stage: (lambda stage=stage: pair(stage)) for stage in stage_units},
        args.seconds, min_units=2)

    checks = Checks()
    units, metrics = {}, {}
    for stage in stage_units:
        units[stage] = [warm[stage]] + plain[stage] + traced[stage]
        checks.same(f"{stage} per-unit layer call counts",
                    [led[0] for led in ledgers[stage]])
        walls = [u["wall_s"] for u in traced[stage]]
        metrics.update(_layer_metrics(stage, specs[stage], ledgers[stage],
                                      walls))
        worst = max(residuals[stage], key=abs)
        checks.true(f"{stage}: the ledger does not reconcile; layer self "
                    f"times miss {worst:+.2%} of the traced wall time "
                    f"(tolerance {LEDGER_TOLERANCE:.0%})",
                    abs(worst) <= LEDGER_TOLERANCE)
        metrics[f"{stage}.ledger_residual_pct"] = (100.0 * worst, "%")
        overhead = (_median(walls)
                    / _median(u["wall_s"] for u in plain[stage]) - 1.0)
        metrics[f"{stage}.tracing_overhead_pct"] = (100.0 * overhead, "%")
        metrics[f"{stage}.attempted"] = (warm[stage]["attempted"], "count")
        metrics[f"{stage}.failed"] = (warm[stage]["failed"], "count")
    _check_outputs(checks, sizes, units)

    # Even scaled to the reference host speed, the p99 tails spread by
    # 13-19% IQR/median over ten runs, so they are reported here, from the
    # untraced units, rather than gated.
    import numpy as np
    metrics["train_eval.control_step_p99_us"] = (_median(
        np.percentile(act, 99) * 1e6
        for u in plain["train_eval"] for *_, act in u["episodes"]), "us")
    metrics["fleet_serve.fleet_request_p99_ms"] = (_median(
        np.percentile(u["latencies_s"], 99) * 1e3
        for u in plain["fleet_serve"]), "ms")

    te, fl, on = (units[s][0] for s in ("train_eval", "fleet_serve",
                                        "online_round"))
    train_cycle_steps = te["train_steps"] // sizes.train_episodes
    model = w.kernel_cost_model(te["observations"][:train_cycle_steps:10])
    kernel_calls = metrics["train_eval.powertrain.solver.calls"][0]
    extra = {
        "powertrain.solver.fixed_us": (model["fixed_us"], "us"),
        "powertrain.solver.per_action_ns": (model["per_action_ns"], "ns"),
        "powertrain.solver.fit_residual_pct": (model["fit_residual_pct"],
                                               "%"),
        "train_eval.powertrain.solver.actions_per_call": (
            w.kernel_actions(), "count"),
        "train_eval.powertrain.solver.actions": (
            kernel_calls * w.kernel_actions(), "count"),
        "train_eval.train_steps": (te["train_steps"], "count"),
        "train_eval.eval_steps": (te["eval_steps"], "count"),
        "fleet_serve.serve.server.requests": (fl["requests"], "count"),
        "fleet_serve.serve.server.decisions_per_request": (
            fl["decisions"] / fl["requests"], "count"),
        "fleet_serve.serve.server.cache_hits": (fl["cache_hits"], "count"),
        "fleet_serve.serve.server.cache_hit_ratio": (
            fl["cache_hits"] / (fl["cache_hits"] + fl["cache_misses"]),
            "ratio"),
        "fleet_serve.serve.fleet.decisions": (fl["decisions"], "count"),
        "fleet_serve.serve.fleet.limp_decisions": (fl["limp"], "count"),
        "online_round.learn.journal.records": (on["streamed"], "count"),
        "online_round.learn.journal.bytes_per_record": (
            on["journal_bytes"] / on["streamed"], "B"),
        "online_round.learn.learner.records_ingested": (on["ingested"],
                                                        "count"),
        "online_round.learn.learner.quarantined": (on["quarantined"],
                                                   "count"),
        "online_round.learn.promotion.canary_rounds": (on["canary_rounds"],
                                                       "count"),
        "online_round.learn.promotion.canary_decisions": (
            on["canary_decisions"], "count"),
        "online_round.learn.promotion.promoted": (on["promoted"], "count"),
    }
    metrics.update(extra)
    return checks, units, {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC}/repro); "
              "run from a full checkout", file=sys.stderr)
        return 2
    _single_threaded()
    sys.path.insert(0, str(SRC))
    import workloads as w
    if args.workload not in w.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(w.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = w.Sizes()
    if args.setup_probe:
        w.setup(w.WORKLOADS[args.workload], sizes, args.seed,
                Path(args.setup_probe))
        return 0

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        run = trace if args.trace else measure
        checks, units, metrics = run(args, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for name, m in metrics.items():
        print(f"{name:58s} {m['value']:16.6g} {m['unit']}")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    every = [u for stage_units in units.values() for u in stage_units]
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": sum(u["attempted"] for u in every),
        "failed": sum(u["failed"] for u in every),
        "metrics": metrics,
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
