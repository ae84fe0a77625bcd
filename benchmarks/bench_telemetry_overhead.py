"""Telemetry overhead bench: the cost of full instrumentation.

Runs the same RL training workload as ``bench_throughput.py`` twice —
once with telemetry disabled (``Simulator(solver)``, the production
default) and once writing spans, sampled step events, and metrics to a
JSONL sink — and reports steps/sec for both plus the relative overhead:
best leg over best leg, and the median and interquartile range of the
per-repeat paired overheads.
The observability tentpole's acceptance budget is **< 5 % overhead**
with the default 1-in-50 step sampling.

A second, ungated leg prices telemetry on the serving path: a fleet of
:data:`FLEET_VEHICLES` vehicles x :data:`FLEET_STEPS` ticks driven
against a :class:`repro.serve.PolicyServer` with and without a
:class:`repro.telemetry.Telemetry` attached (one ``serve.decision``
span and histogram observation per request): a warm-up run, then one
adjacent disabled/enabled pair per repeat, reported as the median
decisions/sec of each leg plus the median and IQR of the paired
overheads.

Emits ``benchmarks/results/BENCH_telemetry_overhead.json`` (schema in
``benchmarks/common.py``; validated by ``scripts/check_bench_schema.py``).
Run ``python benchmarks/bench_telemetry_overhead.py --baseline`` to also
refresh the committed trajectory baseline ``BENCH_telemetry_overhead.json``
at the repo root.  Environment knobs:
``REPRO_BENCH_TELEMETRY_EPISODES`` (default 3, per leg),
``REPRO_BENCH_TELEMETRY_REPEATS`` (default 3, best-of legs), and
``REPRO_BENCH_TELEMETRY_CYCLE`` (default ``udds``).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.serve import FleetConfig, FleetSimulator, PolicyRegistry, \
    PolicyServer
from repro.sim import Simulator, train
from repro.telemetry import Telemetry
from repro.vehicle import default_vehicle

from benchmarks.common import SEED, emit_json, metric, report

_ROOT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_telemetry_overhead.json")

OVERHEAD_BUDGET_PCT = 5.0
"""Acceptance ceiling for the instrumented-over-plain slowdown."""

FLEET_VEHICLES = 8192
"""Population of the serving leg's fleet run."""

FLEET_STEPS = 120
"""Ticks of the serving leg's fleet run."""


def _episodes() -> int:
    return int(os.environ.get("REPRO_BENCH_TELEMETRY_EPISODES", 3))


def _cycle_name() -> str:
    return os.environ.get("REPRO_BENCH_TELEMETRY_CYCLE", "udds")


def _repeats() -> int:
    return int(os.environ.get("REPRO_BENCH_TELEMETRY_REPEATS", 3))


def _measure(cycle, episodes: int, telemetry: Optional[Telemetry]) -> dict:
    """Train ``episodes`` drives of ``cycle``; return throughput figures."""
    solver = PowertrainSolver(default_vehicle())
    simulator = Simulator(solver, telemetry=telemetry)
    controller = build_rl_controller(solver, variant="proposed", seed=SEED)
    t0 = time.perf_counter()
    train(simulator, controller, cycle, episodes=episodes,
          evaluate_after=False, seed=SEED)
    elapsed = time.perf_counter() - t0
    steps = episodes * (len(cycle) - 1)
    return {"steps_per_sec": steps / elapsed, "steps": steps,
            "elapsed_s": elapsed}


def _serving_registry(root: Path) -> PolicyRegistry:
    """A registry holding one seeded random policy as version 1."""
    agent = build_rl_controller(PowertrainSolver(default_vehicle()),
                                seed=SEED).agent
    table = np.random.default_rng(SEED).normal(
        size=agent.learner.qtable.values.shape)
    registry = PolicyRegistry(root)
    registry.publish_table(table, _fingerprint(agent))
    return registry


def _measure_serving(registry: PolicyRegistry,
                     telemetry: Optional[Telemetry]) -> float:
    """Decisions/sec of one fleet run against a fresh server."""
    server = PolicyServer(registry, telemetry=telemetry)
    server.activate(registry.load(1))
    result = FleetSimulator(server, FleetConfig(
        vehicles=FLEET_VEHICLES, steps=FLEET_STEPS, seed=SEED)).run()
    return result.decisions_per_sec


def _serving_legs() -> tuple:
    """Per-repeat (disabled, enabled) decisions/sec of the serving leg.

    Same discipline as the training legs: one warm-up run, then adjacent
    disabled/enabled pairs, one per repeat.
    """
    disabled, enabled = [], []
    with tempfile.TemporaryDirectory() as tmp:
        registry = _serving_registry(Path(tmp) / "registry")
        _measure_serving(registry, None)
        for rep in range(_repeats()):
            disabled.append(_measure_serving(registry, None))
            with Telemetry(os.path.join(tmp, f"serve-{rep}.jsonl")) \
                    as telemetry:
                enabled.append(_measure_serving(registry, telemetry))
    return np.asarray(disabled), np.asarray(enabled)


def run_bench(write_baseline: bool = False) -> dict:
    """Run both legs and emit the JSON + rendered table."""
    cycle = standard_cycle(_cycle_name())
    episodes = _episodes()

    # Warm-up leg so import costs and allocator warm-up hit neither
    # measured leg; then interleave the two legs and keep the best of
    # each (scheduler noise on a shared box dwarfs the effect measured).
    # Each repeat's adjacent pair also gives one paired overhead; their
    # median and interquartile range say whether the effect is resolved.
    _measure(cycle, 1, None)
    plain = {"steps_per_sec": 0.0}
    instrumented = {"steps_per_sec": 0.0}
    events = 0
    paired = []
    for rep in range(_repeats()):
        off = _measure(cycle, episodes, None)
        if off["steps_per_sec"] > plain["steps_per_sec"]:
            plain = off
        with tempfile.TemporaryDirectory() as tmp:
            with Telemetry(os.path.join(tmp, "bench.jsonl")) as telemetry:
                on = _measure(cycle, episodes, telemetry)
            events = sum(1 for _ in open(os.path.join(tmp, "bench.jsonl")))
        if on["steps_per_sec"] > instrumented["steps_per_sec"]:
            instrumented = on
        paired.append(100.0 * (off["steps_per_sec"] / on["steps_per_sec"]
                               - 1.0))
    serve_off, serve_on = _serving_legs()

    overhead_pct = 100.0 * (plain["steps_per_sec"]
                            / instrumented["steps_per_sec"] - 1.0)
    q1, median, q3 = np.percentile(paired, [25, 50, 75])
    serve_paired = 100.0 * (serve_off / serve_on - 1.0)
    sq1, smedian, sq3 = np.percentile(serve_paired, [25, 50, 75])
    serve_plain = float(np.median(serve_off))
    serve_instrumented = float(np.median(serve_on))

    metrics = [
        metric("steps_per_sec_disabled", plain["steps_per_sec"], "steps/s"),
        metric("steps_per_sec_enabled", instrumented["steps_per_sec"],
               "steps/s"),
        metric("overhead_pct", overhead_pct, "%"),
        metric("overhead_pct_paired_median", median, "%"),
        metric("overhead_pct_paired_iqr", q3 - q1, "%"),
        metric("repeats", len(paired), "count"),
        metric("events_written", events, "count"),
        metric("workload_episodes", episodes, "count"),
        metric("workload_steps", plain["steps"], "count"),
        metric("serve_decisions_per_sec_disabled", serve_plain, "1/s"),
        metric("serve_decisions_per_sec_enabled", serve_instrumented,
               "1/s"),
        metric("serve_overhead_pct_paired_median", smedian, "%"),
        metric("serve_overhead_pct_paired_iqr", sq3 - sq1, "%"),
    ]

    lines = [
        "Telemetry overhead: RL training workload "
        f"({_cycle_name().upper()}, {episodes} episode(s) per leg)",
        "",
        f"{'telemetry':12s} {'steps/s':>10s} {'elapsed s':>10s}",
        f"{'disabled':12s} {plain['steps_per_sec']:10.1f} "
        f"{plain['elapsed_s']:10.2f}",
        f"{'enabled':12s} {instrumented['steps_per_sec']:10.1f} "
        f"{instrumented['elapsed_s']:10.2f}",
        "",
        f"overhead: {overhead_pct:.2f}% "
        f"(budget < {OVERHEAD_BUDGET_PCT:.0f}%), "
        f"{events} events written",
        f"paired per repeat: median {median:.2f}% "
        f"[IQR {q1:.2f} to {q3:.2f}] over {len(paired)} repeats",
        "",
        f"Serving leg (ungated): fleet {FLEET_VEHICLES} vehicles x "
        f"{FLEET_STEPS} ticks, median decisions/s "
        f"{serve_plain:,.0f} disabled, {serve_instrumented:,.0f} enabled",
        f"paired per repeat: median {smedian:.2f}% "
        f"[IQR {sq1:.2f} to {sq3:.2f}] over {len(serve_paired)} repeats",
    ]
    report("telemetry_overhead", "\n".join(lines), metrics=metrics)
    if write_baseline:
        emit_json("telemetry_overhead", metrics, path=_ROOT_BASELINE)
    return {"overhead_pct": overhead_pct,
            "serve_overhead_pct": float(smedian), "metrics": metrics}


def test_telemetry_overhead_within_budget():
    """The tentpole's acceptance criterion: < 5% instrumented slowdown."""
    outcome = run_bench()
    assert outcome["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"telemetry overhead {outcome['overhead_pct']:.2f}% exceeds the "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget")


if __name__ == "__main__":
    result = run_bench(write_baseline="--baseline" in sys.argv[1:])
    print(f"overhead: {result['overhead_pct']:.2f}%")
