"""Throughput bench: the perf trajectory of the vectorized step pipeline.

Measures the built-in-cycle RL training workload (the paper's Section 4
loop: one full battery-current x gear x aux grid evaluation per 1 Hz step)
through three solver back ends:

* **vectorized** — the production :class:`PowertrainSolver` hot path
  (persistent action-grid workspace + single struct-of-arrays pass),
* **batched reference** — the frozen pre-refactor implementation
  (:class:`ReferencePowertrainSolver`): vectorised but re-allocating the
  grid and every intermediate per step,
* **scalar reference** — :class:`ScalarReferenceSolver`, the pre-refactor
  *scalar* path that resolves each candidate action on its own
  (what per-action evaluation costs; the refactor's "before" figure).

Emits ``benchmarks/results/BENCH_throughput.json`` (schema in
``benchmarks/common.py``; validated by ``scripts/check_bench_schema.py``)
with steps/sec and episodes/sec per back end, the p50/p99 per-step act
latency of the vectorized path, and the vectorized-over-scalar speedup.
Run ``python benchmarks/bench_throughput.py --baseline`` to also refresh
the committed trajectory baseline ``BENCH_throughput.json`` at the repo
root.  Environment knobs: ``REPRO_BENCH_THROUGHPUT_EPISODES`` (default 3),
``REPRO_BENCH_THROUGHPUT_CYCLE`` (default ``udds``), and
``REPRO_BENCH_THROUGHPUT_SCALAR_STEPS`` (default 120) for the slow scalar
leg, split evenly over the :data:`ROUNDS` alternating rounds.
"""

from __future__ import annotations

import os
import sys
import time
from typing import List

import numpy as np

from repro.control.base import Controller
from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.powertrain import PowertrainSolver
from repro.powertrain.reference import (
    ReferencePowertrainSolver,
    ScalarReferenceSolver,
)
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle

from benchmarks.common import SEED, emit_json, metric, report

_ROOT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_throughput.json")


ROUNDS = 5
"""Alternating rounds of the three legs.  Each leg reports its fastest
round, so a slow stretch of a shared host that hits one leg but not the
other does not tilt ``vectorized_speedup``."""


def _episodes() -> int:
    return int(os.environ.get("REPRO_BENCH_THROUGHPUT_EPISODES", 3))


def _cycle_name() -> str:
    return os.environ.get("REPRO_BENCH_THROUGHPUT_CYCLE", "udds")


def _scalar_steps() -> int:
    return int(os.environ.get("REPRO_BENCH_THROUGHPUT_SCALAR_STEPS", 120))


class _TimedController(Controller):
    """Delegating wrapper that records per-``act`` wall latency."""

    def __init__(self, inner: Controller):
        self.inner = inner
        self.latencies: List[float] = []

    def begin_episode(self) -> None:
        self.inner.begin_episode()

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False):
        t0 = time.perf_counter()
        step = self.inner.act(speed, acceleration, soc, dt, grade,
                              learn=learn, greedy=greedy)
        self.latencies.append(time.perf_counter() - t0)
        return step

    def finish_episode(self, learn: bool = True) -> None:
        self.inner.finish_episode(learn=learn)


def _measure(solver_cls, cycle, episodes: int) -> dict:
    """Train ``episodes`` drives of ``cycle``; return throughput figures."""
    solver = solver_cls(default_vehicle())
    simulator = Simulator(solver)
    controller = _TimedController(
        build_rl_controller(solver, variant="proposed", seed=SEED))
    t0 = time.perf_counter()
    train(simulator, controller, cycle, episodes=episodes,
          evaluate_after=False, seed=SEED)
    elapsed = time.perf_counter() - t0
    steps = episodes * (len(cycle) - 1)
    latencies_ms = 1e3 * np.asarray(controller.latencies)
    return {
        "steps_per_sec": steps / elapsed,
        "episodes_per_sec": episodes / elapsed,
        "p50_ms": float(np.percentile(latencies_ms, 50)),
        "p99_ms": float(np.percentile(latencies_ms, 99)),
        "steps": steps,
        "elapsed_s": elapsed,
    }


def run_bench(write_baseline: bool = False) -> dict:
    """Run all three legs and emit the JSON + rendered table."""
    cycle = standard_cycle(_cycle_name())
    episodes = _episodes()
    # The reference legs are too slow for a whole cycle; measure them on a
    # *moving* window (idle steps hit the cheap standstill path and would
    # flatter the slow implementations).  The scalar-step budget is split
    # over the rounds, each of which drives the same window.
    moving = np.nonzero(cycle.speeds > 1.0)[0]
    start = int(moving[0]) if len(moving) else 0
    window = max(1, _scalar_steps() // ROUNDS)
    stop = min(start + window + 1, len(cycle))
    scalar_cycle = cycle.slice(start, stop)

    legs = ((PowertrainSolver, cycle, episodes),
            (ReferencePowertrainSolver, scalar_cycle, 1),
            (ScalarReferenceSolver, scalar_cycle, 1))
    best = [None] * len(legs)
    for _ in range(ROUNDS):
        for i, leg in enumerate(legs):
            result = _measure(*leg)
            if (best[i] is None
                    or result["steps_per_sec"] > best[i]["steps_per_sec"]):
                best[i] = result
    fast, batched, scalar = best
    speedup = fast["steps_per_sec"] / scalar["steps_per_sec"]

    metrics = [
        metric("steps_per_sec_vectorized", fast["steps_per_sec"],
               "steps/s"),
        metric("episodes_per_sec_vectorized", fast["episodes_per_sec"],
               "episodes/s"),
        metric("step_latency_p50", fast["p50_ms"], "ms"),
        metric("step_latency_p99", fast["p99_ms"], "ms"),
        metric("steps_per_sec_batched_reference",
               batched["steps_per_sec"], "steps/s"),
        metric("steps_per_sec_scalar", scalar["steps_per_sec"], "steps/s"),
        metric("vectorized_speedup", speedup, "x"),
        metric("workload_episodes", episodes, "count"),
        metric("workload_steps", fast["steps"], "count"),
    ]

    lines = [
        "Throughput: RL training workload "
        f"({_cycle_name().upper()}, {episodes} episode(s)), "
        f"best of {ROUNDS} alternating rounds per leg",
        "(scalar/batched reference legs measured on a moving "
        f"{len(scalar_cycle) - 1}-step window, samples "
        f"[{start}:{stop}))",
        "",
        f"{'path':22s} {'steps/s':>10s} {'episodes/s':>11s} "
        f"{'p50 ms':>8s} {'p99 ms':>8s}",
        f"{'vectorized':22s} {fast['steps_per_sec']:10.1f} "
        f"{fast['episodes_per_sec']:11.3f} {fast['p50_ms']:8.2f} "
        f"{fast['p99_ms']:8.2f}",
        f"{'batched reference':22s} {batched['steps_per_sec']:10.1f} "
        f"{batched['episodes_per_sec']:11.3f} {batched['p50_ms']:8.2f} "
        f"{batched['p99_ms']:8.2f}",
        f"{'scalar reference':22s} {scalar['steps_per_sec']:10.1f} "
        f"{scalar['episodes_per_sec']:11.3f} {scalar['p50_ms']:8.2f} "
        f"{scalar['p99_ms']:8.2f}",
        "",
        f"vectorized over scalar pre-refactor path: {speedup:.1f}x",
    ]
    report("throughput", "\n".join(lines), metrics=metrics)
    if write_baseline:
        emit_json("throughput", metrics, path=_ROOT_BASELINE)
    return {"speedup": speedup, "metrics": metrics}


def test_throughput_vectorized_speedup():
    """The refactor's acceptance floor: >= 5x over the scalar path."""
    outcome = run_bench()
    assert outcome["speedup"] >= 5.0, (
        f"vectorized path is only {outcome['speedup']:.1f}x the scalar "
        "reference; the SoA refactor promises >= 5x")


if __name__ == "__main__":
    result = run_bench(write_baseline="--baseline" in sys.argv[1:])
    print(f"speedup: {result['speedup']:.1f}x")
