"""Fleet serving bench: throughput, latency, swap and rollback cost.

Publishes a deterministic policy to a temporary registry, then measures
the serving layer end to end with :class:`repro.serve.FleetSimulator`
driving a heterogeneous vehicle population (cycle x auxiliary load x
fault scenario) through a :class:`repro.serve.PolicyServer`:

* **decisions/sec** and **vehicles/min** of the fleet run, plus
  decision-request latency p50/p99 from the bounded queue;
* **batched_decision_speedup** — batched ``decide`` against a
  state-at-a-time loop, the machine-independent ratio gated by
  ``scripts/check_bench_schema.py --compare``;
* **hot-swap latency** p50/p99 over repeated stage+flip cycles between
  two published versions;
* **canary rollback latency** p50/p99 — wall-clock and decisions-to-
  verdict over repeated forced-regression rollouts (a scrambled
  candidate against a healthy incumbent).

Emits ``benchmarks/results/BENCH_fleet.json`` (schema in
``benchmarks/common.py``).  Run ``python benchmarks/bench_fleet.py
--baseline`` to also refresh the committed trajectory baseline
``BENCH_fleet.json`` at the repo root.  Environment knobs:
``REPRO_BENCH_FLEET_VEHICLES`` (default 20000) and
``REPRO_BENCH_FLEET_STEPS`` (default 60).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.control.rl_controller import build_rl_controller
from repro.powertrain import PowertrainSolver
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    FleetSimulator,
    PolicyRegistry,
    PolicyServer,
)
from repro.vehicle import default_vehicle

from benchmarks.common import SEED, emit_json, metric, report

_ROOT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_fleet.json")


def _fleet_shape() -> tuple:
    return (int(os.environ.get("REPRO_BENCH_FLEET_VEHICLES", 20_000)),
            int(os.environ.get("REPRO_BENCH_FLEET_STEPS", 60)))


def _published_registry(root: Path) -> PolicyRegistry:
    """A registry holding a healthy v1/v2 pair and a scrambled v3."""
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=SEED).agent
    rng = np.random.default_rng(SEED)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    registry = PolicyRegistry(root)
    registry.publish(agent)  # v1: the incumbent
    registry.publish(agent)  # v2: bit-identical swap partner
    from repro.rl.persistence import _fingerprint
    registry.publish_table(
        np.zeros_like(agent.learner.qtable.values) - 5.0,
        _fingerprint(agent))  # v3: a regressed candidate for rollbacks
    return registry


def _batched_speedup(server: PolicyServer) -> float:
    """Batched decide vs a state-at-a-time loop (higher is better).

    Both paths take the best of several timing rounds so the ratio is a
    stable figure of merit rather than a scheduler-noise sample — it is
    the regression-gated metric in ``check_bench_schema.py``.
    """
    num_states = server.active_artifact.num_states
    rng = np.random.default_rng(SEED)
    states = rng.integers(0, num_states, size=4096)
    server.decide(states)  # warm-up call, untimed, for both paths
    reps, rounds = 20, 5
    batched_rate = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            server.decide(states)
        batched_rate = max(
            batched_rate, reps * states.size / (time.perf_counter() - start))
    scalar = states[:256]
    scalar_rate = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        for state in scalar:
            server.decide(state)
        scalar_rate = max(
            scalar_rate, scalar.size / (time.perf_counter() - start))
    return batched_rate / scalar_rate


def _swap_latencies(server: PolicyServer, swaps: int = 20) -> np.ndarray:
    """Wall-clock of repeated hot-swaps between the identical v1/v2."""
    samples = []
    for i in range(swaps):
        rep = server.swap(version=1 + (i % 2))
        assert rep.activated, rep.reason
        samples.append(rep.elapsed_s)
    return np.asarray(samples)


def _rollback_samples(registry: PolicyRegistry,
                      runs: int = 5) -> tuple:
    """(latency_s, decisions) of repeated forced canary rollbacks."""
    latencies, decisions = [], []
    for i in range(runs):
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        server.begin_canary(version=3, canary_config=CanaryConfig(
            fraction=0.2, min_samples=64, sigmas=2.0,
            decision_budget=10_000))
        result = FleetSimulator(server, FleetConfig(
            vehicles=512, steps=40, seed=SEED + i)).run()
        assert result.canary_verdict == "rollback", result.canary_verdict
        latencies.append(result.rollback["latency_s"])
        decisions.append(result.rollback["decisions"])
    return np.asarray(latencies), np.asarray(decisions)


def run_bench(write_baseline: bool = False) -> dict:
    """Run the fleet bench and emit the JSON + rendered table."""
    vehicles, steps = _fleet_shape()
    with tempfile.TemporaryDirectory() as tmp:
        registry = _published_registry(Path(tmp) / "registry")
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        fleet = FleetSimulator(server, FleetConfig(
            vehicles=vehicles, steps=steps, seed=SEED))
        result = fleet.run()
        lat_ms = result.request_latencies_s * 1e3
        speedup = _batched_speedup(server)
        swap_ms = _swap_latencies(server) * 1e3
        rollback_s, rollback_decisions = _rollback_samples(registry)

    metrics = [
        metric("decisions_per_sec", result.decisions_per_sec, "1/s"),
        metric("vehicles_per_min", result.vehicles_per_min, "1/min"),
        metric("decision_latency_p50_ms",
               float(np.percentile(lat_ms, 50)), "ms"),
        metric("decision_latency_p99_ms",
               float(np.percentile(lat_ms, 99)), "ms"),
        metric("batched_decision_speedup", speedup, "x"),
        metric("swap_latency_p50_ms", float(np.percentile(swap_ms, 50)),
               "ms"),
        metric("swap_latency_p99_ms", float(np.percentile(swap_ms, 99)),
               "ms"),
        metric("rollback_latency_p50_ms",
               float(np.percentile(rollback_s * 1e3, 50)), "ms"),
        metric("rollback_latency_p99_ms",
               float(np.percentile(rollback_s * 1e3, 99)), "ms"),
        metric("rollback_decisions_p50",
               float(np.percentile(rollback_decisions, 50)), "count"),
        metric("rollback_decisions_p99",
               float(np.percentile(rollback_decisions, 99)), "count"),
        metric("fleet_vehicles", vehicles, "count"),
        metric("fleet_steps", steps, "count"),
        metric("shed_requests", result.shed_requests, "count"),
        metric("interventions", result.interventions, "count"),
    ]

    lines = [
        f"Fleet serving: {vehicles} vehicles x {steps} steps = "
        f"{result.decisions} decisions in {result.elapsed_s:.2f}s",
        "",
        f"  decisions/sec          {result.decisions_per_sec:14,.0f}",
        f"  vehicles/min           {result.vehicles_per_min:14,.0f}",
        f"  decision latency p50   {np.percentile(lat_ms, 50):11.3f} ms",
        f"  decision latency p99   {np.percentile(lat_ms, 99):11.3f} ms",
        f"  batched speedup        {speedup:11.1f} x",
        f"  swap latency p50/p99   {np.percentile(swap_ms, 50):.3f} / "
        f"{np.percentile(swap_ms, 99):.3f} ms",
        f"  rollback latency p50   "
        f"{np.percentile(rollback_s * 1e3, 50):.1f} ms "
        f"({np.percentile(rollback_decisions, 50):.0f} decisions)",
        f"  rollback latency p99   "
        f"{np.percentile(rollback_s * 1e3, 99):.1f} ms "
        f"({np.percentile(rollback_decisions, 99):.0f} decisions)",
        f"  shed requests          {result.shed_requests:14d}",
        f"  interventions          {result.interventions:14d}",
    ]
    report("fleet", "\n".join(lines), metrics=metrics)
    if write_baseline:
        emit_json("fleet", metrics, path=_ROOT_BASELINE)
    return {"result": result, "metrics": metrics, "speedup": speedup}


def test_fleet_bench_invariants_hold():
    """The tentpole's figures of merit exist and are sane."""
    outcome = run_bench()
    result = outcome["result"]
    assert result.decisions > 0 and result.decisions_per_sec > 0
    assert outcome["speedup"] > 1.0, (
        f"batched serving is not faster than scalar serving "
        f"({outcome['speedup']:.2f}x)")


if __name__ == "__main__":
    out = run_bench(write_baseline="--baseline" in sys.argv[1:])
    print(f"decisions/sec: {out['result'].decisions_per_sec:,.0f}, "
          f"batched speedup: {out['speedup']:.1f}x")
