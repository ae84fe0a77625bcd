"""Online-learning bench: experience throughput and recovery latency.

Measures the figures of merit of the resilient online-learning loop
(``docs/ONLINE_LEARNING.md``):

* **experience_records_per_sec** — the end-to-end journal pipeline
  (validated columnar encode + one ``O_APPEND`` write per tick +
  cursor-exact read + Q-update ingest) over
  ``REPRO_BENCH_ONLINE_RECORDS`` records (default 20000) in ticks of
  1,024 vehicles, best of rounds.  Machine-dependent, so gated by
  ``scripts/check_bench_schema.py`` only with ``--absolute``.
* **journal_pipeline_speedup** — that rate over the rate of the
  per-record reference pipeline (``tests/experience_reference.py``: one
  validated record object, ``json.dumps`` and ``os.write`` per record,
  ``decode_record`` per line, one numpy TD update per record) on the
  same ticks, timed in alternating rounds of one process and taking the
  best round of each.  Both pipelines must learn the same table.  The
  machine-independent ratio gated by ``--compare``.
* **regression_recovery_p50_ms / p99_ms** — the first-class robustness
  metric: wall-clock from a canary's rollback verdict (detection)
  through the automatic rollback to the *verified-healthy* incumbent
  (digest and probed decisions bit-identical to before the attempt),
  sampled over ``REPRO_BENCH_ONLINE_ROLLBACKS`` forced promotions of a
  negated-table candidate (default 5).  Gated as lower-is-better with
  ``--absolute``.

Emits ``benchmarks/results/BENCH_online.json`` (schema in
``benchmarks/common.py``).  Run ``python benchmarks/bench_online.py
--baseline`` to also refresh the committed baseline
``BENCH_online.json`` at the repo root.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.control.rl_controller import build_rl_controller
from repro.learn import (
    ExperienceStream,
    OnlineLearner,
    PromotionPipeline,
)
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    PolicyRegistry,
    PolicyServer,
)
from repro.vehicle import default_vehicle

from benchmarks.common import SEED, emit_json, metric, report
from tests.experience_reference import (
    ReferenceLearner,
    ReferenceStream,
    read_records,
)

_ROOT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_online.json")


def _shape() -> tuple:
    return (int(os.environ.get("REPRO_BENCH_ONLINE_RECORDS", 20_000)),
            int(os.environ.get("REPRO_BENCH_ONLINE_ROLLBACKS", 5)))


def _policy() -> tuple:
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=SEED).agent
    rng = np.random.default_rng(SEED)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return agent.learner.qtable.values.copy(), _fingerprint(agent)


_TICK_VEHICLES = 1024
_PIPELINE_ROUNDS = 9


def _ticks(table: np.ndarray, n_records: int) -> list:
    """``n_records`` random transitions as per-tick fleet columns."""
    num_states, num_actions = table.shape
    rng = np.random.default_rng(SEED)
    ticks = []
    for lo in range(0, n_records, _TICK_VEHICLES):
        n = min(_TICK_VEHICLES, n_records - lo)
        ticks.append(dict(
            states=rng.integers(0, num_states, size=n),
            actions=rng.integers(0, num_actions, size=n),
            rewards=rng.normal(size=n),
            next_states=rng.integers(0, num_states, size=n),
            policy_versions=np.ones(n, dtype=np.int64),
            vehicle_ids=np.arange(n, dtype=np.uint64),
            step=lo // _TICK_VEHICLES))
    return ticks


def _columnar_pass(ticks: list, table: np.ndarray, fingerprint: dict,
                   root: Path) -> tuple:
    """(seconds, table) of one write-read-learn pass of the library."""
    learner = OnlineLearner(fingerprint, table)
    start = time.perf_counter()
    with ExperienceStream(root) as stream:
        for tick in ticks:
            stream.offer_batch(**tick)
            stream.flush()
    ingest = learner.ingest(root)
    elapsed = time.perf_counter() - start
    assert ingest.records == stream.offered, (ingest.records, stream.offered)
    return elapsed, learner.table


def _reference_pass(ticks: list, table: np.ndarray, root: Path) -> tuple:
    """(seconds, table) of the same pass through the per-record path."""
    learner = ReferenceLearner(table)
    start = time.perf_counter()
    stream = ReferenceStream(root)
    for tick in ticks:
        stream.offer_batch(**tick)
        stream.flush()
    records, _ = read_records(stream.path)
    learner.apply(records)
    return time.perf_counter() - start, learner.table


def _pipeline_rates(table: np.ndarray, fingerprint: dict, n_records: int,
                    root: Path) -> tuple:
    """Best-of-rounds records/sec of the library and the reference."""
    ticks = _ticks(table, n_records)
    best, best_ref = float("inf"), float("inf")
    for i in range(_PIPELINE_ROUNDS):
        elapsed, learned = _columnar_pass(ticks, table, fingerprint,
                                          root / f"columnar-{i}")
        ref_elapsed, ref_learned = _reference_pass(ticks, table,
                                                   root / f"reference-{i}")
        assert np.array_equal(learned, ref_learned), \
            "the columnar pipeline learned a different table"
        best, best_ref = min(best, elapsed), min(best_ref, ref_elapsed)
    return n_records / best, n_records / best_ref


def _recovery_samples(table: np.ndarray, fingerprint: dict,
                      rollbacks: int, root: Path) -> np.ndarray:
    """Measured detect -> rollback -> verified-healthy latencies (s)."""
    registry = PolicyRegistry(root / "registry")
    registry.publish_table(table, fingerprint)        # v1: incumbent
    poisoned = registry.publish_table(-table, fingerprint)  # v2: regressed
    samples = []
    for i in range(rollbacks):
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        pipeline = PromotionPipeline(
            server, registry,
            fleet_config=FleetConfig(vehicles=192, steps=30,
                                     seed=SEED + i),
            canary_config=CanaryConfig(fraction=0.25, min_samples=48,
                                       sigmas=2.0, decision_budget=4000,
                                       intervention_margin=0.02),
            max_rounds=6, round_steps=15)
        outcome = pipeline.promote(poisoned)
        assert outcome.outcome == "rolled_back", outcome
        assert outcome.incumbent_intact is True
        samples.append(outcome.recovery_s)
    return np.asarray(samples)


def run_bench(write_baseline: bool = False) -> dict:
    """Run the online-learning bench; emits the JSON + rendered table."""
    n_records, rollbacks = _shape()
    table, fingerprint = _policy()
    with tempfile.TemporaryDirectory() as tmp:
        rate, reference_rate = _pipeline_rates(
            table, fingerprint, n_records, Path(tmp) / "throughput")
        recovery_s = _recovery_samples(table, fingerprint, rollbacks,
                                       Path(tmp) / "rollbacks")
    recovery_ms = recovery_s * 1e3
    speedup = rate / reference_rate

    metrics = [
        metric("experience_records_per_sec", rate, "1/s"),
        metric("experience_records", n_records, "count"),
        metric("journal_pipeline_speedup", speedup, "x"),
        metric("regression_recovery_p50_ms",
               float(np.percentile(recovery_ms, 50)), "ms"),
        metric("regression_recovery_p99_ms",
               float(np.percentile(recovery_ms, 99)), "ms"),
        metric("recovery_samples", rollbacks, "count"),
    ]
    lines = [
        f"Online learning: {n_records} records journaled + ingested, "
        f"{rollbacks} forced regression recoveries",
        "",
        f"  experience records/sec   {rate:14,.0f}",
        f"  per-record reference     {reference_rate:14,.0f}",
        f"  journal pipeline speedup {speedup:14.2f} x",
        f"  recovery p50             {np.percentile(recovery_ms, 50):11.1f}"
        " ms",
        f"  recovery p99             {np.percentile(recovery_ms, 99):11.1f}"
        " ms",
    ]
    report("online", "\n".join(lines), metrics=metrics)
    if write_baseline:
        emit_json("online", metrics, path=_ROOT_BASELINE)
    return {"rate": rate, "speedup": speedup, "recovery_ms": recovery_ms}


def test_online_bench_invariants_hold():
    """The loop's figures of merit exist and are sane."""
    os.environ.setdefault("REPRO_BENCH_ONLINE_RECORDS", "4000")
    os.environ.setdefault("REPRO_BENCH_ONLINE_ROLLBACKS", "3")
    outcome = run_bench()
    assert outcome["rate"] > 0 and outcome["speedup"] > 0
    assert np.all(outcome["recovery_ms"] >= 0.0)
    assert np.percentile(outcome["recovery_ms"], 99) \
        >= np.percentile(outcome["recovery_ms"], 50)


if __name__ == "__main__":
    out = run_bench(write_baseline="--baseline" in sys.argv[1:])
    print(f"experience records/sec: {out['rate']:,.0f} "
          f"({out['speedup']:.2f}x the per-record path), recovery p99: "
          f"{np.percentile(out['recovery_ms'], 99):.1f} ms")
