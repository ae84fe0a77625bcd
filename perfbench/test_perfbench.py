"""Tests of the benchmark itself, on reduced sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SMALL = workloads.Sizes(train_episodes=1, fleet_vehicles=512, fleet_ticks=10,
                        online_vehicles=128, online_ticks=20, online_rounds=2)

# Counts a later change may cite: they must repeat exactly for one seed.
CITED_COUNTS = (
    "train_eval.powertrain.solver.calls",
    "train_eval.powertrain.solver.actions",
    "train_eval.rl.td_lambda.calls",
    "fleet_serve.serve.fleet.decisions",
    "fleet_serve.serve.server.cache_hits",
    "online_round.learn.journal.records",
    "online_round.learn.journal.bytes_per_record",
    "online_round.learn.learner.records_ingested",
    "online_round.learn.promotion.canary_rounds",
    "online_round.learn.promotion.canary_decisions",
)


def _args(workload="paper_mix", seed=3):
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.0,
                              trace=1)


def _benchmark_names(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    runs = []
    for i in range(2):
        workdir = tmp_path_factory.mktemp(f"trace{i}")
        checks, _, metrics = run.trace(_args(), SMALL, workdir)
        assert checks.failures == []
        runs.append(metrics)
    return runs


def test_counts_repeat_exactly_between_traced_runs(traced_twice):
    first, second = traced_twice
    counts = {name for name, m in first.items() if m["unit"] == "count"}
    for name in sorted(counts | set(CITED_COUNTS)):
        assert first[name]["value"] == second[name]["value"], name
    assert first["train_eval.rl.td_lambda.calls"]["value"] > 0
    assert first["online_round.learn.journal.records"]["value"] == \
        first["online_round.learn.learner.records_ingested"]["value"]


def test_trace_prints_every_per_layer_metric(traced_twice):
    names = {name: m["unit"] for name, m in traced_twice[0].items()}
    assert names == _benchmark_names("per_layer")


def test_ledger_reconciles_and_kernel_fit_is_sane(traced_twice):
    metrics = traced_twice[0]
    for stage in ("train_eval", "fleet_serve", "online_round"):
        residual = metrics[f"{stage}.ledger_residual_pct"]["value"]
        assert abs(residual) <= 100 * run.LEDGER_TOLERANCE
    for name in ("fixed_us", "per_action_ns", "fit_residual_pct"):
        assert math.isfinite(metrics[f"powertrain.solver.{name}"]["value"])


def test_measure_prints_every_end_to_end_metric(tmp_path):
    checks, units, metrics = run.measure(_args(), SMALL, tmp_path)
    assert checks.failures == []
    assert {n: m["unit"] for n, m in metrics.items()} == \
        _benchmark_names("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_host_speed_drops_probe_time_and_scales_to_the_reference():
    hs = hostspeed.HostSpeed()
    start, work = hostspeed.clock(), hs.work_clock()
    hs.burst(20)
    end = hostspeed.clock()
    assert hs.work_clock() - work < 0.2 * (end - start)
    assert hs.factor(start, end) == pytest.approx(
        hostspeed.REFERENCE_PROBE_S / hs.median_probe_s(), rel=0.3)
    assert 0.0 <= hs.seconds(start, end) < 0.2 * (end - start) * \
        hs.factor(start, end)

    with hs:
        start, work = hostspeed.clock(), hs.work_clock()
        while hostspeed.clock() - start < 0.3:
            pass
        end, work_end = hostspeed.clock(), hs.work_clock()
    probed = (end - start) - (work_end - work)
    assert probed > 0.0  # the timer ran probes inside the window
    assert hs.seconds(start, end) == pytest.approx(
        (end - start - probed) * hs.factor(start, end), rel=1e-3)


def test_checks_fail_on_outputs_that_differ():
    checks = run.Checks()
    checks.same("outputs", [(1.0, 2.0), (1.0, 2.0 + 1e-12)])
    assert checks.failures


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench_work").exists()
