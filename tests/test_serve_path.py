"""Differential tests: table-lookup serving vs its simple reference.

The production serving path (one gather from each artifact's greedy-
action vector, no decision cache, noise streams built only for faulty
vehicles) must reproduce the reference path frozen in
``tests/serve_reference.py`` bit for bit: same greedy actions (values,
dtype and shape, including tied, signed-zero and non-finite rows), same
decisions across activate/swap/rollback/fallback/canary sequences, and —
closed loop — the same fleet traces, aggregates and journal bytes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.rl_controller import build_rl_controller
from repro.errors import CheckpointError, PersistenceError, ServeError
from repro.learn import ExperienceStream
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    FleetSimulator,
    PolicyArtifact,
    PolicyRegistry,
    PolicyServer,
    run_fleet_sharded,
)
from repro.serve import fleet
from repro.vehicle import default_vehicle

from tests.serve_reference import (
    reference_greedy,
    reference_sensor_noise,
    reference_serve_path,
)

# --------------------------------------------------------------- tables ---

_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf)
"""Few distinct values, so rows tie often; NaN and +-inf rows appear."""


@st.composite
def _tables(draw):
    states = draw(st.integers(1, 12))
    actions = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(_VALUES),
                          min_size=states * actions,
                          max_size=states * actions))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    return np.asarray(cells, dtype=dtype).reshape(states, actions)


@st.composite
def _batches(draw, num_states: int, allow_negative: bool = False):
    """A state batch: 0-d, empty, 1-D or 2-D, duplicates likely."""
    lo = -num_states if allow_negative else 0
    ids = st.integers(lo, num_states - 1)
    shape = draw(st.sampled_from(("0d", "1d", "2d")))
    if shape == "0d":
        return np.asarray(draw(ids))
    if shape == "1d":
        return np.asarray(draw(st.lists(ids, max_size=20)), dtype=np.int64)
    rows = draw(st.integers(0, 4))
    return np.asarray(draw(st.lists(ids, min_size=rows * 3,
                                    max_size=rows * 3)),
                      dtype=np.int64).reshape(rows, 3)


def _fingerprint_for(num_actions: int) -> dict:
    return {"num_actions": num_actions,
            "current_levels": list(range(num_actions))}


def _mapped(root: Path, table: np.ndarray) -> PolicyArtifact:
    """An artifact over a read-only memory map of ``table``, as ``load``
    builds it; header and digest checks are not under test here (and
    skipping the durable compile keeps each example fast)."""
    path = root / "table.bin"
    if not path.exists():
        table.tofile(path)
    mapped = np.memmap(path, dtype=table.dtype, mode="r", shape=table.shape)
    return PolicyArtifact(path, 1, _fingerprint_for(table.shape[1]),
                          mapped, "0" * 64)


def _same(ours, theirs) -> None:
    assert type(ours) is type(theirs)
    assert np.shape(ours) == np.shape(theirs)
    assert np.asarray(ours).dtype == np.asarray(theirs).dtype
    assert np.array_equal(ours, theirs)


# -------------------------------------------------------------- greedy ---

class TestGreedy:
    @given(data=st.data(), table=_tables())
    @settings(max_examples=150, deadline=None)
    def test_greedy_matches_per_row_argmax(self, data, table):
        with tempfile.TemporaryDirectory() as tmp:
            artifact = _mapped(Path(tmp), table)
            for _ in range(3):
                states = data.draw(_batches(len(table), allow_negative=True))
                _same(artifact.greedy(states),
                      reference_greedy(artifact, states))

    @given(data=st.data(), table=_tables())
    @settings(max_examples=100, deadline=None)
    def test_decide_matches_the_lru_server(self, data, table):
        batches = [data.draw(_batches(len(table), allow_negative=True))
                   for _ in range(4)]

        def _decisions(root: Path) -> list:
            server = PolicyServer()
            # Non-finite tables fail the golden probe by design; the
            # decision path itself must still agree on them.
            server._activate(_mapped(root, table),
                             reason="differential test")
            out = []
            for states in batches:
                try:
                    out.append(server.decide(states))
                except ServeError as exc:
                    out.append(str(exc))
            return out

        with tempfile.TemporaryDirectory() as tmp:
            ours = _decisions(Path(tmp))
            with reference_serve_path():
                theirs = _decisions(Path(tmp))
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            if isinstance(b, str):
                assert a == b
            else:
                _same(a, b)


# --------------------------------------------------------------- swaps ---

@pytest.fixture(scope="module")
def swap_registry(tmp_path_factory):
    """Three finite, heavily tied policies (v3 disagrees most)."""
    rng = np.random.default_rng(17)
    registry = PolicyRegistry(tmp_path_factory.mktemp("swaps") / "registry")
    base = rng.integers(0, 3, size=(40, 5)).astype(float)
    fingerprint = _fingerprint_for(5)
    registry.publish_table(base, fingerprint)
    registry.publish_table(base + (rng.random(base.shape) < 0.2),
                           fingerprint)
    registry.publish_table(-base, fingerprint)
    return registry


_ops = st.lists(st.one_of(
    st.tuples(st.just("decide"), st.lists(st.integers(0, 39), max_size=30)),
    st.tuples(st.just("swap"), st.integers(1, 3)),
    st.tuples(st.just("activate"), st.integers(1, 3)),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("fallback")),
    st.tuples(st.just("canary"), st.integers(1, 3)),
    st.tuples(st.just("canary_decide"),
              st.lists(st.integers(0, 39), max_size=30)),
    st.tuples(st.just("abort"))), max_size=25)


def _play(registry: PolicyRegistry, ops) -> list:
    server = PolicyServer(registry)
    server.activate(registry.load(1))
    out = []
    for op, *args in ops:
        try:
            if op == "decide":
                out.append(server.decide(np.asarray(args[0], dtype=int)))
            elif op == "swap":
                report = server.swap(version=args[0])
                out.append((report.activated, report.to_version,
                            report.probe_disagreement))
            elif op == "activate":
                server.activate(registry.load(args[0]))
            elif op == "rollback":
                out.append(server.rollback())
            elif op == "fallback":
                # The bottom of the activate_latest ladder.
                server._engage_fallback()
            elif op == "canary":
                server.begin_canary(version=args[0],
                                    canary_config=CanaryConfig(fraction=0.5))
            elif op == "canary_decide":
                out.append(server.canary_decide(
                    np.asarray(args[0], dtype=int)))
            else:
                server.abort_canary()
        except (ServeError, CheckpointError, PersistenceError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        out.append(server.active_version)
    return out


class TestSwaps:
    @given(ops=_ops)
    @settings(max_examples=120, deadline=None)
    def test_swap_sequences_decide_like_the_reference(self, swap_registry,
                                                      ops):
        ours = _play(swap_registry, ops)
        with reference_serve_path():
            theirs = _play(swap_registry, ops)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            if isinstance(b, np.ndarray):
                _same(a, b)
            else:
                assert a == b


# --------------------------------------------------------------- fleet ---

class TestNoise:
    @given(seed=st.integers(0, 2**32 - 1), total=st.integers(1, 60),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_on_demand_streams_match_spawned_streams(self, seed, total,
                                                     data):
        offset = data.draw(st.integers(0, total - 1))
        vehicles = data.draw(st.integers(1, total - offset))
        faulty = np.asarray(data.draw(st.lists(
            st.booleans(), min_size=vehicles, max_size=vehicles)))
        cfg = FleetConfig(vehicles=vehicles, steps=4, seed=seed,
                          total_vehicles=total, vehicle_offset=offset)
        assert np.array_equal(fleet._sensor_noise(cfg, faulty, 4),
                              reference_sensor_noise(cfg, faulty, 4))


@pytest.fixture(scope="module")
def policy():
    """``(table, fingerprint)`` of one deterministic non-trivial policy."""
    agent = build_rl_controller(PowertrainSolver(default_vehicle()),
                                seed=5).agent
    table = np.random.default_rng(5).normal(
        size=agent.learner.qtable.values.shape)
    return table, _fingerprint(agent)


_AGGREGATES = ("vehicles", "steps", "decisions", "shed_requests",
               "limp_decisions", "interventions", "mean_reward",
               "experience_records", "experience_shed", "stream_errors",
               "canary_verdict")


class TestFleetRuns:
    def _shard_run(self, registry: PolicyRegistry, workdir: Path):
        server = PolicyServer(registry)
        server.activate_latest()
        config = FleetConfig(vehicles=40, steps=15, seed=9,
                             fault_fraction=0.4, request_batch=16,
                             total_vehicles=96, vehicle_offset=37)
        stream = ExperienceStream(workdir, shard=1)
        spy = mock.patch.object(fleet, "_sensor_noise",
                                wraps=fleet._sensor_noise)
        try:
            with spy as noise:
                result = FleetSimulator(server, config, record_trace=True,
                                        experience=stream).run()
        finally:
            stream.close()
        faulty = noise.call_args.args[1]
        journal = b"".join(p.read_bytes()
                           for p in sorted(workdir.glob("shard-*.jsonl")))
        return result, faulty, journal

    def test_offset_shard_run_matches_the_reference(self, policy, tmp_path):
        table, fingerprint = policy
        registry = PolicyRegistry(tmp_path / "registry")
        registry.publish_table(table, fingerprint)
        ours, faulty, our_journal = self._shard_run(registry,
                                                    tmp_path / "ours")
        with reference_serve_path():
            theirs, _, their_journal = self._shard_run(
                registry, tmp_path / "theirs")
        # Faulty vehicles sit in a shard that does not start at id 0.
        assert 0 < int(faulty.sum()) < len(faulty)
        assert np.array_equal(ours.actions, theirs.actions)
        assert np.array_equal(ours.final_soc, theirs.final_soc)
        assert np.array_equal(ours.vehicle_rewards, theirs.vehicle_rewards)
        assert ours.request_latencies_s.shape \
            == theirs.request_latencies_s.shape
        for key in _AGGREGATES:
            assert getattr(ours, key) == getattr(theirs, key), key
        assert ours.experience_records > 0
        assert our_journal and our_journal == their_journal

    def test_sharded_aggregates_match_the_reference(self, policy, tmp_path):
        table, fingerprint = policy
        registry = PolicyRegistry(tmp_path / "registry")
        registry.publish_table(table, fingerprint)
        config = FleetConfig(vehicles=48, steps=10, seed=12,
                             fault_fraction=0.3)
        ours = run_fleet_sharded(registry.root, config, shards=3)
        with reference_serve_path():
            theirs = run_fleet_sharded(registry.root, config, shards=3)
        for key in ours:
            if key not in ("elapsed_s", "decisions_per_sec",
                           "vehicles_per_min"):
                assert ours[key] == theirs[key], key
