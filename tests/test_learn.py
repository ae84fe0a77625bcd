"""Tests of the resilient online-learning loop (:mod:`repro.learn`).

Covers the acceptance criteria of the online-learning tentpole: the
columnar journal and learner against the per-record reference of
``tests/experience_reference.py`` (journal bytes and tables equal), the
chunked canonical-line reader against the per-record reference reader
(columns, quarantine counts and cursors equal), the
Hypothesis fuzz guarantee that any truncation, field drop, type
mutation, or non-finite value in an experience record surfaces as a
structured :class:`~repro.errors.ExperienceError` (never a crash, never
silent garbage); journal torn-tail amputation and its idempotence;
content-hash cursors that re-read nothing twice and refuse a journal
rewritten underneath them; oldest-first backpressure shedding; the
learner's kill-and-resume bit-identity contract; the regression
watchdog; the guarded promotion pipeline — including the canary edge
cases (zero-decision cohort, starved rollout, a no-op swap of an
identical candidate that must NOT reset the watchdog baseline) — and
the loop's vetted-incumbent pinning across restarts.
"""

import dataclasses
import errno
import hashlib
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.rl_controller import build_rl_controller
from repro.errors import ExperienceError, PersistenceError, ServeError
from repro.fsio import FilesystemShim, shimmed
from repro.learn import (
    ExperienceRecord,
    ExperienceStream,
    OnlineLearner,
    OnlineLearnerConfig,
    OnlineLearningLoop,
    PromotionPipeline,
    RegressionWatchdog,
    decode_record,
    encode_record,
    read_journal,
)
from repro.learn import journal as journal_module
from repro.learn.loop import STATE_NAME
from repro.learn.records import (
    FIELDS,
    decode_canonical,
    decode_values,
    encode_columns,
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
from tests.experience_reference import (
    ReferenceLearner,
    ReferenceStream,
    read_records,
)


@pytest.fixture(scope="module")
def policy():
    """``(table, fingerprint)`` of one deterministic non-trivial policy."""
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, seed=23).agent
    rng = np.random.default_rng(23)
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return agent.learner.qtable.values.copy(), _fingerprint(agent)


def _registry(root, table, fingerprint, versions=1, bump=0.25):
    registry = PolicyRegistry(root / "registry")
    for i in range(versions):
        registry.publish_table(table + bump * i, fingerprint)
    return registry


def _records(n, num_states=12, num_actions=4, seed=0, version=1):
    rng = np.random.default_rng(seed)
    return [ExperienceRecord(
        state=int(rng.integers(num_states)),
        action=int(rng.integers(num_actions)),
        reward=round(float(rng.normal()), 6),
        next_state=int(rng.integers(num_states)),
        policy_version=version, vehicle_id=i, step=0) for i in range(n)]


def _columns(records):
    """One tick's parallel columns (all but ``step``) of ``records``."""
    return [np.array([getattr(rec, name) for rec in records]) for name in (
        "state", "action", "reward", "next_state", "policy_version",
        "vehicle_id")]


def _write_journal(directory, records, shard=0):
    with ExperienceStream(directory, shard=shard) as stream:
        stream.offer_batch(*_columns(records), step=0)
        stream.flush()
        return stream.path


_VALID = encode_record(ExperienceRecord(
    state=3, action=1, reward=0.5, next_state=4,
    policy_version=2, vehicle_id=7, step=11))


class TestRecordCodec:
    def test_round_trip(self):
        rec = ExperienceRecord(state=3, action=1, reward=0.5, next_state=4,
                               policy_version=2, vehicle_id=7, step=11)
        assert decode_record(encode_record(rec)) == rec

    def test_reward_is_coerced_to_float(self):
        rec = ExperienceRecord(state=0, action=0, reward=1, next_state=0,
                               policy_version=1, vehicle_id=0, step=0)
        assert isinstance(rec.reward, float)

    @pytest.mark.parametrize("field,value", [
        ("state", -1), ("action", 1.5), ("next_state", True),
        ("policy_version", 0), ("vehicle_id", "x"), ("step", -3),
        ("reward", float("nan")), ("reward", float("inf")),
        ("reward", "much"),
    ])
    def test_invalid_fields_are_structured(self, field, value):
        kwargs = dict(state=0, action=0, reward=0.0, next_state=0,
                      policy_version=1, vehicle_id=0, step=0)
        kwargs[field] = value
        with pytest.raises(ExperienceError):
            ExperienceRecord(**kwargs)

    def test_version_mismatch_is_structured(self):
        payload = json.loads(_VALID)
        payload["v"] = 99
        with pytest.raises(ExperienceError, match="version"):
            decode_record(json.dumps(payload))

    def test_unknown_fields_are_structured(self):
        payload = json.loads(_VALID)
        payload["extra"] = 1
        with pytest.raises(ExperienceError, match="unknown"):
            decode_record(json.dumps(payload))


class TestRecordCodecFuzz:
    """Any mangling of a valid line must surface as ExperienceError —
    never an unstructured crash, never a silently-wrong record."""

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=len(_VALID) - 1))
    def test_any_truncation_is_structured(self, cut):
        with pytest.raises(ExperienceError):
            decode_record(_VALID[:cut])

    @settings(max_examples=30, deadline=None)
    @given(dropped=st.sampled_from(sorted(json.loads(_VALID))))
    def test_any_field_drop_is_structured(self, dropped):
        payload = json.loads(_VALID)
        del payload[dropped]
        with pytest.raises(ExperienceError):
            decode_record(json.dumps(payload))

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(sorted(set(json.loads(_VALID)) - {"v"})),
           value=st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                           st.floats(), st.lists(st.integers(), max_size=2)))
    def test_any_type_mutation_is_structured_or_equivalent(self, field,
                                                           value):
        payload = json.loads(_VALID)
        payload[field] = value
        try:
            rec = decode_record(json.dumps(payload))
        except ExperienceError:
            return
        # The only acceptable non-error: a numeric reward equal in value
        # (e.g. 0.5 -> 0.5); everything else would be silent garbage.
        assert field == "reward" and isinstance(value, float)
        assert math.isfinite(value) and rec.reward == value

    @settings(max_examples=60, deadline=None)
    @given(line=st.text(max_size=80))
    def test_random_garbage_is_structured(self, line):
        try:
            rec = decode_record(line)
        except ExperienceError:
            return
        assert decode_record(encode_record(rec)) == rec

    def test_nonfinite_json_tokens_are_structured(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ExperienceError):
                decode_record(_VALID.replace("0.5", token))

    def test_overlong_integer_is_structured(self):
        # json refuses integers past the interpreter's digit limit with a
        # bare ValueError; it must surface as a structured refusal.
        with pytest.raises(ExperienceError):
            decode_record(_VALID.replace('"state": 3',
                                         '"state": ' + "9" * 5000))


class TestJournal:
    def test_write_read_round_trip(self, tmp_path):
        records = _records(9)
        path = _write_journal(tmp_path, records)
        piece = read_journal(path)
        assert piece.records == records
        assert piece.quarantined == 0 and piece.amputated_bytes == 0
        assert piece.cursor["offset"] == path.stat().st_size

    def test_cursor_resumes_exactly_once(self, tmp_path):
        records = _records(10)
        path = _write_journal(tmp_path, records[:6])
        first = read_journal(path)
        assert first.records == records[:6]
        # Nothing new: the cursor consumes nothing twice.
        again = read_journal(path, first.cursor)
        assert again.records == []
        _write_journal(tmp_path, records[6:])
        rest = read_journal(path, again.cursor)
        assert rest.records == records[6:]

    def test_torn_tail_is_amputated_idempotently(self, tmp_path):
        records = _records(5)
        path = _write_journal(tmp_path, records)
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(encode_record(_records(1, seed=9)[0])[:17]
                     .encode("utf-8"))
        with pytest.warns(RuntimeWarning, match="amputating"):
            piece = read_journal(path)
        assert piece.records == records and piece.amputated_bytes == 17
        assert path.stat().st_size == intact
        # Second read: physically truncated already, nothing to warn about.
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = read_journal(path, piece.cursor)
        assert again.records == [] and again.amputated_bytes == 0

    def test_interior_corruption_is_quarantined(self, tmp_path):
        records = _records(6)
        path = _write_journal(tmp_path, records[:3])
        with open(path, "ab") as fh:
            fh.write(b'{"not": "an experience record"}\n')
            fh.write(b"\x80\xffgarbage\n")
        _write_journal(tmp_path, records[3:])
        piece = read_journal(path)
        assert piece.records == records
        assert piece.quarantined == 2

    def test_rewrite_under_cursor_is_refused(self, tmp_path):
        path = _write_journal(tmp_path, _records(4))
        cursor = read_journal(path).cursor
        body = path.read_bytes()
        path.write_bytes(body.replace(b'"step": 0', b'"step": 1', 1))
        with pytest.raises(ExperienceError, match="rewritten"):
            read_journal(path, cursor)

    @pytest.mark.parametrize("lines", [True, False, -1, 2.0, "3", None])
    def test_malformed_cursor_line_count_is_refused(self, tmp_path, lines):
        path = _write_journal(tmp_path, _records(4))
        cursor = dict(read_journal(path).cursor, lines=lines)
        with pytest.raises(ExperienceError, match="malformed journal cursor"):
            read_journal(path, cursor)

    def test_foreign_or_headerless_file_is_refused(self, tmp_path):
        alien = tmp_path / "alien.jsonl"
        alien.write_text('{"format": "something-else", "v": 1}\n')
        with pytest.raises(ExperienceError, match="format"):
            read_journal(alien)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(ExperienceError, match="header"):
            read_journal(empty)

    def test_backpressure_sheds_oldest_first(self, tmp_path):
        records = _records(10)
        with ExperienceStream(tmp_path, buffer_limit=4) as stream:
            for lo, hi in ((0, 3), (3, 7), (7, 10)):
                stream.offer_batch(*_columns(records[lo:hi]), step=0)
            assert stream.shed == 6 and stream.buffered == 4
            stream.flush()
            path = stream.path
        # The freshest experience survived; the stalest was dropped.
        assert read_journal(path).records == records[-4:]

    def test_invalid_stream_configs_are_structured(self, tmp_path):
        with pytest.raises(ExperienceError):
            ExperienceStream(tmp_path, shard=-1)
        with pytest.raises(ExperienceError):
            ExperienceStream(tmp_path, buffer_limit=0)


class TestLearner:
    _FP = {"kind": "test", "seed": 1}

    def _table(self, num_states=12, num_actions=4, seed=3):
        return np.random.default_rng(seed).normal(
            size=(num_states, num_actions))

    def test_ingest_applies_q_updates(self, tmp_path):
        table = self._table()
        _write_journal(tmp_path / "j", _records(20))
        learner = OnlineLearner(self._FP, table)
        report = learner.ingest(tmp_path / "j")
        assert report.records == 20 and report.journals == 1
        assert not np.array_equal(learner.table, table)
        assert np.all(np.isfinite(learner.table))

    @pytest.mark.parametrize("double_q", [False, True])
    def test_kill_and_resume_is_bit_identical(self, tmp_path, double_q):
        table = self._table()
        config = OnlineLearnerConfig(double_q=double_q)
        records = _records(30)
        _write_journal(tmp_path / "ref", records)
        reference = OnlineLearner(self._FP, table, config=config)
        reference.ingest(tmp_path / "ref")

        # The same records arrive in three bursts; the learner is
        # "killed" (dropped) and resumed from its checkpoint between
        # each.  The final table must match the uninterrupted run bit
        # for bit — the updates are batch-boundary invariant.
        ckpt = tmp_path / "ckpt.json"
        learner = OnlineLearner(self._FP, table, config=config,
                                checkpoint_path=ckpt)
        for lo, hi in ((0, 11), (11, 17), (17, 30)):
            _write_journal(tmp_path / "live", records[lo:hi])
            learner.ingest(tmp_path / "live")
            learner = OnlineLearner.resume(ckpt)
        assert np.array_equal(learner.table, reference.table)
        assert learner.records == 30

    def test_missing_checkpoint_is_experience_error(self, tmp_path):
        with pytest.raises(ExperienceError, match="nothing to resume"):
            OnlineLearner.resume(tmp_path / "absent.json")

    def test_corrupt_checkpoint_is_structured(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        learner = OnlineLearner(self._FP, self._table(),
                                checkpoint_path=ckpt)
        _write_journal(tmp_path / "j", _records(5))
        learner.ingest(tmp_path / "j")
        body = ckpt.read_bytes()
        payload = json.loads(body)
        b64 = payload["q"]["b64"]
        payload["q"]["b64"] = ("B" if b64[0] != "B" else "C") + b64[1:]
        ckpt.write_bytes(json.dumps(payload).encode())
        with pytest.raises(PersistenceError, match="integrity"):
            OnlineLearner.resume(ckpt)
        ckpt.write_bytes(b"not json at all")
        with pytest.raises(PersistenceError, match="JSON"):
            OnlineLearner.resume(ckpt)

    def test_out_of_table_records_are_excluded(self, tmp_path):
        table = self._table(num_states=4, num_actions=2)
        good = _records(6, num_states=4, num_actions=2)
        foreign = _records(3, num_states=50, num_actions=9, seed=8)
        _write_journal(tmp_path / "j", good + foreign)
        learner = OnlineLearner(self._FP, table)
        report = learner.ingest(tmp_path / "j")
        assert report.records + report.excluded == 9
        assert report.excluded >= 3

    def test_refused_shard_leaves_learner_untouched(self, tmp_path):
        _write_journal(tmp_path / "j", _records(5), shard=0)
        late = _write_journal(tmp_path / "j", _records(4, seed=1), shard=1)
        learner = OnlineLearner(self._FP, self._table())
        learner.ingest(tmp_path / "j")
        before = (learner.table, learner.cursors, learner.records)
        _write_journal(tmp_path / "j", _records(3, seed=2), shard=0)
        late.write_bytes(late.read_bytes().replace(b'"step": 0',
                                                   b'"step": 1', 1))
        with pytest.raises(ExperienceError, match="rewritten"):
            learner.ingest(tmp_path / "j")
        assert np.array_equal(learner.table, before[0])
        assert (learner.cursors, learner.records) == before[1:]

    def test_non_finite_seed_table_is_refused(self):
        table = self._table()
        table[0, 0] = np.nan
        with pytest.raises(ExperienceError, match="non-finite"):
            OnlineLearner(self._FP, table)

    def test_invalid_configs_are_structured(self):
        with pytest.raises(ExperienceError):
            OnlineLearnerConfig(learning_rate=0.0)
        with pytest.raises(ExperienceError):
            OnlineLearnerConfig(discount=1.0)

    def test_publish_round_trips_through_registry(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        learner = OnlineLearner(fingerprint, table)
        _write_journal(tmp_path / "j",
                       _records(10, num_states=table.shape[0],
                                num_actions=table.shape[1]))
        learner.ingest(tmp_path / "j")
        version = learner.publish(registry)
        assert np.array_equal(np.array(registry.load(version).table),
                              learner.table)


class _Run:
    """A minimal FleetResult stand-in for watchdog unit tests."""

    def __init__(self, mean_reward, interventions=0, decisions=1000):
        self.mean_reward = mean_reward
        self.interventions = interventions
        self.decisions = decisions


class TestRegressionWatchdog:
    def test_thin_baseline_never_alerts(self):
        dog = RegressionWatchdog(min_runs=2)
        dog.observe(_Run(1.0))
        assert dog.check(_Run(-100.0)) is None

    def test_reward_collapse_alerts(self):
        dog = RegressionWatchdog(sigmas=2.0)
        for reward in (1.00, 1.01, 0.99, 1.02):
            dog.observe(_Run(reward))
        assert dog.check(_Run(1.0)) is None
        alert = dog.check(_Run(0.2))
        assert alert is not None and "sigma" in alert

    def test_intervention_excess_alerts(self):
        dog = RegressionWatchdog(intervention_margin=0.05)
        for _ in range(3):
            dog.observe(_Run(1.0, interventions=10))
        alert = dog.check(_Run(1.0, interventions=200))
        assert alert is not None and "intervention" in alert

    def test_zero_decision_runs_carry_no_evidence(self):
        dog = RegressionWatchdog()
        dog.observe(_Run(1.0, decisions=0))
        assert dog.runs == 0
        for _ in range(3):
            dog.observe(_Run(1.0))
        assert dog.check(_Run(-5.0, decisions=0)) is None

    def test_reset_forgets_the_baseline(self):
        dog = RegressionWatchdog()
        for _ in range(3):
            dog.observe(_Run(1.0))
        dog.reset()
        assert dog.runs == 0 and dog.check(_Run(-5.0)) is None

    def test_invalid_thresholds_are_structured(self):
        with pytest.raises(ExperienceError):
            RegressionWatchdog(sigmas=0.0)
        with pytest.raises(ExperienceError):
            RegressionWatchdog(min_runs=1)


class TestPromotionPipeline:
    def _pipeline(self, registry, **kwargs):
        server = PolicyServer(registry)
        server.activate(registry.load(1))
        kwargs.setdefault("fleet_config",
                          FleetConfig(vehicles=96, steps=20, seed=5))
        kwargs.setdefault("canary_config",
                          CanaryConfig(fraction=0.3, min_samples=32,
                                       sigmas=2.0, decision_budget=600,
                                       intervention_margin=0.02))
        kwargs.setdefault("round_steps", 10)
        return server, PromotionPipeline(server, registry, **kwargs)

    def test_healthy_candidate_promotes_and_resets_baseline(self, tmp_path,
                                                            policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        # A candidate with identical greedy behaviour but different bytes.
        registry.publish_table(table + 1e-9, fingerprint)
        server, pipeline = self._pipeline(registry)
        for _ in range(3):
            pipeline.watchdog.observe(_Run(1.0))
        report = pipeline.promote(2)
        assert report.outcome == "promoted"
        assert server.active_version == 2
        assert report.canary_decisions > 0
        assert report.baseline_runs == 0  # a new incumbent: baseline reset

    def test_identical_candidate_noop_keeps_baseline(self, tmp_path,
                                                     policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(table, fingerprint)  # bit-identical v2
        server, pipeline = self._pipeline(registry)
        for _ in range(3):
            pipeline.watchdog.observe(_Run(1.0))
        report = pipeline.promote(2)
        assert report.outcome == "noop"
        assert report.baseline_runs == 3  # the incumbent did not change
        assert pipeline.watchdog.runs == 3
        assert server.active_version == 2

    def test_regressed_candidate_rolls_back_with_recovery(self, tmp_path,
                                                          policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(-table, fingerprint)
        server, pipeline = self._pipeline(registry)
        probe = np.arange(32)
        before = server.decide(probe)
        report = pipeline.promote(2)
        assert report.outcome == "rolled_back"
        assert report.incumbent_intact is True
        assert report.recovery_s is not None and report.recovery_s >= 0.0
        assert server.active_version == 1
        assert np.array_equal(server.decide(probe), before)

    def test_unloadable_candidate_is_refused(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server, pipeline = self._pipeline(registry)
        report = pipeline.promote(99)
        assert report.outcome == "refused"
        assert server.active_version == 1

    def test_zero_decision_cohort_aborts_not_hangs(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        registry.publish_table(table + 0.5, fingerprint)
        # A cohort so small no vehicle is assigned to it: the rollout
        # can never reach a verdict and must be aborted, not spun on.
        server, pipeline = self._pipeline(
            registry,
            fleet_config=FleetConfig(vehicles=6, steps=10, seed=5),
            canary_config=CanaryConfig(fraction=0.001, min_samples=2,
                                       decision_budget=50),
            max_rounds=2)
        report = pipeline.promote(2)
        assert report.outcome == "aborted"
        assert report.canary_decisions == 0
        assert report.incumbent_intact is True
        assert server.active_version == 1 and server.canary is None

    def test_promotion_without_incumbent_raises(self, tmp_path, policy):
        table, fingerprint = policy
        registry = _registry(tmp_path, table, fingerprint)
        server = PolicyServer(registry)  # nothing activated
        pipeline = PromotionPipeline(server, registry)
        with pytest.raises(ServeError, match="incumbent"):
            pipeline.promote(1)


class TestOnlineLearningLoop:
    def _seeded_registry(self, tmp_path, policy):
        table, fingerprint = policy
        return _registry(tmp_path, table, fingerprint)

    def test_loop_rounds_stream_ingest_and_promote(self, tmp_path, policy):
        registry = self._seeded_registry(tmp_path, policy)
        with OnlineLearningLoop(
                registry, tmp_path / "wd",
                fleet_config=FleetConfig(vehicles=48, steps=10, seed=3),
                promote_every=2) as loop:
            report = loop.run(4)
        assert len(report.rounds) == 4
        for rnd in report.rounds:
            assert rnd.decisions > 0
            assert rnd.records_streamed > 0
            assert rnd.records_ingested == rnd.records_streamed
            assert rnd.quarantined == 0
        assert report.rounds[1].promotion is not None
        assert report.final_version >= 1

    def test_resume_pins_the_vetted_incumbent(self, tmp_path, policy):
        table, fingerprint = policy
        registry = self._seeded_registry(tmp_path, policy)
        config = FleetConfig(vehicles=32, steps=8, seed=3)
        with OnlineLearningLoop(registry, tmp_path / "wd",
                                fleet_config=config,
                                promote_every=10) as loop:
            loop.run(1)
            vetted = loop.server.active_version
        # An unvetted candidate lands in the registry after the crash
        # (e.g. published but never promoted).  A resumed loop must NOT
        # serve it: the pinned incumbent wins over activate_latest.
        registry.publish_table(-table, fingerprint)
        with OnlineLearningLoop(registry, tmp_path / "wd",
                                fleet_config=config, resume=True) as loop:
            assert loop.server.active_version == vetted
        assert json.loads(
            (tmp_path / "wd" / STATE_NAME).read_text())["version"] == vetted

    def test_corrupt_state_file_is_structured(self, tmp_path, policy):
        registry = self._seeded_registry(tmp_path, policy)
        config = FleetConfig(vehicles=16, steps=5, seed=3)
        workdir = tmp_path / "wd"
        with OnlineLearningLoop(registry, workdir, fleet_config=config):
            pass
        (workdir / STATE_NAME).write_text('{"version": "three"}')
        with pytest.raises(PersistenceError, match="state"):
            OnlineLearningLoop(registry, workdir, fleet_config=config,
                               resume=True)

    def test_empty_registry_is_a_serve_error(self, tmp_path):
        with pytest.raises(ServeError, match="publish one first"):
            OnlineLearningLoop(PolicyRegistry(tmp_path / "empty"),
                               tmp_path / "wd")

    def test_invalid_loop_configs_are_structured(self, tmp_path, policy):
        registry = self._seeded_registry(tmp_path, policy)
        with pytest.raises(ExperienceError):
            OnlineLearningLoop(registry, tmp_path / "wd", promote_every=0)
        with OnlineLearningLoop(registry, tmp_path / "wd") as loop:
            with pytest.raises(ExperienceError):
                loop.run(0)


def _tick(**overrides):
    """Keyword columns of one valid two-record tick, with overrides."""
    columns = dict(states=np.array([1, 2]), actions=np.array([0, 1]),
                   rewards=np.array([0.5, -0.25]),
                   next_states=np.array([2, 3]),
                   policy_versions=np.array([1, 1]),
                   vehicle_ids=np.array([3, 4], dtype=np.uint64), step=0)
    columns.update(overrides)
    return columns


class _HalfThenENOSPC(FilesystemShim):
    """The disk fills mid-flush: the first journal write lands half its
    bytes (a short write), every later one fails with ENOSPC."""

    def __init__(self, target):
        self.target = Path(target)
        self.landed = 0

    def write(self, path, data, default):
        if path != self.target:
            return default(data)
        if self.landed == 0:
            self.landed = default(data[:len(data) // 2])
            return self.landed
        raise OSError(errno.ENOSPC, "No space left on device")


class TestColumnarStream:
    @pytest.mark.parametrize("override", [
        {"states": np.array([1.7, 2.0])},
        {"actions": np.array([True, False])},
        {"rewards": np.array([0.5, np.nan])},
        {"rewards": np.array([False, True])},
        {"policy_versions": np.array([1, 0])},
        {"vehicle_ids": np.array([3, -1])},
        {"next_states": np.array([2, 3, 4])},
        {"step": -1},
        {"step": True},
    ], ids=["float-states", "bool-actions", "nan-reward", "bool-reward",
            "version-0", "negative-vehicle", "mismatched-lengths",
            "negative-step", "bool-step"])
    def test_malformed_tick_is_refused_whole(self, tmp_path, override):
        with ExperienceStream(tmp_path) as stream:
            stream.offer_batch(**_tick())
            with pytest.raises(ExperienceError):
                stream.offer_batch(**_tick(**override))
            assert stream.offered == 2 and stream.buffered == 2
            stream.flush()
            assert len(read_journal(stream.path).records) == 2

    def test_one_write_per_flush(self, tmp_path):
        class Count(FilesystemShim):
            writes = 0

            def write(self, path, data, default):
                Count.writes += 1
                return default(data)

        with ExperienceStream(tmp_path) as stream:
            stream.flush()  # header only
            with shimmed(Count()):
                for step in range(3):
                    stream.offer_batch(**_tick(step=step))
                assert stream.flush() == 6
        assert Count.writes == 1

    def test_short_write_then_enospc_loses_nothing(self, tmp_path):
        records = _records(17)
        with ExperienceStream(tmp_path) as stream:
            stream.offer_batch(*_columns(records[:4]), step=0)
            stream.flush()
            stream.offer_batch(*_columns(records[4:9]), step=0)
            with shimmed(_HalfThenENOSPC(stream.path)) as shim:
                with pytest.raises(ExperienceError, match="remain buffered"):
                    stream.flush()
            # Only lines that landed whole count; the rest stay buffered.
            body = stream.path.read_bytes()
            assert not body.endswith(b"\n") and shim.landed > 0
            whole = body.count(b"\n") - 1 - 4
            assert stream.written == 4 + whole
            assert stream.buffered == 5 - whole
            # Space returns: the next flush ends the torn fragment first.
            stream.offer_batch(*_columns(records[9:]), step=0)
            stream.flush()
            assert stream.written == 17 and stream.buffered == 0
        piece = read_journal(stream.path)
        assert piece.records == records
        assert piece.quarantined == 1


def _line_variants():
    """Mangled record lines: raw bytes, byte splices of a valid line and
    JSON objects with a replaced or missing field."""
    valid = _VALID.encode("utf-8")
    splice = st.tuples(st.integers(0, len(valid)), st.integers(0, len(valid)),
                       st.binary(max_size=6)).map(
        lambda t: valid[:min(t[:2])] + t[2] + valid[max(t[:2]):])
    value = st.one_of(st.none(), st.booleans(), st.integers(-3, 2 ** 64),
                      st.floats(), st.text(max_size=3))
    mutate = st.tuples(st.sampled_from(sorted(json.loads(_VALID))),
                       value, st.booleans()).map(_mutated_line)
    return st.one_of(st.binary(max_size=40), splice, mutate).map(
        lambda line: line.replace(b"\n", b" "))


def _mutated_line(spec):
    field, value, drop = spec
    payload = json.loads(_VALID)
    if drop:
        del payload[field]
    else:
        payload[field] = value
    return json.dumps(payload).encode("utf-8")


class TestReaderValidatorParity:
    @settings(max_examples=200, deadline=None)
    @given(line=_line_variants())
    def test_reader_quarantines_exactly_what_decode_record_rejects(self,
                                                                   line):
        try:
            expected = decode_record(line.decode("utf-8"))
        except (ExperienceError, UnicodeDecodeError):
            expected = None
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_journal(Path(tmp), _records(1))
            with open(path, "ab") as fh:
                fh.write(line + b"\n")
            piece = read_journal(path)
        assert piece.quarantined == (expected is None)
        if expected is not None:
            values = tuple(piece.columns[name][1] for name in FIELDS)
            assert values == dataclasses.astuple(expected)
            assert type(values[2]) is float


def _swap(old, new):
    assert _VALID.count(old) == 1, old
    return _VALID.replace(old, new).encode("utf-8")


_REORDERED = json.dumps(dict(reversed(json.loads(_VALID).items())))
_FALLBACK_MUTANTS = {
    # Integer-valued rewards: json reads them as ints (-0 becomes 0.0).
    "reward--0": _swap("0.5", "-0"),
    "reward-5": _swap("0.5", "5"),
    "reward-1e400": _swap("0.5", "1e400"),
    "reward-lead-zero": _swap("0.5", "00.5"),
    "reward-bare-point": _swap("0.5", "5."),
    "reward-plus": _swap("0.5", "+0.5"),
    "reward-true": _swap("0.5", "true"),
    "id-19-digits": _swap('"vehicle_id": 7', '"vehicle_id": ' + "9" * 19),
    "id-lead-zero": _swap('"state": 3', '"state": 03'),
    "id-negative": _swap('"state": 3', '"state": -3'),
    "id-float": _swap('"step": 11', '"step": 11.0'),
    "id-bool": _swap('"action": 1', '"action": true'),
    "version-0": _swap('"policy_version": 2', '"policy_version": 0'),
    "v-float": _swap('"v": 1', '"v": 1.0'),
    "v-2": _swap('"v": 1', '"v": 2'),
    "crlf": _VALID.encode("utf-8") + b"\r",
    "leading-space": b" " + _VALID.encode("utf-8"),
    "garbage-prefix": b"x" + _VALID.encode("utf-8"),
    "trailing-space": _VALID.encode("utf-8") + b" ",
    "compact": json.dumps(json.loads(_VALID), sort_keys=True,
                          separators=(",", ":")).encode("utf-8"),
    "reordered": _REORDERED.encode("utf-8"),
    "duplicate-key": _VALID[:-1].encode("utf-8") + b', "v": 1}',
    "non-ascii-space": _swap(' "v"', '\u00a0"v"'),
    "non-utf8": _VALID.encode("utf-8")[:-1] + b"\xff}",
    "torn": _VALID.encode("utf-8")[:40],
    "empty": b"",
}
"""Lines the canonical recogniser must leave to ``decode_values``."""

_CANONICAL_MUTANTS = {
    "reward--0.0": _swap("0.5", "-0.0"),
    "reward-5e-324": _swap("0.5", "5e-324"),
    "reward-1E+16": _swap("0.5", "1E+16"),
    "reward-1e-400": _swap("0.5", "1e-400"),
    "reward-0.50": _swap("0.5", "0.50"),
    "id-18-digits": _swap('"vehicle_id": 7', '"vehicle_id": ' + "9" * 18),
}
"""Canonical lines the writer does not print but ``decode_values``
reads to the same values."""

_MUTANTS = {**_FALLBACK_MUTANTS, **_CANONICAL_MUTANTS}


def _rows(top):
    """Record rows (FIELDS order, without step) with ids below ``top``."""
    ids = st.integers(0, top - 1)
    return st.lists(st.tuples(
        ids, ids, st.floats(allow_nan=False, allow_infinity=False), ids,
        st.integers(1, top - 1), ids), min_size=1, max_size=50)


def _canonical_lines(rows, step):
    """Writer-formatted lines of ``rows`` (FIELDS order, no step), each
    without its newline."""
    columns = [np.array(column, dtype=np.float64 if name == "reward"
                        else np.int64)
               for name, column in zip(FIELDS, zip(*rows))]
    return [line[:-1].encode("ascii")
            for line in encode_columns(*columns, step=step)]


def _read_in_pieces(directory, lines, split, chunk_bytes):
    """Slices read after ``lines[:split]`` and then after the rest land,
    with the reader's chunk size set to ``chunk_bytes``."""
    with ExperienceStream(directory) as stream:
        stream.flush()  # header only
    pieces = []
    with mock.patch.object(journal_module, "_CHUNK_BYTES", chunk_bytes):
        for part in (lines[:split], lines[split:]):
            with open(stream.path, "ab") as fh:
                fh.write(b"".join(line + b"\n" for line in part))
            pieces.append(read_journal(
                stream.path, pieces[-1].cursor if pieces else None))
    return stream.path, pieces


def _assert_matches_reference(path, pieces):
    """Columns, quarantine count and cursor equal to the per-record
    reference reader's, rewards compared by ``float.hex``."""
    records, quarantined = read_records(path)
    for name in FIELDS:
        assert all(type(piece.columns[name]) is tuple for piece in pieces)
        got = [value for piece in pieces for value in piece.columns[name]]
        want = [getattr(record, name) for record in records]
        if name == "reward":
            got, want = list(map(float.hex, got)), list(map(float.hex, want))
        else:
            assert all(type(value) is int for value in got)
        assert got == want, name
    assert sum(piece.quarantined for piece in pieces) == quarantined
    body = path.read_bytes()
    assert pieces[-1].cursor == {"offset": len(body),
                                 "sha256": hashlib.sha256(body).hexdigest(),
                                 "lines": body.count(b"\n") - 1}


class TestCanonicalReader:
    """The chunked canonical-line reader against the per-record
    reference of ``tests/experience_reference.py``."""

    @pytest.mark.parametrize("mutant", sorted(_MUTANTS))
    @pytest.mark.parametrize("chunk_bytes", [1, 400, 1 << 20])
    def test_mutant_among_canonical_lines(self, tmp_path, mutant,
                                          chunk_bytes):
        lines = [line for tick in range(3) for line in _canonical_lines(
            [(tick, 2, -0.0, 5, 1, 10 ** 18 - 1), (0, 1, 5e-324, 2, 3, 4),
             (7, 0, 1e16, 8, 9, tick)], step=10 * tick)]
        lines[4:4] = [_MUTANTS[mutant]] * 2
        path, pieces = _read_in_pieces(tmp_path, lines, 5, chunk_bytes)
        _assert_matches_reference(path, pieces)

    @settings(max_examples=150, deadline=None)
    @given(rows=_rows(2 ** 63), step=st.integers(0, 2 ** 63 - 1),
           mutants=st.lists(st.tuples(
               st.integers(0, 10 ** 6),
               st.one_of(st.sampled_from(sorted(_MUTANTS.values())),
                         _line_variants())), max_size=5),
           split=st.integers(0, 10 ** 6),
           chunk_bytes=st.integers(1, 2048))
    def test_mutants_straddling_chunks_match_reference(
            self, rows, step, mutants, split, chunk_bytes):
        lines = _canonical_lines(rows, step)
        for where, line in mutants:
            lines.insert(where % (len(lines) + 1), line)
        with tempfile.TemporaryDirectory() as tmp:
            path, pieces = _read_in_pieces(
                Path(tmp), lines, split % (len(lines) + 1), chunk_bytes)
            _assert_matches_reference(path, pieces)

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows(10 ** 18), step=st.integers(0, 10 ** 18 - 1))
    def test_writer_lines_with_short_ids_are_canonical(self, rows, step):
        data = b"".join(line + b"\n" for line in _canonical_lines(rows, step))
        columns = decode_canonical(data, 0, len(data))
        assert columns is not None
        expected = [decode_values(line.decode("ascii"))
                    for line in data.split(b"\n")[:-1]]
        assert [tuple(map(repr, row)) for row in zip(*columns)] == \
            [tuple(map(repr, row)) for row in expected]

    @pytest.mark.parametrize("mutant", sorted(_FALLBACK_MUTANTS))
    def test_fallback_mutants_are_not_canonical(self, mutant):
        data = (_VALID.encode("ascii") + b"\n"
                + _FALLBACK_MUTANTS[mutant] + b"\n")
        assert decode_canonical(data, 0, len(data)) is None
        assert decode_canonical(data, 0, len(_VALID) + 1) is not None

    @pytest.mark.parametrize("mutant", sorted(_CANONICAL_MUTANTS))
    def test_canonical_mutants_are_recognised(self, mutant):
        data = _CANONICAL_MUTANTS[mutant] + b"\n"
        columns = decode_canonical(data, 0, len(data))
        assert columns is not None
        assert tuple(map(repr, (column[0] for column in columns))) == \
            tuple(map(repr, decode_values(data[:-1].decode("ascii"))))


class TestDifferentialAgainstPerRecord:
    """The columnar path against ``tests/experience_reference.py``."""

    _FP = {"kind": "test", "seed": 2}

    @staticmethod
    def _random_tick(rng, step):
        n = int(rng.integers(1, 14))
        rewards = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        special = np.array([-0.0, 5e-324, 1e16, 0.1, -1.5, 3.0])
        rewards[rng.random(n) < 0.2] = rng.choice(special)
        return dict(
            # One id past the 12 x 4 table in each id column: foreign.
            states=rng.integers(0, 13, size=n),
            actions=rng.integers(0, 5, size=n),
            rewards=rewards,
            next_states=rng.integers(0, 13, size=n),
            policy_versions=rng.integers(1, 4, size=n),
            vehicle_ids=np.sort(rng.choice(2 ** 40, size=n,
                                           replace=False)).astype(np.uint64),
            step=step)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("double_q", [False, True])
    @pytest.mark.parametrize("buffer_limit", [9, 8192])
    def test_bytes_and_tables_match(self, tmp_path, seed, double_q,
                                    buffer_limit):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(12, 4))
        config = OnlineLearnerConfig(double_q=double_q)
        ckpt = tmp_path / "ckpt.json"
        learner = OnlineLearner(self._FP, table, config=config,
                                checkpoint_path=ckpt)
        ref_stream = ReferenceStream(tmp_path / "ref",
                                     buffer_limit=buffer_limit)
        with ExperienceStream(tmp_path / "col",
                              buffer_limit=buffer_limit) as stream:
            for step in range(12):
                tick = self._random_tick(rng, step)
                stream.offer_batch(**tick)
                ref_stream.offer_batch(**tick)
                if step % 2:
                    stream.flush()
                    ref_stream.flush()
                if step % 4 == 3:
                    # Kill the learner after an ingest; resume from disk.
                    learner.ingest(tmp_path / "col")
                    learner = OnlineLearner.resume(ckpt)
            stream.flush()
            ref_stream.flush()
            assert (stream.shed, stream.written) == \
                (ref_stream.shed, ref_stream.written)
        learner.ingest(tmp_path / "col")
        assert stream.path.read_bytes() == ref_stream.path.read_bytes()

        records, quarantined = read_records(ref_stream.path)
        reference = ReferenceLearner(table, double_q=double_q)
        reference.apply(records)
        assert quarantined == 0 and reference.excluded > 0
        assert buffer_limit > 100 or stream.shed > 0
        assert (learner.records, learner.excluded) == \
            (reference.updates, reference.excluded)
        assert np.array_equal(learner.table, reference.table)
