"""Differential tests: the lean control step vs its simple reference.

The production step (array-backed eligibility traces, ``bisect``
discretiser, mode lookup table, one road load per step) must reproduce
the reference path frozen in ``tests/step_reference.py`` bit for bit:
same (key, eligibility) lists, same state ids, same modes, and — closed
loop — the same learned Q-tables and episode traces.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.powertrain.modes import classify
from repro.powertrain.solver import _TORQUE_TOL, _motoring_mode
from repro.rl.discretize import StateDiscretizer
from repro.rl.td_lambda import TDLambdaConfig, TDLambdaLearner
from repro.rl.traces import EligibilityTraces
from repro.sim import Simulator
from repro.sim.training import evaluate, train
from repro.vehicle import default_vehicle

from tests.step_reference import (
    ReferenceTraces,
    reference_indices,
    reference_state_of,
    reference_step_path,
    reference_update,
    reference_update_terminal,
)
from tests.test_vectorized_equivalence import EPISODE_FIELDS

# --------------------------------------------------------------- traces ---

_ops = st.lists(st.one_of(
    st.tuples(st.just("visit"), st.integers(0, 5), st.integers(0, 2)),
    st.tuples(st.just("decay")),
    st.tuples(st.just("clear"))), max_size=80)
_decays = st.one_of(st.just(0.0), st.just(0.48),
                    st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(ops=_ops, decay=_decays, max_entries=st.integers(1, 7))
def test_traces_match_ordered_dict_reference(ops, decay, max_entries):
    fast = EligibilityTraces(decay, max_entries)
    ref = ReferenceTraces(decay, max_entries)
    for op in ops:
        getattr(fast, op[0])(*op[1:])
        getattr(ref, op[0])(*op[1:])
        assert list(fast) == list(ref)
        assert len(fast) == len(ref)
        for s, a in itertools.product(range(6), range(3)):
            assert fast.get(s, a) == ref.get(s, a)
        states, actions, elig = fast.arrays()
        assert (sorted(zip(states.tolist(), actions.tolist(), elig.tolist()))
                == sorted((s, a, e) for (s, a), e in ref))


_transitions = st.lists(st.tuples(
    st.integers(0, 5), st.integers(0, 2),
    st.floats(-50.0, 50.0, allow_nan=False), st.integers(0, 5),
    st.sampled_from(("update", "update", "update", "terminal", "episode"))),
    min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(steps=_transitions, trace_decay=st.sampled_from((0.0, 0.6, 0.95)),
       max_traces=st.integers(1, 6))
def test_td_updates_match_reference(steps, trace_decay, max_traces):
    config = TDLambdaConfig(trace_decay=trace_decay, max_traces=max_traces)
    fast = TDLambdaLearner(6, 3, config, seed=3)
    ref = TDLambdaLearner(6, 3, config, seed=3)
    ref._traces = ReferenceTraces(config.discount * trace_decay, max_traces)
    for state, action, reward, next_state, kind in steps:
        if kind == "episode":
            fast.start_episode()
            ref.start_episode()
            continue
        if kind == "update":
            got = fast.update(state, action, reward, next_state)
            want = reference_update(ref, state, action, reward, next_state)
        else:
            got = fast.update_terminal(state, action, reward)
            want = reference_update_terminal(ref, state, action, reward)
        assert got == want
        assert np.array_equal(fast.qtable.values, ref.qtable.values)
        assert list(fast.traces) == list(ref.traces)
    assert fast.learning_rate == ref.learning_rate


# ----------------------------------------------------------- discretiser ---

_DISCRETIZERS = (
    StateDiscretizer(),
    StateDiscretizer(power_edges=(0.0,), speed_edges=(), soc_min=0.3,
                     soc_max=0.9, soc_bins=1, prediction_levels=1),
    StateDiscretizer(power_edges=(-1.0, -0.0, 1e-300, 7.5),
                     speed_edges=(0.5, 3.0), soc_bins=5,
                     prediction_levels=4),
)


def _specials(edges):
    out = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308]
    for e in edges:
        out += [e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf)]
    return out


def _assert_state_of_agrees(d, p, v, q, level):
    got = d.state_of(p, v, q, level)
    assert type(got) is int
    assert got == reference_state_of(d, p, v, q, level)
    assert d.indices(p, v, q, level) == reference_indices(d, p, v, q, level)
    batch = d.state_of_batch(np.array([p], dtype=float),
                             np.array([v], dtype=float),
                             np.array([q], dtype=float),
                             np.array([level]))
    assert got == int(batch[0])


@pytest.mark.parametrize("d", _DISCRETIZERS)
def test_state_of_matches_reference_on_edges_and_specials(d):
    powers = _specials(d._power_edges.tolist())
    speeds = _specials(d._speed_edges.tolist())
    socs = _specials(d._soc_edges.tolist()) + [0.4, 0.8]
    levels = (-5, 0, 1, d.shape[3] - 1, d.shape[3], 99)
    for p, v, q in itertools.product(powers, speeds, socs):
        _assert_state_of_agrees(d, p, v, q, 0)
    for p, level in itertools.product(powers, levels):
        _assert_state_of_agrees(d, p, 10.0, 0.55, level)


@pytest.mark.parametrize("d", _DISCRETIZERS)
def test_state_of_accepts_numpy_and_int_inputs(d):
    for p, v, q, level in ((np.float64(500.0), np.float64(8.0),
                            np.float64(0.55), np.int64(2)),
                           (500, 8, 0, 1), (-5000, 0, 1, np.int64(-3)),
                           (np.float64(-0.0), np.float64(math.nan),
                            np.float64(math.inf), 0),
                           (4000, 24, np.float64(0.7), True)):
        _assert_state_of_agrees(d, p, v, q, level)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(allow_nan=True, allow_infinity=True),
       v=st.floats(allow_nan=True, allow_infinity=True),
       q=st.floats(allow_nan=True, allow_infinity=True),
       level=st.integers(-10, 10))
def test_state_of_matches_reference_on_any_float(p, v, q, level):
    _assert_state_of_agrees(_DISCRETIZERS[0], p, v, q, level)


# ----------------------------------------------------------------- modes ---

def test_mode_lookup_matches_classify_at_tolerance():
    tol = _TORQUE_TOL
    values = [0.0, -0.0, tol, -tol, math.nan, 250.0, -250.0, math.inf,
              -math.inf]
    values += [np.nextafter(t, d) for t in (tol, -tol)
               for d in (math.inf, -math.inf)]
    engine, motor = (np.array(x) for x in
                     zip(*itertools.product(values, values)))
    want = classify(engine, motor, np.full(engine.shape, 5.0), False)
    got = _motoring_mode(engine, motor)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# ------------------------------------------------------------ closed loop ---

_CYCLE = synthesize(CycleSpec("step-path", duration=240,
                              mean_speed_kmh=32.0, max_speed_kmh=75.0,
                              stop_count=3, seed=17))


def _train_and_drive(variant):
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, variant, seed=5)
    sim = Simulator(solver)
    run = train(sim, controller, _CYCLE, episodes=2, evaluate_after=False,
                seed=5)
    drive = evaluate(sim, controller, _CYCLE)
    return controller.agent, list(run.episodes) + [drive]


@pytest.mark.parametrize("variant", ["proposed", "no_prediction",
                                     "baseline13"])
def test_closed_loop_matches_reference_step_path(variant):
    with reference_step_path():
        ref_agent, ref_episodes = _train_and_drive(variant)
        assert isinstance(ref_agent.learner.traces, ReferenceTraces)
    agent, episodes = _train_and_drive(variant)
    assert isinstance(agent.learner.traces, EligibilityTraces)

    assert np.array_equal(agent.learner.qtable.values,
                          ref_agent.learner.qtable.values)
    assert len(episodes) == len(ref_episodes) == 3
    modes = set()
    for fast, ref in zip(episodes, ref_episodes):
        for name in EPISODE_FIELDS:
            assert np.array_equal(getattr(fast, name), getattr(ref, name)), (
                f"{variant}: EpisodeResult.{name} diverged")
        modes.update(np.unique(fast.mode).tolist())
    # The drive exercises standstill, braking and several motoring modes.
    assert len(modes) >= 4


def test_act_batch_draws_no_exploration_randomness():
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver, "proposed", seed=9).agent
    agent.begin_episode()
    before = agent.exploration.state_dict()
    steps = agent.act_batch([0.0, 5.0, 20.0], [0.0, 1.0, -1.5],
                            [0.5, 0.6, 0.7], 1.0)
    assert agent.exploration.state_dict() == before
    assert [s.power_demand for s in steps] == [
        float(solver.dynamics.power_demand(v, a))
        for v, a in ((0.0, 0.0), (5.0, 1.0), (20.0, -1.5))]
