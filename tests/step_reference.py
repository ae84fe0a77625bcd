"""Reference of the agent's per-step bookkeeping (differential oracle).

The simple path the lean control step must reproduce bit for bit:

* :class:`ReferenceTraces` — the ``OrderedDict`` eligibility list, one
  Python multiply per pair on decay;
* :func:`reference_update` / :func:`reference_update_terminal` — the TD
  update that rebuilds key and eligibility arrays from the list each step;
* :func:`reference_indices` / :func:`reference_state_of` — the
  ``np.searchsorted`` discretiser with ``np.ravel_multi_index``;
* :func:`reference_act` — the step that evaluates the road load through
  ``VehicleDynamics.power_demand`` before the grid kernel recomputes it;
* :func:`classified_moving_grid` — the moving-grid kernel with the mode
  re-derived by :func:`repro.powertrain.modes.classify`.

:func:`reference_step_path` patches all of them into the production
classes for the duration of a ``with`` block; ``tests/test_step_path.py``
compares the two paths.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import OrderedDict
from unittest import mock

import numpy as np

from repro.powertrain.modes import classify
from repro.powertrain.solver import PowertrainSolver
from repro.rl import td_lambda
from repro.rl.agent import ExecutedStep, JointControlAgent
from repro.rl.discretize import StateDiscretizer
from repro.rl.td_lambda import TDLambdaLearner

_production_moving_grid = PowertrainSolver._moving_grid


class ReferenceTraces:
    """M-most-recent eligibility list kept in an ``OrderedDict``."""

    def __init__(self, decay: float, max_entries: int = 64):
        if not 0.0 <= decay < 1.0:
            raise ValueError("trace decay must be in [0, 1)")
        if max_entries < 1:
            raise ValueError("need room for at least one trace entry")
        self._decay = decay
        self._max = max_entries
        self._traces = OrderedDict()

    def __len__(self):
        return len(self._traces)

    def __iter__(self):
        return iter(self._traces.items())

    def get(self, state, action):
        return self._traces.get((state, action), 0.0)

    def visit(self, state, action):
        key = (state, action)
        value = self._traces.pop(key, 0.0) + 1.0
        self._traces[key] = value
        while len(self._traces) > self._max:
            self._traces.popitem(last=False)

    def decay(self):
        if self._decay == 0.0:
            self._traces.clear()
            return
        for key in self._traces:
            self._traces[key] *= self._decay

    def clear(self):
        self._traces.clear()


def _credit(learner, traces, delta):
    keys = np.array([k for k, _ in traces])
    eligibilities = np.array([e for _, e in traces])
    learner.qtable.values[keys[:, 0], keys[:, 1]] += (
        learner.learning_rate * eligibilities * delta)


def reference_update(learner, state, action, reward, next_state):
    """``TDLambdaLearner.update`` over the learner's ``traces``."""
    q = learner.qtable.values
    delta = (reward + learner.config.discount
             * learner.qtable.best_value(next_state) - q[state, action])
    learner.traces.visit(state, action)
    _credit(learner, learner.traces, delta)
    learner.traces.decay()
    learner._episode_dirty = True
    return float(delta)


def reference_update_terminal(learner, state, action, reward):
    """``TDLambdaLearner.update_terminal`` over the learner's ``traces``."""
    delta = reward - learner.qtable.values[state, action]
    learner.traces.visit(state, action)
    _credit(learner, learner.traces, delta)
    learner.traces.decay()
    learner._episode_dirty = True
    return float(delta)


def reference_indices(d, power_demand, speed, soc, prediction_level):
    """Per-dimension bins of ``d`` through ``np.searchsorted``."""
    shape = d.shape
    ip = int(np.searchsorted(d._power_edges, power_demand, side="right"))
    iv = int(np.searchsorted(d._speed_edges, speed, side="right"))
    iq = int(np.clip(np.searchsorted(d._soc_edges, soc, side="right"),
                     0, shape[2] - 1))
    il = int(np.clip(prediction_level, 0, shape[3] - 1))
    return ip, iv, iq, il


def reference_state_of(d, power_demand, speed, soc, prediction_level=0):
    """State id of one observation through ``np.ravel_multi_index``."""
    return int(np.ravel_multi_index(
        reference_indices(d, power_demand, speed, soc, prediction_level),
        d.shape))


def reference_act(agent, speed, acceleration, soc, dt, grade=0.0,
                  learn=True, greedy=False):
    """``JointControlAgent.act`` with the road load evaluated up front."""
    p_dem = float(agent.solver.dynamics.power_demand(speed, acceleration,
                                                     grade))
    state = agent.observe_state(p_dem, speed, soc)
    if agent.predictor is not None:
        agent.predictor.update(p_dem)
        update_velocity = getattr(agent.predictor, "update_velocity", None)
        if update_velocity is not None:
            update_velocity(speed)
    if learn and agent._pending is not None:
        prev_state, prev_action, prev_reward = agent._pending
        agent.learner.update(prev_state, prev_action, prev_reward, state)

    batch = agent.solver.evaluate_grid(agent._workspace, speed, acceleration,
                                       soc, dt, grade)
    rewards = np.asarray(agent.reward(
        batch.fuel_rate, batch.aux_power, dt, soc_next=batch.soc_next,
        soc_prev=soc, shortfall=batch.shortfall), dtype=float)
    feasible_group, best_primitive = agent._reduce(batch, rewards)
    if np.any(feasible_group):
        group_rewards = np.where(feasible_group, rewards[best_primitive],
                                 -np.inf)
        myopic = int(np.argmax(group_rewards))
    else:
        myopic = None
    rl_action = agent.exploration.select(
        agent.learner.qtable.row(state), feasible_group, greedy=greedy,
        guided=myopic)
    if feasible_group[rl_action]:
        prim = int(best_primitive[rl_action])
        fallback = False
    else:
        prim = agent._fallback_primitive(batch)
        fallback = True

    reward = float(rewards[prim])
    if learn:
        agent._pending = (state, rl_action, reward)
    agent._last_soc = float(batch.soc_next[prim])
    return ExecutedStep(
        state=state, rl_action=rl_action,
        current=float(batch.battery_current[prim]),
        gear=int(batch.gear[prim]),
        aux_power=float(batch.aux_power[prim]),
        fuel_rate=float(batch.fuel_rate[prim]),
        soc_next=float(batch.soc_next[prim]),
        reward=reward,
        paper_reward=float(agent.reward.paper_reward(
            batch.fuel_rate[prim], batch.aux_power[prim], dt)),
        feasible=not fallback, mode=int(batch.mode[prim]),
        power_demand=p_dem, shortfall=float(batch.shortfall[prim]))


def classified_moving_grid(solver, ws, wheel_speed, wheel_torque, p_dem,
                           soc, dt):
    """The moving-grid kernel with ``mode`` recomputed by ``classify``."""
    batch = _production_moving_grid(solver, ws, wheel_speed, wheel_torque,
                                    p_dem, soc, dt)
    return dataclasses.replace(batch, mode=classify(
        batch.engine_torque, batch.motor_torque, wheel_speed,
        wheel_torque < 0.0))


@contextlib.contextmanager
def reference_step_path():
    """Run the enclosed block on the reference step components.

    Learners built inside the block get :class:`ReferenceTraces`.
    """
    patches = (
        mock.patch.object(td_lambda, "EligibilityTraces", ReferenceTraces),
        mock.patch.object(TDLambdaLearner, "update", reference_update),
        mock.patch.object(TDLambdaLearner, "update_terminal",
                          reference_update_terminal),
        mock.patch.object(StateDiscretizer, "indices", reference_indices),
        mock.patch.object(StateDiscretizer, "state_of", reference_state_of),
        mock.patch.object(JointControlAgent, "act", reference_act),
        mock.patch.object(PowertrainSolver, "_moving_grid",
                          classified_moving_grid),
    )
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield
