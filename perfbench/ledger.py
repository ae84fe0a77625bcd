"""Per-layer time ledger built by wrapping public methods from outside.

The program under test is never edited: while a :class:`Ledger` is
installed, each listed method is replaced on its class by a wrapper that
times the call and charges it to a layer.  A layer's *self* time is its
wrapped call time minus the time of the wrapped calls made inside it, so
the self times of all layers add up to the time spent inside root-level
wrapped calls; :func:`residual` compares that with the workload's wall
time.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, Iterable, List, Tuple

# (module, class, method, layer).  Layers are named after the module that
# owns the work; ``serve.server.rollout`` separates the swap/probe/canary
# entry points of ``repro.serve.server`` from its decision path.
TRAIN_EVAL_SPECS = (
    ("repro.sim.simulator", "Simulator", "run_episode", "sim.simulator"),
    ("repro.vehicle.battery", "Battery", "step", "vehicle.battery"),
    ("repro.rl.agent", "JointControlAgent", "act", "rl.agent"),
    ("repro.vehicle.dynamics", "VehicleDynamics", "power_demand",
     "vehicle.dynamics"),
    ("repro.rl.discretize", "StateDiscretizer", "state_of", "rl.discretize"),
    ("repro.prediction.exponential", "ExponentialPredictor", "update",
     "prediction"),
    ("repro.prediction.exponential", "ExponentialPredictor", "predict",
     "prediction"),
    ("repro.rl.td_lambda", "TDLambdaLearner", "update", "rl.td_lambda"),
    ("repro.rl.td_lambda", "TDLambdaLearner", "update_terminal",
     "rl.td_lambda"),
    ("repro.powertrain.solver", "PowertrainSolver", "evaluate_grid",
     "powertrain.solver"),
    ("repro.rl.reward", "RewardFunction", "__call__", "rl.reward"),
    ("repro.rl.reward", "RewardFunction", "paper_reward", "rl.reward"),
    ("repro.rl.exploration", "EpsilonGreedy", "select", "rl.exploration"),
)

FLEET_SPECS = (
    ("repro.serve.fleet", "FleetSimulator", "run", "serve.fleet"),
    ("repro.vehicle.dynamics", "VehicleDynamics", "power_demand",
     "vehicle.dynamics"),
    ("repro.rl.discretize", "StateDiscretizer", "state_of_batch",
     "rl.discretize"),
    ("repro.serve.server", "PolicyServer", "submit", "serve.server"),
    ("repro.serve.server", "PolicyServer", "pump", "serve.server"),
    ("repro.serve.server", "PolicyServer", "decide", "serve.server"),
)

ONLINE_SPECS = FLEET_SPECS + (
    ("repro.learn.loop", "OnlineLearningLoop", "run", "learn.loop"),
    ("repro.learn.journal", "ExperienceStream", "offer_batch",
     "learn.journal"),
    ("repro.learn.journal", "ExperienceStream", "flush", "learn.journal"),
    ("repro.learn.learner", "OnlineLearner", "ingest", "learn.learner"),
    ("repro.learn.learner", "OnlineLearner", "checkpoint", "learn.learner"),
    ("repro.learn.learner", "OnlineLearner", "publish", "learn.learner"),
    ("repro.learn.promotion", "PromotionPipeline", "promote",
     "learn.promotion"),
    ("repro.serve.server", "PolicyServer", "stage", "serve.server.rollout"),
    ("repro.serve.server", "PolicyServer", "swap", "serve.server.rollout"),
    ("repro.serve.server", "PolicyServer", "begin_canary",
     "serve.server.rollout"),
    ("repro.serve.server", "PolicyServer", "observe",
     "serve.server.rollout"),
    ("repro.serve.server", "PolicyServer", "canary_decide",
     "serve.server.rollout"),
    ("repro.serve.server", "PolicyServer", "rollback",
     "serve.server.rollout"),
    ("repro.serve.registry", "PolicyRegistry", "publish_table",
     "serve.registry"),
    ("repro.serve.registry", "PolicyRegistry", "load", "serve.registry"),
)


def layers_of(specs) -> Tuple[str, ...]:
    """The distinct layer names of ``specs``, in first-seen order."""
    return tuple(dict.fromkeys(spec[3] for spec in specs))


class Ledger:
    """Context manager that times wrapped calls per layer.

    ``calls[layer]`` counts wrapped calls (a call that re-enters the same
    layer counts again) and ``self_s[layer]`` accumulates self time.
    """

    def __init__(self, specs: Iterable[tuple]):
        self._specs = tuple(specs)
        self._saved: List[tuple] = []
        self._stack: List[float] = []
        layers = layers_of(self._specs)
        self.calls: Dict[str, int] = dict.fromkeys(layers, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(layers, 0.0)

    def _wrap(self, fn, layer: str):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        return timed

    def __enter__(self) -> "Ledger":
        try:
            for module, cls_name, method, layer in self._specs:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, layer))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def __exit__(self, *exc_info) -> None:
        self._restore()


def residual(self_s: Dict[str, float], wall_s: float) -> float:
    """Share of ``wall_s`` the layers' self times do not account for.

    That is wall time spent outside every wrapped call (the benchmark's
    own loop and unwrapped glue between entry points); a negative
    residual means time was counted twice.
    """
    return (wall_s - sum(self_s.values())) / wall_s
