"""Workloads and the three stages every benchmark run drives.

Each stage is a closed loop of *units*: a unit builds fresh program
objects from the seed, runs them to completion and returns what it
measured and produced.  The next unit starts only after the previous one
returned, so a slower program receives less load, never a backlog.

* ``train_eval`` — a fresh ``proposed`` RL controller trains with
  exploring starts on the workload's training cycle, then drives each
  evaluation cycle greedily without learning.  Exercises the grid kernel
  and the per-step Python path; the greedy half bypasses TD(lambda).
* ``fleet_serve`` — ``FleetSimulator`` drives a seeded population against
  a ``PolicyServer`` (256-state requests, 10% noisy-SoC vehicles, no
  experience stream, no canary).  Exercises the request queue, batched
  ``decide`` and batched discretisation; bypasses the kernel, TD and the
  journal.  Every state fits the server's LRU cache, so eviction is not
  exercised.
* ``online_round`` — ``OnlineLearningLoop`` rounds (fleet, journal write,
  ingest and checkpoint; every second round publish, canary and promote).
  The only stage that runs journal I/O, swap, probe and canary.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.learn import OnlineLearningLoop
from repro.learn.loop import JOURNAL_DIRNAME
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import _fingerprint
from repro.serve import FleetConfig, FleetSimulator, PolicyRegistry, \
    PolicyServer
from repro.sim.simulator import Simulator
from repro.sim.training import evaluate, train
from repro.vehicle import default_vehicle

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """The drive cycles a benchmark run feeds to all three stages."""

    name: str
    train_cycle: str
    eval_cycles: tuple
    fleet_cycles: tuple
    why: str


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("paper_mix", "UDDS", ("HWFET", "NYCC", "US06"),
                 ("UDDS", "NYCC", "SC03"),
                 "the paper's protocol: UDDS training, HWFET/NYCC/US06 "
                 "greedy drives (1-34% standstill), urban fleet mix"),
        Workload("highway_mix", "HWFET", ("US06", "HWFET"),
                 ("HWFET", "US06"),
                 "low-standstill cycles in every stage: the kernel's "
                 "moving branch and high-speed states dominate"),
    )
}


@dataclass(frozen=True)
class Sizes:
    """Work per unit of each stage."""

    train_episodes: int = 3
    fleet_vehicles: int = 8192
    fleet_ticks: int = 120
    online_vehicles: int = 1024
    online_ticks: int = 60
    online_rounds: int = 2


REQUEST_BATCH = 256
NOISY_SHARE = 0.1
PROMOTE_EVERY = 2


class TimedController:
    """Delegating controller that times every episode and ``act`` call.

    ``episodes`` gets one ``(learn, start, end, act_seconds)`` entry per
    finished episode; non-finite steps are counted as failed.  When
    ``observations`` is a list, every observation the controller is asked
    to act on is appended to it (the kernel cost model replays them).
    ``act_clock`` times the ``act`` calls; episodes are timed by
    :data:`clock`.
    """

    def __init__(self, inner, observations: Optional[list] = None,
                 act_clock=clock):
        self._inner = inner
        self._observations = observations
        self._act_clock = act_clock
        self._act_s: List[float] = []
        self._start = 0.0
        self.episodes: List[tuple] = []
        self.nonfinite = 0

    def begin_episode(self) -> None:
        self._act_s = []
        self._start = clock()
        self._inner.begin_episode()

    def act(self, speed, acceleration, soc, dt, grade=0.0, learn=True,
            greedy=False):
        start = self._act_clock()
        step = self._inner.act(speed, acceleration, soc, dt, grade,
                               learn=learn, greedy=greedy)
        self._act_s.append(self._act_clock() - start)
        if not (math.isfinite(step.reward) and math.isfinite(step.fuel_rate)
                and math.isfinite(step.soc_next)):
            self.nonfinite += 1
        if self._observations is not None:
            self._observations.append((speed, acceleration, soc, dt, grade))
        return step

    def finish_episode(self, learn: bool = True) -> None:
        self._inner.finish_episode(learn=learn)
        self.episodes.append((learn, self._start, clock(), self._act_s))


def seeded_policy(seed: int):
    """(Q-table, fingerprint) of a seeded policy for the serving stages."""
    agent = build_rl_controller(PowertrainSolver(default_vehicle()),
                                seed=seed).agent
    table = np.random.default_rng(seed).normal(
        size=agent.learner.qtable.values.shape)
    return table, _fingerprint(agent)


def publish(root: Path, table, fingerprint) -> PolicyRegistry:
    """A fresh registry under ``root`` holding ``table`` as version 1."""
    registry = PolicyRegistry(root)
    registry.publish_table(table, fingerprint)
    return registry


def fleet_config(wl: Workload, vehicles: int, ticks: int,
                 seed: int) -> FleetConfig:
    return FleetConfig(vehicles=vehicles, steps=ticks,
                       cycles=wl.fleet_cycles, fault_fraction=NOISY_SHARE,
                       request_batch=REQUEST_BATCH, seed=seed)


def setup(wl: Workload, sizes: Sizes, seed: int, workdir: Path) -> None:
    """Build what the three stages need before their first step."""
    solver = PowertrainSolver(default_vehicle())
    build_rl_controller(solver, seed=seed)
    Simulator(solver)
    for name in (wl.train_cycle,) + wl.eval_cycles:
        standard_cycle(name)
    table, fingerprint = seeded_policy(seed)
    registry = publish(workdir / "registry", table, fingerprint)
    PolicyServer(registry).activate(registry.load(1))
    OnlineLearningLoop(registry, workdir / "loop",
                       fleet_config=fleet_config(wl, sizes.online_vehicles,
                                                 sizes.online_ticks, seed),
                       promote_every=PROMOTE_EVERY).close()


def train_eval_unit(wl: Workload, sizes: Sizes, seed: int,
                    record: bool = False, act_clock=clock) -> dict:
    solver = PowertrainSolver(default_vehicle())
    observations = [] if record else None
    controller = TimedController(
        build_rl_controller(solver, "proposed", seed=seed), observations,
        act_clock)
    sim = Simulator(solver)
    train_cycle = standard_cycle(wl.train_cycle)
    eval_cycles = [standard_cycle(name) for name in wl.eval_cycles]

    start = clock()
    run = train(sim, controller, train_cycle, episodes=sizes.train_episodes,
                evaluate_after=False, seed=seed)
    drives = [evaluate(sim, controller, cycle) for cycle in eval_cycles]
    end = clock()

    train_steps = sum(len(ep.reward) for ep in run.episodes)
    eval_steps = sum(len(d.reward) for d in drives)
    return {
        "wall_s": end - start, "window": (start, end),
        "train_steps": train_steps, "eval_steps": eval_steps,
        "episodes": controller.episodes, "observations": observations,
        "paper_reward": math.fsum(d.total_paper_reward for d in drives),
        "outputs": tuple((d.total_paper_reward, d.total_fuel)
                         for d in drives),
        "attempted": train_steps + eval_steps,
        "failed": controller.nonfinite,
    }


def fleet_unit(wl: Workload, sizes: Sizes, seed: int,
               registry: PolicyRegistry, server_clock=time.monotonic) -> dict:
    """``server_clock`` is the clock the server times requests with."""
    server = PolicyServer(registry, clock=server_clock)
    server.activate(registry.load(1))
    fleet = FleetSimulator(server, fleet_config(
        wl, sizes.fleet_vehicles, sizes.fleet_ticks, seed))
    start = clock()
    result = fleet.run()
    end = clock()
    served = len(result.request_latencies_s)
    return {
        "wall_s": end - start, "window": (start, end),
        "decisions": result.decisions,
        "latencies_s": result.request_latencies_s,
        "outputs": (result.mean_reward, result.decisions),
        "requests": served + result.shed_requests,
        "limp": result.limp_decisions,
        "cache_hits": server.cache_hits,
        "cache_misses": server.cache_misses,
        "attempted": served + result.shed_requests,
        "failed": result.shed_requests,
    }


def online_unit(wl: Workload, sizes: Sizes, seed: int, root: Path,
                table, fingerprint) -> dict:
    registry = publish(root / "registry", table, fingerprint)
    loop = OnlineLearningLoop(
        registry, root / "loop",
        fleet_config=fleet_config(wl, sizes.online_vehicles,
                                  sizes.online_ticks, seed),
        promote_every=PROMOTE_EVERY)
    try:
        start = clock()
        report = loop.run(sizes.online_rounds)
        end = clock()
        learned = hashlib.sha256(loop.learner.table.tobytes()).hexdigest()
    finally:
        loop.close()
    journal_bytes = sum(
        p.stat().st_size
        for p in (root / "loop" / JOURNAL_DIRNAME).glob("shard-*.jsonl"))
    shutil.rmtree(root)

    rounds = report.rounds
    promotions = [r.promotion for r in rounds if r.promotion is not None]
    streamed = sum(r.records_streamed for r in rounds)
    shed = sum(r.records_shed for r in rounds)
    ingested = sum(r.records_ingested for r in rounds)
    quarantined = sum(r.quarantined for r in rounds)
    refused = sum(p.outcome == "refused" for p in promotions)
    return {
        "wall_s": end - start, "window": (start, end),
        "rounds": len(rounds),
        "streamed": streamed, "ingested": ingested,
        "quarantined": quarantined,
        "journal_bytes": journal_bytes,
        "canary_rounds": sum(p.rounds for p in promotions),
        "canary_decisions": sum(p.canary_decisions for p in promotions),
        "promoted": sum(p.outcome == "promoted" for p in promotions),
        "outputs": (learned, tuple(p.outcome for p in promotions),
                    streamed, ingested),
        "attempted": streamed + shed + len(promotions),
        "failed": shed + quarantined + refused,
    }


def kernel_actions() -> int:
    """Actions per ``evaluate_grid`` call of the ``proposed`` agent."""
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver).agent
    return (len(agent.current_levels) * solver.transmission.num_gears
            * len(agent.aux_levels))


KERNEL_CURRENT_LEVELS = (3, 5, 9, 15, 25)
"""Current-level counts of the fitted grids; 9 gives the production
315-action grid (9 currents x 5 gears x 7 auxiliary levels)."""


def kernel_cost_model(observations: list, repeats: int = 7) -> dict:
    """Fit ``evaluate_grid`` time per call as fixed + per-action cost.

    Replays recorded controller observations (moving and standstill) at
    several grid sizes.  The sizes take turns within each of ``repeats``
    passes and each keeps its fastest pass, so a drift in the host's
    speed cannot tilt the fit.
    """
    solver = PowertrainSolver(default_vehicle())
    agent = build_rl_controller(solver).agent
    gears = np.arange(solver.transmission.num_gears)
    lo, hi = float(agent.current_levels.min()), float(
        agent.current_levels.max())
    workspaces = []
    for levels in KERNEL_CURRENT_LEVELS:
        grid = np.array(np.meshgrid(np.linspace(lo, hi, levels), gears,
                                    agent.aux_levels, indexing="ij"))
        grid = grid.reshape(3, -1)
        ws = solver.workspace(grid[0], grid[1].astype(int), grid[2])
        for obs in observations[:8]:
            solver.evaluate_grid(ws, *obs)
        workspaces.append(ws)
    best = [math.inf] * len(workspaces)
    for _ in range(repeats):
        for i, ws in enumerate(workspaces):
            start = clock()
            for obs in observations:
                solver.evaluate_grid(ws, *obs)
            best[i] = min(best[i], (clock() - start) / len(observations))
    x = np.asarray([ws.n for ws in workspaces], dtype=float)
    y = np.asarray(best)
    per_action, fixed = np.polyfit(x, y, 1)
    residual = y - (fixed + per_action * x)
    return {
        "fixed_us": fixed * 1e6,
        "per_action_ns": per_action * 1e9,
        "fit_residual_pct": float(np.sqrt(np.mean((residual / y) ** 2)))
        * 100.0,
    }
