"""Reference of the fleet serving path (differential oracle).

The simple path the table-lookup server must reproduce bit for bit:

* :func:`reference_greedy` — ``argmax`` over the gathered Q-rows of each
  requested state, recomputed on every call;
* :func:`reference_decide` — an LRU decision cache (``np.unique`` over
  the batch, one ``OrderedDict`` lookup per unique state, per-row argmax
  for the misses, eviction beyond :data:`CACHE_SIZE`), cleared on every
  activation, fallback and rollback;
* :func:`reference_sensor_noise` — every vehicle's noise stream taken
  from ``SeedSequence([seed, 0x5EED]).spawn(total)``.

:func:`reference_serve_path` patches all of them into the production
classes for the duration of a ``with`` block; ``tests/test_serve_path.py``
compares the two paths.
"""

from __future__ import annotations

import contextlib
import functools
from collections import OrderedDict
from typing import List
from unittest import mock

import numpy as np

from repro.serve import fleet
from repro.serve.artifact import PolicyArtifact
from repro.serve.server import PolicyServer

CACHE_SIZE = 4096
"""Entries of the reference LRU decision cache."""


def reference_greedy(artifact: PolicyArtifact, states) -> np.ndarray:
    """Greedy action ids: argmax over each requested state's Q-row."""
    return np.argmax(artifact.table[np.asarray(states, dtype=np.intp)],
                     axis=-1)


def _lru(server: PolicyServer) -> "OrderedDict[int, int]":
    cache = server.__dict__.get("_reference_cache")
    if cache is None:
        cache = server.__dict__["_reference_cache"] = OrderedDict()
    return cache


def reference_decide(server: PolicyServer, states) -> np.ndarray:
    """Batched greedy decisions through the LRU decision cache."""
    states = np.atleast_1d(np.asarray(states, dtype=np.intp))
    server.decisions += int(states.size)
    active = server._active
    if active is None:
        server.fallback_decisions += int(states.size)
        return np.full(states.shape, server._fallback_action(),
                       dtype=np.intp)
    server._check_states(states, active)
    uniq, inverse = np.unique(states, return_inverse=True)
    cache = _lru(server)
    uniq_actions = np.empty(uniq.shape, dtype=np.intp)
    missing: List[int] = []
    for i, state in enumerate(uniq.tolist()):
        action = cache.get(state)
        if action is None:
            missing.append(i)
        else:
            uniq_actions[i] = action
            cache.move_to_end(state)
    server.cache_hits += len(uniq) - len(missing)
    if missing:
        server.cache_misses += len(missing)
        fresh = active.greedy(uniq[missing])
        for i, action in zip(missing, fresh.tolist()):
            uniq_actions[i] = action
            cache[int(uniq[i])] = int(action)
        while len(cache) > CACHE_SIZE:
            cache.popitem(last=False)
    return uniq_actions[inverse].reshape(states.shape)


def _clearing_cache(method):
    """``method`` followed by a decision-cache clear (unless it raised)."""
    @functools.wraps(method)
    def wrapper(server, *args, **kwargs):
        result = method(server, *args, **kwargs)
        _lru(server).clear()
        return result
    return wrapper


def reference_sensor_noise(cfg: "fleet.FleetConfig", faulty: np.ndarray,
                           steps: int) -> np.ndarray:
    """``(steps, vehicles)`` noise from the fully spawned global streams."""
    total = (cfg.total_vehicles if cfg.total_vehicles is not None
             else cfg.vehicles)
    children = np.random.SeedSequence(
        [cfg.seed, fleet._NOISE_STREAM_KEY]).spawn(total)
    noise = np.zeros((steps, len(faulty)))
    for i in np.flatnonzero(faulty):
        noise[:, i] = np.random.default_rng(
            children[cfg.vehicle_offset + int(i)]).normal(
                0.0, cfg.sensor_noise, size=steps)
    return noise


@contextlib.contextmanager
def reference_serve_path():
    """Serve through the reference path inside the ``with`` block."""
    with contextlib.ExitStack() as stack:
        for name in ("_activate", "_engage_fallback", "rollback"):
            stack.enter_context(mock.patch.object(
                PolicyServer, name,
                _clearing_cache(getattr(PolicyServer, name))))
        stack.enter_context(mock.patch.object(
            PolicyServer, "_decide", reference_decide))
        stack.enter_context(mock.patch.object(
            PolicyArtifact, "greedy", reference_greedy))
        stack.enter_context(mock.patch.object(
            fleet, "_sensor_noise", reference_sensor_noise))
        yield
