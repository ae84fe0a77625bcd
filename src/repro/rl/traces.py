"""Bounded eligibility traces for TD(lambda) (paper Section 4.3.4).

The eligibility e(s, a) measures how recently and frequently a state-action
pair was visited; Algorithm 1 updates *all* pairs each step, but the paper
notes that keeping only the M most recent pairs is exact up to lambda^M,
which is negligible for modest M.  This class implements that bounded list:
eligibilities decayed by gamma*lambda each step and truncated to the M most
recent pairs.

Storage is array-backed so the TD update touches every tracked pair with
one fancy-index add: the states, actions and eligibilities live in fixed
slot arrays of length M, and an insertion-ordered dict from (state, action)
to slot keeps recency for eviction and iteration.  Slots are only ever
handed out in order and reused by eviction, so the live pairs always
occupy slots ``0 .. len - 1``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np


class EligibilityTraces:
    """M-most-recent eligibility list for tabular TD(lambda)."""

    def __init__(self, decay: float, max_entries: int = 64):
        """``decay`` is the per-step factor gamma*lambda in [0, 1); pairs
        beyond the ``max_entries`` most recent are dropped."""
        if not 0.0 <= decay < 1.0:
            raise ValueError("trace decay must be in [0, 1)")
        if max_entries < 1:
            raise ValueError("need room for at least one trace entry")
        self._decay = decay
        self._max = max_entries
        self._slots: Dict[Tuple[int, int], int] = {}
        self._states = np.zeros(max_entries, dtype=np.intp)
        self._actions = np.zeros(max_entries, dtype=np.intp)
        self._elig = np.zeros(max_entries)

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        """Iterate over ((state, action), eligibility) pairs, oldest first."""
        elig = self._elig
        return iter([(key, float(elig[slot]))
                     for key, slot in self._slots.items()])

    def get(self, state: int, action: int) -> float:
        """Current eligibility of a pair (0 if not tracked)."""
        slot = self._slots.get((state, action))
        return 0.0 if slot is None else float(self._elig[slot])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(states, actions, eligibilities)`` of the tracked pairs, as
        views of the slot arrays (slot order, not recency order)."""
        n = len(self._slots)
        return self._states[:n], self._actions[:n], self._elig[:n]

    def visit(self, state: int, action: int) -> None:
        """Algorithm 1 line 6: accumulate the just-visited pair's trace.

        The pair moves to the most-recent position; if the list overflows,
        the oldest pair (whose eligibility is at most ``decay**M``) is
        dropped and its slot reused.
        """
        key = (state, action)
        slots = self._slots
        slot = slots.pop(key, None)
        if slot is not None:
            self._elig[slot] += 1.0
        else:
            slot = len(slots)
            if slot == self._max:
                slot = slots.pop(next(iter(slots)))
            self._states[slot] = state
            self._actions[slot] = action
            self._elig[slot] = 1.0
        slots[key] = slot

    def decay(self) -> None:
        """Algorithm 1 line 9: multiply every tracked eligibility by the decay."""
        if self._decay == 0.0:
            self.clear()
            return
        self._elig[:len(self._slots)] *= self._decay

    def clear(self) -> None:
        """Drop all traces (start of a new episode)."""
        self._slots.clear()
