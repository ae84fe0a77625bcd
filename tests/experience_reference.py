"""Per-record reference of the experience pipeline (differential oracle).

The simple path the columnar journal and learner must reproduce bit for
bit: every transition becomes an :class:`ExperienceRecord`, is encoded
with :func:`encode_record` and appended with one ``os.write``; the
reader decodes each line with :func:`decode_record`; the learner applies
the scalar TD(0) / double-Q rule one record at a time through numpy.
``tests/test_learn.py`` compares it with the production path and
``benchmarks/bench_online.py`` times it for ``journal_pipeline_speedup``.
"""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path

import numpy as np

from repro.errors import ExperienceError
from repro.learn import ExperienceRecord, decode_record, encode_record
from repro.learn.journal import _header_line, shard_filename


class ReferenceStream:
    """One shard's journal writer, one record object and write at a time."""

    def __init__(self, directory, shard: int = 0, buffer_limit: int = 8192):
        self.path = Path(directory) / shard_filename(shard)
        self._shard = shard
        self._limit = buffer_limit
        self._buffer: deque = deque()
        self.shed = 0
        self.written = 0

    def offer_batch(self, states, actions, rewards, next_states,
                    policy_versions, vehicle_ids, step: int) -> None:
        for i in range(len(states)):
            record = ExperienceRecord(
                state=int(states[i]), action=int(actions[i]),
                reward=float(rewards[i]), next_state=int(next_states[i]),
                policy_version=int(policy_versions[i]),
                vehicle_id=int(vehicle_ids[i]), step=int(step))
            if len(self._buffer) >= self._limit:
                self._buffer.popleft()
                self.shed += 1
            self._buffer.append(record)

    def flush(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            if fresh:
                os.write(fd, (_header_line(self._shard) + "\n").encode())
            while self._buffer:
                line = encode_record(self._buffer.popleft()) + "\n"
                os.write(fd, line.encode("utf-8"))
                self.written += 1
        finally:
            os.close(fd)


def read_records(path) -> tuple:
    """(records, quarantined) of every line after a journal's header."""
    records, quarantined = [], 0
    for chunk in Path(path).read_bytes().split(b"\n")[1:-1]:
        try:
            records.append(decode_record(chunk.decode("utf-8")))
        except (ExperienceError, UnicodeDecodeError):
            quarantined += 1
    return records, quarantined


class ReferenceLearner:
    """Scalar TD(0) / double-Q over record objects, one numpy call each."""

    def __init__(self, table, learning_rate: float = 0.05,
                 discount: float = 0.8, double_q: bool = False):
        self.qa = np.array(table, dtype=np.float64)
        self.qb = self.qa.copy() if double_q else None
        self.lr = learning_rate
        self.gamma = discount
        self.updates = 0
        self.excluded = 0

    def apply(self, records) -> None:
        num_states, num_actions = self.qa.shape
        lr, gamma = self.lr, self.gamma
        for rec in records:
            if rec.state >= num_states or rec.next_state >= num_states \
                    or rec.action >= num_actions:
                self.excluded += 1
                continue
            if self.qb is None:
                target = rec.reward + gamma * float(
                    np.max(self.qa[rec.next_state]))
                self.qa[rec.state, rec.action] += lr * (
                    target - self.qa[rec.state, rec.action])
            elif self.updates % 2 == 0:
                best = int(np.argmax(self.qa[rec.next_state]))
                target = rec.reward + gamma * self.qb[rec.next_state, best]
                self.qa[rec.state, rec.action] += lr * (
                    target - self.qa[rec.state, rec.action])
            else:
                best = int(np.argmax(self.qb[rec.next_state]))
                target = rec.reward + gamma * self.qa[rec.next_state, best]
                self.qb[rec.state, rec.action] += lr * (
                    target - self.qb[rec.state, rec.action])
            self.updates += 1

    @property
    def table(self) -> np.ndarray:
        if self.qb is not None:
            return (self.qa + self.qb) / 2.0
        return self.qa.copy()
