"""Crash-safe central learner consuming experience journals.

The :class:`OnlineLearner` turns journaled fleet experience into
candidate policies.  Its defining property is the exec-manifest resume
contract: **kill it anywhere and resume, and the aggregate Q-table is
bit-identical to an uninterrupted run** (chaos kind
``learn_journal_torn_batch`` enforces this).  Two design choices make
that cheap to guarantee:

* **Batch-invariant updates.**  The update rule is plain tabular
  Q-learning — TD(λ) with ``λ = 0`` and a *constant* step size —
  optionally in double-Q form with a deterministic alternation counter.
  No eligibility traces and no step-size annealing means the final
  table depends only on the *sequence* of records, never on how they
  were grouped into :meth:`ingest` calls; a learner killed between any
  two records and resumed replays the exact same float operations.
  (The offline trainer keeps its TD(λ) traces; they pay off there and
  would silently break exact resume here.)

* **State and cursors committed together.**  Every successful
  :meth:`ingest` atomically rewrites one checkpoint file (tmp + fsync +
  rename through :func:`repro.rl.persistence._atomic_write_bytes`)
  holding the Q-table bytes, the per-journal content-hash cursors, and
  the counters.  There is no window where the table reflects records
  the cursors have not acknowledged, so a crash at any instant resumes
  from a consistent pair.

Corrupt journal lines are quarantined with honest counts (see
:mod:`repro.learn.journal`); a corrupt *checkpoint* is a
:class:`repro.errors.PersistenceError`, exactly like every other
integrity failure in the repo.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import ExperienceError, PersistenceError
from repro.learn.journal import read_journal
from repro.rl.persistence import _atomic_write_bytes

CHECKPOINT_FORMAT = "repro-learn-checkpoint"
"""Format name recorded in (and required of) every learner checkpoint."""

CHECKPOINT_VERSION = 1
"""Checkpoint layout version this module writes and reads."""


@dataclass(frozen=True)
class OnlineLearnerConfig:
    """Hyper-parameters of the online update rule.

    Deliberately excludes eligibility traces and step-size annealing:
    both make the final table depend on ingest batch boundaries, which
    would break the kill-and-resume bit-identity contract (see module
    docstring).
    """

    learning_rate: float = 0.05
    """Constant step size of every update."""

    discount: float = 0.8
    """Discount factor of the one-step bootstrap target."""

    double_q: bool = False
    """Maintain two tables updated alternately (van Hasselt double-Q);
    the published policy is their mean."""

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ExperienceError(
                f"learning_rate must lie in (0, 1], got "
                f"{self.learning_rate}")
        if not 0.0 <= self.discount < 1.0:
            raise ExperienceError(
                f"discount must lie in [0, 1), got {self.discount}")


@dataclass
class IngestReport:
    """Accounting of one :meth:`OnlineLearner.ingest` pass."""

    journals: int = 0
    """Journal shard files consumed."""

    records: int = 0
    """Valid records applied as updates this pass."""

    quarantined: int = 0
    """Corrupt lines skipped (counted, never trained on) this pass."""

    excluded: int = 0
    """Schema-valid records rejected as foreign (state or action id
    outside the learner's table) this pass."""

    amputated_bytes: int = 0
    """Torn-final-line bytes truncated off journals this pass."""


def _encode_table(table: np.ndarray) -> dict:
    body = np.ascontiguousarray(table).tobytes()
    return {"dtype": table.dtype.str,
            "shape": [int(n) for n in table.shape],
            "sha256": hashlib.sha256(body).hexdigest(),
            "b64": base64.b64encode(body).decode("ascii")}


def _decode_table(payload: dict, path: Path, label: str) -> np.ndarray:
    try:
        body = base64.b64decode(payload["b64"].encode("ascii"),
                                validate=True)
        dtype = np.dtype(payload["dtype"])
        shape = tuple(int(n) for n in payload["shape"])
        expected = payload["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{path}: learner checkpoint {label} section is malformed "
            f"({exc}); the checkpoint is corrupt") from exc
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        raise PersistenceError(
            f"{path}: integrity check failed — {label} SHA-256 {actual} "
            f"does not match the recorded {expected}; the checkpoint "
            "was corrupted after it was written")
    if len(shape) != 2 or len(body) != shape[0] * shape[1] * dtype.itemsize:
        raise PersistenceError(
            f"{path}: learner checkpoint {label} declares shape {shape} "
            f"but carries {len(body)} bytes; the checkpoint is corrupt")
    return np.frombuffer(body, dtype=dtype).reshape(shape).copy()


class OnlineLearner:
    """Consumes experience journals into a publishable Q-table."""

    def __init__(self, fingerprint: dict, table: np.ndarray,
                 config: Optional[OnlineLearnerConfig] = None,
                 checkpoint_path: Optional[Union[str, Path]] = None):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.float64))
        if table.ndim != 2 or table.size == 0:
            raise ExperienceError(
                f"learner tables are non-empty 2-D (states x actions) "
                f"arrays; got shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ExperienceError(
                "the learner's seed table contains non-finite values; "
                "refusing to learn from a poisoned starting point")
        if not isinstance(fingerprint, dict):
            raise ExperienceError(
                "the learner needs the agent fingerprint dict the seed "
                "table was trained under")
        self._fingerprint = dict(fingerprint)
        self._config = config or OnlineLearnerConfig()
        self._qa = table.copy()
        self._qb = table.copy() if self._config.double_q else None
        self._cursors: Dict[str, dict] = {}
        self._updates = 0
        self._path = Path(checkpoint_path) if checkpoint_path else None
        self.records = 0
        """Valid records applied over the learner's lifetime."""
        self.quarantined = 0
        """Corrupt lines quarantined over the learner's lifetime."""
        self.excluded = 0
        """Foreign (out-of-table) records excluded over the lifetime."""
        self.ingests = 0
        """Completed :meth:`ingest` passes (checkpoints written)."""

    @classmethod
    def from_artifact(cls, artifact,
                      config: Optional[OnlineLearnerConfig] = None,
                      checkpoint_path: Optional[Union[str, Path]] = None
                      ) -> "OnlineLearner":
        """A learner warm-started from a serving policy artifact."""
        return cls(artifact.fingerprint, np.array(artifact.table),
                   config=config, checkpoint_path=checkpoint_path)

    @property
    def config(self) -> OnlineLearnerConfig:
        """The update-rule hyper-parameters."""
        return self._config

    @property
    def fingerprint(self) -> dict:
        """Agent fingerprint the table (and its candidates) carry."""
        return dict(self._fingerprint)

    @property
    def table(self) -> np.ndarray:
        """The publishable Q-table (mean of both tables under double-Q)."""
        if self._qb is not None:
            return (self._qa + self._qb) / 2.0
        return self._qa.copy()

    @property
    def cursors(self) -> Dict[str, dict]:
        """Per-journal resume cursors (filename -> cursor dict)."""
        return {name: dict(cur) for name, cur in self._cursors.items()}

    def ingest(self, journal_dir: Union[str, Path]) -> IngestReport:
        """Consume every journal shard under ``journal_dir`` once.

        Shards are read in sorted filename order from each one's stored
        cursor, records are applied in journal order, and on success the
        checkpoint (when configured) is atomically rewritten with the
        new table *and* cursors together.  Idempotent when nothing new
        was appended.

        The updates run over the journal's columns on Python-float rows
        of the table: each is the same sequence of IEEE-754 operations
        as the scalar rule ``q[s, a] += lr * (r + gamma * max(q[s']) -
        q[s, a])`` (double-Q: argmax in one table, value from the other,
        alternating on the checkpointed update counter), so the result
        is bit-identical to it.  The table, cursors and counters change
        together at the end: a refused shard (unreadable, or rewritten
        under its cursor) raises with the learner untouched.
        """
        directory = Path(journal_dir)
        report = IngestReport()
        num_states, num_actions = self._qa.shape
        lr = self._config.learning_rate
        gamma = self._config.discount
        qa = self._qa.tolist()
        qb = self._qb.tolist() if self._qb is not None else None
        updates = self._updates
        cursors = dict(self._cursors)
        for path in sorted(directory.glob("shard-*.jsonl")):
            piece = read_journal(path, cursors.get(path.name))
            report.journals += 1
            report.quarantined += piece.quarantined
            report.amputated_bytes += piece.amputated_bytes
            cols = piece.columns
            for s, a, r, ns in zip(cols["state"], cols["action"],
                                   cols["reward"], cols["next_state"]):
                if s >= num_states or ns >= num_states or a >= num_actions:
                    report.excluded += 1
                    continue
                if qb is None:
                    row = qa[s]
                    row[a] += lr * (r + gamma * max(qa[ns]) - row[a])
                elif updates % 2 == 0:
                    # Double-Q alternates on the update counter, which
                    # is checkpointed, so resume keeps the parity.
                    nxt = qa[ns]
                    row = qa[s]
                    row[a] += lr * (r + gamma * qb[ns][nxt.index(max(nxt))]
                                    - row[a])
                else:
                    nxt = qb[ns]
                    row = qb[s]
                    row[a] += lr * (r + gamma * qa[ns][nxt.index(max(nxt))]
                                    - row[a])
                updates += 1
            cursors[path.name] = piece.cursor
        self._cursors = cursors
        self._qa[:] = qa
        if qb is not None:
            self._qb[:] = qb
        report.records = updates - self._updates
        self._updates = updates
        self.records += report.records
        self.quarantined += report.quarantined
        self.excluded += report.excluded
        self.ingests += 1
        if self._path is not None:
            self.checkpoint()
        return report

    def publish(self, registry) -> int:
        """Publish the current table as a registry candidate; version."""
        return registry.publish_table(self.table, self._fingerprint)

    def checkpoint(self) -> Path:
        """Atomically write the checkpoint file; returns its path."""
        if self._path is None:
            raise ExperienceError(
                "this learner was built without a checkpoint_path; "
                "nowhere to checkpoint to")
        payload = {
            "format": CHECKPOINT_FORMAT,
            "v": CHECKPOINT_VERSION,
            "config": {"learning_rate": self._config.learning_rate,
                       "discount": self._config.discount,
                       "double_q": self._config.double_q},
            "fingerprint": self._fingerprint,
            "cursors": self._cursors,
            "updates": self._updates,
            "counters": {"records": self.records,
                         "quarantined": self.quarantined,
                         "excluded": self.excluded,
                         "ingests": self.ingests},
            "q": _encode_table(self._qa),
            "q_b": (_encode_table(self._qb)
                    if self._qb is not None else None),
        }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        _atomic_write_bytes(self._path, body)
        return self._path

    @classmethod
    def resume(cls, checkpoint_path: Union[str, Path]) -> "OnlineLearner":
        """Rebuild a learner from its checkpoint, verified end to end.

        A missing checkpoint is an :class:`ExperienceError` (nothing to
        resume); a present-but-corrupt one — unparseable JSON, a table
        whose digest no longer matches — is a
        :class:`repro.errors.PersistenceError`.
        """
        path = Path(checkpoint_path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError as exc:
            raise ExperienceError(
                f"no learner checkpoint at {path}; nothing to resume "
                "from") from exc
        except OSError as exc:
            raise PersistenceError(
                f"cannot read learner checkpoint {path} ({exc})") from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PersistenceError(
                f"{path}: learner checkpoint is not valid JSON ({exc}); "
                "the file is corrupt") from exc
        if not isinstance(payload, dict) \
                or payload.get("format") != CHECKPOINT_FORMAT:
            raise PersistenceError(
                f"{path}: not a learner checkpoint (missing format "
                f"{CHECKPOINT_FORMAT!r}); the file is corrupt or foreign")
        if payload.get("v") != CHECKPOINT_VERSION:
            raise PersistenceError(
                f"{path}: unsupported learner checkpoint version "
                f"{payload.get('v')!r} (this reader understands "
                f"{CHECKPOINT_VERSION})")
        conf = payload.get("config")
        fingerprint = payload.get("fingerprint")
        cursors = payload.get("cursors")
        counters = payload.get("counters")
        if not isinstance(conf, dict) or not isinstance(fingerprint, dict) \
                or not isinstance(cursors, dict) \
                or not isinstance(counters, dict):
            raise PersistenceError(
                f"{path}: learner checkpoint is missing or mistypes "
                "required sections (config/fingerprint/cursors/counters)")
        config = OnlineLearnerConfig(
            learning_rate=conf.get("learning_rate", 0.05),
            discount=conf.get("discount", 0.8),
            double_q=bool(conf.get("double_q", False)))
        table = _decode_table(payload.get("q") or {}, path, "Q-table")
        learner = cls(fingerprint, table, config=config,
                      checkpoint_path=path)
        learner._qa = table  # keep the exact decoded bytes, no re-copy
        if config.double_q:
            learner._qb = _decode_table(payload.get("q_b") or {}, path,
                                        "double-Q table")
        learner._cursors = {str(k): dict(v) for k, v in cursors.items()}
        learner._updates = int(payload.get("updates", 0))
        learner.records = int(counters.get("records", 0))
        learner.quarantined = int(counters.get("quarantined", 0))
        learner.excluded = int(counters.get("excluded", 0))
        learner.ingests = int(counters.get("ingests", 0))
        return learner
