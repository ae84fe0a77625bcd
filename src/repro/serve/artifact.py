"""Read-only, integrity-checked, memory-mapped policy artifacts.

A :class:`PolicyArtifact` is one trained policy compiled for serving: the
dense Q-table plus the configuration fingerprint that gives its rows and
columns meaning (:func:`repro.rl.persistence._fingerprint`), in a single
file a server can memory-map read-only and share between processes.

File layout (all little-endian)::

    offset 0   magic            b"RPA\\x01"
    offset 4   header length    uint32 (JSON bytes, space-padded)
    offset 8   header           UTF-8 JSON (see below)
    aligned    Q-table          raw C-order array bytes, 64-byte aligned

The header records the artifact format name and version, the registry
``version`` of the policy, the agent ``fingerprint``, the table ``dtype``
and ``shape``, and ``table_sha256`` — the SHA-256 digest of the raw table
bytes.  Loading verifies all of it: magic, header shape, declared vs
actual file size, and the digest hashed straight off the memory map.  Any
mismatch — truncation, bit rot, a torn copy — raises a structured
:class:`repro.errors.PersistenceError`; the table bytes can never be
silently scrambled (fuzz-tested in ``tests/test_serve.py``).

Compilation is deterministic: the same agent produces bit-identical
artifact bytes, which is what makes "hot-swap of an identical policy is
bit-identical to no-swap serving" a testable promise.  Writes reuse the
persistence layer's atomic tmp-then-rename path; header reads go through
:mod:`repro.fsio` so the chaos harness can inject slow or failing
storage on the load side.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Union

import numpy as np

from repro import fsio
from repro.errors import PersistenceError, ServeError
from repro.rl.agent import JointControlAgent
from repro.rl.persistence import _atomic_write_bytes, _fingerprint

MAGIC = b"RPA\x01"
"""Leading magic bytes of every policy artifact."""

ARTIFACT_FORMAT = "repro-policy-artifact"
"""Format name recorded in (and required of) every header."""

ARTIFACT_VERSION = 1
"""Artifact layout version this module writes and reads."""

TABLE_ALIGN = 64
"""Byte alignment of the table section (cache-line/mmap friendly)."""

_MAX_HEADER_BYTES = 1 << 20
"""Upper bound on a plausible header; larger claims are corruption."""


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the next :data:`TABLE_ALIGN` boundary."""
    return (offset + TABLE_ALIGN - 1) // TABLE_ALIGN * TABLE_ALIGN


def compile_table(table: np.ndarray, fingerprint: dict,
                  path: Union[str, Path], version: int = 0) -> str:
    """Compile a raw Q-table into an artifact file; returns its digest.

    ``table`` must be 2-D ``(num_states, num_actions)``.  The write is
    atomic (tmp sibling + rename), so a crash mid-compile never leaves a
    half-written artifact where a good one used to be.
    """
    table = np.ascontiguousarray(table)
    if table.ndim != 2 or table.size == 0:
        raise ServeError(
            f"policy tables are non-empty 2-D (states x actions) arrays; "
            f"got shape {table.shape}")
    if int(version) < 0:
        raise ServeError(f"artifact versions are non-negative, got {version}")
    body = table.tobytes()
    digest = hashlib.sha256(body).hexdigest()
    header = {
        "format": ARTIFACT_FORMAT,
        "artifact_version": ARTIFACT_VERSION,
        "version": int(version),
        "fingerprint": fingerprint,
        "dtype": table.dtype.str,
        "shape": [int(n) for n in table.shape],
        "table_sha256": digest,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    # Pad the header with JSON-legal trailing spaces so the table lands
    # on an aligned offset; the recorded length includes the padding.
    table_offset = _aligned(len(MAGIC) + 4 + len(head))
    head = head + b" " * (table_offset - len(MAGIC) - 4 - len(head))
    payload = MAGIC + len(head).to_bytes(4, "little") + head + body
    _atomic_write_bytes(Path(path), payload)
    return digest


def compile_policy(agent: JointControlAgent, path: Union[str, Path],
                   version: int = 0) -> str:
    """Compile a trained agent's policy into an artifact; returns digest."""
    return compile_table(agent.learner.qtable.values, _fingerprint(agent),
                         path, version=version)


def _read_header(path: Path) -> tuple:
    """``(header dict, header end offset)`` of one artifact file.

    Validates the magic, the declared header length, and the JSON
    syntax; any problem raises a structured
    :class:`repro.errors.PersistenceError`.  Does **not** verify the
    table digest — callers that will serve the table must go through
    :meth:`PolicyArtifact.load`.
    """
    prefix_len = len(MAGIC) + 4
    try:
        head = fsio.read_bytes(path, prefix_len)
    except OSError as exc:
        raise PersistenceError(
            f"{path}: cannot read policy artifact ({exc})") from exc
    if len(head) < prefix_len or head[:len(MAGIC)] != MAGIC:
        raise PersistenceError(
            f"{path}: not a policy artifact (bad or truncated magic); "
            "expected an RPA file written by repro.serve")
    header_len = int.from_bytes(head[len(MAGIC):prefix_len], "little")
    if not 0 < header_len <= _MAX_HEADER_BYTES:
        raise PersistenceError(
            f"{path}: implausible header length {header_len}; the "
            "artifact is corrupt")
    try:
        raw = fsio.read_bytes(path, prefix_len + header_len)
    except OSError as exc:
        raise PersistenceError(
            f"{path}: cannot read policy artifact header ({exc})") from exc
    if len(raw) < prefix_len + header_len:
        raise PersistenceError(
            f"{path}: header truncated ({len(raw) - prefix_len} of "
            f"{header_len} bytes); the artifact is corrupt")
    try:
        header = json.loads(raw[prefix_len:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"{path}: artifact header is not valid JSON ({exc}); the "
            "file is corrupt") from exc
    return header, prefix_len + header_len


def peek_fingerprint(path: Union[str, Path]) -> dict:
    """The agent fingerprint recorded in an artifact's header, unverified.

    Parses only the header — the table digest is *not* checked, so this
    works on an artifact whose table bytes are corrupt.  The result must
    therefore never gate a verification decision; it exists so the
    degradation ladder can recover action-space metadata (the current
    levels) for its rule-based fallback when no healthy artifact is
    loadable.  Raises :class:`repro.errors.PersistenceError` when even
    the header is unreadable.
    """
    path = Path(path)
    header, _ = _read_header(path)
    fingerprint = header.get("fingerprint") if isinstance(header, dict) \
        else None
    if not isinstance(fingerprint, dict):
        raise PersistenceError(
            f"{path}: artifact header records no fingerprint object; the "
            "file is corrupt or foreign")
    return fingerprint


class PolicyArtifact:
    """One loaded, verified, memory-mapped serving policy (read-only)."""

    def __init__(self, path: Path, version: int, fingerprint: dict,
                 table: np.ndarray, digest: str):
        self._path = Path(path)
        self._version = int(version)
        self._fingerprint = dict(fingerprint)
        self._table = table
        self._digest = digest
        # Row-wise argmax, so ``greedy`` is one gather.  ``np.asarray``
        # drops the memmap subclass, whose ``__getitem__`` is slow.
        self._greedy = np.asarray(np.argmax(table, axis=1))
        self._greedy.flags.writeable = False

    @property
    def path(self) -> Path:
        """The artifact file this policy is mapped from."""
        return self._path

    @property
    def version(self) -> int:
        """Registry version recorded in the header (0 = unregistered)."""
        return self._version

    @property
    def fingerprint(self) -> dict:
        """Agent configuration fingerprint the table was trained under."""
        return dict(self._fingerprint)

    @property
    def table(self) -> np.ndarray:
        """The read-only ``(num_states, num_actions)`` Q-table view."""
        return self._table

    @property
    def digest(self) -> str:
        """Verified SHA-256 hexdigest of the raw table bytes."""
        return self._digest

    @property
    def num_states(self) -> int:
        """Number of discrete states the table covers."""
        return int(self._table.shape[0])

    @property
    def num_actions(self) -> int:
        """Number of actions per state."""
        return int(self._table.shape[1])

    def greedy(self, states: np.ndarray) -> np.ndarray:
        """Greedy action ids for a batch of state ids (one gather).

        Equals per-row ``argmax``: first maximum on ties, first NaN.
        """
        return self._greedy[np.asarray(states, dtype=np.intp)]

    def __repr__(self) -> str:
        return (f"PolicyArtifact(v{self._version}, "
                f"{self.num_states}x{self.num_actions}, "
                f"{self._digest[:12]}..., {self._path.name})")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PolicyArtifact":
        """Load and fully verify an artifact file.

        Every failure mode — missing file, bad magic, truncated or
        unparseable header, implausible declared shape, short table
        section, digest mismatch — raises
        :class:`repro.errors.PersistenceError` naming the file and the
        problem.  On success the table is a read-only memory map; the
        digest is computed from the mapped bytes, so what was verified
        is exactly what will be served, and the only table whose
        greedy-action vector is ever computed.
        """
        path = Path(path)
        header, header_end = _read_header(path)
        return cls._from_header(path, header, header_end)

    @classmethod
    def _from_header(cls, path: Path, header: dict,
                     header_end: int) -> "PolicyArtifact":
        if not isinstance(header, dict) \
                or header.get("format") != ARTIFACT_FORMAT:
            raise PersistenceError(
                f"{path}: artifact header does not declare format "
                f"{ARTIFACT_FORMAT!r}; the file is corrupt or foreign")
        if header.get("artifact_version") != ARTIFACT_VERSION:
            raise PersistenceError(
                f"{path}: unsupported artifact version "
                f"{header.get('artifact_version')!r} (this reader "
                f"understands {ARTIFACT_VERSION})")
        shape = header.get("shape")
        if (not isinstance(shape, list) or len(shape) != 2
                or not all(isinstance(n, int) and n > 0 for n in shape)):
            raise PersistenceError(
                f"{path}: artifact header declares invalid table shape "
                f"{shape!r}")
        version = header.get("version")
        fingerprint = header.get("fingerprint")
        expected = header.get("table_sha256")
        if (not isinstance(version, int) or version < 0
                or not isinstance(fingerprint, dict)
                or not isinstance(expected, str)):
            raise PersistenceError(
                f"{path}: artifact header is missing or mistypes required "
                "fields (version/fingerprint/table_sha256)")
        try:
            dtype = np.dtype(header.get("dtype"))
        except TypeError as exc:
            raise PersistenceError(
                f"{path}: artifact header declares unknown dtype "
                f"{header.get('dtype')!r}") from exc
        table_offset = _aligned(header_end)
        nbytes = int(shape[0]) * int(shape[1]) * dtype.itemsize
        try:
            size = os.stat(path).st_size
        except OSError as exc:
            raise PersistenceError(
                f"{path}: cannot stat policy artifact ({exc})") from exc
        if size < table_offset + nbytes:
            raise PersistenceError(
                f"{path}: table section truncated ({size} bytes on disk, "
                f"{table_offset + nbytes} required for shape {shape}); the "
                "artifact is corrupt")
        try:
            table = np.memmap(path, dtype=dtype, mode="r",
                              offset=table_offset,
                              shape=(int(shape[0]), int(shape[1])))
        except (ValueError, OSError) as exc:
            raise PersistenceError(
                f"{path}: cannot map table section ({exc}); the artifact "
                "is corrupt") from exc
        actual = hashlib.sha256(table.tobytes()).hexdigest()
        if actual != expected:
            raise PersistenceError(
                f"{path}: integrity check failed — table SHA-256 {actual} "
                f"does not match the header's recorded {expected}; the "
                "artifact was corrupted after it was written")
        return cls(path, version, fingerprint, table, actual)
