"""Per-shard experience journals: bounded writer, cursor-exact reader.

Fleet workers stream experience through an :class:`ExperienceStream`,
the write half of one shard's journal.  Experience moves in columns:
:meth:`ExperienceStream.offer_batch` validates one fleet tick's parallel
arrays in a single vectorised pass and formats their lines directly
(:func:`repro.learn.records.encode_columns`).  The encoded lines wait in
a bounded buffer that *sheds oldest-first* when the learner falls behind
(the fleet never blocks on a slow learner — backpressure loses the
stalest experience, counted honestly, instead of stalling serving).
:meth:`ExperienceStream.flush` appends the whole buffer with one
``os.write`` on an ``O_APPEND`` descriptor routed through
:mod:`repro.fsio` (the same fork-safe idiom as
:class:`repro.telemetry.EventSink`, and the chaos harness's injection
point), so the atomic write unit is a flush, not a record.  A short
write is resumed; a failed one keeps every record whose line did not
fully land buffered, and the next flush terminates the torn fragment
before appending, so the fragment is quarantined as one corrupt line
and no record is lost or written twice.

The read half, :func:`read_journal`, carries the crash-recovery
contract the learner depends on (``docs/ONLINE_LEARNING.md``):

* a **torn final line** (writer killed mid-append) is amputated by
  physically truncating the file back to its last newline — idempotent,
  warned about, and exactly the sweep-manifest recovery semantics;
* **corrupt interior records** are quarantined (counted, skipped) so one
  bad line cannot poison or abort ingestion;
* the returned **cursor** is content-hash keyed — byte offset plus the
  SHA-256 of everything consumed — so a resumed learner re-reads
  nothing twice and detects a journal rewritten under it as a
  structured :class:`repro.errors.ExperienceError`, never as silent
  double-counting.

Lines decode straight into columns (:class:`JournalSlice`) in
line-aligned chunks of about 1 MiB: a chunk of canonical lines — every
line the stream writes — is recognised by one regular expression pass
(:func:`repro.learn.records.decode_canonical`); a chunk holding any
other line is decoded line by line through the record codec's one
validator, which alone decides what is quarantined.  Record objects are
built only for callers that ask for :attr:`JournalSlice.records`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import fsio
from repro.errors import ExperienceError
from repro.learn.records import (FIELDS, ExperienceRecord, decode_canonical,
                                 decode_values, encode_columns)

JOURNAL_FORMAT = "repro-experience-journal"
"""Format name recorded in (and required of) every journal header."""

JOURNAL_VERSION = 1
"""Journal layout version this module writes and reads."""

DEFAULT_BUFFER_LIMIT = 8192
"""Default bound on records buffered between flushes."""

_CHUNK_BYTES = 1 << 20
"""Target size of the line-aligned chunks :func:`read_journal` decodes
in one pass each."""


def shard_filename(shard: int) -> str:
    """Canonical journal filename of one shard (``shard-0003.jsonl``)."""
    return f"shard-{int(shard):04d}.jsonl"


def _header_line(shard: int) -> str:
    return json.dumps({"format": JOURNAL_FORMAT, "v": JOURNAL_VERSION,
                       "shard": int(shard)}, sort_keys=True)


class ExperienceStream:
    """Bounded-buffer write half of one shard's experience journal."""

    def __init__(self, directory: Union[str, Path], shard: int = 0,
                 buffer_limit: int = DEFAULT_BUFFER_LIMIT):
        if int(shard) < 0:
            raise ExperienceError(
                f"journal shard indices are non-negative, got {shard}")
        if int(buffer_limit) < 1:
            raise ExperienceError(
                f"the stream buffer must hold at least one record, got "
                f"buffer_limit={buffer_limit}")
        self._directory = Path(directory)
        self._shard = int(shard)
        self._limit = int(buffer_limit)
        self._buffer: deque = deque(maxlen=self._limit)
        self._torn = False
        self._fd: Optional[int] = None
        self.path = self._directory / shard_filename(shard)
        """The journal file this stream appends to."""
        self.offered = 0
        """Records handed to the stream (including later-shed ones)."""
        self.shed = 0
        """Records dropped oldest-first under backpressure."""
        self.written = 0
        """Records whose whole line reached the journal."""

    def offer_batch(self, states, actions, rewards, next_states,
                    policy_versions, vehicle_ids, step: int) -> int:
        """Buffer one tick's transitions (parallel arrays); returns count.

        The tick is validated as a whole (see
        :func:`repro.learn.records.encode_columns`): a malformed column
        raises :class:`repro.errors.ExperienceError` and buffers nothing.
        Records keep their column order (ascending vehicle order from
        the fleet), so the journal ordering — and therefore the
        learner's update order — is deterministic for a deterministic
        fleet.  When the buffer is full the *oldest* buffered records
        are dropped to make room: the freshest experience always
        survives, and the caller (the fleet) is never blocked.
        """
        lines = encode_columns(states, actions, rewards, next_states,
                               policy_versions, vehicle_ids, step)
        before = len(self._buffer)
        self._buffer.extend(lines)
        self.offered += len(lines)
        self.shed += before + len(lines) - len(self._buffer)
        return len(lines)

    def _ensure_open(self) -> int:
        if self._fd is None:
            try:
                self._directory.mkdir(parents=True, exist_ok=True)
                fresh = not self.path.exists() \
                    or self.path.stat().st_size == 0
                self._fd = os.open(
                    str(self.path),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                if fresh:
                    line = _header_line(self._shard) + "\n"
                    fsio.os_write(self._fd, line.encode("utf-8"),
                                  path=self.path)
            except OSError as exc:
                raise ExperienceError(
                    f"cannot open experience journal {self.path} "
                    f"({exc})") from exc
        return self._fd

    def flush(self) -> int:
        """Append every buffered record to the journal; returns count.

        One ``os.write`` of the whole buffer on the ``O_APPEND``
        descriptor, resumed after a short write.  A write that fails
        leaves every record whose line did not fully land buffered,
        counts only whole lines in :attr:`written`, and raises
        :class:`repro.errors.ExperienceError`; if it tore a line, the
        next flush first ends the fragment with a newline, so the reader
        quarantines it as one corrupt line instead of merging it with
        the next record.
        """
        fd = self._ensure_open()
        if not self._buffer and not self._torn:
            return 0
        prefix = b"\n" if self._torn else b""
        data = prefix + "".join(self._buffer).encode("ascii")
        done = 0
        try:
            while done < len(data):
                wrote = fsio.os_write(fd, data[done:], path=self.path)
                if wrote <= 0:
                    raise OSError(errno.EIO, "write made no progress")
                done += wrote
        except OSError as exc:
            whole = self._landed(data, done, len(prefix))
            raise ExperienceError(
                f"cannot append to experience journal {self.path} "
                f"({exc}); {len(self._buffer)} record(s) remain "
                f"buffered after {whole} landed whole") from exc
        return self._landed(data, done, len(prefix))

    def _landed(self, data: bytes, done: int, skip: int) -> int:
        """Settle the buffer after ``done`` bytes of ``data`` reached the
        file (the first ``skip`` of them a torn-fragment terminator);
        returns the records whose whole line landed."""
        if done == len(data):
            whole = len(self._buffer)
            self._buffer.clear()
            self._torn = False
        else:
            whole = data.count(b"\n", skip, done)
            for _ in range(whole):
                self._buffer.popleft()
            # The file ends mid-line unless the last landed byte ended
            # one; with nothing landed it ends as it did before.
            if done:
                self._torn = data[done - 1:done] != b"\n"
        self.written += whole
        return whole

    @property
    def buffered(self) -> int:
        """Records currently waiting for the next :meth:`flush`."""
        return len(self._buffer)

    def close(self) -> None:
        """Release the descriptor (idempotent); does not flush."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "ExperienceStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JournalSlice:
    """Everything one :func:`read_journal` call consumed."""

    columns: Dict[str, tuple] = field(
        default_factory=lambda: dict.fromkeys(FIELDS, ()))
    """Validated records past the cursor as columns (field name ->
    values in journal order, one entry per record)."""

    cursor: Dict[str, object] = field(default_factory=dict)
    """Resume cursor: ``{"offset", "sha256", "lines"}`` — the byte
    offset consumed, the SHA-256 of every consumed byte, and the total
    record lines seen (quarantined included)."""

    quarantined: int = 0
    """Corrupt record lines skipped (honest coverage accounting)."""

    amputated_bytes: int = 0
    """Bytes of torn final line physically truncated before reading."""

    @property
    def records(self) -> List[ExperienceRecord]:
        """The validated records as :class:`ExperienceRecord` objects."""
        return [ExperienceRecord(*values) for values in zip(
            *(self.columns[name] for name in FIELDS))]


def _amputate_torn_tail(path: Path, raw: bytes) -> tuple:
    """Truncate a torn final line off the journal; returns (raw, cut)."""
    if not raw or raw.endswith(b"\n"):
        return raw, 0
    cut = raw.rfind(b"\n") + 1
    dropped = len(raw) - cut
    warnings.warn(
        f"experience journal {path} ends mid-record ({dropped} bytes "
        "after the last newline); a writer died mid-append — amputating "
        "the torn line and continuing from the last durable record",
        RuntimeWarning, stacklevel=3)
    try:
        with open(path, "r+b") as fh:
            fh.truncate(cut)
    except OSError as exc:
        raise ExperienceError(
            f"cannot amputate torn tail of experience journal {path} "
            f"({exc})") from exc
    return raw[:cut], dropped


def _decode_each(lines: bytes) -> tuple:
    """(columns, quarantined) of newline-terminated lines decoded one by
    one with :func:`repro.learn.records.decode_values`."""
    rows = []
    quarantined = 0
    for line in lines.split(b"\n")[:-1]:
        try:
            rows.append(decode_values(line.decode("utf-8")))
        except (ExperienceError, UnicodeDecodeError):
            # Quarantine, never crash: the bad line is counted and the
            # rest of the journal still trains the learner.
            quarantined += 1
    return list(zip(*rows)), quarantined


def read_journal(path: Union[str, Path],
                 cursor: Optional[dict] = None) -> JournalSlice:
    """Consume one journal shard from ``cursor`` (or its start).

    Amputates a torn final line first (idempotent — re-reading after a
    crash truncates nothing further), verifies the cursor's content
    hash against the bytes it claims to have consumed, then decodes
    every complete line past it, quarantining corrupt records.  Returns
    the validated records plus the new cursor.

    Raises :class:`repro.errors.ExperienceError` when the journal
    itself is untrustworthy: unreadable, missing its header, or
    rewritten under the cursor (prefix hash mismatch).
    """
    path = Path(path)
    try:
        raw = fsio.read_bytes(path)
    except OSError as exc:
        raise ExperienceError(
            f"cannot read experience journal {path} ({exc})") from exc
    raw, amputated = _amputate_torn_tail(path, raw)
    first_nl = raw.find(b"\n")
    if first_nl < 0:
        raise ExperienceError(
            f"experience journal {path} has no complete header line; "
            "the file is empty or corrupt")
    try:
        header = json.loads(raw[:first_nl].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ExperienceError(
            f"experience journal {path} header is not valid JSON "
            f"({exc}); the file is corrupt or foreign") from exc
    if not isinstance(header, dict) \
            or header.get("format") != JOURNAL_FORMAT:
        raise ExperienceError(
            f"experience journal {path} does not declare format "
            f"{JOURNAL_FORMAT!r}; the file is corrupt or foreign")
    if header.get("v") != JOURNAL_VERSION:
        raise ExperienceError(
            f"experience journal {path} has unsupported version "
            f"{header.get('v')!r} (this reader understands "
            f"{JOURNAL_VERSION})")
    start = first_nl + 1
    prior_lines = 0
    hasher = hashlib.sha256()
    hashed = 0
    if cursor is not None:
        offset = cursor.get("offset")
        digest = cursor.get("sha256")
        prior_lines = cursor.get("lines", 0)
        if (not isinstance(offset, int) or not isinstance(digest, str)
                or isinstance(offset, bool)
                or not isinstance(prior_lines, int)
                or isinstance(prior_lines, bool) or prior_lines < 0):
            raise ExperienceError(
                f"malformed journal cursor {cursor!r}; cursors carry an "
                "integer offset, a sha256 hex digest, and a non-negative "
                "line count")
        if offset < start or offset > len(raw) \
                or raw[offset - 1:offset] != b"\n":
            raise ExperienceError(
                f"journal cursor offset {offset} does not land on a "
                f"record boundary of {path} ({len(raw)} bytes); the "
                "journal was rewritten or truncated under the cursor")
        hasher.update(memoryview(raw)[:offset])
        actual = hasher.hexdigest()
        if actual != digest:
            raise ExperienceError(
                f"journal {path} was rewritten under its cursor: the "
                f"consumed prefix hashes to {actual}, the cursor "
                f"recorded {digest} — refusing to resume, the learner "
                "would double-count or skip experience")
        start = hashed = offset
    hasher.update(memoryview(raw)[hashed:])
    columns = [[] for _ in FIELDS]
    quarantined = 0
    pos = start
    while pos < len(raw):
        # Chunks end on a newline: the last one within _CHUNK_BYTES, or
        # the first one past it for an overlong line.
        end = raw.rfind(b"\n", pos, pos + _CHUNK_BYTES) + 1 \
            or raw.index(b"\n", pos) + 1
        decoded = decode_canonical(raw, pos, end)
        if decoded is None:
            decoded, bad = _decode_each(raw[pos:end])
            quarantined += bad
        for column, values in zip(columns, decoded):
            column.extend(values)
        pos = end
    new_cursor = {"offset": len(raw), "sha256": hasher.hexdigest(),
                  "lines": prior_lines + raw.count(b"\n", start)}
    return JournalSlice(columns=dict(zip(FIELDS, map(tuple, columns))),
                        cursor=new_cursor, quarantined=quarantined,
                        amputated_bytes=amputated)
