"""Experience-record codec: one validated transition per JSONL line.

An :class:`ExperienceRecord` is one fleet transition ``(s, a, r, s')``
tagged with the policy version that produced the action, the global
vehicle id, and the simulation step — the unit of currency of the
online-learning loop (``docs/ONLINE_LEARNING.md``).  Records are
encoded as single sorted-key JSON lines so a journal is greppable,
diffable, and append-only-composable; JSON round-trips Python floats
bit-exactly, so an encoded reward decodes to the same IEEE-754 value.

Validation is the whole point of this module: *any* malformed line —
truncation, a dropped field, a mistyped value, a non-finite reward, a
bool smuggled into an integer field — decodes to a structured
:class:`repro.errors.ExperienceError`, never to a record the learner
would silently train on.  The journal reader quarantines (counts, skips)
such lines; the codec itself never crashes on garbage (fuzz-tested with
Hypothesis in ``tests/test_learn.py``).

The journal moves experience in columns, not record objects:
:func:`encode_columns` validates one fleet tick's arrays in a single
vectorised pass and formats its lines directly (byte-identical to
:func:`encode_record`), and :func:`decode_values` turns one line into a
validated field tuple through the same checks :class:`ExperienceRecord`
and :func:`decode_record` use, so the reader needs no dataclass per line.
The reader's fast path, :func:`decode_canonical`, recognises whole
chunks of the lines :func:`encode_columns` writes with one regular
expression derived from the same line template; every other line shape
goes through :func:`decode_values`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ExperienceError

RECORD_VERSION = 1
"""Schema version stamped into (and required of) every record line."""

_MAX_LINE_BYTES = 1 << 16
"""Upper bound on a plausible record line; longer claims are garbage."""

FIELDS = ("state", "action", "reward", "next_state", "policy_version",
          "vehicle_id", "step")
"""Record fields in :class:`ExperienceRecord` order — the order of
every field tuple and of the journal reader's columns."""

_INT_FIELDS = tuple(name for name in FIELDS if name != "reward")
"""Record fields that must be non-negative non-bool integers."""

_KEYS = frozenset(FIELDS + ("v",))

_LINE = ('{"action": %d, "next_state": %d, "policy_version": %d, '
         '"reward": %r, "state": %d, "step": %d, "v": '
         + str(RECORD_VERSION) + ', "vehicle_id": %d}\n')
"""One record line in :func:`encode_record`'s sorted-key JSON layout."""

_ID = rb"0|[1-9][0-9]{0,17}"
_EXPONENT = rb"[eE][+-]?[0-9]{1,4}"
_TOKENS = {
    "policy_version": rb"[1-9][0-9]{0,17}",
    # A JSON number with a fraction or an exponent, as ``%r`` prints a
    # finite float.  Digit runs are bounded (far above any repr), so a
    # matching line stays far below ``_MAX_LINE_BYTES``.
    "reward": (rb"-?(?:0|[1-9][0-9]{0,30})(?:\.[0-9]{1,30}(?:" + _EXPONENT
               + rb")?|" + _EXPONENT + rb")"),
}
"""Token grammars of the canonical line (ids default to :data:`_ID`).
Each accepts only tokens that ``int``/``float`` parse to the value
``json.loads`` gives them, and only ids and versions :func:`_validated`
passes.  Integer-valued rewards (``5``, ``-0``) are left to
:func:`decode_values`: ``json`` reads them as ints, so ``-0`` becomes
``0.0``, not ``float("-0")``."""


def _canonical_pattern() -> tuple:
    """(bytes regex of one :data:`_LINE` line, its group field names).

    Each ``"name": %d`` / ``%r`` placeholder of the template becomes a
    group of that field's token grammar; everything else, the
    ``"v": RECORD_VERSION`` literal included, must match byte for byte.
    The pattern is anchored at a line start and ends at the newline, so
    every match is one whole line.
    """
    parts, names, pos = [rb"(?m)^"], [], 0
    for found in re.finditer(r'"(\w+)": %[dr]', _LINE):
        name = found.group(1)
        literal = _LINE[pos:found.end() - 2].encode("ascii")
        parts += [re.escape(literal), b"(" + _TOKENS.get(name, _ID) + b")"]
        names.append(name)
        pos = found.end()
    parts.append(re.escape(_LINE[pos:].encode("ascii")))
    assert sorted(names) == sorted(FIELDS), names
    return re.compile(b"".join(parts)), tuple(names)


_CANONICAL, _CANONICAL_FIELDS = _canonical_pattern()


def _validated(values: tuple) -> tuple:
    """``values`` (in :data:`FIELDS` order) checked, reward as a float.

    The single validator behind :class:`ExperienceRecord`,
    :func:`decode_record` and the journal reader.  Plain ints and a
    finite float reward — every well-formed decoded line — take the
    first test; anything else is diagnosed field by field.
    """
    state, action, reward, next_state, version, vehicle, step = values
    if (type(state) is int and type(action) is int
            and type(next_state) is int and type(version) is int
            and type(vehicle) is int and type(step) is int
            and state >= 0 and action >= 0 and next_state >= 0
            and version >= 1 and vehicle >= 0 and step >= 0
            and type(reward) is float and math.isfinite(reward)):
        return values
    named = dict(zip(FIELDS, values))
    for name in _INT_FIELDS:
        value = named[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ExperienceError(
                f"experience field {name!r} must be an integer, got "
                f"{type(value).__name__} ({value!r})")
        if value < 0:
            raise ExperienceError(
                f"experience field {name!r} must be non-negative, "
                f"got {value}")
    if version < 1:
        raise ExperienceError(
            "experience records carry the serving policy version "
            f"(>= 1); got {version} — fallback decisions "
            "are excluded from the training stream")
    if isinstance(reward, bool) or not isinstance(reward, (int, float)):
        raise ExperienceError(
            f"experience reward must be a real number, got "
            f"{type(reward).__name__} ({reward!r})")
    if not math.isfinite(reward):
        raise ExperienceError(
            f"experience reward must be finite, got {reward!r}; "
            "a non-finite reward would silently poison the Q-table")
    return (state, action, float(reward), next_state, version, vehicle,
            step)


@dataclass(frozen=True)
class ExperienceRecord:
    """One validated fleet transition ``(s, a, r, s')``."""

    state: int
    """Discrete state id the decision was taken in."""

    action: int
    """Action id the serving policy chose."""

    reward: float
    """Decision reward (finite; the fleet's off-policy reward proxy)."""

    next_state: int
    """Discrete state id observed one step later."""

    policy_version: int
    """Registry version of the policy that produced the action (>= 1;
    fallback decisions are never streamed, so version 0 cannot occur)."""

    vehicle_id: int
    """Global (fleet-wide) vehicle id, stable across shards."""

    step: int
    """Simulation step the decision was taken at."""

    def __post_init__(self):
        values = _validated(tuple(getattr(self, name) for name in FIELDS))
        object.__setattr__(self, "reward", values[2])


def encode_record(record: ExperienceRecord) -> str:
    """One sorted-key JSON line (no trailing newline) for ``record``."""
    return json.dumps({
        "v": RECORD_VERSION,
        "state": record.state,
        "action": record.action,
        "reward": record.reward,
        "next_state": record.next_state,
        "policy_version": record.policy_version,
        "vehicle_id": record.vehicle_id,
        "step": record.step,
    }, sort_keys=True)


def _int_column(name: str, column) -> np.ndarray:
    array = np.asarray(column)
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise ExperienceError(
            f"experience column {name!r} must be a 1-D integer array, got "
            f"dtype {array.dtype} with shape {array.shape}")
    if array.size and array.min() < (1 if name == "policy_version" else 0):
        raise ExperienceError(
            f"experience column {name!r} holds {array.min()}; ids are "
            "non-negative and policy versions >= 1 (fallback decisions "
            "are excluded from the training stream)")
    return array


def encode_columns(states, actions, rewards, next_states, policy_versions,
                   vehicle_ids, step: int) -> List[str]:
    """Validate one tick's parallel columns and format its record lines.

    The vectorised form of :class:`ExperienceRecord` validation: every
    id column must be an integer array (a float or bool column is
    refused, never truncated), ids non-negative, versions >= 1 and
    rewards finite real numbers.  Any violation raises
    :class:`repro.errors.ExperienceError` for the whole tick.  Returns
    one newline-terminated line per record, byte-identical to
    :func:`encode_record`.
    """
    if isinstance(step, bool) or not isinstance(step, (int, np.integer)) \
            or step < 0:
        raise ExperienceError(
            f"the tick's step must be a non-negative integer, got {step!r}")
    columns = [_int_column(name, column) for name, column in (
        ("state", states), ("action", actions),
        ("next_state", next_states), ("policy_version", policy_versions),
        ("vehicle_id", vehicle_ids))]
    reward = np.asarray(rewards)
    if reward.ndim != 1 or reward.dtype.kind not in "iuf":
        raise ExperienceError(
            f"experience column 'reward' must be a 1-D real array, got "
            f"dtype {reward.dtype} with shape {reward.shape}")
    reward = reward.astype(np.float64, copy=False)
    if not np.all(np.isfinite(reward)):
        raise ExperienceError(
            "experience column 'reward' holds a non-finite value; it "
            "would silently poison the Q-table")
    if any(len(column) != len(reward) for column in columns):
        raise ExperienceError(
            "experience columns of one tick must have equal lengths, got "
            f"{len(reward)} rewards and id columns of "
            f"{[len(column) for column in columns]}")
    state, action, next_state, version, vehicle = (
        column.tolist() for column in columns)
    step = int(step)
    return [_LINE % (a, n, p, r, s, step, v) for s, a, r, n, p, v in zip(
        state, action, reward.tolist(), next_state, version, vehicle)]


def decode_values(line: str) -> tuple:
    """Decode and validate one journal line into a field tuple.

    Returns the record's values in :data:`FIELDS` order.  Every
    malformed shape — non-JSON, a non-object, an unknown or missing
    field, a wrong type, a non-finite reward, an unsupported schema
    version — raises :class:`repro.errors.ExperienceError` naming the
    problem.
    """
    if len(line) > _MAX_LINE_BYTES:
        raise ExperienceError(
            f"experience line is implausibly long ({len(line)} bytes); "
            "refusing to parse it")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, and the bare ValueError
        # of an integer past the interpreter's digit limit.
        raise ExperienceError(
            f"experience line is not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ExperienceError(
            f"experience line must be a JSON object, got "
            f"{type(payload).__name__}")
    version = payload.get("v")
    if version != RECORD_VERSION:
        raise ExperienceError(
            f"unsupported experience record version {version!r} (this "
            f"reader understands {RECORD_VERSION})")
    if payload.keys() != _KEYS:
        unknown = set(payload) - _KEYS
        if unknown:
            raise ExperienceError(
                f"experience line carries unknown fields {sorted(unknown)}")
        raise ExperienceError(
            f"experience line is missing fields "
            f"{sorted(_KEYS - set(payload))}")
    return _validated((payload["state"], payload["action"],
                       payload["reward"], payload["next_state"],
                       payload["policy_version"], payload["vehicle_id"],
                       payload["step"]))


def decode_canonical(data: bytes, pos: int, endpos: int) -> Optional[list]:
    """Columns of ``data[pos:endpos]`` if every line in it is canonical.

    ``pos`` must start a line and ``endpos`` end one (just past its
    newline); the slice is read in place, not copied.  A line is
    canonical when it has the layout :func:`encode_columns` writes, byte
    for byte, with values from :data:`_TOKENS` (every line the writer
    produces for ids of up to 18 digits); then its values are exactly
    those :func:`decode_values` returns for it.  Returns one list per
    field in :data:`FIELDS` order, or ``None`` when any line is not
    canonical or decodes to a non-finite reward (``1e400``) — the caller
    then decodes the lines one by one with :func:`decode_values`.
    """
    matches = _CANONICAL.findall(data, pos, endpos)
    if not matches or len(matches) != data.count(b"\n", pos, endpos):
        return None
    tokens = dict(zip(_CANONICAL_FIELDS, zip(*matches)))
    rewards = list(map(float, tokens["reward"]))
    if not all(map(math.isfinite, rewards)):
        return None
    return [rewards if name == "reward" else list(map(int, tokens[name]))
            for name in FIELDS]


def decode_record(line: str) -> ExperienceRecord:
    """Decode and fully validate one journal line into a record.

    Raises :class:`repro.errors.ExperienceError` exactly when
    :func:`decode_values` does; a successfully decoded record is safe to
    train on by construction.
    """
    return ExperienceRecord(*decode_values(line))
