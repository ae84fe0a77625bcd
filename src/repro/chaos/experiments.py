"""One chaos experiment per fault kind: inject, then verify recovery.

Every experiment follows the same contract: given a
:class:`~repro.chaos.plan.ChaosFault` and a private working directory,
it attacks one documented durability guarantee of the repository's own
stack — the supervised executor, the sweep manifest, the telemetry
sink, or policy/checkpoint persistence — and returns an
:class:`ExperimentOutcome` stating whether the fault was **detected**
(surfaced as the structured error the layer documents, or tolerated
by design with exact results) and whether the stack **recovered**
(resumed to the bit-identical state an unfaulted run produces).

A broken guarantee raises :class:`repro.errors.InvariantViolation`; the
campaign records it and keeps going.  Experiments never leave a shim
installed and never depend on wall-clock or ambient randomness beyond
their fault parameters, so a campaign seed replays bit-identically
(recovery *latencies* are measured, not deterministic, and are excluded
from determinism comparisons).

The kind-to-guarantee map is documented in ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import json
import signal
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.chaos.plan import ChaosFault
from repro.chaos.shims import EnospcShim, SlowReadShim, SlowWriteShim
from repro.control import build_rl_controller
from repro.cycles import DriveCycle
from repro.errors import (
    ExperienceError,
    InvariantViolation,
    ManifestError,
    PersistenceError,
)
from repro.exec import Supervisor, SweepManifest, Task
from repro.exec.manifest import encode_payload
from repro.fsio import shimmed
from repro.learn import (
    ExperienceRecord,
    ExperienceStream,
    OnlineLearner,
    PromotionPipeline,
    encode_record,
)
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import (
    _fingerprint,
    load_checkpoint,
    load_policy,
    save_checkpoint,
    save_policy,
)
from repro.serve import (
    CanaryConfig,
    FleetConfig,
    PolicyRegistry,
    PolicyServer,
)
from repro.serve.artifact import _aligned
from repro.sim import Simulator, train
from repro.telemetry.events import EventSink, read_events
from repro.vehicle import default_vehicle


@dataclass(frozen=True)
class ExperimentOutcome:
    """What one fault injection established about the stack."""

    kind: str
    """Fault kind (one of :data:`repro.chaos.plan.FAULT_KINDS`)."""

    detected: bool
    """The fault surfaced as its documented structured error (or was
    tolerated by design with provably exact results) — never silent."""

    recovered: Optional[bool]
    """The documented recovery path restored correct — bit-identical
    where promised — state.  ``None`` for detection-only faults (no
    recovery path exists; refusing loudly *is* the guarantee)."""

    resumable: bool
    """Whether this kind has a documented recovery path at all."""

    detail: str
    """One-line account of what was observed."""

    recovery_seconds: Optional[float]
    """Measured wall-clock of the recovery path (``None`` when the fault
    is detection-only).  Excluded from determinism comparisons."""

    def to_json(self) -> dict:
        """JSON-serialisable form (campaign reports)."""
        return {"kind": self.kind, "detected": self.detected,
                "recovered": self.recovered, "resumable": self.resumable,
                "detail": self.detail,
                "recovery_seconds": self.recovery_seconds}


EXPERIMENTS: Dict[str, Callable[[ChaosFault, Path], ExperimentOutcome]] = {}
"""Registry: fault kind -> experiment callable (filled by decorator)."""

RESUMABLE: Dict[str, bool] = {}
"""Whether each kind has a recovery path (vs detection-only)."""


def _experiment(kind: str, resumable: bool):
    def register(fn):
        """File ``fn`` under ``kind`` in the experiment registry."""
        EXPERIMENTS[kind] = fn
        RESUMABLE[kind] = resumable
        return fn
    return register


def _require(condition: bool, message: str) -> None:
    """Assert one documented invariant; violations are campaign findings."""
    if not condition:
        raise InvariantViolation(message)


# -- deterministic sweep workload --------------------------------------------

def _payload(index: int) -> dict:
    """Deterministic task result exercising the manifest payload codec."""
    return {"value": 0.1 * index + 0.25,
            "series": np.linspace(0.0, 1.0, 4) * index}


def _make_tasks(n: int) -> list:
    return [Task(key=f"t{i}", fn=(lambda i=i: _payload(i)),
                 spec={"index": i}) for i in range(n)]


def _reference(n: int) -> dict:
    return {f"t{i}": _payload(i) for i in range(n)}


def _canonical(results: Mapping[str, Any]) -> str:
    """Bit-faithful comparison form of a result set (floats via repr)."""
    return json.dumps({k: encode_payload(v) for k, v in results.items()},
                      sort_keys=True)


def _run_sweep(manifest: SweepManifest, n: int):
    return Supervisor(manifest=manifest).run(_make_tasks(n))


def _resume_exact(path: Path, n: int, expect_resumed: int,
                  detail: str) -> ExperimentOutcome:
    """Shared tail: resume the sweep and require bit-identical aggregates."""
    start = time.monotonic()
    sweep = _run_sweep(SweepManifest(path, resume=True), n)
    elapsed = time.monotonic() - start
    _require(not sweep.failures,
             f"resume quarantined {sweep.quarantined} on a healthy journal")
    _require(len(sweep.resumed) == expect_resumed,
             f"resume replayed {len(sweep.resumed)} tasks, "
             f"expected {expect_resumed} — coverage accounting lied")
    _require(_canonical(sweep.results) == _canonical(_reference(n)),
             "resumed aggregates are not bit-identical to an "
             "uninterrupted run")
    kind = detail.split(":")[0]
    return ExperimentOutcome(kind=kind, detected=True, recovered=True,
                             resumable=True, detail=detail,
                             recovery_seconds=elapsed)


# -- executor faults ----------------------------------------------------------

def _sigterm_proof_hang():
    """A worker that ignores SIGTERM and never returns (forked)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(0.05)


@_experiment("worker_hang_sigterm", resumable=True)
def _exp_worker_hang(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """A hung, SIGTERM-ignoring worker must be SIGKILLed; the sweep
    completes with honest coverage."""
    timeout = float(fault.params["timeout_s"])
    grace = float(fault.params["grace_s"])
    tasks = _make_tasks(2) + [Task(key="hang", fn=_sigterm_proof_hang,
                                   spec={"index": "hang"})]
    sup = Supervisor(jobs=2, timeout=timeout, kill_grace=grace)
    start = time.monotonic()
    sweep = sup.run(tasks)
    elapsed = time.monotonic() - start
    _require(len(sweep.failures) == 1 and sweep.quarantined == ["hang"],
             f"expected exactly the hung task quarantined, "
             f"got {sweep.quarantined}")
    failure = sweep.failures[0]
    detected = failure.kind == "timeout" and "SIGKILL" in failure.message
    _require(detected,
             f"hung worker was not reported as a SIGKILL-escalated "
             f"timeout: {failure.describe()}")
    _require(set(sweep.results) == {"t0", "t1"}
             and abs(sweep.coverage - 2 / 3) < 1e-12,
             "coverage accounting is dishonest after a hang")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"worker_hang_sigterm: escalated to SIGKILL after "
               f"{grace:g}s grace; sweep completed 2/3 honestly",
        recovery_seconds=max(elapsed - timeout, 0.0))


class _SimulatedCrash(Exception):
    """Stand-in for process death mid-sweep (after a journal fsync)."""


class _CrashAfter(SweepManifest):
    """Manifest that "dies" right after its Nth success hits the disk.

    The journal line is written and fsynced by the superclass before the
    crash fires — exactly the window between journaling a result and the
    supervisor acting on it.
    """

    def __init__(self, path, crash_after: int):
        super().__init__(path)
        self._fuse = crash_after

    def record_success(self, task, payload, attempts, elapsed):
        """Journal the result, then die once the fuse runs out."""
        super().record_success(task, payload, attempts, elapsed)
        self._fuse -= 1
        if self._fuse == 0:
            raise _SimulatedCrash(
                f"simulated process death after journaling {task.key}")


@_experiment("abort_mid_sweep", resumable=True)
def _exp_abort_mid_sweep(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """A sweep killed between journal fsync and result delivery must
    resume exactly: journaled tasks replayed, the rest re-run."""
    n = int(fault.params["n_tasks"])
    crash_after = int(fault.params["crash_after"])
    path = workdir / "sweep.jsonl"
    try:
        _run_sweep(_CrashAfter(path, crash_after), n)
    except _SimulatedCrash:  # containment: the injected crash is the fault
        pass
    else:
        raise InvariantViolation(
            "the simulated crash never fired — the experiment is vacuous")
    return _resume_exact(
        path, n, expect_resumed=crash_after,
        detail=f"abort_mid_sweep: killed after {crash_after}/{n} journal "
               f"records; resume replayed exactly those")


# -- manifest-file faults -----------------------------------------------------

def _result_lines(path: Path):
    """``(header_line, result_lines)`` of a manifest file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


@_experiment("torn_final_manifest_line", resumable=True)
def _exp_torn_final(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """A crash mid-append leaves a torn final line: resume must warn,
    amputate the fragment, re-run that task, and stay exact."""
    n = int(fault.params["n_tasks"])
    cut = float(fault.params["cut_fraction"])
    path = workdir / "sweep.jsonl"
    _run_sweep(SweepManifest(path), n)
    header, results = _result_lines(path)
    torn = results[-1][:max(1, int(len(results[-1]) * cut))]
    path.write_text("\n".join([header] + results[:-1]) + "\n" + torn,
                    encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _resume_exact(
            path, n, expect_resumed=n - 1,
            detail=f"torn_final_manifest_line: fragment warned about, "
                   f"amputated, task re-ran; {n} results exact")
    _require(any("torn final" in str(w.message) for w in caught),
             "torn final manifest line was consumed without a warning")
    raw = path.read_bytes()
    _require(raw.endswith(b"\n") and b"torn" not in raw.split(b"\n")[-2],
             "torn fragment survived in the journal after resume")
    # Amputation must be idempotent: a second resume is clean and quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = _run_sweep(SweepManifest(path, resume=True), n)
    _require(len(again.resumed) == n,
             "second resume after amputation re-ran finished work")
    return outcome


@_experiment("torn_nonfinal_manifest_line", resumable=False)
def _exp_torn_nonfinal(fault: ChaosFault,
                       workdir: Path) -> ExperimentOutcome:
    """Corruption anywhere but the final line must refuse to resume —
    syntactically torn or semantically gutted alike."""
    n = int(fault.params["n_tasks"])
    target = int(fault.params["target"])
    mode = str(fault.params["mode"])
    path = workdir / "sweep.jsonl"
    _run_sweep(SweepManifest(path), n)
    header, results = _result_lines(path)
    if mode == "syntactic":
        cut = float(fault.params["cut_fraction"])
        results[target] = results[target][
            :max(1, int(len(results[target]) * cut))]
    else:
        # A parseable line stripped of its payload: the nastier case,
        # because json.loads succeeds and only semantic validation saves
        # the resume from silently replaying a None payload.
        record = json.loads(results[target])
        del record["payload"]
        results[target] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join([header] + results) + "\n", encoding="utf-8")
    try:
        SweepManifest(path, resume=True)
    except ManifestError as exc:
        return ExperimentOutcome(
            kind=fault.kind, detected=True, recovered=None, resumable=False,
            detail=f"torn_nonfinal_manifest_line[{mode}]: resume refused "
                   f"with ManifestError ({exc})"[:200],
            recovery_seconds=None)
    raise InvariantViolation(
        f"manifest with a {mode}ally corrupt mid-file line resumed "
        "without error — silently wrong aggregates were possible")


@_experiment("duplicated_manifest_lines", resumable=True)
def _exp_duplicated(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """Replayed/duplicated journal lines (crash-retry, copied file) must
    dedupe by spec hash and resume exactly."""
    n = int(fault.params["n_tasks"])
    dup = int(fault.params["dup_count"])
    path = workdir / "sweep.jsonl"
    _run_sweep(SweepManifest(path), n)
    header, results = _result_lines(path)
    path.write_text("\n".join([header] + results + results[:dup]) + "\n",
                    encoding="utf-8")
    return _resume_exact(
        path, n, expect_resumed=n,
        detail=f"duplicated_manifest_lines: {dup} replayed lines deduped "
               f"by spec hash; aggregates exact")


@_experiment("reordered_manifest_lines", resumable=True)
def _exp_reordered(fault: ChaosFault, workdir: Path) -> ExperimentOutcome:
    """Out-of-order journal lines (merged shards, interleaved writers)
    must not matter: resume keys on content hashes, not positions."""
    n = int(fault.params["n_tasks"])
    path = workdir / "sweep.jsonl"
    _run_sweep(SweepManifest(path), n)
    header, results = _result_lines(path)
    order = np.random.default_rng(
        int(fault.params["shuffle_seed"])).permutation(len(results))
    shuffled = [results[i] for i in order]
    path.write_text("\n".join([header] + shuffled) + "\n", encoding="utf-8")
    return _resume_exact(
        path, n, expect_resumed=n,
        detail="reordered_manifest_lines: shuffled journal resumed "
               "exactly (content-hash keyed)")


# -- telemetry faults ---------------------------------------------------------

@_experiment("eventsink_torn_line", resumable=True)
def _exp_eventsink_torn(fault: ChaosFault,
                        workdir: Path) -> ExperimentOutcome:
    """A telemetry file torn mid-append must read back every intact
    event, warn about the fragment, and never raise."""
    n = int(fault.params["n_events"])
    cut = float(fault.params["cut_fraction"])
    path = workdir / "events.jsonl"
    with EventSink(path, run_id="chaos") as sink:
        emitted = [sink.emit("training_episode", episode=i,
                             total_reward=float(i) * 0.5,
                             final_soc=0.6) for i in range(n)]
    fragment = json.dumps({"type": "training_episode", "v": 1,
                           "seq": n, "wall": 0.0, "pid": 0,
                           "episode": n, "total_reward": 0.0,
                           "final_soc": 0.6}, sort_keys=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(fragment[:max(1, int(len(fragment) * cut))])
    start = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = read_events(path)
    elapsed = time.monotonic() - start
    _require(any("torn final telemetry" in str(w.message) for w in caught),
             "torn final telemetry line was consumed without a warning")
    _require(records[1:] == emitted,
             "telemetry read-back after a torn line lost or altered "
             "intact events")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"eventsink_torn_line: fragment warned about; "
               f"{n} intact events read back verbatim",
        recovery_seconds=elapsed)


# -- disk-pressure faults -----------------------------------------------------

@_experiment("enospc_manifest_append", resumable=True)
def _exp_enospc_manifest(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """Disk exhaustion mid-sweep must abort with a ManifestError naming
    the journal; once space returns, resume is exact."""
    n = int(fault.params["n_tasks"])
    path = workdir / "sweep.jsonl"
    shim = EnospcShim(fail_after_writes=int(fault.params["fail_after_writes"]),
                      partial_fraction=float(fault.params["partial_fraction"]),
                      match="sweep.jsonl")
    try:
        with shimmed(shim):
            _run_sweep(SweepManifest(path), n)
    except ManifestError as exc:
        _require("cannot append" in str(exc) and "sweep.jsonl" in str(exc),
                 f"ENOSPC surfaced without naming the journal: {exc}")
    else:
        raise InvariantViolation(
            "sweep kept running on a full disk — appends were lost "
            "silently")
    _require(shim.tripped, "the ENOSPC shim never fired — vacuous run")
    # Targeted write 1 is the header, write k the record of task k-2, so
    # the failing write leaves exactly fail_after_writes - 2 complete
    # journal records (the torn partial record, if any, is amputated).
    journaled = int(fault.params["fail_after_writes"]) - 2
    with warnings.catch_warnings():
        # The failed append may have torn the tail; resume may warn.
        warnings.simplefilter("ignore", RuntimeWarning)
        return _resume_exact(
            path, n, expect_resumed=journaled,
            detail="enospc_manifest_append: append failed loudly; resume "
                   "after 'freeing space' re-ran unjournaled work exactly")


@_experiment("slow_manifest_io", resumable=True)
def _exp_slow_manifest(fault: ChaosFault,
                       workdir: Path) -> ExperimentOutcome:
    """Degraded (slow) storage must change latency only — every record
    lands intact and a clean resume replays all of them."""
    n = int(fault.params["n_tasks"])
    delay = float(fault.params["delay_s"])
    path = workdir / "sweep.jsonl"
    shim = SlowWriteShim(delay, match="sweep.jsonl")
    with shimmed(shim):
        sweep = _run_sweep(SweepManifest(path), n)
    _require(shim.intercepted == n + 1,
             f"slow-IO shim saw {shim.intercepted} writes, expected "
             f"{n + 1} (header + {n} records)")
    _require(_canonical(sweep.results) == _canonical(_reference(n)),
             "results diverged under slow I/O")
    return _resume_exact(
        path, n, expect_resumed=n,
        detail=f"slow_manifest_io: {shim.intercepted} writes stalled "
               f"{delay * 1e3:g}ms each; journal intact, resume exact")


# -- persistence faults -------------------------------------------------------

def _built_agent(agent_seed: int):
    solver = PowertrainSolver(default_vehicle())
    controller = build_rl_controller(solver, seed=int(agent_seed))
    agent = controller.agent
    # Give the Q-table deterministic non-trivial content so corruption
    # has something to corrupt and comparisons something to compare.
    rng = np.random.default_rng(int(agent_seed))
    agent.learner.qtable.values[:] = rng.normal(
        size=agent.learner.qtable.values.shape)
    return solver, agent


@_experiment("policy_bitflip", resumable=False)
def _exp_policy_bitflip(fault: ChaosFault,
                        workdir: Path) -> ExperimentOutcome:
    """A single flipped bit in a saved policy must fail the SHA-256
    integrity check — never load a scrambled policy."""
    solver, agent = _built_agent(fault.params["agent_seed"])
    stem = workdir / "policy"
    save_policy(agent, stem)
    npz = stem.with_suffix(".npz")
    blob = bytearray(npz.read_bytes())
    index = min(int(float(fault.params["offset_fraction"]) * len(blob)),
                len(blob) - 1)
    blob[index] ^= 1 << int(fault.params["bit"])
    npz.write_bytes(bytes(blob))
    fresh = build_rl_controller(solver,
                                seed=int(fault.params["agent_seed"])).agent
    try:
        load_policy(fresh, stem)
    except PersistenceError as exc:
        return ExperimentOutcome(
            kind=fault.kind, detected=True, recovered=None,
            resumable=False,
            detail=f"policy_bitflip: bit {fault.params['bit']} at byte "
                   f"{index} caught by integrity check ({exc})"[:200],
            recovery_seconds=None)
    raise InvariantViolation(
        f"a policy with bit {fault.params['bit']} flipped at byte "
        f"{index} loaded without error — silent corruption")


@_experiment("policy_sidecar_truncated", resumable=False)
def _exp_sidecar_truncated(fault: ChaosFault,
                           workdir: Path) -> ExperimentOutcome:
    """A truncated sidecar (torn copy, partial download) must surface as
    a structured PersistenceError, not a JSON traceback."""
    solver, agent = _built_agent(fault.params["agent_seed"])
    stem = workdir / "policy"
    save_policy(agent, stem)
    sidecar = stem.with_suffix(".json")
    blob = sidecar.read_bytes()
    keep = max(1, int(len(blob) * float(fault.params["keep_fraction"])))
    sidecar.write_bytes(blob[:keep])
    fresh = build_rl_controller(solver,
                                seed=int(fault.params["agent_seed"])).agent
    try:
        load_policy(fresh, stem)
    except PersistenceError as exc:
        return ExperimentOutcome(
            kind=fault.kind, detected=True, recovered=None,
            resumable=False,
            detail=f"policy_sidecar_truncated: {keep}/{len(blob)} bytes "
                   f"kept; structured refusal ({exc})"[:200],
            recovery_seconds=None)
    raise InvariantViolation(
        f"a sidecar truncated to {keep} bytes loaded without error")


def _gentle_cycle(steps: int = 30) -> DriveCycle:
    half = steps // 2
    speeds = np.concatenate([np.linspace(0.0, 10.0, half),
                             np.linspace(10.0, 0.0, steps - half)])
    return DriveCycle("chaos-gentle", speeds)


@_experiment("checkpoint_corrupt_resume", resumable=True)
def _exp_checkpoint_corrupt(fault: ChaosFault,
                            workdir: Path) -> ExperimentOutcome:
    """Checkpoint corruption must be detected on resume; resuming from
    an intact replica must replay training bit-identically."""
    episodes = int(fault.params["episodes"])
    interrupt = int(fault.params["interrupt_after"])
    agent_seed = int(fault.params["agent_seed"])
    train_seed = int(fault.params["train_seed"])
    cycle = _gentle_cycle()
    ckpt = workdir / "ckpt"

    solver_a = PowertrainSolver(default_vehicle())
    straight = build_rl_controller(solver_a, seed=agent_seed)
    train(Simulator(solver_a), straight, cycle, episodes=episodes,
          seed=train_seed, evaluate_after=False)

    solver_b = PowertrainSolver(default_vehicle())
    killed = build_rl_controller(solver_b, seed=agent_seed)
    train(Simulator(solver_b), killed, cycle, episodes=interrupt,
          seed=train_seed, evaluate_after=False, checkpoint_path=ckpt)

    npz = ckpt.with_suffix(".npz")
    intact = npz.read_bytes()
    blob = bytearray(intact)
    index = min(int(float(fault.params["offset_fraction"]) * len(blob)),
                len(blob) - 1)
    blob[index] ^= 0x10
    npz.write_bytes(bytes(blob))
    probe = build_rl_controller(PowertrainSolver(default_vehicle()),
                                seed=agent_seed).agent
    try:
        load_checkpoint(probe, ckpt)
    except PersistenceError:  # containment: the expected detection signal
        pass
    else:
        raise InvariantViolation(
            "a corrupted checkpoint loaded without error — training "
            "would have resumed from scrambled state")

    # "Restore from replica": the intact bytes come back, resume runs.
    npz.write_bytes(intact)
    solver_c = PowertrainSolver(default_vehicle())
    resumed = build_rl_controller(solver_c, seed=agent_seed)
    start = time.monotonic()
    train(Simulator(solver_c), resumed, cycle, episodes=episodes,
          seed=train_seed, evaluate_after=False, resume_from=ckpt)
    elapsed = time.monotonic() - start
    _require(np.array_equal(resumed.agent.learner.qtable.values,
                            straight.agent.learner.qtable.values),
             "resumed training is not bit-identical to the "
             "uninterrupted run")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"checkpoint_corrupt_resume: corruption at byte {index} "
               f"detected; resume from replica bit-identical after "
               f"{interrupt}/{episodes} episodes",
        recovery_seconds=elapsed)


@_experiment("checkpoint_enospc", resumable=True)
def _exp_checkpoint_enospc(fault: ChaosFault,
                           workdir: Path) -> ExperimentOutcome:
    """Disk exhaustion mid-checkpoint must abort the save loudly and
    leave the previous checkpoint fully loadable (atomic-write promise)."""
    solver, agent = _built_agent(fault.params["agent_seed"])
    ckpt = workdir / "ckpt"
    save_checkpoint(agent, ckpt, episode=1)
    saved_q = agent.learner.qtable.values.copy()

    # state the failed save would have written
    agent.learner.qtable.values[:] = saved_q + 1.0
    shim = EnospcShim(fail_after_writes=1,
                      partial_fraction=float(fault.params["partial_fraction"]),
                      match="ckpt.npz")
    try:
        with shimmed(shim):
            save_checkpoint(agent, ckpt, episode=2)
    except PersistenceError as exc:
        _require("cannot persist" in str(exc),
                 f"ENOSPC checkpoint save raised an unhelpful error: {exc}")
    else:
        raise InvariantViolation(
            "checkpoint save on a full disk reported success")
    _require(not list(workdir.glob("*.tmp")),
             "failed checkpoint save leaked a temporary file")

    fresh = build_rl_controller(solver,
                                seed=int(fault.params["agent_seed"])).agent
    start = time.monotonic()
    episode = load_checkpoint(fresh, ckpt)
    elapsed = time.monotonic() - start
    _require(episode == 1
             and np.array_equal(fresh.learner.qtable.values, saved_q),
             "the previous checkpoint was damaged by a failed save — "
             "the atomic-write promise broke")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail="checkpoint_enospc: failed save surfaced as "
               "PersistenceError; previous checkpoint intact and loaded",
        recovery_seconds=elapsed)


# -- serving faults -----------------------------------------------------------

def _published_server(workdir: Path, agent_seed: int):
    """A registry with two published versions, a server holding v1.

    Returns ``(registry, server, candidate_version)`` where the
    candidate (v2) is a deliberately different policy so a completed
    swap would visibly change decisions — the experiments then prove it
    never completes.
    """
    _, agent = _built_agent(agent_seed)
    registry = PolicyRegistry(workdir / "registry")
    incumbent = registry.load(registry.publish(agent))
    agent.learner.qtable.values[:] += 0.25
    candidate = registry.publish(agent)
    server = PolicyServer(registry)
    server.activate(incumbent)
    return registry, server, candidate


@_experiment("serve_swap_corrupt_candidate", resumable=True)
def _exp_serve_corrupt_candidate(fault: ChaosFault,
                                 workdir: Path) -> ExperimentOutcome:
    """A candidate artifact corrupted on disk after publication (bit rot
    or a torn copy in the verify-to-activate window) must be refused at
    swap time; the incumbent keeps serving bit-identical decisions."""
    registry, server, candidate = _published_server(
        workdir, int(fault.params["agent_seed"]))
    probe = np.arange(min(96, server.active_artifact.num_states))
    before = server.decide(probe)
    path = registry.path_for(candidate)
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[4:8], "little")
    table_offset = _aligned(8 + header_len)
    span = len(blob) - table_offset
    mode = str(fault.params["mode"])
    if mode == "bitflip":
        index = table_offset + min(
            int(float(fault.params["offset_fraction"]) * span), span - 1)
        blob[index] ^= 1 << int(fault.params["bit"])
        path.write_bytes(bytes(blob))
        injected = (f"bit {fault.params['bit']} flipped at table byte "
                    f"{index - table_offset}")
    else:
        keep = table_offset + int(float(fault.params["keep_fraction"]) * span)
        path.write_bytes(bytes(blob[:keep]))
        injected = f"table truncated to {keep}/{len(blob)} bytes"
    start = time.monotonic()
    report = server.swap(version=candidate)
    after = server.decide(probe)
    elapsed = time.monotonic() - start
    _require(not report.activated and server.refused_swaps == 1,
             f"a corrupt candidate ({injected}) was not refused at swap "
             f"time: {report}")
    _require(server.active_version == 1,
             f"swap of a corrupt candidate moved the active version to "
             f"{server.active_version} — the pointer flip was not atomic")
    _require(np.array_equal(before, after),
             "incumbent decisions changed after a refused swap — serving "
             "was not isolated from the corrupt candidate")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"serve_swap_corrupt_candidate[{mode}]: {injected}; swap "
               f"refused, incumbent decisions bit-identical",
        recovery_seconds=elapsed)


@_experiment("serve_slow_artifact_load", resumable=True)
def _exp_serve_slow_load(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """Pathologically slow artifact reads must trip the staging deadline:
    the swap is shed cleanly (no indefinite stall) and the incumbent
    keeps serving bit-identically."""
    registry, server, candidate = _published_server(
        workdir, int(fault.params["agent_seed"]))
    probe = np.arange(min(96, server.active_artifact.num_states))
    before = server.decide(probe)
    delay = float(fault.params["delay_s"])
    deadline = float(fault.params["deadline_s"])
    shim = SlowReadShim(delay, match=".rpa")
    start = time.monotonic()
    with shimmed(shim):
        report = server.swap(version=candidate, deadline_s=deadline)
    stalled = time.monotonic() - start
    _require(shim.intercepted >= 1,
             "the slow-read shim never intercepted an artifact read — "
             "the experiment is vacuous")
    _require(not report.activated and server.stage_sheds == 1,
             f"a swap that blew its {deadline:g}s staging deadline was "
             f"not shed: {report}")
    _require("deadline" in report.reason,
             f"shed swap did not name the deadline: {report.reason!r}")
    recover_start = time.monotonic()
    after = server.decide(probe)
    elapsed = time.monotonic() - recover_start
    _require(server.active_version == 1 and np.array_equal(before, after),
             "serving degraded after a deadline-shed swap — the incumbent "
             "should have been untouched")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"serve_slow_artifact_load: reads stalled {delay * 1e3:g}ms "
               f"each ({stalled:.3f}s total), staging shed at "
               f"{deadline * 1e3:g}ms deadline; serving bit-identical",
        recovery_seconds=elapsed)


@_experiment("learn_journal_torn_batch", resumable=True)
def _exp_learn_torn_batch(fault: ChaosFault,
                          workdir: Path) -> ExperimentOutcome:
    """A fleet writer killed mid-append tears the experience journal's
    final line.  The reader must amputate it (idempotently — a second
    read truncates nothing further), the content-hash cursor must make
    a resumed learner re-read nothing twice, and a learner killed after
    its checkpoint and resumed must reach the **bit-identical** table an
    uninterrupted run over the same records produces."""
    params = fault.params
    _, agent = _built_agent(int(params["agent_seed"]))
    table = np.asarray(agent.learner.qtable.values, dtype=np.float64)
    fingerprint = _fingerprint(agent)
    num_states, num_actions = table.shape
    rng = np.random.default_rng(int(params["agent_seed"]))
    n = int(params["n_records"])
    break_after = int(params["break_after"])
    draws = [(int(rng.integers(num_states)), int(rng.integers(num_actions)),
              round(float(rng.normal()), 6), int(rng.integers(num_states)))
             for _ in range(n)]
    states, actions, rewards, next_states = (
        np.array(column) for column in zip(*draws))

    def offer(stream: ExperienceStream, lo: int, hi: int) -> None:
        """Journal records ``lo:hi`` as one fleet tick."""
        stream.offer_batch(states[lo:hi], actions[lo:hi], rewards[lo:hi],
                           next_states[lo:hi], np.ones(hi - lo, dtype=int),
                           np.arange(lo, hi), step=0)
        stream.flush()

    # The uninterrupted reference: every record, one ingest.
    with ExperienceStream(workdir / "reference") as ref_stream:
        offer(ref_stream, 0, n)
    reference = OnlineLearner(fingerprint, table)
    reference.ingest(workdir / "reference")

    # The faulted journal: a clean prefix, then a torn final line —
    # the writer died inside the flush that carried record break_after.
    journal_dir = workdir / "journals"
    with ExperienceStream(journal_dir) as stream:
        offer(stream, 0, break_after)
        torn = encode_record(ExperienceRecord(
            *draws[break_after], policy_version=1, vehicle_id=break_after,
            step=0)).encode("utf-8")
        cut = max(1, int(len(torn) * float(params["cut_fraction"])))
        with open(stream.path, "ab") as fh:
            fh.write(torn[:cut])

    checkpoint = workdir / "learner-checkpoint.json"
    learner = OnlineLearner(fingerprint, table, checkpoint_path=checkpoint)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = learner.ingest(journal_dir)
    _require(any("amputating" in str(w.message) for w in caught),
             "the torn final line was consumed without the documented "
             "amputation warning")
    _require(first.amputated_bytes == cut,
             f"amputation removed {first.amputated_bytes} bytes, the torn "
             f"fragment was {cut}")
    _require(first.records == break_after and first.quarantined == 0,
             f"the clean prefix held {break_after} records; ingest applied "
             f"{first.records} with {first.quarantined} quarantined")
    with warnings.catch_warnings():
        # Amputation already happened physically; a second pass over the
        # already-truncated journal must be silent and consume nothing.
        warnings.simplefilter("error")
        second = learner.ingest(journal_dir)
    _require(second.records == 0 and second.amputated_bytes == 0,
             f"a re-ingest under the cursor re-applied {second.records} "
             f"record(s) / re-amputated {second.amputated_bytes} byte(s) — "
             "exact resume is broken")

    # The learner process "dies" here (we drop the object); the fleet
    # writer recovers and appends the records the tear swallowed.
    del learner
    with ExperienceStream(journal_dir) as stream:
        offer(stream, break_after, n)
    start = time.monotonic()
    resumed = OnlineLearner.resume(checkpoint)
    rest = resumed.ingest(journal_dir)
    elapsed = time.monotonic() - start
    _require(rest.records == n - break_after,
             f"the resumed learner applied {rest.records} of the "
             f"{n - break_after} post-crash records")
    _require(resumed.records == n,
             f"lifetime record count {resumed.records} != {n} after resume")
    _require(np.array_equal(resumed.table, reference.table),
             "kill-and-resume produced a table that differs from the "
             "uninterrupted run — bit-identical resume is broken")

    # And the cursor must detect a journal rewritten underneath it as a
    # structured refusal, never as silent double-counting.
    body = stream.path.read_bytes()
    stream.path.write_bytes(body.replace(b'"v": 1', b'"v": 2', 1))
    try:
        resumed.ingest(journal_dir)
    except ExperienceError:  # containment: the refusal IS the invariant
        pass
    else:
        _require(False, "a journal rewritten under its cursor was "
                        "re-ingested without a structured refusal")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"learn_journal_torn_batch: {cut}-byte torn line amputated "
               f"once, cursor resumed at record {break_after}/{n}, "
               "resumed table bit-identical to the uninterrupted run",
        recovery_seconds=elapsed)


@_experiment("learn_regressed_candidate", resumable=True)
def _exp_learn_regressed(fault: ChaosFault,
                         workdir: Path) -> ExperimentOutcome:
    """A clearly regressed candidate (the incumbent's table negated, so
    its greedy policy picks the worst action everywhere) must be caught
    by the canary cohort, rolled back automatically with the incumbent
    bit-identical, and the regression-recovery latency recorded."""
    params = fault.params
    _, agent = _built_agent(int(params["agent_seed"]))
    table = np.asarray(agent.learner.qtable.values, dtype=np.float64)
    fingerprint = _fingerprint(agent)
    registry = PolicyRegistry(workdir / "registry")
    incumbent = registry.load(registry.publish_table(table, fingerprint))
    poisoned = registry.publish_table(-table, fingerprint)
    server = PolicyServer(registry)
    server.activate(incumbent)
    probe = np.arange(min(96, server.active_artifact.num_states))
    before = server.decide(probe)

    pipeline = PromotionPipeline(
        server, registry,
        fleet_config=FleetConfig(vehicles=192, steps=30,
                                 seed=int(params["fleet_seed"])),
        canary_config=CanaryConfig(fraction=float(params["fraction"]),
                                   min_samples=48, sigmas=2.0,
                                   decision_budget=4000,
                                   intervention_margin=0.02),
        max_rounds=6, round_steps=15)
    report = pipeline.promote(poisoned)
    _require(report.outcome == "rolled_back",
             f"a negated-table candidate came out {report.outcome!r} "
             f"({report.reason}); the canary should have rolled it back")
    _require(report.incumbent_intact is True,
             "the pipeline could not verify the incumbent bit-identical "
             "after the rollback")
    _require(report.recovery_s is not None and report.recovery_s >= 0.0,
             "the rollback did not record a regression-recovery latency")
    after = server.decide(probe)
    _require(server.active_version == 1
             and bool(np.array_equal(before, after)),
             "serving changed across a canary rollback — the incumbent "
             "should have been untouched")
    _require(server.canary is None,
             "the rolled-back canary rollout is still attached to the "
             "server")
    return ExperimentOutcome(
        kind=fault.kind, detected=True, recovered=True, resumable=True,
        detail=f"learn_regressed_candidate: canary caught v{poisoned} "
               f"after {report.rounds} fleet round(s) "
               f"({report.canary_decisions} canary decisions), rolled "
               "back to a verified bit-identical incumbent "
               f"in {report.recovery_s * 1e3:.1f}ms",
        recovery_seconds=report.recovery_s)
