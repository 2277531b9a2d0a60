"""The campaign executor: task state machine, supervised workers, journaling.

:func:`run_supervised` is what :func:`repro.experiments.parallel.run_campaign`
calls, and the only way a campaign executes.  Every unique config is a task
that goes through the same state machine — content-key dedup, cache peek,
``attempt`` / ``done`` / ``fail`` / ``quarantine`` journal records,
:class:`RetryPolicy`, a final per-config status — and ``jobs`` alone
decides where an attempt runs:

* ``jobs == 1``: in the calling process.  Nothing is forked, so the tracer,
  phase profiler, sanitizer and ``total_events_executed()`` see the run,
  and the runner's own in-process telemetry / flight-recorder records are
  the only ones (the campaign adds no second copy).  There is
  no heartbeat and no stall kill: nothing outside the process is watching.
* ``jobs >= 2``: in worker processes this module owns, which lets the
  campaign survive what an in-process attempt cannot:

  * **Worker loss** — a worker SIGKILLed (OOM killer, operator, chaos
    harness) mid-task is detected via its process sentinel; the task is
    rescheduled on a fresh worker and counted toward the config's attempt
    budget.  A config that eventually succeeds this way is ``salvaged``.
  * **Hangs** — workers heartbeat over their pipe while simulating; a busy
    worker silent past the stall deadline (derived from the
    :class:`~repro.sim.network.RunBudget` when one is set) is SIGKILLed
    and its task rescheduled.  This backstops the in-worker watchdog,
    which cannot fire if the worker is wedged below Python.

Both modes share the rest:

* **Transient errors** — a :class:`RetryPolicy` classifies failures by
  exception type; transient ones are retried with exponential backoff and
  deterministic jitter (derived from the config key, so two supervisors
  racing on the same campaign do not thundering-herd the same instant).
  A config that succeeds after a failed attempt is ``retried``.
* **Poison configs** — deterministic errors (and transient ones past the
  attempt budget) are *quarantined*, not dropped: the outcome carries a
  :class:`QuarantineReport` with the canonical config text, so the run is
  replayable in isolation.  The rest of the sweep proceeds.
* **Crashes of the supervisor itself** — every state transition is
  appended to a :class:`CampaignJournal` (one fsync'd JSON line each), so
  ``--resume`` on the journal of an interrupted campaign re-runs only
  what never finished, deduping completed work against the result store.

Determinism: supervision never touches simulation inputs.  A config's
result is a pure function of the config, so a campaign that limps home
through kills, hangs and retries produces byte-identical results to a
fault-free run — ``repro.check.chaos`` asserts exactly that.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, connection
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Tuple

from .. import probe
from ..check import invariants as check_invariants
from ..obs import flightrec as obs_flightrec
from ..obs import registry as obs_registry
from ..obs import telemetry as obs_telemetry
from ..obs import tracer as obs_tracer
from ..sim.network import RunBudget
from .config import IncastConfig, apply_default_backend, get_default_backend, set_default_backend
from .parallel import (
    AnyConfig,
    CampaignOutcome,
    CampaignStats,
    _describe,
    _run_config_timed,
)
from .runner import (
    get_default_budget,
    peek_cached,
    seed_result_caches,
    set_default_budget,
)
from .store import canonical_config_repr, code_fingerprint

__all__ = [
    "CampaignJournal",
    "JournalState",
    "QuarantineReport",
    "RetryPolicy",
    "SupervisorConfig",
    "load_journal",
    "run_supervised",
]

# Final per-config statuses (CampaignOutcome.statuses values).
STATUS_OK = "ok"
STATUS_RETRIED = "retried"  # succeeded after >= 1 failed attempt
STATUS_SALVAGED = "salvaged"  # succeeded after >= 1 worker kill/loss
STATUS_QUARANTINED = "quarantined"  # written off as poison; replayable report
STATUS_LOST = "lost"  # no result, not poison (worker loss budget / interrupt)

TERMINAL_STATUSES = (STATUS_OK, STATUS_RETRIED, STATUS_SALVAGED, STATUS_QUARANTINED)


def _summary_suffix(summary: Optional[Dict[str, Any]]) -> str:
    """Compact run-summary fields for a campaign progress line."""
    if not summary:
        return ""
    conv = summary.get("convergence_ns")
    parts = [
        f"jain={summary.get('jain', float('nan')):.3f}",
        f"conv={conv / 1e6:.3f}ms" if conv is not None else "conv=-",
    ]
    slowdown = summary.get("slowdown") or {}
    p999 = slowdown.get("p999_slowdown")
    if p999 is not None:
        parts.append(f"p999-slowdown={p999:.2f}")
    return " [" + " ".join(parts) + "]"


def _announce(progress: Optional[Callable[[str], None]], message: str) -> None:
    """One live progress line: to the caller's sink and the telemetry log."""
    if progress is not None:
        progress(message)
    tel = obs_telemetry.TELEMETRY
    if tel is not None:
        tel.heartbeat(message)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """When and how fast a failed config is re-attempted.

    Classification is by exception type *name* (workers report failures
    across a pipe as text, and the chaos harness's injected error types
    are not importable everywhere).  Anything not listed as transient is
    deterministic: re-running a pure function on the same input yields
    the same exception, so retrying would only burn the attempt budget.
    Worker loss and stall kills are always treated as transient — they
    say nothing about the config.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    jitter_frac: float = 0.25
    transient_errors: Tuple[str, ...] = (
        "WatchdogExpired",
        "ChaosTransientError",
        "ConnectionError",
        "ConnectionResetError",
        "BrokenPipeError",
        "EOFError",
        "OSError",
        "TimeoutError",
        "MemoryError",
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0 or self.backoff_factor < 1 or not 0 <= self.jitter_frac <= 1:
            raise ValueError("invalid backoff parameters")

    def classify(self, error_type: str) -> str:
        """``"transient"`` (retry) or ``"deterministic"`` (quarantine)."""
        return "transient" if error_type in self.transient_errors else "deterministic"

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before re-attempting ``key`` (``attempt`` is 1-based).

        Jitter is deterministic — hashed from ``key:attempt`` — so retry
        schedules are reproducible run to run, yet distinct configs failing
        together fan out instead of retrying in lockstep.
        """
        if self.backoff_s <= 0:
            return 0.0
        base = self.backoff_s * self.backoff_factor ** max(0, attempt - 1)
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter_frac * unit)


@dataclass(frozen=True)
class QuarantineReport:
    """Everything needed to replay a poisoned config in isolation."""

    key: str
    desc: str
    error: str  # "ErrorType: message"
    classification: str  # "transient" (budget exhausted) or "deterministic"
    attempts: int
    config_repr: str  # canonical rendering; diffable and replayable

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "desc": self.desc,
            "error": self.error,
            "classification": self.classification,
            "attempts": self.attempts,
            "config_repr": self.config_repr,
        }


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


JOURNAL_VERSION = 1


class CampaignJournal:
    """Append-only, crash-safe record of a campaign's state transitions.

    One JSON object per line; every append is flushed and fsync'd before
    returning, so the journal on disk is never behind the campaign's
    actual state by more than the line being written.  A torn final line
    (the writer died mid-append) is expected and tolerated by
    :func:`load_journal`.
    """

    def __init__(self, path: Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fh: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    def append(self, event: str, _sync: Optional[bool] = None, **fields: Any) -> None:
        """Append one record.  ``_sync=False`` flushes without fsync — used
        for high-rate advisory records (worker heartbeats) that a live
        tailer wants promptly but whose loss in a crash costs nothing.

        Every record carries ``ts`` (wall-clock epoch seconds) for display
        by ``obs top``/``obs stitch``; supervision logic itself never reads
        it back — liveness math stays on ``time.monotonic()``.
        """
        if self._fh is None:
            return
        record = {"event": event, "ts": round(time.time(), 3), **fields}
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        if self._fsync if _sync is None else _sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class JournalState:
    """What a journal says happened, replayed in order."""

    path: Path
    version: int = JOURNAL_VERSION
    fingerprint: Optional[str] = None
    statuses: Dict[str, str] = field(default_factory=dict)  # terminal only
    attempts: Dict[str, int] = field(default_factory=dict)
    quarantines: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    interrupted: bool = False
    completed: bool = False
    torn_lines: int = 0

    def terminal(self, key: str) -> Optional[str]:
        """The carried-over status for ``key``, if it need not re-run.

        ``lost`` is deliberately *not* terminal on resume: the loss was
        most likely the crash being resumed from, so the config gets a
        fresh attempt budget.  Quarantine carries over — poison stays
        poison until the code fingerprint changes.
        """
        status = self.statuses.get(key)
        return status if status in TERMINAL_STATUSES else None


def load_journal(path: Path) -> JournalState:
    """Replay a campaign journal into resumable state.

    Unknown events are skipped (forward compatibility); a torn final line
    is counted, not fatal.  Raises ``FileNotFoundError`` for a missing
    journal — resuming from nothing is an operator error worth surfacing.
    """
    path = Path(path)
    state = JournalState(path=path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                state.torn_lines += 1
                continue
            raise ValueError(f"{path}: corrupt journal line {i + 1}") from None
        event = record.get("event")
        key = record.get("key")
        if event == "campaign":
            state.version = record.get("version", JOURNAL_VERSION)
            state.fingerprint = record.get("fingerprint")
            state.interrupted = False
            state.completed = False
        elif event == "attempt":
            state.attempts[key] = record.get("attempt", state.attempts.get(key, 0) + 1)
        elif event == "done":
            state.statuses[key] = record.get("status", STATUS_OK)
        elif event == "quarantine":
            state.statuses[key] = STATUS_QUARANTINED
            state.quarantines[key] = {
                k: record.get(k)
                for k in ("desc", "error", "classification", "attempts", "config_repr")
            }
        elif event == "lost":
            state.statuses[key] = STATUS_LOST
        elif event == "interrupted":
            state.interrupted = True
            # Work that was in flight or queued at interrupt time is lost
            # (not terminal: a resume schedules it again).
            for k in list(record.get("in_flight") or ()) + list(
                record.get("pending") or ()
            ):
                state.statuses.setdefault(k, STATUS_LOST)
        elif event == "end":
            state.completed = True
    return state


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


HEARTBEAT_INTERVAL_S = 0.25


def _attach_worker_planes(
    sanitize: bool, flightrec: bool, trace_capacity: Optional[int]
) -> None:
    """Start the worker from an empty probe, then attach what it ships home.

    A forked child inherits the parent's planes; a registry or profiler
    counting into a copy nobody reads only slows the worker down (the
    profiler moves it onto the profiled run loop).  What goes home: a
    sanitizer violation (raised here, an ``err`` like any other failure),
    the recorder's finalized run section (on the result object; the parent
    re-records it) and the tracer ring,
    drained into each ``ok`` reply as that run's shard for ``obs stitch``.
    """
    probe.detach_all()
    if sanitize:
        check_invariants.enable()
    if flightrec:
        obs_flightrec.enable()
    if trace_capacity:
        obs_tracer.enable(capacity=trace_capacity)


def _worker_main(
    conn: connection.Connection,
    inherited: Sequence[connection.Connection],
    budget: Optional[RunBudget],
    default_backend: str,
    sanitize: bool,
    chaos: Any,
    heartbeat_interval_s: float,
    trace_capacity: Optional[int] = None,
    flightrec: bool = False,
) -> None:
    """Supervised worker loop: receive configs, heartbeat while running.

    ``inherited`` are the supervisor's ends of this worker's pipe and of its
    older siblings', which a forked child holds copies of.  They are closed
    before anything else: while one is open here, ``conn.recv()`` never sees
    EOF, and the workers of a SIGKILLed supervisor would wait forever.

    The per-process switches are re-installed from the parent's first: the
    watchdog budget, the default backend (so unstamped configs simulate on
    the backend their key was computed for) and the planes
    (:func:`_attach_worker_planes`).

    The heartbeat thread starts *after* chaos injection so an injected
    hang looks to the parent exactly like a wedged worker (silence), not
    a healthy slow one.  All pipe sends share a lock — ``Connection`` is
    not thread-safe and the heartbeat thread writes concurrently with
    the result send.
    """
    import threading
    import traceback

    for end in inherited:
        end.close()
    set_default_budget(budget)
    set_default_backend(default_backend)
    _attach_worker_planes(sanitize, flightrec, trace_capacity)
    send_lock = threading.Lock()

    def send(message: Tuple[Any, ...]) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (OSError, ValueError):
                return False  # parent went away; nothing left to report to

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, key, cfg, attempt = message
        if chaos is not None:
            try:
                chaos.inject(key, attempt)
            except BaseException as exc:
                send(("err", key, attempt, type(exc).__name__, str(exc), ""))
                continue
        stop_beating = threading.Event()

        def beat() -> None:
            while not stop_beating.wait(heartbeat_interval_s):
                if not send(("hb", key, os.getpid())):
                    os._exit(1)  # the supervisor is gone: nobody to run this for

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        try:
            envelope = _run_config_timed(cfg)
            tr = obs_tracer.get()
            shard = tr.drain_chrome() if trace_capacity and tr is not None else None
            reply = ("ok", key, attempt, envelope, shard)
        except BaseException as exc:
            reply = (
                "err",
                key,
                attempt,
                type(exc).__name__,
                str(exc),
                traceback.format_exc(limit=20),
            )
        finally:
            stop_beating.set()
            beater.join()
        if not send(reply):
            break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


@dataclass
class SupervisorConfig:
    """Knobs for :func:`run_supervised` beyond the plain campaign ones.

    The liveness, chaos and trace-shard knobs act on worker processes, so
    they apply to ``jobs >= 2`` only.  ``stall_timeout_s=None`` derives the
    deadline: generous multiples of the heartbeat interval, widened to
    clear the per-run wall-clock budget (the in-worker watchdog must get
    first shot at a slow run; the supervisor's SIGKILL is the backstop for
    wedged processes).
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    journal_path: Optional[Path] = None
    resume: Optional[JournalState] = None
    partial_ok: bool = False
    heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S
    stall_timeout_s: Optional[float] = None
    stall_grace_s: float = 2.0
    chaos: Any = None  # ChaosSpec-like: .inject(key, attempt) in the worker
    sleep: Callable[[float], None] = time.sleep  # injectable for tests
    # Per-worker Chrome-trace shards (obs stitch): directory to write one
    # shard file per successful run, and the worker-side ring capacity.
    trace_shard_dir: Optional[Path] = None
    trace_capacity: int = obs_tracer.DEFAULT_CAPACITY

    def effective_stall_timeout(self, budget: Optional[RunBudget]) -> float:
        """Max silence (no heartbeat/message) before a busy worker is killed."""
        if self.stall_timeout_s is not None:
            return self.stall_timeout_s
        deadline = 20.0 * self.heartbeat_interval_s
        if budget is not None and budget.wall_clock_s:
            deadline = max(deadline, 2.0 * budget.wall_clock_s + self.stall_grace_s)
        return deadline

    def runtime_deadline(self, budget: Optional[RunBudget]) -> Optional[float]:
        """Max wall time a single attempt may run, heartbeats or not.

        A heartbeat proves the worker *process* is alive, not that the run
        is progressing — a simulation wedged in a tight loop beats happily
        forever.  The in-worker watchdog (``RunBudget.wall_clock_s``) is
        supposed to abort such runs from inside; this deadline, at twice
        the budget plus grace, is the supervisor's backstop for when the
        watchdog itself cannot fire (worker stuck below Python).  Without
        a wall-clock budget there is no basis for a deadline: ``None``.
        """
        if budget is not None and budget.wall_clock_s:
            return 2.0 * budget.wall_clock_s + self.stall_grace_s
        return None


class CampaignIncomplete(RuntimeError):
    """A campaign finished with quarantined/lost configs and
    ``partial_ok`` was not set.  The outcome (with every partial result)
    rides on the exception."""

    def __init__(self, message: str, outcome: CampaignOutcome) -> None:
        super().__init__(message)
        self.outcome = outcome


@dataclass
class _Task:
    """One unique config's scheduling state."""

    key: str
    cfg: AnyConfig
    attempts: int = 0  # dispatches so far (this campaign + resumed)
    error_retries: int = 0  # failed attempts that came back as exceptions
    worker_losses: int = 0  # attempts that died with the worker
    not_before: float = 0.0  # monotonic eligibility time (backoff)
    last_error: str = ""


class _Worker:
    """Parent-side handle on one worker process."""

    def __init__(self, proc: Process, conn: connection.Connection) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Optional[_Task] = None
        self.last_seen = time.monotonic()
        self.dispatched_at = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.task is not None

    def kill(self) -> None:
        if self.proc.is_alive():
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        self.proc.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass


def _spawn_worker(
    budget: Optional[RunBudget], sup: SupervisorConfig, siblings: Sequence[_Worker]
) -> _Worker:
    parent_conn, child_conn = Pipe(duplex=True)
    proc = Process(
        target=_worker_main,
        args=(
            child_conn,
            [parent_conn] + [w.conn for w in siblings],
            budget,
            get_default_backend(),
            check_invariants.enabled(),
            sup.chaos,
            sup.heartbeat_interval_s,
            sup.trace_capacity if sup.trace_shard_dir is not None else None,
            obs_flightrec.enabled(),
        ),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return _Worker(proc, parent_conn)


def run_supervised(
    configs: Sequence[AnyConfig],
    *,
    jobs: int = 1,
    budget: Optional[RunBudget] = None,
    progress: Optional[Callable[[str], None]] = None,
    sup: Optional[SupervisorConfig] = None,
) -> CampaignOutcome:
    """Run a campaign; see the module docstring (``sup=None`` is the default
    :class:`SupervisorConfig`).

    Returns a :class:`~repro.experiments.parallel.CampaignOutcome` whose
    ``statuses`` has an entry for every unique config.  Raises
    :class:`CampaignIncomplete` (carrying the outcome) if any config
    ended quarantined or lost and ``sup.partial_ok`` is false — after
    the journal and telemetry are fully written, so nothing is lost.
    ``KeyboardInterrupt`` kills the workers, journals the interruption,
    and re-raises.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    sup = sup or SupervisorConfig()
    in_process = jobs == 1
    if in_process and sup.chaos is not None:
        raise ValueError(
            "chaos injection needs worker processes (jobs >= 2): with jobs=1 "
            "an injected kill or hang would strike the calling process"
        )
    start = time.perf_counter()
    stats = CampaignStats(requested=len(configs), jobs=jobs)
    unique: Dict[str, AnyConfig] = {}
    for cfg in configs:
        # Keyed as Results looks them up: on the backend the run will use.
        cfg = apply_default_backend(cfg)
        unique.setdefault(cfg.cache_key(), cfg)
    stats.unique = len(unique)

    results: Dict[str, Any] = {}
    statuses: Dict[str, str] = {}
    quarantines: List[QuarantineReport] = []
    failures: List[Tuple[str, str]] = []

    journal: Optional[CampaignJournal] = None
    if sup.journal_path is not None:
        journal = CampaignJournal(sup.journal_path)

    def record(event: str, **fields: Any) -> None:
        if journal is not None:
            journal.append(event, **fields)

    if journal is not None:
        # Hashing the source tree is paid only where the fingerprint is
        # used: here and in the resume comparison below.
        journal.append(
            "campaign",
            version=JOURNAL_VERSION,
            fingerprint=code_fingerprint(),
            jobs=jobs,
            requested=stats.requested,
            unique=stats.unique,
            resumed_from=str(sup.resume.path) if sup.resume is not None else None,
        )

    resume = sup.resume
    if resume is not None and resume.fingerprint not in (None, code_fingerprint()):
        # The code changed under the journal: cached results are already
        # namespaced away by the store, and quarantines may no longer be
        # poison.  Re-run everything.
        _announce(
            progress,
            f"resume: journal fingerprint {resume.fingerprint} != current "
            f"{code_fingerprint()}; ignoring carried statuses",
        )
        resume = None

    pending: deque[_Task] = deque()
    for key, cfg in unique.items():
        carried = resume.terminal(key) if resume is not None else None
        if carried == STATUS_QUARANTINED:
            info = resume.quarantines.get(key, {})
            report = QuarantineReport(
                key=key,
                desc=info.get("desc") or _describe(cfg),
                error=info.get("error") or "carried over from resumed journal",
                classification=info.get("classification") or "deterministic",
                attempts=info.get("attempts") or resume.attempts.get(key, 0),
                config_repr=info.get("config_repr") or canonical_config_repr(cfg),
            )
            statuses[key] = STATUS_QUARANTINED
            stats.quarantined += 1
            quarantines.append(report)
            failures.append((key, report.error))
            record("quarantine", **report.as_dict())
            continue
        cached = peek_cached(cfg)
        if cached is not None:
            results[key] = cached
            # A resumed config that finished as retried/salvaged keeps that
            # status — the journal is the memory the cache does not have.
            statuses[key] = carried or STATUS_OK
            stats.cached += 1
            record("done", key=key, status=statuses[key], cached=True)
            continue
        task = _Task(key=key, cfg=cfg)
        if resume is not None:
            task.attempts = resume.attempts.get(key, 0)
        pending.append(task)

    stall_timeout = sup.effective_stall_timeout(budget)
    runtime_deadline = sup.runtime_deadline(budget)
    outstanding = len(pending)
    workers: List[_Worker] = []
    running: Optional[_Task] = None  # the in-process attempt, if one is underway
    done_count = 0
    total_to_run = outstanding

    def finish_lost(task: _Task, reason: str) -> None:
        nonlocal outstanding
        statuses[task.key] = STATUS_LOST
        stats.lost += 1
        failures.append((task.key, reason))
        record("lost", key=task.key, error=reason, attempts=task.attempts)
        outstanding -= 1

    def quarantine(task: _Task, error: str, classification: str) -> None:
        nonlocal outstanding
        report = QuarantineReport(
            key=task.key,
            desc=_describe(task.cfg),
            error=error,
            classification=classification,
            attempts=task.attempts,
            config_repr=canonical_config_repr(task.cfg),
        )
        statuses[task.key] = STATUS_QUARANTINED
        stats.quarantined += 1
        quarantines.append(report)
        failures.append((task.key, error))
        record("quarantine", **report.as_dict())
        outstanding -= 1
        _announce(
            progress,
            f"QUARANTINED {report.desc} after {task.attempts} attempt(s): {error}",
        )

    def reschedule_after_loss(task: _Task, why: str) -> None:
        """Worker died or was killed while running ``task``."""
        task.worker_losses += 1
        task.last_error = why
        if task.attempts >= sup.policy.max_attempts:
            finish_lost(
                task, f"{why} (attempt budget {sup.policy.max_attempts} exhausted)"
            )
            return
        delay = sup.policy.delay_s(task.key, task.attempts)
        task.not_before = time.monotonic() + delay
        pending.append(task)
        record("reschedule", key=task.key, reason=why, attempt=task.attempts)
        _announce(
            progress,
            f"rescheduling {_describe(task.cfg)} after {why} "
            f"(attempt {task.attempts}/{sup.policy.max_attempts})",
        )

    def write_shard(task: _Task, envelope: Any, shard: Any) -> None:
        if shard is None or sup.trace_shard_dir is None:
            return
        shard_dir = Path(sup.trace_shard_dir)
        shard_dir.mkdir(parents=True, exist_ok=True)
        path = shard_dir / f"shard-p{envelope.pid}-{task.key[:12]}-a{task.attempts}.json"
        path.write_text(json.dumps(shard, sort_keys=True))
        record(
            "trace_shard",
            key=task.key,
            pid=envelope.pid,
            path=str(path),
            attempt=task.attempts,
        )

    def handle_success(task: _Task, envelope: Any, shard: Any = None) -> None:
        """Adopt one attempt's result; for a worker's, also re-record what
        the runner recorded in that (now unreachable) process.

        The run's exact summary (``result.summary()``) is computed only for
        a consumer: the journal's ``done`` record, the progress line and
        the telemetry manifest's ``analytics`` section."""
        nonlocal outstanding, done_count
        result = envelope.result
        seed_result_caches(task.cfg, result)
        results[task.key] = result
        stats.executed += 1
        if task.worker_losses:
            status = STATUS_SALVAGED
            stats.salvaged += 1
        elif task.error_retries:
            status = STATUS_RETRIED
            stats.retried += 1
        else:
            status = STATUS_OK
        statuses[task.key] = status
        tel = obs_telemetry.TELEMETRY
        summarize = getattr(result, "summary", None)
        summary = None
        if summarize is not None and (
            journal is not None or progress is not None or tel is not None
        ):
            summary = summarize()
        done_extra: Dict[str, Any] = {}
        if summary is not None:
            slowdown = summary["slowdown"] or {}
            done_extra["analytics"] = {
                "jain": summary["jain"],
                "convergence_ns": summary["convergence_ns"],
                "p50_slowdown": slowdown.get("p50_slowdown"),
                "p99_slowdown": slowdown.get("p99_slowdown"),
            }
        record(
            "done",
            key=task.key,
            status=status,
            attempts=task.attempts,
            desc=_describe(task.cfg),
            pid=envelope.pid,
            wall_s=round(envelope.wall_s, 4),
            events=envelope.events,
            **done_extra,
        )
        write_shard(task, envelope, shard)
        outstanding -= 1
        done_count += 1
        kind = "incast" if isinstance(task.cfg, IncastConfig) else "datacenter"
        if tel is not None and summary is not None:
            tel.record_summary(kind, _describe(task.cfg), summary)
        if not in_process:
            frun = getattr(result, "flightrec", None)
            rec = obs_flightrec.get()
            if rec is not None and frun is not None:
                rec.adopt_run(frun)
            if tel is not None:
                run_status = getattr(result, "status", None)
                tel.record_run(
                    kind,
                    _describe(task.cfg),
                    wall_s=envelope.wall_s,
                    events=envelope.events,
                    completed=bool(run_status) if run_status is not None else True,
                    pid=envelope.pid,
                )
        suffix = "" if status == STATUS_OK else f" [{status}]"
        _announce(
            progress,
            f"[{done_count}/{total_to_run}] {_describe(task.cfg)} done in "
            f"{envelope.wall_s:.2f}s ({envelope.events} events, "
            f"pid {envelope.pid}){suffix}" + _summary_suffix(summary),
        )

    def handle_error(task: _Task, error_type: str, message: str) -> None:
        error = f"{error_type}: {message}"
        task.error_retries += 1
        task.last_error = error
        classification = sup.policy.classify(error_type)
        record(
            "fail",
            key=task.key,
            error=error,
            classification=classification,
            attempt=task.attempts,
        )
        _announce(
            progress,
            f"{_describe(task.cfg)} attempt {task.attempts} FAILED: {error}",
        )
        if classification == "deterministic" or task.attempts >= sup.policy.max_attempts:
            quarantine(task, error, classification)
            return
        delay = sup.policy.delay_s(task.key, task.attempts)
        task.not_before = time.monotonic() + delay
        pending.append(task)

    def drain(worker: _Worker) -> None:
        """Handle everything ``worker`` has sent (raises EOFError/OSError
        when the pipe is gone)."""
        while worker.conn.poll():
            message = worker.conn.recv()
            worker.last_seen = time.monotonic()
            kind, task = message[0], worker.task
            if task is None or message[1] != task.key:
                continue  # nothing in flight to attribute it to
            if kind == "hb":
                tel = obs_telemetry.TELEMETRY
                if tel is not None:
                    tel.heartbeat(
                        f"worker pid {message[2]} alive on {_describe(task.cfg)}"
                    )
                reg = obs_registry.get()
                if reg is not None:
                    reg.counter("campaign.heartbeats").inc()
                # Flushed but not fsync'd: advisory liveness for `obs top`,
                # cheap to lose.
                record(
                    "hb",
                    _sync=False,
                    key=task.key,
                    pid=message[2],
                    desc=_describe(task.cfg),
                )
            elif kind == "ok":
                worker.task = None
                handle_success(task, message[3], message[4])
            elif kind == "err":
                worker.task = None
                handle_error(task, message[3], message[4])

    def handle_worker_down(worker: _Worker, *, killed: bool) -> None:
        """Reap a dead (or just-killed) worker, draining its final sends."""
        # The worker may have sent its result and then died: drain first.
        try:
            drain(worker)
        except (EOFError, OSError):
            pass
        task = worker.task
        worker.kill()
        workers.remove(worker)
        if task is not None:
            worker.task = None
            if killed:
                stats.workers_killed += 1
                reschedule_after_loss(
                    task, f"stalled worker pid {worker.proc.pid} killed"
                )
            else:
                stats.workers_lost += 1
                reschedule_after_loss(task, f"worker pid {worker.proc.pid} died")

    def begin_attempt(task: _Task, pid: int) -> None:
        pending.remove(task)
        task.attempts += 1
        record(
            "attempt",
            key=task.key,
            attempt=task.attempts,
            pid=pid,
            desc=_describe(task.cfg),
        )

    def attempt_in_process(task: _Task) -> None:
        """``jobs == 1``: one attempt, here, under the same bookkeeping."""
        nonlocal running
        begin_attempt(task, os.getpid())
        process_budget = get_default_budget()
        if budget is not None:
            set_default_budget(budget)
        running = task
        try:
            outcome: Any = _run_config_timed(task.cfg)
        except Exception as exc:
            # An interrupt passes through, leaving ``running`` for the journal.
            outcome = exc
        finally:
            set_default_budget(process_budget)
        running = None
        if isinstance(outcome, Exception):
            handle_error(task, type(outcome).__name__, str(outcome))
        else:
            handle_success(task, outcome)

    if outstanding:
        _announce(
            progress,
            f"campaign: {stats.unique} unique config(s), "
            f"{stats.cached} cached, {outstanding} to simulate "
            f"(jobs={jobs}, max_attempts={sup.policy.max_attempts})",
        )
    try:
        while outstanding > 0:
            now = time.monotonic()
            # Tasks in backoff stay queued.
            eligible = [t for t in pending if t.not_before <= now]
            if in_process and eligible:
                attempt_in_process(eligible[0])
                continue
            # Dispatch every eligible task to an idle (spawning if needed)
            # worker.  (In-process there are no workers and nothing eligible:
            # the no-busy branch below sleeps out the backoff.)
            for task in eligible:
                worker = next((w for w in workers if not w.busy), None)
                if worker is None and len(workers) < jobs:
                    worker = _spawn_worker(budget, sup, workers)
                    workers.append(worker)
                if worker is None:
                    break
                begin_attempt(task, worker.proc.pid)
                worker.task = task
                worker.last_seen = now
                worker.dispatched_at = now
                try:
                    worker.conn.send(("run", task.key, task.cfg, task.attempts))
                except (OSError, ValueError):
                    # Worker died before it could take the task.
                    handle_worker_down(worker, killed=False)

            busy = [w for w in workers if w.busy]
            if not busy:
                if pending:
                    # Everything is in backoff; sleep to the earliest deadline.
                    wake = min(t.not_before for t in pending)
                    sup.sleep(max(0.0, wake - time.monotonic()))
                    continue
                break  # outstanding > 0 but nothing queued or running: bug guard

            waitables: List[Any] = [w.conn for w in busy] + [w.proc.sentinel for w in busy]
            timeout = min(
                max(0.05, sup.heartbeat_interval_s),
                max(0.0, min((w.last_seen + stall_timeout for w in busy)) - now),
            )
            ready = connection.wait(waitables, timeout=timeout)

            for worker in list(busy):
                if worker.conn in ready:
                    try:
                        drain(worker)
                    except (EOFError, OSError):
                        handle_worker_down(worker, killed=False)
                        continue
                if worker not in workers:
                    continue  # reaped above
                if worker.proc.sentinel in ready and not worker.proc.is_alive():
                    handle_worker_down(worker, killed=False)
                    continue
                if not worker.busy:
                    continue
                check = time.monotonic()
                silent = check - worker.last_seen > stall_timeout
                overrun = (
                    runtime_deadline is not None
                    and check - worker.dispatched_at > runtime_deadline
                )
                if silent or overrun:
                    assert worker.task is not None
                    why = (
                        f"silent for >{stall_timeout:.1f}s"
                        if silent
                        else f"running past the {runtime_deadline:.1f}s budget deadline"
                    )
                    _announce(
                        progress,
                        f"worker pid {worker.proc.pid} {why} on "
                        f"{_describe(worker.task.cfg)}; killing",
                    )
                    handle_worker_down(worker, killed=True)
    except KeyboardInterrupt:
        in_flight = [w.task.key for w in workers if w.task is not None]
        if running is not None:
            in_flight.append(running.key)
        still_pending = [t.key for t in pending]
        for key in in_flight + still_pending:
            statuses.setdefault(key, STATUS_LOST)
        record(
            "interrupted",
            in_flight=in_flight,
            pending=still_pending,
            completed=len(results),
        )
        for worker in workers:
            worker.kill()
        workers.clear()
        if journal is not None:
            journal.close()
        raise
    finally:
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass

    stats.wall_s = time.perf_counter() - start
    record("end", statuses=statuses, wall_s=round(stats.wall_s, 3))
    if journal is not None:
        journal.close()

    tel = obs_telemetry.TELEMETRY
    if tel is not None:
        tel.record_campaign(
            requested=stats.requested,
            unique=stats.unique,
            cached=stats.cached,
            executed=stats.executed,
            jobs=stats.jobs,
            wall_s=stats.wall_s,
            failures=len(failures),
        )
        tel.record_supervisor(
            statuses=statuses,
            quarantines=[q.as_dict() for q in quarantines],
            workers_killed=stats.workers_killed,
            workers_lost=stats.workers_lost,
            retried=stats.retried,
            salvaged=stats.salvaged,
            journal=str(journal.path) if journal is not None else None,
        )

    outcome = CampaignOutcome(
        results=results,
        stats=stats,
        failures=failures,
        statuses=statuses,
        quarantines=quarantines,
    )
    incomplete = stats.quarantined + stats.lost
    if incomplete and not sup.partial_ok:
        raise CampaignIncomplete(
            f"{incomplete} of {stats.unique} config(s) did not produce a result "
            f"({stats.quarantined} quarantined, {stats.lost} lost); "
            "pass partial_ok to accept a partial campaign",
            outcome,
        )
    return outcome
