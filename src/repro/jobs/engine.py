"""Parallel, cached discharge orchestrator.

:func:`discharge_jobs` drives a machine's proof-obligation set through

1. **fingerprinting** — each obligation is content-hashed over its property,
   the cone-of-influence slice of the transition system and the engine
   parameters (:mod:`repro.proofs.fingerprint`);
2. **cache lookup** — obligations whose fingerprint has a stored verdict in
   the on-disk cache (:mod:`repro.jobs.cache`) are skipped outright;
3. **parallel discharge** — cache misses fan out over a pool of forked
   worker processes.  Invariant misses are batched into *groups* that a
   single worker discharges over one shared unrolling and solver
   (:mod:`repro.formal.shared`, via
   :func:`repro.proofs.discharge.discharge_invariant_group`); everything
   else runs through the pure per-obligation functions of
   :mod:`repro.proofs.discharge`.  A per-obligation wall-clock timeout
   terminates stuck workers — cooperatively through the solver's
   interrupt callback inside a group, by killing the worker outside one —
   and degrades the obligation to ``Status.UNKNOWN``; one hard instance
   never hangs or aborts the run.  Workers run under optional rlimit
   memory/CPU caps.  A worker that dies abnormally (signal, OOM kill,
   ``os._exit``) is retried with exponential backoff and finally
   quarantined as a structured ``crashed`` outcome; a *group* worker that
   dies streams each verdict as it lands, so the parent salvages the
   finished members and falls the rest back to classic per-obligation
   scheduling.  Invariant obligations walk a graceful-degradation ladder
   (incremental CDCL → from-scratch CDCL → BDD reachability → unknown)
   with the deciding rung recorded as the method;
4. **reporting** — per-obligation timing and provenance (cache / worker /
   group / inline / timeout), cache hit rate, per-worker busy time and
   aggregate status counts, as human-readable text and as a JSON
   document.  Outcomes are ordered by obligation id — not completion
   order — so reports and ``--profile`` tables diff cleanly across runs.

Trace obligations run inline in the orchestrator: they share one stimulus
simulation and may close over arbitrary input-provider callables, which do
not cross process boundaries.  Everything SAT-shaped (invariants,
equivalences) is parallel-safe and timeout-guarded.

Worker processes use the ``fork`` start method, so the transition system
and expression DAGs are inherited copy-on-write — nothing is pickled on the
way in; only the small result record crosses the pipe on the way out.
Where ``fork`` is unavailable the engine falls back to in-process
sequential discharge (timeouts then degrade to solver conflict budgets).
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from ..analysis.family import FamilyContext

from ..core.transform import PipelinedMachine
from ..formal.bmc import TransitionSystem
from ..hdl import expr as E
from ..proofs.discharge import (
    DischargeRecord,
    DischargeReport,
    InputProvider,
    Status,
    build_trace,
    discharge_equivalence,
    discharge_invariant,
    discharge_invariant_group,
    discharge_invariant_ladder,
    discharge_trace,
    resolve_properties,
)
from ..proofs.obligations import Obligation, ObligationKind, ObligationSet
from .cache import ResultCache


@dataclass(frozen=True)
class EngineParams:
    """Engine knobs.

    Everything that can change a *verdict* is part of every obligation's
    fingerprint (see :meth:`invariant_params`).  The robustness knobs —
    ``max_retries`` and the worker resource limits — only affect whether a
    verdict is reached at all, so they stay out of the fingerprint and a
    rerun with different limits still hits the cache.
    """

    max_k: int = 2
    bmc_bound: int = 8
    trace_cycles: int = 200
    liveness_bound: int | None = None
    max_conflicts: int | None = None
    # engine selection: one incremental solver per obligation vs. a fresh
    # unrolling and solver per bound (see repro.formal.bmc)
    incremental: bool = True
    sweep_frames: bool = False
    # graceful degradation: incremental -> from-scratch -> BDD -> unknown
    # (repro.proofs.discharge_invariant_ladder; only active with
    # ``incremental``, since incremental=False *is* the scratch engine)
    ladder: bool = True
    # abstract-interpretation invariant mining (repro.absint): mine and
    # SAT-prove reachability invariants, then inject them as assumptions
    # into the induction obligations.  Deliberately *not* part of
    # ``invariant_params``: injection changes an obligation's ``assume``
    # set, which is already hashed into its fingerprint — the flag itself
    # adds no information.
    absint: bool = True
    # bit-parallel lane width for batched trace discharge (the lockstep
    # fault campaign and fuzz batching; see repro.hdl.batchsim).  Lane
    # count is semantics-preserving — every lane computes exactly what a
    # per-vector simulation would — so it stays out of
    # ``invariant_params`` and cached verdicts survive retuning it.
    lanes: int = 64
    # cross-obligation proof sharing (repro.formal.shared): schedule the
    # invariant cache-misses as *groups*, each discharged over one shared
    # unrolling + solver with per-member activation literals, instead of
    # one symbolic build per obligation.  Verdict-preserving by
    # construction — each member walks the exact per-obligation
    # escalation, only the build and the solver's learned state are
    # shared — so, like ``absint`` and ``lanes``, it stays out of
    # ``invariant_params`` and cached verdicts survive toggling it.
    # Only active with ``incremental`` (the scratch engine rebuilds by
    # definition).
    share: bool = True
    # width-family proof reuse (repro.analysis.family): serve obligations
    # whose family certificate covers this width from the family cache,
    # and seed freshly proved certified obligations into it.  Only active
    # when the caller also passes a FamilyContext to discharge_jobs.
    # Verdict-preserving: every serve re-validates the width-erased
    # template against the obligation's actual serialization, so — like
    # ``absint``/``share`` — the flag stays out of ``invariant_params``.
    family: bool = True
    # crash quarantine: how often a crashed (signalled / vanished) worker
    # is retried, with exponential backoff, before the obligation is
    # recorded as ``crashed``.  Timeouts are never retried (deterministic).
    max_retries: int = 1
    # rlimits applied inside each worker; None = unlimited
    mem_limit_mb: int | None = None
    cpu_limit_s: int | None = None

    def invariant_params(self) -> dict[str, object]:
        return {
            "max_k": self.max_k,
            "bmc_bound": self.bmc_bound,
            "max_conflicts": self.max_conflicts,
            "incremental": self.incremental,
            "sweep_frames": self.sweep_frames,
            "ladder": self.ladder,
        }

    def trace_params(self, checker: str, n_stages: int) -> dict[str, object]:
        params: dict[str, object] = {"trace_cycles": self.trace_cycles}
        if checker == "liveness":
            bound = (
                self.liveness_bound
                if self.liveness_bound is not None
                else 8 * n_stages
            )
            params["bound"] = bound
        return params


@dataclass
class JobOutcome:
    """One obligation's discharge record plus its provenance."""

    record: DischargeRecord
    fingerprint: str | None
    # "cache" | "worker" | "group" | "inline" | "timeout" | "crashed" |
    # "lint" — "group" marks a verdict produced by a shared-unrolling
    # group worker (repro.formal.shared)
    source: str
    worker: int = -1
    attempts: int = 1  # worker launches this obligation consumed

    def to_dict(self) -> dict[str, object]:
        return {
            "oid": self.record.oid,
            "title": self.record.title,
            "status": self.record.status.value,
            "method": self.record.method,
            "detail": self.record.detail,
            "seconds": round(self.record.seconds, 6),
            "conflicts": self.record.conflicts,
            "frames": self.record.frames,
            "source": self.source,
            "worker": self.worker,
            "attempts": self.attempts,
            "fingerprint": self.fingerprint,
        }


@dataclass
class JobReport:
    """Structured outcome of one orchestrated discharge run."""

    machine_name: str
    jobs: int
    timeout: float | None
    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    uncacheable: int = 0
    crashes: int = 0  # abnormal worker terminations observed (pre-retry)
    retries: int = 0  # crashed launches that were retried
    worker_seconds: dict[int, float] = field(default_factory=dict)
    # formatted ERROR-level lint findings when the lint gate tripped and
    # the run failed fast without invoking any solver
    lint_errors: list[str] = field(default_factory=list)
    # formatted ERROR-level non-interference findings when the taint gate
    # tripped (speculative state reaching architectural sinks unguarded)
    taint_errors: list[str] = field(default_factory=list)
    # invariant-mining summary when repro.absint ran (candidate/proven
    # counts, proven invariant names, mining seconds, cache provenance)
    absint: dict | None = None
    # family-proof summary when a FamilyContext was active (certified /
    # served / seeded counters, see repro.analysis.family)
    family: dict | None = None

    @property
    def records(self) -> list[DischargeRecord]:
        return [outcome.record for outcome in self.outcomes]

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def failed(self) -> list[DischargeRecord]:
        return [r for r in self.records if r.status is Status.FAILED]

    @property
    def unknown(self) -> list[DischargeRecord]:
        return [r for r in self.records if r.status is Status.UNKNOWN]

    def counts(self) -> dict[str, int]:
        result: dict[str, int] = {}
        for record in self.records:
            result[record.status.value] = result.get(record.status.value, 0) + 1
        return result

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def utilisation(self) -> float:
        """Busy worker-seconds over available worker-seconds."""
        if not self.wall_seconds or not self.jobs:
            return 0.0
        busy = sum(self.worker_seconds.values())
        return min(1.0, busy / (self.jobs * self.wall_seconds))

    def as_discharge_report(self) -> DischargeReport:
        """The classic sequential-report view of this run."""
        return DischargeReport(
            machine_name=self.machine_name, records=list(self.records)
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "machine": self.machine_name,
            "ok": self.ok,
            "jobs": self.jobs,
            "timeout": self.timeout,
            "wall_seconds": round(self.wall_seconds, 6),
            "counts": self.counts(),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "uncacheable": self.uncacheable,
                "hit_rate": round(self.hit_rate, 4),
            },
            "lint_errors": list(self.lint_errors),
            "taint_errors": list(self.taint_errors),
            "absint": self.absint,
            "family": self.family,
            "workers": {
                "count": self.jobs,
                "crashes": self.crashes,
                "retries": self.retries,
                "busy_seconds": {
                    str(slot): round(seconds, 6)
                    for slot, seconds in sorted(self.worker_seconds.items())
                },
                "utilisation": round(self.utilisation, 4),
            },
            "obligations": [outcome.to_dict() for outcome in self.outcomes],
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_text(self) -> str:
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.counts().items()))
        lines = [
            f"{self.machine_name}: {len(self.outcomes)} obligations"
            f" ({counts}) in {self.wall_seconds:.2f}s wall",
            f"  cache: {self.cache_hits} hits / {self.cache_misses} misses"
            f" ({self.hit_rate:.0%} hit rate,"
            f" {self.uncacheable} uncacheable)",
            f"  workers: {self.jobs} x"
            f" {self.utilisation:.0%} utilised"
            + (f", timeout {self.timeout:g}s/obligation" if self.timeout else "")
            + (
                f", {self.crashes} crash(es) / {self.retries} retried"
                if self.crashes
                else ""
            ),
        ]
        if self.absint is not None:
            provenance = " (cached)" if self.absint.get("from_cache") else ""
            lines.append(
                f"  absint: {self.absint.get('proven', 0)}/"
                f"{self.absint.get('candidates', 0)} invariants proven"
                f" in {self.absint.get('seconds', 0.0):.2f}s{provenance}"
            )
        if self.family is not None:
            lines.append(
                f"  family: {self.family.get('certified', 0)} certified,"
                f" {self.family.get('served', 0)} served,"
                f" {self.family.get('seeded', 0)} seeded"
            )
        for finding in self.lint_errors:
            lines.append(f"  LINT    {finding[:110]}")
        for finding in self.taint_errors:
            lines.append(f"  TAINT   {finding[:110]}")
        for record in self.failed:
            lines.append(f"  FAILED  {record.oid}: {record.detail[:100]}")
        for record in self.unknown:
            lines.append(f"  UNKNOWN {record.oid} ({record.method})")
        slowest = sorted(
            (o for o in self.outcomes if o.source != "cache"),
            key=lambda o: (-round(o.record.seconds, 3), o.record.oid),
        )[:3]
        for outcome in slowest:
            record = outcome.record
            lines.append(
                f"  slowest: {record.oid} {record.seconds:.2f}s"
                f" ({record.method}, {outcome.source})"
            )
        return "\n".join(lines)

    def format_profile(self) -> str:
        """Per-obligation profile table: wall-clock, solver conflicts and
        peak unrolled frame count, hottest first (``repro discharge
        --profile``).  Ties (and near-ties, within a millisecond) break
        on obligation id so the table is stable run over run."""
        ordered = sorted(
            self.outcomes,
            key=lambda o: (-round(o.record.seconds, 3), o.record.oid),
        )
        oid_width = max([len(o.record.oid) for o in ordered] + [len("obligation")])
        header = (
            f"  {'obligation':<{oid_width}} {'seconds':>9} {'conflicts':>9}"
            f" {'frames':>6}  method (source)"
        )
        lines = [header, "  " + "-" * (len(header) - 2)]
        for outcome in ordered:
            record = outcome.record
            lines.append(
                f"  {record.oid:<{oid_width}} {record.seconds:>9.3f}"
                f" {record.conflicts:>9} {record.frames:>6}"
                f"  {record.method} ({outcome.source})"
            )
        return "\n".join(lines)


@dataclass
class _SolverTask:
    """One cache miss headed for a worker process."""

    position: int
    obligation: Obligation
    fingerprint: str | None
    attempts: int = 0  # worker launches consumed so far
    not_before: float = 0.0  # perf_counter backoff gate after a crash


@dataclass
class _GroupTask:
    """A batch of invariant cache misses one worker discharges over a
    single shared unrolling (:mod:`repro.formal.shared`)."""

    members: list[_SolverTask]
    attempts: int = 0  # groups launch at most once; fallbacks are singletons
    not_before: float = 0.0


@dataclass
class _Running:
    task: _SolverTask | _GroupTask
    process: multiprocessing.process.BaseProcess
    connection: multiprocessing.connection.Connection
    started: float
    slot: int
    # group bookkeeping: member records streamed so far, and when the
    # last one (or the launch) happened — the parent's backstop deadline
    # for a group is per *member*, measured from the last sign of life
    group_done: dict[int, DischargeRecord] = field(default_factory=dict)
    last_activity: float = 0.0


def default_jobs() -> int:
    """Worker count: the CPUs this process may actually run on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _solver_record(
    system: TransitionSystem, obligation: Obligation, params: EngineParams
) -> DischargeRecord:
    if obligation.kind is ObligationKind.INVARIANT:
        if params.ladder and params.incremental:
            return discharge_invariant_ladder(
                system,
                obligation,
                max_k=params.max_k,
                bmc_bound=params.bmc_bound,
                max_conflicts=params.max_conflicts,
                sweep_frames=params.sweep_frames,
            )
        return discharge_invariant(
            system,
            obligation,
            max_k=params.max_k,
            bmc_bound=params.bmc_bound,
            max_conflicts=params.max_conflicts,
            incremental=params.incremental,
            sweep_frames=params.sweep_frames,
        )
    return discharge_equivalence(obligation)


def _group_records(
    system: TransitionSystem,
    obligations: list[Obligation],
    params: EngineParams,
    member_timeout: float | None,
):
    """Stream ``(index, record)`` for one group of invariant obligations.

    A module-level seam (like :func:`_solver_record`) so the robustness
    tests can sabotage group workers — forked children inherit a
    monkeypatched binding from the parent process.
    """
    return discharge_invariant_group(
        system,
        obligations,
        max_k=params.max_k,
        bmc_bound=params.bmc_bound,
        max_conflicts=params.max_conflicts,
        sweep_frames=params.sweep_frames,
        ladder=params.ladder,
        member_timeout=member_timeout,
    )


def _worker_init(params: EngineParams) -> None:
    """Per-worker process setup: resource caps and signal hygiene.

    The parent may have installed drain handlers for SIGTERM (see
    :func:`_install_drain_handlers`); a forked worker inherits them, but
    for a worker SIGTERM means *die now* (the parent kills overrunning
    workers with it), so it is reset to the default disposition."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    _apply_rlimits(params.mem_limit_mb, params.cpu_limit_s)


def _apply_rlimits(mem_limit_mb: int | None, cpu_limit_s: int | None) -> None:
    """Cap a worker's address space / CPU time via ``resource`` rlimits.

    An overrun surfaces as ``MemoryError`` (caught: ``worker-error``) or
    ``SIGXCPU`` (kills the worker: quarantined as ``crashed``) — either
    way one greedy obligation cannot take the host or the run down.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    if mem_limit_mb is not None:
        limit = mem_limit_mb << 20
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ValueError, OSError):  # pragma: no cover - privileged caps
            pass
    if cpu_limit_s is not None:
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit_s, cpu_limit_s + 1))
        except (ValueError, OSError):  # pragma: no cover - privileged caps
            pass


def _worker_main(
    system: TransitionSystem,
    obligation: Obligation,
    params: EngineParams,
    connection: multiprocessing.connection.Connection,
) -> None:
    """Child-process entry: discharge one obligation, ship the record back."""
    _worker_init(params)
    try:
        record = _solver_record(system, obligation, params)
    except Exception as exc:  # a crashed obligation must not kill the run
        record = DischargeRecord(
            oid=obligation.oid,
            title=obligation.title,
            status=Status.UNKNOWN,
            method="worker-error",
            detail=repr(exc),
        )
    try:
        connection.send(record)
    finally:
        connection.close()


def _group_worker_main(
    system: TransitionSystem,
    obligations: list[Obligation],
    params: EngineParams,
    member_timeout: float | None,
    connection: multiprocessing.connection.Connection,
) -> None:
    """Child-process entry for a group: ship each member's record the
    moment it lands, so the parent can salvage finished verdicts when a
    later member kills the worker.  The intern table is scoped to the
    group so back-to-back group discharges cannot grow it without bound
    (relevant mostly to the inline fallback, which shares the driver's
    table; here it also keeps the copy-on-write pages clean)."""
    _worker_init(params)
    try:
        with E.scoped_intern():
            for index, record in _group_records(
                system, obligations, params, member_timeout
            ):
                connection.send((index, record))
    except Exception:
        # A failure of the group machinery itself (the shared build, the
        # pipe) is a crash: the parent quarantines the group and falls the
        # unfinished members back to per-obligation scheduling, which has
        # its own worker-error / retry story.
        pass
    finally:
        connection.close()


def _timeout_record(task: _SolverTask, timeout: float, elapsed: float) -> DischargeRecord:
    return DischargeRecord(
        oid=task.obligation.oid,
        title=task.obligation.title,
        status=Status.UNKNOWN,
        method=f"timeout({timeout:g}s)",
        detail="worker terminated at the per-obligation deadline",
        seconds=elapsed,
    )


def _crash_record(task: _SolverTask, exitcode: int | None, elapsed: float) -> DischargeRecord:
    """The structured outcome of a worker that died without a verdict."""
    if exitcode is not None and exitcode < 0:
        signum = -exitcode
        try:
            import signal

            name = signal.Signals(signum).name
        except (ValueError, ImportError):
            name = f"signal {signum}"
        method = f"crashed(signal {signum})"
        detail = f"worker killed by {name} after {task.attempts} attempt(s)"
    else:
        method = "crashed(no-result)"
        detail = (
            f"worker exited with status {exitcode} without a verdict"
            f" after {task.attempts} attempt(s)"
        )
    return DischargeRecord(
        oid=task.obligation.oid,
        title=task.obligation.title,
        status=Status.UNKNOWN,
        method=method,
        detail=detail,
        seconds=elapsed,
    )


# first-retry backoff cap after a worker crash; the cap doubles per
# attempt and the actual delay is drawn uniformly from [0, cap] ("full
# jitter"): when several group workers die at once — one bad machine
# image, an OOM sweep — their relaunches must not retry in lockstep and
# stampede the host again
_RETRY_BACKOFF = 0.25


def _retry_delay(attempts: int) -> float:
    """Full-jitter exponential backoff for crashed-worker relaunches.

    ``attempts`` counts launches already consumed; the delay before
    launch ``attempts + 1`` is uniform over ``[0, _RETRY_BACKOFF *
    2**(attempts-1)]``.  The upper bound is exactly the old deterministic
    schedule, so the worst case is unchanged."""
    cap = _RETRY_BACKOFF * 2 ** max(0, attempts - 1)
    return random.uniform(0.0, cap)


def _install_drain_handlers() -> Callable[[], None]:
    """Route SIGTERM into ``KeyboardInterrupt`` while the pool runs.

    Without this a SIGTERM kills the orchestrator outright, orphaning
    the forked workers and any half-written temp files; with it the
    signal unwinds through :func:`_run_pool`'s ``finally`` block, which
    terminates and reaps every in-flight worker first.  SIGINT already
    raises ``KeyboardInterrupt`` natively.  Only the main thread may
    install handlers; elsewhere (the service discharges from executor
    threads and drains at the asyncio layer) this is a no-op.  Returns a
    restore callable."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _raise(signum: int, frame: object) -> None:
        raise KeyboardInterrupt(f"drain on signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        return lambda: None

    def restore() -> None:
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):  # pragma: no cover
            pass

    return restore

# Inside a group the per-obligation timeout is enforced cooperatively by
# the solver's interrupt callback; the parent only kills a group worker
# that shows *no sign of life* for a full member budget plus this grace —
# slack for the shared symbolic build and for interrupt-poll granularity.
_GROUP_GRACE = 5.0

# smallest batch worth one shared build; below it, classic scheduling
_MIN_GROUP = 4


def _partition_groups(
    tasks: list[_SolverTask], jobs: int
) -> list[_GroupTask]:
    """Split the invariant cache misses into contiguous, balanced groups.

    Group count is ``min(jobs, len // _MIN_GROUP)`` (at least one): enough
    groups to keep the pool busy, each big enough that the shared
    unrolling amortises.  Contiguity keeps obligation families (the
    ``stall.*`` battery, the lemma pieces) in one solver, where their
    learned clauses help each other most.  Every group has >= 2 members
    by construction; callers route smaller remainders classically.
    """
    n_groups = min(jobs, max(1, len(tasks) // _MIN_GROUP))
    base, extra = divmod(len(tasks), n_groups)
    groups: list[_GroupTask] = []
    start = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(_GroupTask(members=tasks[start : start + size]))
        start += size
    return groups


@dataclass
class _PoolStats:
    crashes: int = 0  # abnormal terminations observed
    retries: int = 0  # of which relaunched


def _run_pool(
    tasks: list[_SolverTask | _GroupTask],
    system: TransitionSystem,
    params: EngineParams,
    jobs: int,
    timeout: float | None,
    on_outcome: Callable[[JobOutcome], None] | None = None,
) -> tuple[dict[int, JobOutcome], dict[int, float], _PoolStats]:
    """Fan tasks out over forked workers.

    Returns outcomes keyed by task position, per-slot busy seconds and
    crash/retry statistics.  A worker that dies abnormally (killed by a
    signal, OOM, ``os._exit`` — anything that closes the pipe without a
    record) is retried up to ``params.max_retries`` times with exponential
    backoff; past that the obligation gets a structured ``crashed`` outcome
    carrying the signal number.  Timeouts are never retried: the per-task
    budget is deterministic, a relaunch would just burn it again.

    Group tasks (:class:`_GroupTask`) stream one ``(index, record)`` pair
    per member.  A group worker that dies mid-group is quarantined as a
    whole: the streamed verdicts stand, the member on the bench inherits
    the launch in its attempt count, and every unfinished member rejoins
    the queue as a classic singleton — so a poisoned obligation degrades
    to exactly the per-obligation retry/quarantine story, and its healthy
    siblings never pay for it twice.  The per-member timeout inside a
    group is enforced cooperatively by the worker itself; the parent
    keeps only a generous backstop (``timeout + _GROUP_GRACE`` since the
    last streamed record) for a worker that stops responding entirely.
    """
    ctx = multiprocessing.get_context("fork")
    outcomes: dict[int, JobOutcome] = {}
    pending: list[_SolverTask | _GroupTask] = list(reversed(tasks))
    in_flight: list[_Running] = []
    busy: dict[int, float] = {}
    free_slots = list(reversed(range(jobs)))
    stats = _PoolStats()

    def settle(position: int, outcome: JobOutcome) -> None:
        outcomes[position] = outcome
        if on_outcome is not None:
            try:  # a broken observer must never take the solve down
                on_outcome(outcome)
            except Exception:
                pass

    def release(running: _Running) -> float:
        elapsed = time.perf_counter() - running.started
        busy[running.slot] = busy.get(running.slot, 0.0) + elapsed
        running.connection.close()
        running.process.join()
        free_slots.append(running.slot)
        return elapsed

    def finish(running: _Running, record: DischargeRecord, source: str) -> None:
        release(running)
        settle(
            running.task.position,
            JobOutcome(
                record=record,
                fingerprint=running.task.fingerprint,
                source=source,
                worker=running.slot,
                attempts=running.task.attempts,
            ),
        )

    def settle_group(running: _Running, hard_timeout: bool = False) -> None:
        """Deliver a finished/killed group worker's verdicts and reroute
        the members it never decided."""
        group = running.task
        assert isinstance(group, _GroupTask)
        elapsed = release(running)
        exitcode = running.process.exitcode
        done = running.group_done
        # the member the worker was grinding on when it stopped
        current = next(
            (i for i in range(len(group.members)) if i not in done), None
        )
        crashed = current is not None and not hard_timeout
        if crashed:
            stats.crashes += 1
        for index, member in enumerate(group.members):
            record = done.get(index)
            if record is not None:
                settle(
                    member.position,
                    JobOutcome(
                        record=record,
                        fingerprint=member.fingerprint,
                        source="timeout"
                        if record.method.startswith("timeout(")
                        else "group",
                        worker=running.slot,
                        attempts=group.attempts,
                    ),
                )
            elif hard_timeout and index == current:
                # deterministic, same no-retry rule as a singleton timeout
                settle(
                    member.position,
                    JobOutcome(
                        record=_timeout_record(member, timeout, elapsed),
                        fingerprint=member.fingerprint,
                        source="timeout",
                        worker=running.slot,
                        attempts=group.attempts,
                    ),
                )
            elif crashed and index == current:
                # prime suspect for the crash: it inherits the group
                # launch in its attempt count and backs off (or is
                # quarantined outright) exactly like a crashed singleton
                member.attempts = group.attempts
                if member.attempts > params.max_retries:
                    settle(
                        member.position,
                        JobOutcome(
                            record=_crash_record(member, exitcode, elapsed),
                            fingerprint=member.fingerprint,
                            source="crashed",
                            worker=running.slot,
                            attempts=member.attempts,
                        ),
                    )
                else:
                    stats.retries += 1
                    member.not_before = time.perf_counter() + _retry_delay(
                        member.attempts
                    )
                    pending.append(member)
            else:
                # never reached: innocent, rescheduled classically with a
                # clean slate and no backoff
                pending.append(member)

    def _pool_loop() -> None:
        nonlocal in_flight
        while pending or in_flight:
            now = time.perf_counter()
            while pending and free_slots:
                index = next(
                    (
                        i
                        for i in range(len(pending) - 1, -1, -1)
                        if pending[i].not_before <= now
                    ),
                    None,
                )
                if index is None:  # every runnable task is backing off
                    break
                task = pending.pop(index)
                task.attempts += 1
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                if isinstance(task, _GroupTask):
                    target = _group_worker_main
                    args = (
                        system,
                        [member.obligation for member in task.members],
                        params,
                        timeout,
                        child_conn,
                    )
                else:
                    target = _worker_main
                    args = (system, task.obligation, params, child_conn)
                process = ctx.Process(target=target, args=args, daemon=True)
                process.start()
                child_conn.close()
                started = time.perf_counter()
                in_flight.append(
                    _Running(
                        task=task,
                        process=process,
                        connection=parent_conn,
                        started=started,
                        slot=free_slots.pop(),
                        last_activity=started,
                    )
                )

            now = time.perf_counter()
            wakeups: list[float] = []
            if timeout is not None:
                for running in in_flight:
                    if isinstance(running.task, _GroupTask):
                        wakeups.append(
                            running.last_activity + timeout + _GROUP_GRACE
                        )
                    else:
                        wakeups.append(running.started + timeout)
            if free_slots and pending:  # a backoff expiry could start work
                wakeups.extend(task.not_before for task in pending)
            wait_for = max(0.0, min(wakeups) - now) if wakeups else None
            if in_flight:
                ready = multiprocessing.connection.wait(
                    [running.connection for running in in_flight], timeout=wait_for
                )
            else:  # only backing-off tasks remain: sleep out the earliest gate
                time.sleep(wait_for or 0.0)
                ready = []

            still_running: list[_Running] = []
            for running in in_flight:
                if running.connection in ready:
                    if isinstance(running.task, _GroupTask):
                        eof = False
                        try:
                            # drain every queued (index, record) message; at
                            # pipe EOF poll() reports readable and recv raises
                            while running.connection.poll():
                                index, record = running.connection.recv()
                                running.group_done[index] = record
                                running.last_activity = time.perf_counter()
                        except (EOFError, OSError):
                            eof = True
                        if eof:
                            settle_group(running)
                        else:
                            still_running.append(running)
                        continue
                    try:
                        record = running.connection.recv()
                        finish(running, record, "worker")
                    except (EOFError, OSError):
                        # Pipe closed without a record: the worker crashed.
                        stats.crashes += 1
                        elapsed = release(running)
                        task = running.task
                        exitcode = running.process.exitcode
                        if task.attempts <= params.max_retries:
                            stats.retries += 1
                            task.not_before = time.perf_counter() + _retry_delay(
                                task.attempts
                            )
                            pending.append(task)
                        else:
                            settle(
                                task.position,
                                JobOutcome(
                                    record=_crash_record(task, exitcode, elapsed),
                                    fingerprint=task.fingerprint,
                                    source="crashed",
                                    worker=running.slot,
                                    attempts=task.attempts,
                                ),
                            )
                elif timeout is not None and isinstance(running.task, _GroupTask):
                    if (
                        time.perf_counter() - running.last_activity
                        >= timeout + _GROUP_GRACE
                    ):
                        running.process.terminate()
                        running.process.join(1.0)
                        if running.process.is_alive():  # pragma: no cover
                            running.process.kill()
                        settle_group(running, hard_timeout=True)
                    else:
                        still_running.append(running)
                elif (
                    timeout is not None
                    and time.perf_counter() - running.started >= timeout
                ):
                    running.process.terminate()
                    running.process.join(1.0)
                    if running.process.is_alive():  # pragma: no cover - stuck kill
                        running.process.kill()
                    finish(
                        running,
                        _timeout_record(
                            running.task, timeout, time.perf_counter() - running.started
                        ),
                        "timeout",
                    )
                else:
                    still_running.append(running)
            in_flight = still_running

    restore_signals = _install_drain_handlers()
    try:
        _pool_loop()
    finally:
        restore_signals()
        # Drain path: on any unwind (SIGTERM/SIGINT routed here by the
        # drain handlers, or an orchestrator bug) no forked worker may
        # outlive the pool and no pipe may leak.
        for running in in_flight:
            try:
                running.process.terminate()
                running.process.join(1.0)
                if running.process.is_alive():  # pragma: no cover - stuck
                    running.process.kill()
                    running.process.join(1.0)
            except OSError:  # pragma: no cover - already reaped
                pass
            try:
                running.connection.close()
            except OSError:  # pragma: no cover
                pass

    return outcomes, busy, stats


def discharge_jobs(
    pipelined: PipelinedMachine,
    obligations: ObligationSet,
    params: EngineParams | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    cache: ResultCache | None = None,
    inputs: InputProvider | None = None,
    seq_inputs: InputProvider | None = None,
    lint_gate: bool = True,
    taint_gate: bool = True,
    on_outcome: Callable[[JobOutcome], None] | None = None,
    family: "FamilyContext | None" = None,
) -> JobReport:
    """Discharge an obligation set with caching and a worker pool.

    ``jobs=None`` uses every available CPU; ``timeout`` is the wall-clock
    budget of a single obligation (``None`` = unbounded); ``cache=None``
    disables the on-disk cache.  Custom stimulus providers make the trace
    obligations uncacheable (their verdict depends on the callables), but
    never affect the solver-side obligations.

    With ``params.share`` (the default, incremental engine only) the
    invariant cache misses are batched into groups that each discharge
    over one shared unrolling and solver (:mod:`repro.formal.shared`) —
    the pool then distributes *groups* rather than single obligations,
    with per-obligation timeouts enforced inside a group through the
    solver's interrupt callback and a crashed group falling back to
    classic per-obligation scheduling.

    With ``lint_gate=True`` (the default) the machine is first run through
    :func:`repro.lint.lint_pipeline`; ERROR-level findings fail every
    obligation fast with method ``"lint-gate"`` — a structurally broken
    netlist would only waste solver time producing vacuous or confusing
    counterexamples.  ``taint_gate=True`` (also the default) then runs the
    speculation-aware non-interference policies
    (:func:`repro.lint.lint_taint`) the same way with method
    ``"taint-gate"``: a design whose speculative state escapes its commit
    guards is wrong regardless of what the per-obligation solvers say.

    ``family`` is an optional :class:`repro.analysis.family.FamilyContext`
    (active only together with ``params.family``): before anything is
    fingerprinted or mined, each *raw* obligation whose family certificate
    covers this width is served from the family cache under its
    width-erased fingerprint — one stored verdict covers every width of
    the family — and after the solve, freshly proved certified obligations
    seed that cache.  Serves re-validate the instantiated template against
    the obligation's actual serialization, so a certificate can never
    alias a different obligation.  Trace obligations under a custom
    stimulus are excluded, exactly as they are from the content cache.

    ``on_outcome`` is an optional observer invoked with each
    :class:`JobOutcome` the moment it is final (cache hit, worker
    verdict, timeout, crash quarantine, gate failure) — the streaming
    seam the discharge service (:mod:`repro.service`) uses to fan
    verdicts out to clients while the run is still in flight.  It is
    called from the orchestrating thread, exactly once per obligation,
    and exceptions it raises are swallowed.
    """
    params = params or EngineParams()
    jobs = max(1, jobs if jobs is not None else default_jobs())
    started = time.perf_counter()

    def emit(outcome: JobOutcome) -> JobOutcome:
        if on_outcome is not None:
            try:  # a broken observer must never take the run down
                on_outcome(outcome)
            except Exception:
                pass
        return outcome

    if lint_gate:
        from ..lint import lint_pipeline

        findings = lint_pipeline(pipelined).errors
        if findings:
            report = JobReport(
                machine_name=obligations.machine_name,
                jobs=jobs,
                timeout=timeout,
                lint_errors=[finding.format() for finding in findings],
            )
            detail = "; ".join(
                f"{finding.rule} @ {finding.path}" for finding in findings[:5]
            )
            for obligation in obligations:
                report.outcomes.append(
                    emit(
                        JobOutcome(
                            record=DischargeRecord(
                                oid=obligation.oid,
                                title=obligation.title,
                                status=Status.FAILED,
                                method="lint-gate",
                                detail=f"static lint found {len(findings)}"
                                f" error-level finding(s): {detail}",
                            ),
                            fingerprint=None,
                            source="lint",
                        )
                    )
                )
            report.wall_seconds = time.perf_counter() - started
            return report

    if taint_gate:
        from ..lint import lint_taint

        findings = lint_taint(pipelined).errors
        if findings:
            report = JobReport(
                machine_name=obligations.machine_name,
                jobs=jobs,
                timeout=timeout,
                taint_errors=[finding.format() for finding in findings],
            )
            detail = "; ".join(
                f"{finding.rule} @ {finding.path}" for finding in findings[:5]
            )
            for obligation in obligations:
                report.outcomes.append(
                    emit(
                        JobOutcome(
                            record=DischargeRecord(
                                oid=obligation.oid,
                                title=obligation.title,
                                status=Status.FAILED,
                                method="taint-gate",
                                detail="non-interference policy found"
                                f" {len(findings)} error-level finding(s):"
                                f" {detail}",
                            ),
                            fingerprint=None,
                            source="taint",
                        )
                    )
                )
            report.wall_seconds = time.perf_counter() - started
            return report

    resolve_properties(pipelined, obligations)
    system = TransitionSystem.from_module(pipelined.module)
    custom_stimulus = inputs is not None or seq_inputs is not None
    n = pipelined.n_stages

    report = JobReport(
        machine_name=obligations.machine_name, jobs=jobs, timeout=timeout
    )
    ordered: list[Obligation] = list(obligations)
    outcome_by_position: dict[int, JobOutcome] = {}

    # -- family serve (repro.analysis.family) ----------------------------------
    # Before mining or fingerprinting: obligations whose width-erased
    # template has a cached family verdict are settled outright.  This
    # must see the *raw* obligations — absint injection changes the
    # assume sets, and the certificates were erased from the raw cones.
    family_ctx = family if (family is not None and params.family) else None
    raw: list[Obligation] = list(ordered)
    if family_ctx is not None:
        for position, obligation in enumerate(ordered):
            if obligation.kind is ObligationKind.TRACE and custom_stimulus:
                continue  # verdict depends on the callables, like the cache
            served = family_ctx.lookup(obligation, pipelined, system, params)
            if served is not None:
                record, family_fp = served
                outcome_by_position[position] = emit(
                    JobOutcome(
                        record=record, fingerprint=family_fp, source="family"
                    )
                )

    # -- invariant mining (repro.absint) ---------------------------------------
    # Mine and SAT-prove reachability invariants, then strengthen each
    # induction obligation with the proven facts inside its cone.  Mining
    # results are themselves cached (keyed by the module fingerprint), and
    # the injected assumptions flow into the obligation fingerprints, so
    # cached verdicts stay sound.  Mining only exists to strengthen
    # obligations headed to the solver: when the family serve pass settled
    # every one, there is nothing to inject into and the fixpoint plus its
    # SAT verification would be the dominant cost of a fully-served run.
    if params.absint and len(outcome_by_position) < len(ordered):
        from ..absint import InvariantCache, inject_invariants, mine_invariants

        invariant_cache = (
            InvariantCache(cache.root) if cache is not None else None
        )
        mining = mine_invariants(
            pipelined, system=system, cache=invariant_cache
        )
        if mining.proven:
            ordered = inject_invariants(ordered, mining.proven, system)
        report.absint = {
            "candidates": mining.candidates,
            "proven": len(mining.proven),
            "invariants": [inv.name for inv in mining.proven],
            "seconds": round(mining.seconds, 4),
            "from_cache": mining.from_cache,
        }
    solver_tasks: list[_SolverTask] = []
    inline_trace: list[tuple[int, Obligation, str | None]] = []

    for position, obligation in enumerate(ordered):
        if position in outcome_by_position:
            continue  # already served from the family cache
        if obligation.kind is ObligationKind.TRACE:
            fingerprint = None
            if cache is not None and not custom_stimulus:
                fingerprint = obligation.fingerprint(
                    module=pipelined.module,
                    params=params.trace_params(obligation.checker or "", n),
                )
            else:
                report.uncacheable += 1
        elif cache is not None:
            fingerprint = obligation.fingerprint(
                system=system,
                params=params.invariant_params()
                if obligation.kind is ObligationKind.INVARIANT
                else None,
            )
        else:
            # fingerprints exist to key the cache: without one there is
            # nothing to look up or persist, and hashing every
            # obligation's cone is a measurable slice of a cold run
            fingerprint = None

        cached = (
            cache.get(fingerprint)
            if cache is not None and fingerprint is not None
            else None
        )
        if cached is not None:
            report.cache_hits += 1
            outcome_by_position[position] = emit(
                JobOutcome(
                    # content-identical obligations share a fingerprint; the
                    # verdict transfers but the identity must be this one's
                    record=replace(
                        cached, oid=obligation.oid, title=obligation.title
                    ),
                    fingerprint=fingerprint,
                    source="cache",
                )
            )
            continue
        if cache is not None and fingerprint is not None:
            report.cache_misses += 1

        if obligation.kind is ObligationKind.TRACE:
            inline_trace.append((position, obligation, fingerprint))
        else:
            solver_tasks.append(_SolverTask(position, obligation, fingerprint))

    # -- proof sharing: batch invariant misses into shared-unrolling groups ----
    share_groups: list[_GroupTask] = []
    if params.share and params.incremental:
        invariant_tasks = [
            task
            for task in solver_tasks
            if task.obligation.kind is ObligationKind.INVARIANT
        ]
        if len(invariant_tasks) > 1:
            share_groups = _partition_groups(invariant_tasks, jobs)
            grouped = {
                id(member) for group in share_groups for member in group.members
            }
            solver_tasks = [
                task for task in solver_tasks if id(task) not in grouped
            ]

    # -- solver obligations: worker pool (or inline fallback) ------------------
    use_pool = (
        (solver_tasks or share_groups)
        and "fork" in multiprocessing.get_all_start_methods()
        and (jobs > 1 or timeout is not None)
    )
    if use_pool:
        # groups first: they are the long poles, so they get slots early
        pooled, busy, pool_stats = _run_pool(
            [*share_groups, *solver_tasks],
            system,
            params,
            jobs,
            timeout,
            on_outcome=emit if on_outcome is not None else None,
        )
        outcome_by_position.update(pooled)
        report.worker_seconds = busy
        report.crashes = pool_stats.crashes
        report.retries = pool_stats.retries
    else:

        def charge(start: float) -> None:
            report.worker_seconds[0] = report.worker_seconds.get(0, 0.0) + (
                time.perf_counter() - start
            )

        for group in share_groups:
            start = time.perf_counter()
            delivered: dict[int, DischargeRecord] = {}
            try:
                # the driver's own intern table: scope it so repeated
                # group discharges cannot grow it without bound
                with E.scoped_intern():
                    for index, record in _group_records(
                        system,
                        [member.obligation for member in group.members],
                        params,
                        timeout,
                    ):
                        delivered[index] = record
            except Exception:
                # group-machinery failure: salvage what streamed, fall the
                # rest back to per-obligation discharge below
                pass
            for index, member in enumerate(group.members):
                record = delivered.get(index)
                if record is None:
                    record = _solver_record(system, member.obligation, params)
                    source = "inline"
                else:
                    source = (
                        "timeout"
                        if record.method.startswith("timeout(")
                        else "group"
                    )
                outcome_by_position[member.position] = emit(
                    JobOutcome(
                        record=record,
                        fingerprint=member.fingerprint,
                        source=source,
                    )
                )
            charge(start)
        for task in solver_tasks:
            start = time.perf_counter()
            record = _solver_record(system, task.obligation, params)
            charge(start)
            outcome_by_position[task.position] = emit(
                JobOutcome(
                    record=record, fingerprint=task.fingerprint, source="inline"
                )
            )

    # -- trace obligations: inline, sharing one stimulus run -------------------
    shared_trace = None
    if any(
        obligation.checker in ("lemma1", "liveness")
        for _, obligation, _ in inline_trace
    ):
        shared_trace = build_trace(pipelined, params.trace_cycles, inputs)
    for position, obligation, fingerprint in inline_trace:
        record = discharge_trace(
            pipelined,
            obligation,
            trace=shared_trace,
            trace_cycles=params.trace_cycles,
            liveness_bound=params.liveness_bound,
            inputs=inputs,
            seq_inputs=seq_inputs,
        )
        outcome_by_position[position] = emit(
            JobOutcome(
                record=record, fingerprint=fingerprint, source="inline"
            )
        )

    # -- persist fresh verdicts -------------------------------------------------
    if cache is not None:
        for outcome in outcome_by_position.values():
            if (
                outcome.source in ("worker", "group", "inline")
                and outcome.fingerprint
            ):
                cache.put(
                    outcome.fingerprint, outcome.record, params=asdict(params)
                )

    # -- seed the family cache with certified fresh verdicts -------------------
    # Content-cache hits seed too: a content-warm run teaches the family
    # store without touching a solver.  Seeding validates against the raw
    # obligation (the certificates' view); put_family rejects
    # non-cacheable statuses itself.
    if family_ctx is not None:
        for position, outcome in outcome_by_position.items():
            if outcome.source not in ("worker", "group", "inline", "cache"):
                continue
            obligation = raw[position]
            if obligation.kind is ObligationKind.TRACE and custom_stimulus:
                continue
            family_ctx.seed(obligation, pipelined, system, params, outcome.record)
        report.family = family_ctx.counters()

    # obligation-id order, not completion order: report diffs and
    # --profile tables stay stable across scheduling modes and runs
    report.outcomes = sorted(
        (outcome_by_position[i] for i in range(len(ordered))),
        key=lambda outcome: outcome.record.oid,
    )
    report.wall_seconds = time.perf_counter() - started
    return report
