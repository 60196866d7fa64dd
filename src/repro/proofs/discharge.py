"""Mechanical discharge of generated proof obligations.

Invariant obligations go to the SAT-based engines (k-induction first, then
bounded model checking as a fallback); trace obligations run the named
dynamic checker against the sequential reference.  Every outcome is
recorded with the method that produced it, so a report distinguishes
*proved* (inductive) from *bounded* (no violation within k steps) from
*tested* (holds on the exercised runs) — the same epistemic levels the
paper's PVS proofs vs. simulations occupy.

The per-obligation work is exposed as pure functions
(:func:`discharge_invariant`, :func:`discharge_equivalence`,
:func:`discharge_trace`): they depend only on their arguments, so the
parallel orchestrator in :mod:`repro.jobs` can run them in worker
processes.  :func:`discharge` is the sequential in-process driver built on
the same functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

from ..core.consistency import (
    check_data_consistency,
    check_liveness,
    compare_commit_streams,
)
from ..core.scheduling import check_lemma1
from ..formal.equiv import check_equivalence
from ..core.transform import PipelinedMachine
from ..formal.bmc import (
    IncrementalChecker,
    TransitionSystem,
    bmc,
    bmc_bdd,
    k_induction,
)
from ..hdl.compile import CompiledSimulator
from ..hdl.sim import Trace
from .instrument import instrument_scheduling
from .obligations import Obligation, ObligationKind, ObligationSet

InputProvider = Callable[[int], Mapping[str, int]]


class Status(Enum):
    PROVED = "proved"  # k-inductive on the netlist
    BOUNDED = "bounded"  # no violation within the BMC bound
    TRACE_OK = "trace-ok"  # dynamic checker passed
    FAILED = "failed"  # concrete counterexample / checker violation
    UNKNOWN = "unknown"  # engines exhausted without a verdict


@dataclass
class DischargeRecord:
    """Outcome of discharging one obligation.

    ``conflicts`` and ``frames`` profile the formal engines (total solver
    conflicts, peak unrolled frame count); both stay 0 for trace and
    equivalence obligations.
    """

    oid: str
    title: str
    status: Status
    method: str
    detail: str = ""
    seconds: float = 0.0
    conflicts: int = 0
    frames: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (Status.PROVED, Status.BOUNDED, Status.TRACE_OK)


@dataclass
class DischargeReport:
    """All discharge outcomes for one machine."""

    machine_name: str
    records: list[DischargeRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    def counts(self) -> dict[str, int]:
        result: dict[str, int] = {}
        for record in self.records:
            result[record.status.value] = result.get(record.status.value, 0) + 1
        return result

    def failed(self) -> list[DischargeRecord]:
        return [record for record in self.records if not record.ok]

    def summary(self) -> str:
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.counts().items()))
        return (
            f"{self.machine_name}: {len(self.records)} obligations ({counts})"
        )


def resolve_properties(
    pipelined: PipelinedMachine, obligations: ObligationSet
) -> None:
    """Materialise obligations whose property needs the machine at hand.

    The instrumented Lemma 1 property must exist before the transition
    system is extracted, so the scheduling counters are part of it.
    """
    for obligation in obligations.invariants():
        if obligation.oid == "lemma1.full_iff_diff" and obligation.prop is None:
            obligation.prop = instrument_scheduling(pipelined)


def build_trace(
    pipelined: PipelinedMachine,
    trace_cycles: int,
    inputs: InputProvider | None = None,
) -> Trace:
    """The shared stimulus run all trace obligations of a machine check."""
    sim = CompiledSimulator(pipelined.module)
    for _ in range(trace_cycles):
        stimulus = inputs(sim.cycle) if inputs is not None else {}
        sim.step(stimulus)
    return sim.trace


def discharge(
    pipelined: PipelinedMachine,
    obligations: ObligationSet,
    max_k: int = 2,
    bmc_bound: int = 8,
    trace_cycles: int = 200,
    liveness_bound: int | None = None,
    inputs: InputProvider | None = None,
    seq_inputs: InputProvider | None = None,
    conjoin: bool = True,
    max_conflicts: int | None = None,
    incremental: bool = True,
    sweep_frames: bool = False,
    share: bool = True,
) -> DischargeReport:
    """Discharge every obligation; see module docstring for the strategy.

    ``inputs``/``seq_inputs`` provide stimulus (external stalls etc.) for
    the trace checks on the pipelined/sequential machine respectively.

    With ``conjoin`` (default), all invariant obligations are first tried
    as a single conjoined k-induction — one unrolling instead of dozens,
    and a conjunction is at least as inductive as its parts (stronger
    induction hypothesis).  Individual discharge is the fallback, so a
    failing obligation is still pinpointed.

    ``max_conflicts`` bounds every SAT call (see :mod:`repro.formal.sat`);
    an exhausted budget degrades the obligation to ``Status.UNKNOWN``.
    ``incremental`` selects the single-solver engine (default; see
    :mod:`repro.formal.bmc`) and ``sweep_frames`` its optional AIG
    rewriting pass.  With ``share`` (default, incremental engine only)
    individual invariant discharge runs through one shared unrolling per
    group (:func:`discharge_invariant_group`) instead of one per
    obligation — same verdicts, one symbolic build.
    """
    report = DischargeReport(machine_name=obligations.machine_name)
    resolve_properties(pipelined, obligations)

    system = TransitionSystem.from_module(pipelined.module)
    invariants = obligations.invariants()
    conjoined_done = False
    if conjoin and len(invariants) > 1 and not any(o.assume for o in invariants):
        from ..hdl import expr as E

        start = time.perf_counter()
        combined = E.all_of(o.prop for o in invariants)
        result = k_induction(
            system,
            combined,
            k=1,
            max_conflicts=max_conflicts,
            incremental=incremental,
            sweep_frames=sweep_frames,
        )
        if result.holds is True:
            elapsed = (time.perf_counter() - start) / len(invariants)
            for obligation in invariants:
                report.records.append(
                    DischargeRecord(
                        oid=obligation.oid,
                        title=obligation.title,
                        status=Status.PROVED,
                        method="1-induction (conjoined)",
                        seconds=elapsed,
                        conflicts=result.conflicts,
                        frames=result.frames,
                    )
                )
            conjoined_done = True
    if not conjoined_done:
        if share and incremental and len(invariants) > 1:
            grouped = dict(
                discharge_invariant_group(
                    system,
                    invariants,
                    max_k=max_k,
                    bmc_bound=bmc_bound,
                    max_conflicts=max_conflicts,
                    sweep_frames=sweep_frames,
                )
            )
            report.records.extend(
                grouped[index] for index in range(len(invariants))
            )
        else:
            for obligation in invariants:
                report.records.append(
                    discharge_invariant(
                        system,
                        obligation,
                        max_k=max_k,
                        bmc_bound=bmc_bound,
                        max_conflicts=max_conflicts,
                        incremental=incremental,
                        sweep_frames=sweep_frames,
                    )
                )

    for obligation in obligations.equivalences():
        report.records.append(discharge_equivalence(obligation))

    trace = None
    if obligations.trace_checks():
        trace = build_trace(pipelined, trace_cycles, inputs)
    for obligation in obligations.trace_checks():
        report.records.append(
            discharge_trace(
                pipelined,
                obligation,
                trace=trace,
                trace_cycles=trace_cycles,
                liveness_bound=liveness_bound,
                inputs=inputs,
                seq_inputs=seq_inputs,
            )
        )
    return report


def discharge_invariant(
    system: TransitionSystem,
    obligation: Obligation,
    max_k: int = 2,
    bmc_bound: int = 8,
    max_conflicts: int | None = None,
    incremental: bool = True,
    sweep_frames: bool = False,
    interrupt: Callable[[], bool] | None = None,
) -> DischargeRecord:
    """Discharge one invariant obligation by k-induction, then BMC.

    With ``incremental`` (default) one :class:`IncrementalChecker` carries
    the whole escalation: the k-induction attempts at growing k *and* the
    BMC fallback all extend the same pair of unrollings and the same
    solvers, so only the newest frame and the newest query are ever paid
    for.  Pass ``incremental=False`` for the from-scratch engines (used by
    the differential test suite).
    """
    assert obligation.kind is ObligationKind.INVARIANT and obligation.prop is not None
    start = time.perf_counter()
    checker: IncrementalChecker | None = None
    if incremental:
        checker = IncrementalChecker(
            system,
            obligation.prop,
            assume=list(obligation.assume),
            max_conflicts=max_conflicts,
            interrupt=interrupt,
            sweep_frames=sweep_frames,
        )
    conflicts = 0
    frames = 0

    def note(result) -> None:
        nonlocal conflicts, frames
        if checker is not None:
            conflicts = checker.conflicts
            frames = checker.frames
        else:
            conflicts += result.conflicts
            frames = max(frames, result.frames)

    def record(status: Status, method: str, detail: str = "") -> DischargeRecord:
        return DischargeRecord(
            oid=obligation.oid,
            title=obligation.title,
            status=status,
            method=method,
            detail=detail,
            seconds=time.perf_counter() - start,
            conflicts=conflicts,
            frames=frames,
        )

    for k in range(1, max_k + 1):
        if checker is not None:
            result = checker.k_induction(k)
        else:
            result = k_induction(
                system,
                obligation.prop,
                k=k,
                assume=list(obligation.assume),
                max_conflicts=max_conflicts,
                interrupt=interrupt,
                incremental=False,
            )
        note(result)
        if result.holds is True:
            return record(Status.PROVED, f"{k}-induction")
        if result.holds is False:
            return record(Status.FAILED, result.method, str(result.counterexample))
    if checker is not None:
        result = checker.bmc_to(bmc_bound)
    else:
        result = bmc(
            system,
            obligation.prop,
            bound=bmc_bound,
            assume=list(obligation.assume),
            max_conflicts=max_conflicts,
            interrupt=interrupt,
            incremental=False,
        )
    note(result)
    if result.holds is True:
        return record(Status.BOUNDED, f"bmc({bmc_bound})")
    if result.holds is False:
        return record(Status.FAILED, f"bmc({result.bound})", str(result.counterexample))
    return record(Status.UNKNOWN, "exhausted")


def discharge_invariant_ladder(
    system: TransitionSystem,
    obligation: Obligation,
    max_k: int = 2,
    bmc_bound: int = 8,
    max_conflicts: int | None = None,
    sweep_frames: bool = False,
    bdd_bound: int | None = None,
    bdd_max_nodes: int = 200_000,
    interrupt: Callable[[], bool] | None = None,
) -> DischargeRecord:
    """Discharge one invariant via the graceful-degradation ladder.

    Rungs, tried in order, each only when the one above gave no verdict
    (``UNKNOWN``) or raised:

    1. the incremental CDCL engines (:func:`discharge_invariant`,
       ``incremental=True`` — the normal path);
    2. the from-scratch one-shot engines (independent of the incremental
       unrolling/solver machinery; its verdicts are tagged ``[scratch]``);
    3. BDD bounded reachability from reset (:func:`repro.formal.bmc.bmc_bdd`
       — a different decision procedure entirely, no CDCL and no conflict
       budget, tagged ``bdd(bound)``);
    4. ``UNKNOWN`` with method ``ladder-exhausted``, its detail recording
       what every rung reported.

    The ``method`` of the returned record therefore always identifies the
    rung that produced the verdict — a campaign report can show exactly how
    each obligation was decided even under engine failures.

    ``interrupt`` is polled by the CDCL rungs, and once more after each of
    them gives no verdict: when it fires, the ladder stops there with
    ``UNKNOWN`` and method ``interrupted``.  The BDD rung cannot be
    interrupted, and a verdict it reached after a cut-short CDCL rung
    would depend on machine load, not on the obligation.
    """
    assert obligation.kind is ObligationKind.INVARIANT and obligation.prop is not None
    start = time.perf_counter()
    notes: list[str] = []

    def interrupted() -> DischargeRecord:
        return DischargeRecord(
            oid=obligation.oid,
            title=obligation.title,
            status=Status.UNKNOWN,
            method="interrupted",
            detail="; ".join(notes),
            seconds=time.perf_counter() - start,
        )

    try:
        record = discharge_invariant(
            system,
            obligation,
            max_k=max_k,
            bmc_bound=bmc_bound,
            max_conflicts=max_conflicts,
            incremental=True,
            sweep_frames=sweep_frames,
            interrupt=interrupt,
        )
        if record.status is not Status.UNKNOWN:
            return record
        notes.append(f"incremental: {record.method}")
    except Exception as exc:  # a crashed rung degrades, never aborts
        notes.append(f"incremental: raised {type(exc).__name__}: {exc}")
    if interrupt is not None and interrupt():
        return interrupted()

    try:
        record = discharge_invariant(
            system,
            obligation,
            max_k=max_k,
            bmc_bound=bmc_bound,
            max_conflicts=max_conflicts,
            incremental=False,
            interrupt=interrupt,
        )
        if record.status is not Status.UNKNOWN:
            return replace(
                record,
                method=f"{record.method} [scratch]",
                detail="; ".join(filter(None, [record.detail, *notes])),
                seconds=time.perf_counter() - start,
            )
        notes.append(f"scratch: {record.method}")
    except Exception as exc:
        notes.append(f"scratch: raised {type(exc).__name__}: {exc}")
    if interrupt is not None and interrupt():
        return interrupted()

    bound = bdd_bound if bdd_bound is not None else bmc_bound
    frames = 0
    try:
        result = bmc_bdd(
            system,
            obligation.prop,
            bound=bound,
            assume=list(obligation.assume),
            max_nodes=bdd_max_nodes,
        )
        frames = result.frames
        if result.holds is True:
            return DischargeRecord(
                oid=obligation.oid,
                title=obligation.title,
                status=Status.BOUNDED,
                method=f"bdd({bound})",
                detail="; ".join(notes),
                seconds=time.perf_counter() - start,
                frames=result.frames,
            )
        if result.holds is False:
            return DischargeRecord(
                oid=obligation.oid,
                title=obligation.title,
                status=Status.FAILED,
                method=f"bdd({result.bound})",
                detail=str(result.counterexample),
                seconds=time.perf_counter() - start,
                frames=result.frames,
            )
        notes.append(result.method)
    except Exception as exc:
        notes.append(f"bdd: raised {type(exc).__name__}: {exc}")

    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.UNKNOWN,
        method="ladder-exhausted",
        detail="; ".join(notes),
        seconds=time.perf_counter() - start,
        frames=frames,
    )


def discharge_invariant_group(
    system: TransitionSystem,
    obligations: Sequence[Obligation],
    max_k: int = 2,
    bmc_bound: int = 8,
    max_conflicts: int | None = None,
    sweep_frames: bool = False,
    ladder: bool = False,
    member_timeout: float | None = None,
) -> Iterator[tuple[int, DischargeRecord]]:
    """Discharge a family of invariant obligations over **one** shared
    unrolling (:class:`repro.formal.shared.SharedContext`), yielding
    ``(index, record)`` pairs in obligation order.

    Each member walks exactly the escalation of
    :func:`discharge_invariant` — k-induction at k = 1..``max_k``, then
    BMC to ``bmc_bound`` — through the shared context, so statuses,
    methods and details are verbatim what the per-obligation engine
    produces; only the symbolic build and the solver's learned state are
    shared.  Streaming the records (rather than returning a list) lets
    the group worker ship each verdict over its pipe the moment it lands,
    so a member that times out or a worker that dies mid-group never
    costs its already-finished siblings.

    ``member_timeout`` is the per-obligation wall-clock budget *inside*
    the group, enforced cooperatively through the solver's interrupt
    callback; a member that exhausts it yields the same ``timeout(..s)``
    shape the worker pool's hard deadline produces.  With ``ladder``, a
    member the shared engine leaves UNKNOWN (and that has budget left)
    falls back to the full per-obligation degradation ladder
    (:func:`discharge_invariant_ladder`) — grouped scheduling never takes
    a rung away.  The deadline is checked again after the ladder: a
    ladder verdict that lands past it is a timeout too.
    """
    from ..formal.shared import SharedContext, SharedMember

    for obligation in obligations:
        assert (
            obligation.kind is ObligationKind.INVARIANT
            and obligation.prop is not None
        )
    context = SharedContext(
        system,
        [
            SharedMember(obligation.prop, tuple(obligation.assume))
            for obligation in obligations
        ],
        max_conflicts=max_conflicts,
        sweep_frames=sweep_frames,
    )
    for index, obligation in enumerate(obligations):
        start = time.perf_counter()
        deadline = (
            start + member_timeout if member_timeout is not None else None
        )
        context.interrupt = (
            (lambda d=deadline: time.perf_counter() >= d)
            if deadline is not None
            else None
        )

        def record_of(status: Status, method: str, detail: str = "") -> DischargeRecord:
            return DischargeRecord(
                oid=obligation.oid,
                title=obligation.title,
                status=status,
                method=method,
                detail=detail,
                seconds=time.perf_counter() - start,
                conflicts=context.conflicts[index],
                frames=context.frames,
            )

        try:
            record = None
            for k in range(1, max_k + 1):
                result = context.k_induction(index, k)
                if result.holds is True:
                    record = record_of(Status.PROVED, f"{k}-induction")
                    break
                if result.holds is False:
                    record = record_of(
                        Status.FAILED, result.method, str(result.counterexample)
                    )
                    break
            if record is None:
                result = context.bmc_to(index, bmc_bound)
                if result.holds is True:
                    record = record_of(Status.BOUNDED, f"bmc({bmc_bound})")
                elif result.holds is False:
                    record = record_of(
                        Status.FAILED,
                        f"bmc({result.bound})",
                        str(result.counterexample),
                    )
                else:
                    record = record_of(Status.UNKNOWN, "exhausted")
        except Exception as exc:  # one sick member must not kill the group
            record = record_of(
                Status.UNKNOWN, "group-error", repr(exc)
            )
            if ladder:
                record = None  # decided by the full ladder below

        def past_deadline() -> bool:
            return deadline is not None and time.perf_counter() >= deadline

        if ladder and not past_deadline() and (
            record is None or record.status is Status.UNKNOWN
        ):
            # the remaining rungs run per-obligation, exactly as the
            # classic scheduling mode would have run them
            record = discharge_invariant_ladder(
                system,
                obligation,
                max_k=max_k,
                bmc_bound=bmc_bound,
                max_conflicts=max_conflicts,
                sweep_frames=sweep_frames,
                interrupt=context.interrupt,
            )
        if past_deadline():
            # Strict wall budget, matching the worker pool's hard deadline:
            # past it, even a verdict the solver or the ladder reached late
            # is discarded (the classic scheduler would have killed the
            # worker first).
            record = DischargeRecord(
                oid=obligation.oid,
                title=obligation.title,
                status=Status.UNKNOWN,
                method=f"timeout({member_timeout:g}s)",
                detail="solver interrupted at the per-obligation"
                " deadline inside a shared group",
                seconds=time.perf_counter() - start,
                conflicts=context.conflicts[index],
                frames=context.frames,
            )
        yield index, record


def discharge_equivalence(obligation: Obligation) -> DischargeRecord:
    """Discharge one combinational-equivalence obligation with the SAT miter."""
    assert obligation.kind is ObligationKind.EQUIVALENCE
    assert obligation.equiv is not None
    start = time.perf_counter()
    result = check_equivalence(*obligation.equiv)
    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.PROVED if result.equivalent else Status.FAILED,
        method="sat-equivalence",
        detail=""
        if result.equivalent
        else f"witness: regs={result.witness_regs}",
        seconds=time.perf_counter() - start,
    )


def discharge_trace(
    pipelined: PipelinedMachine,
    obligation: Obligation,
    trace: Trace | None = None,
    trace_cycles: int = 200,
    liveness_bound: int | None = None,
    inputs: InputProvider | None = None,
    seq_inputs: InputProvider | None = None,
    impl_states: list | None = None,
    spec_cache=None,
    seq_side=None,
) -> DischargeRecord:
    """Discharge one trace obligation by running its dynamic checker.

    ``trace`` lets callers share one stimulus run across the trace
    obligations of a machine; it is rebuilt on demand when omitted.

    The remaining artifact arguments let a caller that already simulated
    the machine (e.g. the lockstep fault campaign, which extracts lane
    views from one batch run) discharge without any resimulation:
    ``impl_states`` are the per-cycle visible-state snapshots consumed by
    the consistency checker (paired with ``trace``), ``spec_cache`` is a
    shared :class:`repro.core.SpecStateCache`, and ``seq_side`` is a
    precomputed :func:`repro.core.seq_commit_side` result.
    """
    assert obligation.kind is ObligationKind.TRACE
    start = time.perf_counter()
    n = pipelined.n_stages
    bound = liveness_bound if liveness_bound is not None else 8 * n
    if trace is None and obligation.checker in ("lemma1", "liveness"):
        trace = build_trace(pipelined, trace_cycles, inputs)
    if obligation.checker == "lemma1":
        result = check_lemma1(trace, n)
        ok, detail = result.ok, "; ".join(result.violations[:3])
    elif obligation.checker == "consistency":
        consistency = check_data_consistency(
            pipelined.machine,
            pipelined.module,
            cycles=trace_cycles,
            inputs=inputs,
            seq_inputs=seq_inputs,
            trace=trace if impl_states is not None else None,
            impl_states=impl_states,
            spec_cache=spec_cache,
        )
        ok, detail = consistency.ok, "; ".join(consistency.violations[:3])
    elif obligation.checker == "commit_streams":
        streams = compare_commit_streams(
            pipelined.machine,
            pipelined.module,
            cycles=trace_cycles,
            inputs=inputs,
            seq_inputs=seq_inputs,
            pipe_trace=trace if seq_side is not None else None,
            seq_side=seq_side,
        )
        ok, detail = streams.ok, "; ".join(streams.violations[:3])
    elif obligation.checker == "liveness":
        liveness = check_liveness(trace, n, bound=bound)
        ok = liveness.ok
        detail = (
            f"worst latency {liveness.worst_latency} of bound {bound}"
            f" over {liveness.instructions_checked} instructions"
        )
    else:
        raise ValueError(f"unknown trace checker {obligation.checker!r}")
    return DischargeRecord(
        oid=obligation.oid,
        title=obligation.title,
        status=Status.TRACE_OK if ok else Status.FAILED,
        method=f"trace({trace_cycles} cycles)",
        detail=detail,
        seconds=time.perf_counter() - start,
    )
