"""SAT verification of candidate invariants (Houdini-style).

Candidates that survive the concrete trace filter are still only
*conjectures*; before anything is injected as an assumption into a
k-induction obligation it must be proved here.  The algorithm is the
classic simultaneous-induction fixpoint (Houdini):

1. **base**: every candidate must hold in the concrete reset state
   (evaluated with the interpreter — exact, no abstraction);
2. **step**: on a 2-frame free-init unrolling, assume *all* surviving
   candidates in frame 0 and ask the solver whether any candidate can
   fail in frame 1; failures are dropped and the loop repeats until no
   candidate falls.

The surviving set is, as a conjunction, a 1-inductive invariant — which
makes each member individually safe to assume in any induction frame,
*provided the whole set is assumed together*.  :func:`verify_candidates`
therefore returns the set as a unit; callers inject subsets only when
they are closed under the support filter (see
:func:`repro.absint.mine.inject_invariants`).

Candidates that read external inputs are rejected outright (an
invariant over inputs is meaningless), and a solver query that exhausts
its conflict budget drops the candidate — sound in the conservative
direction, since dropping can only lose facts, never invent them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..formal.aig import fresh_vec
from ..formal.bmc import IncrementalUnroller, TransitionSystem
from ..hdl import expr as E
from ..hdl.netlist import Module
from ..hdl.sim import Evaluator


@dataclass
class VerifyOutcome:
    """Result of a Houdini run over a candidate set."""

    proven: dict[str, E.Expr] = field(default_factory=dict)
    rejected: dict[str, str] = field(default_factory=dict)  # name -> reason
    rounds: int = 0
    seconds: float = 0.0


def verify_candidates(
    module: Module,
    system: TransitionSystem,
    candidates: dict[str, E.Expr],
    *,
    max_conflicts: int | None = None,
) -> VerifyOutcome:
    """Prove the inductive subset of ``candidates``; see module docstring."""
    t0 = time.perf_counter()
    outcome = VerifyOutcome()
    alive: dict[str, E.Expr] = {}
    for name, expression in candidates.items():
        if expression.width != 1:
            outcome.rejected[name] = "not a 1-bit property"
        elif E.input_reads([expression]):
            outcome.rejected[name] = "reads external inputs"
        else:
            alive[name] = expression

    # base: exact evaluation in the concrete reset state
    if alive:
        evaluator = Evaluator(module.initial_state(), {})
        for name in list(alive):
            if evaluator.eval(alive[name]) != 1:
                outcome.rejected[name] = "fails in the reset state"
                del alive[name]

    # step: simultaneous induction on one incremental 2-frame unrolling
    if alive:
        support = system.cone_of_influence(list(alive.values()))
        unroller = IncrementalUnroller(system, support=support, free_init=True)
        unroller.ensure_frames(2)
        hyp = {name: unroller.literal(0, e) for name, e in alive.items()}
        goal = {name: unroller.literal(1, e) for name, e in alive.items()}

        def lit_true(result, lit: int) -> bool:
            return result.value(abs(lit)) == (lit > 0)

        while alive:
            outcome.rounds += 1
            # one query per round: can ANY surviving candidate fail in
            # frame 1 under the joint hypothesis?  The failure
            # disjunction is guarded by a fresh activation literal so
            # the clause dies with the round; a SAT model names every
            # falling candidate at once, so the fixpoint needs one query
            # per round instead of one per candidate per round (the
            # greatest fixpoint is drop-order independent).
            act = unroller.emitter.encode(fresh_vec(unroller.aig, 1)[0])
            unroller.solver.add_clause(
                [-act] + [-goal[name] for name in alive]
            )
            assumptions = [hyp[other] for other in alive]
            result = unroller.solver.solve(
                assumptions=[*assumptions, act], max_conflicts=max_conflicts
            )
            if result.satisfiable is False:
                break  # the surviving set is simultaneously inductive
            if result.satisfiable is True:
                for name in list(alive):
                    if not lit_true(result, goal[name]):
                        outcome.rejected[name] = (
                            "not inductive relative to the surviving set"
                        )
                        del alive[name]
                continue
            # budget exhausted on the joint query: fall back to one
            # query per candidate so the exhaustion is attributed to the
            # candidate that caused it (classic Houdini round)
            dropped = False
            for name in list(alive):
                assumptions = [hyp[other] for other in alive]
                assumptions.append(-goal[name])
                result = unroller.solver.solve(
                    assumptions=assumptions, max_conflicts=max_conflicts
                )
                if result.satisfiable is not False:
                    reason = (
                        "conflict budget exhausted"
                        if result.satisfiable is None
                        else "not inductive relative to the surviving set"
                    )
                    outcome.rejected[name] = reason
                    del alive[name]
                    dropped = True
            if not dropped:
                break

    outcome.proven = dict(alive)
    outcome.seconds = time.perf_counter() - t0
    return outcome
