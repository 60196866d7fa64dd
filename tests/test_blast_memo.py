"""One memoised bit-blaster per unrolled frame.

:class:`repro.formal.bmc.Unroller` lowers every expression of a frame —
the next-state functions, properties, assumptions, mined invariants —
through the frame's one :class:`repro.formal.aig.BitBlaster`, which keeps
its memo for the frame's lifetime.  AND nodes are structurally hashed, so
this may not change the AIG at all.  The differential test reruns
discharge with the oracle, a fresh blaster per expression that walks the
whole DAG under its root, and requires the same AND gates in the same
order, the same literal vectors and the same records, conflict counts and
frame counts included.

The memo keys nodes by identity.  ``E.scoped_intern`` drops the nodes a
scope created, so the id-reuse test blasts such nodes, frees the scope and
then blasts new nodes, which CPython is free to place at the freed
addresses, in the same frame.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.transform import transform
from repro.faults import CORES, generate_mutants
from repro.formal.aig import BitBlaster
from repro.formal.bmc import TransitionSystem, Unroller
from repro.hdl import expr as E
from repro.hdl.bitvec import BitVector
from repro.hdl.netlist import Module, ModuleState
from repro.hdl.sim import Evaluator
from repro.jobs import EngineParams, discharge_jobs
from repro.proofs import generate_obligations


class _WalkBlaster(BitBlaster):
    """Lowers every node under the root in :func:`E.walk` order, skipping
    only the nodes already in its memo (the blaster before memoisation
    outlived a call)."""

    def blast(self, root: E.Expr) -> list[int]:
        memo = self._memo
        for node in E.walk([root]):
            if id(node) not in memo:
                memo[id(node)] = self._blast_node(node)
        return memo[id(root)]


def _fresh_blaster(self: Unroller, frame) -> BitBlaster:
    """The oracle: a new blaster (empty memo) for every expression."""
    return _WalkBlaster(
        self.aig, regs=frame.regs, inputs=frame.inputs, mem_words=frame.mems
    )


def _discharge_log(pipelined, cycles: int, monkeypatch, fresh: bool):
    """Discharge every obligation in-process and log, in order, every
    frame's state vectors, every ``blast_in_frame`` vector and every AND
    gate each AIG gained since its previous log entry."""
    log: list[tuple] = []
    logged = weakref.WeakKeyDictionary()  # Aig -> number of gates logged

    def gates(aig) -> int:
        start = logged.get(aig, 0)
        logged[aig] = len(aig.ands)
        return hash(tuple(aig.ands[start:]))

    add_step = Unroller.add_step
    blast_in_frame = Unroller.blast_in_frame

    def logged_add_step(self):
        frame = add_step(self)
        state = (frame.regs, {m: sorted(w.items()) for m, w in frame.mems.items()})
        log.append(("step", len(self.frames), repr(state), gates(self.aig)))
        return frame

    def logged_blast(self, index, expression):
        vec = blast_in_frame(self, index, expression)
        log.append(("blast", index, tuple(vec), gates(self.aig)))
        return vec

    with monkeypatch.context() as patch:
        patch.setattr(Unroller, "add_step", logged_add_step)
        patch.setattr(Unroller, "blast_in_frame", logged_blast)
        if fresh:
            patch.setattr(Unroller, "_blaster", _fresh_blaster)
        report = discharge_jobs(
            pipelined,
            generate_obligations(pipelined),
            params=EngineParams(trace_cycles=cycles),
            jobs=1,
            lint_gate=False,
            taint_gate=False,
        )
    records = [
        (r.oid, r.status, r.method, r.detail, r.conflicts, r.frames)
        for r in report.records
    ]
    return records, log


def _mutant(core: str, mid: str):
    for mutant in generate_mutants(core):
        if mutant.mid == mid:
            return mutant.build()
    raise AssertionError(f"no mutant {mid}")


@pytest.mark.parametrize(
    ("core", "mutant"),
    [
        ("toy", None),
        ("toy", "toy/weaken-stall/0"),
        ("dlx-small", None),
        pytest.param("dlx-spec", None, marks=pytest.mark.slow),
    ],
)
def test_frame_blaster_matches_fresh_blaster_oracle(core, mutant, monkeypatch):
    cycles = CORES[core].trace_cycles
    pipelined = (
        transform(CORES[core].build_machine())
        if mutant is None
        else _mutant(core, mutant)
    )
    shipped = _discharge_log(pipelined, cycles, monkeypatch, fresh=False)
    oracle = _discharge_log(pipelined, cycles, monkeypatch, fresh=True)
    assert shipped[1], "nothing was blasted: stale call sites?"
    assert shipped[1] == oracle[1]
    assert shipped[0] == oracle[0]
    statuses = {row[1].value for row in shipped[0]}
    if mutant is None:
        assert "failed" not in statuses
    else:
        # the comparison covers counterexamples, not just passing verdicts
        assert any(
            row[1].value == "failed" and row[3].startswith("counterexample")
            for row in shipped[0]
        )


def test_scoped_nodes_do_not_alias_later_nodes():
    width = 8
    module = Module("id_reuse")
    r = module.add_register("r", width, next=module.add_input("x", width))
    s = module.add_register("s", width, next=E.add(r, E.reg_read("s", width)))
    unroller = Unroller(TransitionSystem.from_module(module))
    frame = unroller.add_initial_frame(free=True)

    with E.scoped_intern():
        for i in range(300):
            unroller.blast_in_frame(0, E.add(E.mul(r, s), E.const(width, i)))
    gc.collect()

    later = [
        E.bxor(E.sub(s, r), E.const(width, (7 * i) % 256)) for i in range(300)
    ]
    vecs = [unroller.blast_in_frame(0, expression) for expression in later]
    fresh = _fresh_blaster(unroller, frame)
    assert vecs == [fresh.blast(expression) for expression in later]

    aig = unroller.aig
    rng = random.Random(0)
    for _ in range(4):
        values = {"r": rng.randrange(1 << width), "s": rng.randrange(1 << width)}
        assignment = {
            lit >> 1: bool((values[name] >> i) & 1)
            for name, vec in frame.regs.items()
            for i, lit in enumerate(vec)
        }
        state = ModuleState(
            registers={n: BitVector(width, v) for n, v in values.items()},
            memories={},
        )
        evaluator = Evaluator(state, {})
        for expression, vec in zip(later, vecs):
            bits = aig.evaluate(assignment, vec)
            got = sum(1 << i for i, bit in enumerate(bits) if bit)
            assert got == evaluator.eval(expression)
