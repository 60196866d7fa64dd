"""Cone-of-influence slicing from cached per-variable reads.

:meth:`TransitionSystem.cone_of_influence` closes over names: each state
variable's one-step reads are walked once per system and cached, and a
symbolic memory read is kept as the memory until a query expands it.  The
oracle below is the walk-per-round slicer it replaced, kept here as the
reference: every obligation's cone must be the same set, whatever order
the queries fill the cache in.

The fingerprint pin guards the cache keys built on those cones: the
digests in ``tests/data/fingerprints.json`` were computed by the
walk-per-round slicer, so a warm verdict cache keeps hitting.  Regenerate
them (only for a deliberate change of the fingerprint format) with
``PYTHONPATH=src python tests/test_coi.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.absint import inject_invariants, mine_invariants
from repro.core.transform import transform
from repro.faults import CORES
from repro.formal.bmc import TransitionSystem
from repro.hdl import expr as E
from repro.hdl.netlist import Module
from repro.jobs import EngineParams
from repro.proofs import generate_obligations, resolve_properties
from repro.proofs.obligations import ObligationKind

DATA = pathlib.Path(__file__).parent / "data" / "fingerprints.json"


def reference_cone(system: TransitionSystem, roots: list[E.Expr]) -> set[str]:
    """The walk-per-round slicer: each round walks the next-state
    functions of the names the previous round added."""
    needed: set[str] = set()
    full_mems: set[str] = set()
    frontier: list[E.Expr] = list(roots)
    while frontier:
        exprs = frontier
        frontier = []
        names: set[str] = set()
        for node in E.walk(exprs):
            if isinstance(node, E.RegRead):
                names.add(node.name)
            elif isinstance(node, E.MemRead):
                if isinstance(node.addr, E.Const):
                    names.add(f"{node.mem}[{node.addr.value}]")
                elif node.mem not in full_mems:
                    full_mems.add(node.mem)
                    addr_width, _dw = system.mem_shapes[node.mem]
                    names.update(
                        f"{node.mem}[{a}]" for a in range(1 << addr_width)
                    )
        for name in names - needed:
            needed.add(name)
            frontier.append(system.var(name).next)
    return needed


_DESIGNS: dict[str, object] = {}


def _design(core: str):
    if core not in _DESIGNS:
        pipelined = transform(CORES[core].build_machine())
        obligations = generate_obligations(pipelined)
        resolve_properties(pipelined, obligations)
        _DESIGNS[core] = (pipelined, obligations)
    return _DESIGNS[core]


def _queries(core: str) -> tuple[object, list[list[E.Expr]]]:
    """Every invariant obligation's roots, then every register's
    next-state function alone."""
    pipelined, obligations = _design(core)
    module = pipelined.module
    queries = [[o.prop, *o.assume] for o in obligations.invariants()]
    system = TransitionSystem.from_module(module)
    queries.extend([var.next] for var in system.state if var.name in module.registers)
    return module, queries


def _assert_cones_match(module: Module, queries: list[list[E.Expr]]) -> None:
    reference_system = TransitionSystem.from_module(module)
    expected = [reference_cone(reference_system, roots) for roots in queries]
    for order in (list(range(len(queries))), list(reversed(range(len(queries))))):
        system = TransitionSystem.from_module(module)  # a cold read cache
        for index in order:
            assert system.cone_of_influence(queries[index]) == expected[index], (
                f"query {index} (order starting at {order[0]})"
            )


@pytest.mark.parametrize(
    "core",
    ["toy", "dlx-small", "dlx-spec"],
)
def test_cones_match_walk_per_round_reference(core):
    module, queries = _queries(core)
    assert len(queries) > 20
    _assert_cones_match(module, queries)


def _chained_memories() -> tuple[Module, dict[str, E.Expr]]:
    """Memory ``src`` is read at a register address, and that read is the
    write data of memory ``dst``; ``dst`` is read back at a constant and
    at a symbolic address."""
    module = Module("chained_memories")
    waddr = module.add_register("waddr", 2, next=module.add_input("wa", 2))
    raddr = module.add_register("raddr", 2, next=module.add_input("ra", 2))
    load = module.add_input("load", 8)
    src = module.add_memory("src", 2, 8, init={1: 5})
    src.add_write_port(E.const(1, 1), waddr, load)
    moved = module.read_memory("src", raddr)
    dst = module.add_memory("dst", 2, 8)
    dst.add_write_port(E.const(1, 1), E.const(2, 3), moved)
    module.add_register("lone", 1, init=0)
    module.drive_register("lone", E.reg_read("lone", 1))
    return module, {
        "dst_word": module.read_memory("dst", E.const(2, 3)),
        "dst_any": module.read_memory("dst", waddr),
        "src_word": module.read_memory("src", E.const(2, 0)),
        "lone": E.reg_read("lone", 1),
    }


def test_symbolic_read_feeding_another_memory():
    module, probes = _chained_memories()
    system = TransitionSystem.from_module(module)
    cone = system.cone_of_influence([probes["dst_word"]])
    # the symbolic read of src in dst[3]'s write data pulls every src word
    assert cone == {
        "dst[3]", "raddr", "waddr", "src[0]", "src[1]", "src[2]", "src[3]",
    }
    queries = [[probe] for probe in probes.values()]
    queries.append(list(probes.values()))
    _assert_cones_match(module, queries)


def fingerprint_digests(core: str) -> dict[str, str]:
    """Every obligation's fingerprint as the engine computes it (default
    parameters), keyed by obligation id; the invariants the engine then
    strengthens with mined facts once more, keyed ``absint:<id>``."""
    pipelined, obligations = _design(core)
    system = TransitionSystem.from_module(pipelined.module)
    params = EngineParams()
    mined = mine_invariants(pipelined, system=system).proven
    injected = inject_invariants(list(obligations), mined, system)
    digests = {}
    for obligation in injected:
        if obligation.kind is ObligationKind.INVARIANT and obligation.assume:
            digests[f"absint:{obligation.oid}"] = obligation.fingerprint(
                system=system, params=params.invariant_params()
            )
    for obligation in obligations:
        if obligation.kind is ObligationKind.INVARIANT:
            digest = obligation.fingerprint(
                system=system, params=params.invariant_params()
            )
        elif obligation.kind is ObligationKind.TRACE:
            digest = obligation.fingerprint(
                module=pipelined.module,
                params=params.trace_params(
                    obligation.checker or "", pipelined.n_stages
                ),
            )
        else:
            digest = obligation.fingerprint()
        digests[obligation.oid] = digest
    return digests


@pytest.mark.parametrize("core", ["toy", "dlx-small"])
def test_fingerprints_are_pinned(core):
    pinned = json.loads(DATA.read_text())[core]
    assert fingerprint_digests(core) == pinned


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps(
            {core: fingerprint_digests(core) for core in ("toy", "dlx-small")},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
