"""The change-driven fixpoint against the dense reference.

:func:`repro.absint.analyze` re-evaluates, after the first Jacobi step,
only the nodes downstream of a register or memory whose abstract state
changed.  ``_dense_analyze`` below is the earlier implementation, kept as
the oracle: it clears every value and re-runs the transfer over the
whole DAG on each step.  Both must agree on every field of the result —
over the baselines and fault-catalog mutants of the campaign cores and
over hand-built modules reaching the iteration backstop, widening, a ROM
case-split read and width-mismatched reads.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.absint import AbsValue, analyze, shared_fixpoint
from repro.absint import fixpoint as fixpoint_module
from repro.core.transform import transform
from repro.faults import CORES, generate_mutants
from repro.hdl import expr as E
from repro.hdl.netlist import Module
from repro.lint import lint_semantic


def _dense_analyze(
    module: Module,
    *,
    widen_after: int = 3,
    max_iterations: int = 50,
    rom_case_limit: int = 64,
) -> dict:
    """Every node re-evaluated on every iteration (the reference)."""
    state = {
        name: AbsValue.const(reg.width, reg.init)
        for name, reg in module.registers.items()
    }
    mem_summary = {}
    rom = {}
    for name, memory in module.memories.items():
        rom[name] = not memory.write_ports
        mem_summary[name] = fixpoint_module._memory_summary(
            memory, include_unwritten=True
        )
    order = E.walk(module.roots())
    values: dict[int, AbsValue] = {}
    reg_env, mem_env = fixpoint_module._environments(
        module, state, mem_summary, rom, values, rom_case_limit
    )
    iterations = 0
    widened = False
    while True:
        iterations += 1
        values.clear()
        for node in order:
            values[id(node)] = fixpoint_module.abs_transfer(
                node,
                lambda n: values[id(n)],
                reg_env=reg_env,
                mem_env=mem_env,
            )
        changed: set[str] = set()
        changed_mems: set[str] = set()
        for name, reg in module.registers.items():
            if values[id(reg.enable)].hi == 0:
                continue
            old = state[name]
            nxt = values[id(reg.next)]
            if iterations > widen_after:
                new = old.widen(old.join(nxt))
                if new != old:
                    widened = True
            else:
                new = old.join(nxt)
            if new != old:
                state[name] = new
                changed.add(name)
        for name, memory in module.memories.items():
            if rom[name]:
                continue
            old = mem_summary[name]
            new = old
            for port in memory.write_ports:
                if values[id(port.enable)].hi == 0:
                    continue
                new = new.join(values[id(port.data)])
            if new != old:
                mem_summary[name] = new
                changed_mems.add(name)
        if not changed and not changed_mems:
            break
        if iterations >= max_iterations:
            for name in changed:
                state[name] = AbsValue.top(module.registers[name].width)
            for name in changed_mems:
                mem_summary[name] = AbsValue.top(
                    module.memories[name].data_width
                )
            widened = True
    return {
        "registers": state,
        "memories": mem_summary,
        "values": values,
        "iterations": iterations,
        "widened": widened,
    }


def _fields(result) -> dict:
    return {
        "registers": result.registers,
        "memories": result.memories,
        "values": result.values,
        "iterations": result.iterations,
        "widened": result.widened,
    }


def _assert_matches_dense(module: Module, **knobs) -> None:
    sparse = _fields(analyze(module, **knobs))
    dense = _dense_analyze(module, **knobs)
    for name in dense:
        assert sparse[name] == dense[name], (module.name, name)


def _core_modules(core: str):
    """The baseline module of a campaign core, then every buildable
    mutant's (build-rejected mutants have no netlist to analyse)."""
    spec = CORES[core]
    yield "baseline", transform(spec.build_machine()).module
    for mutant in generate_mutants(spec):
        try:
            pipelined = mutant.build()
        except Exception:
            continue
        yield mutant.mid, pipelined.module


@pytest.mark.parametrize("core", ["toy", "dlx-small"])
def test_sparse_matches_dense_on_core_and_mutants(core):
    checked = 0
    for _mid, module in _core_modules(core):
        _assert_matches_dense(module)
        checked += 1
    assert checked > 20


@pytest.mark.slow
def test_sparse_matches_dense_on_dlx_spec_and_mutants():
    checked = 0
    for _mid, module in _core_modules("dlx-spec"):
        _assert_matches_dense(module)
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# hand-built corner cases


def _counter() -> Module:
    """A free-running 16-bit counter feeding a second, masked register."""
    module = Module("counter")
    count = module.add_register("c", 16, init=0)
    low = module.add_register("low", 16, init=0)
    module.drive_register("c", E.add(count, E.const(16, 1)))
    module.drive_register("low", E.band(count, E.const(16, 7)))
    module.add_probe("out", E.concat(count, low))
    return module


def test_sparse_matches_dense_through_widening():
    module = _counter()
    result = analyze(module, widen_after=3)
    assert result.widened and result.iterations < 50
    _assert_matches_dense(module, widen_after=3)


def test_sparse_matches_dense_at_the_iteration_backstop():
    """No widening before the backstop: still-moving entries are blown to
    top at ``max_iterations`` and the loop goes on until stable."""
    module = _counter()
    result = analyze(module, widen_after=100, max_iterations=4)
    assert result.iterations > 4
    assert result.registers["c"].is_top()
    _assert_matches_dense(module, widen_after=100, max_iterations=4)


def test_sparse_matches_dense_on_rom_case_split_and_written_memory():
    """A ROM read through a narrow moving address is case-split over the
    concrete words; a written memory's summary keeps growing."""
    module = Module("rom")
    pc = module.add_register("pc", 2, init=0)
    module.drive_register("pc", E.add(pc, E.const(2, 1)))
    addr = E.concat(E.const(1, 0), pc)  # known to lie in 0..3
    module.add_memory("rom", 3, 8, {0: 5, 1: 9, 2: 5, 3: 200, 7: 255})
    word = module.read_memory("rom", addr)
    acc = module.add_register("acc", 8, init=0)
    module.drive_register("acc", word)
    ram = module.add_memory("ram", 3, 8, {})
    ram.add_write_port(E.const(1, 1), addr, E.add(acc, E.const(8, 1)))
    module.add_probe("ram_out", module.read_memory("ram", addr))
    result = analyze(module, rom_case_limit=8)
    # the case split keeps the ROM read to the four words actually read;
    # without it the read is the summary of every word, 255 included
    assert result.registers["acc"].hi < 255
    assert analyze(module, rom_case_limit=2).registers["acc"].hi == 255
    assert result.memories["ram"] != fixpoint_module._memory_summary(
        module.memories["ram"], include_unwritten=True
    )
    _assert_matches_dense(module, rom_case_limit=8)
    _assert_matches_dense(module, rom_case_limit=2, max_iterations=3)


def test_sparse_matches_dense_on_width_mismatched_reads():
    """A read at the wrong width is top whatever the state does."""
    module = _counter()
    module.add_probe("narrow", E.reg_read("c", 8))
    module.add_memory("m", 2, 4, {0: 1})
    module.add_probe("wide_word", E.mem_read("m", E.const(2, 0), 8))
    result = analyze(module)
    assert result.values[id(module.probes["narrow"])].is_top()
    _assert_matches_dense(module)
    _assert_matches_dense(module, widen_after=100, max_iterations=5)


def test_sparse_run_performs_fewer_transfers(monkeypatch):
    """The point of the change, as a count: on dlx-small the sparse run
    calls the transfer function fewer times than the dense one."""
    module = transform(CORES["dlx-small"].build_machine()).module
    calls = {"n": 0}
    transfer = fixpoint_module.abs_transfer

    def counting(*args, **kwargs):
        calls["n"] += 1
        return transfer(*args, **kwargs)

    monkeypatch.setattr(fixpoint_module, "abs_transfer", counting)
    _dense_analyze(module)
    dense_calls, calls["n"] = calls["n"], 0
    result = analyze(module)
    sparse_calls = calls["n"]
    assert result.iterations > 2
    assert sparse_calls < dense_calls, (sparse_calls, dense_calls)


# ---------------------------------------------------------------------------
# FixpointResult.eval: the walk stops at memoised nodes


def _fresh_eval(result, expression: E.Expr) -> AbsValue:
    """Evaluate ``expression`` from scratch over the stable state."""
    module = result.module
    rom = {name: not m.write_ports for name, m in module.memories.items()}
    values: dict[int, AbsValue] = {}
    reg_env, mem_env = fixpoint_module._environments(
        module,
        result.registers,
        result.memories,
        rom,
        values,
        result.rom_case_limit,
    )
    for node in E.walk([expression]):
        values[id(node)] = fixpoint_module.abs_transfer(
            node, lambda n: values[id(n)], reg_env=reg_env, mem_env=mem_env
        )
    return values[id(expression)]


def _overlapping(module: Module) -> list[E.Expr]:
    """Expressions that share subterms with each other and the module."""
    reads = [
        E.reg_read(name, reg.width)
        for name, reg in sorted(module.registers.items())
        if reg.width >= 2
    ][:6]
    out: list[E.Expr] = []
    for a, b in zip(reads, reads[1:]):
        base = E.band(a, E.const(a.width, 3))
        out.append(base)
        out.append(E.eq(base, E.const(a.width, 1)))
        out.append(E.bor(E.eq(base, E.const(a.width, 1)), E.eq(b, b)))
        out.append(E.add(E.zext(base, a.width + 1), E.const(a.width + 1, 1)))
    return out


def test_eval_matches_fresh_walk_across_scopes(toy_pipelined):
    module = toy_pipelined.module
    result = analyze(module)
    with E.scoped_intern():
        first = [(e, result.eval(e)) for e in _overlapping(module)]
        for expression, value in first:
            assert value == _fresh_eval(result, expression)
    # rebuilt outside the scope: new nodes, new ids; the scope's nodes
    # stay pinned, so no stale memo entry can alias a new node
    for expression in _overlapping(module):
        assert result.eval(expression) == _fresh_eval(result, expression)
    # module nodes are plain hits
    for root in module.roots():
        assert result.eval(root) == result.values[id(root)]


def test_eval_matches_fresh_walk_on_dlx_small():
    module = transform(CORES["dlx-small"].build_machine()).module
    result = analyze(module)
    with E.scoped_intern():
        for expression in _overlapping(module):
            assert result.eval(expression) == _fresh_eval(result, expression)


# ---------------------------------------------------------------------------
# the shared memo lets go of its modules


def test_shared_fixpoint_memo_releases_dropped_modules():
    gc.collect()
    before = len(fixpoint_module._SHARED_FIXPOINTS)
    module = _counter()
    lint_semantic(module)
    result = shared_fixpoint(module)
    assert result.module is module
    assert len(fixpoint_module._SHARED_FIXPOINTS) == before + 1
    alive = weakref.ref(module)
    del module
    gc.collect()
    assert alive() is None
    assert len(fixpoint_module._SHARED_FIXPOINTS) <= before
    # the result outlives its module; asking for the module says so
    with pytest.raises(ReferenceError):
        result.module
