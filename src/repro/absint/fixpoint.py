"""Fixpoint abstract interpretation of a sequential netlist.

Starting from the reset state (every register at its ``init`` value,
memories at their ``init`` contents), :func:`analyze` repeatedly pushes
the abstract register state through one cycle of the combinational
semantics and *accumulates* (joins) the result into the state, so the
final map over-approximates every reachable state:

``state'[r] ⊇ state[r] ∪ next_r(state)``

Writable memories are summarised by a single abstract word (the join of
the initial contents and everything ever written); ROMs — memories with
no write ports, which :class:`repro.formal.bmc.TransitionSystem` also
treats as constant — keep their exact contents and reads through a
sufficiently-narrow abstract address are refined by case-splitting on
the concrete addresses.

Widening (interval bounds jump to the extremes once they keep moving)
plus the finite known-bits lattice force termination; ``max_iterations``
is a pure backstop that blows still-changing entries to ⊤, which is
always sound.

The iteration is change-driven.  The first step values every node of
the DAG; after that, a step re-evaluates only the ``RegRead`` and
``MemRead`` leaves of the registers and memories whose abstract state
moved (by join, widening or the backstop), and then, children first,
the parents of each node whose value changed.  Every transfer is a pure
function of its children's values and the leaf state, so a node whose
inputs are unchanged keeps the value a full re-evaluation would give it
again: the result — state, node values, iteration count, widening flag
— is the one of re-evaluating the whole DAG on every step, for a
fraction of the transfers.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field

from ..hdl import expr as E
from ..hdl.bitvec import mask
from ..hdl.netlist import Module
from .domain import AbsValue, abs_transfer


def _concrete_values(value: AbsValue, limit: int) -> list[int] | None:
    """All concrete values in the concretisation, or ``None`` if there
    could be more than ``limit`` of them."""
    span = value.hi - value.lo + 1
    if span <= limit:
        return [
            x
            for x in range(value.lo, value.hi + 1)
            if (x & value.known) == value.value
        ]
    unknown = mask(value.width) & ~value.known
    nbits = bin(unknown).count("1")
    if nbits < 31 and (1 << nbits) <= limit:
        positions = [i for i in range(value.width) if (unknown >> i) & 1]
        out = []
        for combo in range(1 << nbits):
            x = value.value
            for j, pos in enumerate(positions):
                if (combo >> j) & 1:
                    x |= 1 << pos
            if value.lo <= x <= value.hi:
                out.append(x)
        return out
    return None


def _memory_summary(memory, include_unwritten: bool) -> AbsValue:
    """Join of a memory's initial contents (plus 0 for unspecified words)."""
    width = memory.data_width
    summary: AbsValue | None = None
    if include_unwritten and len(memory.init) < memory.size:
        summary = AbsValue.const(width, 0)
    for word in memory.init.values():
        value = AbsValue.const(width, word)
        summary = value if summary is None else summary.join(value)
        if summary.is_top():
            break
    return summary if summary is not None else AbsValue.const(width, 0)


def _environments(
    module: Module,
    state: dict[str, AbsValue],
    mem_summary: dict[str, AbsValue],
    rom: dict[str, bool],
    values: dict[int, AbsValue],
    rom_case_limit: int,
):
    """The register/memory environments of one abstract evaluation,
    closed over a (possibly still-moving) abstract state."""

    def reg_env(node: E.Expr) -> AbsValue:
        current = state.get(node.name)  # type: ignore[attr-defined]
        if current is None or current.width != node.width:
            return AbsValue.top(node.width)
        return current

    def mem_env(node: E.Expr) -> AbsValue:
        memory = module.memories.get(node.mem)  # type: ignore[attr-defined]
        if memory is None or memory.data_width != node.width:
            return AbsValue.top(node.width)
        summary = mem_summary[memory.name]
        if rom[memory.name]:
            # case-split a narrow abstract address over the concrete words
            addrs = _concrete_values(values[id(node.addr)], rom_case_limit)
            if addrs is not None and addrs:
                out: AbsValue | None = None
                for a in addrs:
                    word = AbsValue.const(
                        memory.data_width, memory.init.get(a, 0)
                    )
                    out = word if out is None else out.join(word)
                    if out.is_top():
                        break
                return out if out is not None else summary
        return summary

    return reg_env, mem_env


@dataclass
class FixpointResult:
    """Stable abstract state of a module.

    ``registers`` maps register names to facts true in every reachable
    state; ``memories`` maps memory names to a single-word summary of
    all reachable contents; ``values`` maps ``id(node)`` to the abstract
    value of every combinational node in the final (stable) evaluation.

    :meth:`eval` extends ``values`` on demand to expressions outside the
    module's roots, memoised on interned node ids — the cross-obligation
    CSE that lets candidate properties and sibling obligations reuse each
    other's transfer computations.

    The result holds its module only weakly (:attr:`module`), so a memo
    of results keyed weakly on the module (:func:`shared_fixpoint`) lets
    go of both together.  The nodes behind every key of ``values`` are
    pinned instead: expression nodes do not reference their module, and
    a pinned id can never be recycled for another node.
    """

    module_ref: "weakref.ref[Module]"
    registers: dict[str, AbsValue]
    memories: dict[str, AbsValue]
    values: dict[int, AbsValue]
    iterations: int
    widened: bool
    rom_case_limit: int = 64
    # every node with an entry in ``values``: keeps the ids (the memo
    # keys) from being recycled by the allocator while this result lives
    _pinned: list = field(default_factory=list, repr=False)

    @property
    def module(self) -> Module:
        """The analysed module; raises once it has been collected."""
        module = self.module_ref()
        if module is None:
            raise ReferenceError("the analysed module no longer exists")
        return module

    def eval(self, expression: E.Expr) -> AbsValue:
        """Abstract value of an arbitrary expression in the stable state.

        Transfers are memoised in ``values`` keyed on interned node ids:
        any subterm hash-consed together with a previously evaluated
        expression — another candidate invariant, a sibling obligation's
        property — is a dictionary hit, not a recomputation.  The walk
        stops at memoised nodes: a memoised node's whole subtree already
        has values, so only the nodes new to this result are visited.
        """
        values = self.values
        value = values.get(id(expression))
        if value is not None:
            return value
        module = self.module
        rom = {
            name: not memory.write_ports
            for name, memory in module.memories.items()
        }
        reg_env, mem_env = _environments(
            module,
            self.registers,
            self.memories,
            rom,
            values,
            self.rom_case_limit,
        )

        def lookup(n: E.Expr) -> AbsValue:
            return values[id(n)]

        for node in E.walk_new([expression], values):
            values[id(node)] = abs_transfer(
                node, lookup, reg_env=reg_env, mem_env=mem_env
            )
            self._pinned.append(node)
        return values[id(expression)]


# one fixpoint per (module, analysis knobs), shared across every caller
# holding the same module alive — sibling obligations, repeated mining
# runs, the lint semantic pass.  Weak on the module (and the results hold
# it weakly too) so dropping the netlist drops the analysis.
_SHARED_FIXPOINTS: "weakref.WeakKeyDictionary[Module, dict]" = (
    weakref.WeakKeyDictionary()
)


def shared_fixpoint(
    module: Module,
    *,
    widen_after: int = 3,
    max_iterations: int = 50,
    rom_case_limit: int = 64,
) -> FixpointResult:
    """Memoised :func:`analyze`.

    The fixpoint of a module is a pure function of the netlist and the
    analysis knobs, so everyone discharging obligations over the same
    hash-consed module can share one — including its ever-growing
    :meth:`FixpointResult.eval` memo, which is what makes invariant
    mining reuse transfer computations across sibling obligations.
    """
    per_module = _SHARED_FIXPOINTS.get(module)
    if per_module is None:
        per_module = {}
        _SHARED_FIXPOINTS[module] = per_module
    key = (widen_after, max_iterations, rom_case_limit)
    result = per_module.get(key)
    if result is None:
        result = analyze(
            module,
            widen_after=widen_after,
            max_iterations=max_iterations,
            rom_case_limit=rom_case_limit,
        )
        per_module[key] = result
    return result


def analyze(
    module: Module,
    *,
    widen_after: int = 3,
    max_iterations: int = 50,
    rom_case_limit: int = 64,
) -> FixpointResult:
    """Run the fixpoint interpreter; see the module docstring.

    Each iteration is one Jacobi step: the nodes are valued over the
    abstract state of the previous step, then every register and memory
    joins (past ``widen_after`` iterations: widens) its next value into
    the state, in declaration order.  Only the first step values every
    node; later steps re-evaluate the nodes downstream of what moved,
    children first, and stop propagating at a node whose value did not
    change.  Nothing else differs from re-evaluating the whole DAG each
    step, so the result is the same, field for field.
    """
    state: dict[str, AbsValue] = {
        name: AbsValue.const(reg.width, reg.init)
        for name, reg in module.registers.items()
    }
    mem_summary: dict[str, AbsValue] = {}
    rom: dict[str, bool] = {}
    for name, memory in module.memories.items():
        rom[name] = not memory.write_ports
        mem_summary[name] = _memory_summary(memory, include_unwritten=True)

    order = E.walk(module.roots())
    values: dict[int, AbsValue] = {}
    reg_env, mem_env = _environments(
        module, state, mem_summary, rom, values, rom_case_limit
    )

    def lookup(n: E.Expr) -> AbsValue:
        return values[id(n)]

    # the change-propagation index: walk positions of each node's
    # parents, and of the leaves reading each register and memory
    position = {id(node): index for index, node in enumerate(order)}
    parents: list[list[int]] = [[] for _ in order]
    reg_leaves: dict[str, list[int]] = {}
    mem_leaves: dict[str, list[int]] = {}
    for index, node in enumerate(order):
        for child in node.children():
            users = parents[position[id(child)]]
            if not users or users[-1] != index:
                users.append(index)
        if isinstance(node, E.RegRead):
            reg_leaves.setdefault(node.name, []).append(index)
        elif isinstance(node, E.MemRead):
            mem_leaves.setdefault(node.mem, []).append(index)

    dirty: list[int] = list(range(len(order)))
    iterations = 0
    widened = False
    while True:
        iterations += 1
        # re-evaluate the dirty nodes in walk (children-first) order
        heapq.heapify(dirty)
        queued = set(dirty)
        while dirty:
            index = heapq.heappop(dirty)
            node = order[index]
            value = abs_transfer(
                node, lookup, reg_env=reg_env, mem_env=mem_env
            )
            if values.get(id(node)) == value:
                continue
            values[id(node)] = value
            for parent in parents[index]:
                if parent not in queued:
                    queued.add(parent)
                    heapq.heappush(dirty, parent)

        changed: set[str] = set()
        changed_mems: set[str] = set()
        for name, reg in module.registers.items():
            enable = values[id(reg.enable)]
            if enable.hi == 0:
                continue  # enable provably 0: the register never moves
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
                enable = values[id(port.enable)]
                if enable.hi == 0:
                    continue
                new = new.join(values[id(port.data)])
            if new != old:
                mem_summary[name] = new
                changed_mems.add(name)
        if not changed and not changed_mems:
            break
        if iterations >= max_iterations:
            # backstop: widen everything still moving straight to top
            for name in changed:
                state[name] = AbsValue.top(module.registers[name].width)
            for name in changed_mems:
                mem_summary[name] = AbsValue.top(
                    module.memories[name].data_width
                )
            widened = True
        for name in changed:
            dirty.extend(reg_leaves.get(name, ()))
        for name in changed_mems:
            dirty.extend(mem_leaves.get(name, ()))

    return FixpointResult(
        module_ref=weakref.ref(module),
        registers=state,
        memories=mem_summary,
        values=values,
        iterations=iterations,
        widened=widened,
        rom_case_limit=rom_case_limit,
        _pinned=order,
    )
