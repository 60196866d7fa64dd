"""Seeded inputs: the only thing the benchmark's seed decides.

Every generated input is derived from ``random.Random(seed)`` alone, so one
seed always yields the same programs, request mix and operator order.  The
program under test receives only these inputs.

The random DLX programs keep one fixed instruction skeleton and draw the
registers, immediates, memory offsets and ALU operations from the seed.
The skeleton pins how much work a program costs the proof path (state
size, obligation count, invariant-mining candidates), so a different seed
changes the program text but neither the known answers nor, beyond noise,
the timings.
"""

from __future__ import annotations

import random

#: data memory of every generated program: 2**4 words (the formal engines
#: get much slower at the assembler's default of 2**6)
DMEM_BITS = 4

_ALU = ("add", "sub", "and", "or", "xor", "slt")
_ALU_IMM = ("addi", "andi", "ori", "xori")


def dlx_program(rng: random.Random) -> str:
    """One random straight-line DLX program with a short forward branch,
    as assembly source ending in the halt loop."""
    regs = rng.sample(range(1, 8), 5)
    a, b, c, d, e = (f"r{r}" for r in regs)
    words = rng.sample(range(1 << DMEM_BITS), 3)
    off = [4 * w for w in words]
    # the fixed preamble sets every register-field and immediate bit the
    # random part can set, so the ROM's known-bits candidates (and with
    # them the invariant-mining work) are the same for every seed
    lines = [
        "        add  r7, r7, r7",
        "        xori r7, r7, 0xffff",
        f"        addi {a}, r0, {rng.randrange(1, 256)}",
        f"        addi {b}, r0, {rng.randrange(1, 256)}",
        f"        {rng.choice(_ALU)}  {c}, {a}, {b}",
        f"        sw   {off[0]}(r0), {c}",
        f"        lw   {d}, {off[1]}(r0)",
        f"        {rng.choice(_ALU_IMM)} {e}, {d}, {rng.randrange(256)}",
        f"        beqz {e}, skip",
        "        nop",
        f"        {rng.choice(_ALU)}  {a}, {e}, {c}",
        "skip:",
        f"        sw   {off[2]}(r0), {a}",
        "halt:   j    halt",
        "        nop",
    ]
    return "\n".join(lines) + "\n"


def programs(seed: int, count: int, stream: str) -> list[str]:
    """``count`` distinct programs for one workload; ``stream`` separates
    the workloads so they never share a program for the same seed."""
    rng = random.Random(f"{stream}:{seed}")
    out: list[str] = []
    while len(out) < count:
        source = dlx_program(rng)
        if source not in out:
            out.append(source)
    return out


def operator_order(seed: int, operators: list[str]) -> list[str]:
    """The fault campaign's operator list in a seeded order.  Order moves
    work around inside the campaign; the kill set cannot depend on it."""
    order = list(operators)
    random.Random(f"faults:{seed}").shuffle(order)
    return order
