"""The proof-path benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A workload is a fixed list of units (a
design's discharge, a core's campaign, a client stream); one pass runs each
once.  The run repeats the units in turn for about ``S`` seconds (at least
one pass), checks every verdict against its known answer, prints a table of
every metric by name and unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: each time is the median over
the run's repeats, each repeat's time taken at nominal host speed
(``speed.py``).  ``--trace 1`` is the separate traced run: one
untraced pass first (the overhead reference), then traced passes; it
reports the per-layer metrics per pass and writes the spans as Chrome
trace-event JSON (open it in Perfetto) under ``.perfbench/``.  The exit
code is 0 when every verdict matched, 1 when one did not, and 2 when the
checkout holds no ``src/repro`` to measure.

Workloads, metrics and the layer each metric should move are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from tracing import Tracer
    from workloads import PassResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("first_verdict_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: the modules every workload imports before its first pass (set-up time)
IMPORTS = (
    "repro.core",
    "repro.dlx",
    "repro.faults",
    "repro.jobs",
    "repro.proofs",
    "repro.service",
)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    label; with eleven samples or fewer, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


@dataclass
class Run:
    """What one run recorded, before it is turned into metrics."""

    #: per unit: its repeats, in order
    samples: dict[str, list[PassResult]]
    #: per unit: (seconds, start, end) of the set-up before each repeat
    setups: dict[str, list[tuple[float, float, float]]]
    #: (seconds, start, end) of the imports and of the one-time set-up
    once: list[tuple[float, float, float]]
    peak_rss_mb: float
    tracer: Tracer | None = None


def timed(step, *args) -> tuple[float, float, float]:
    """Run ``step``; (the seconds it reports, its start, its end)."""
    start = time.perf_counter()
    seconds = step(*args)
    return seconds, start, time.perf_counter()


def repeat_units(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Import the program, set the workload up and repeat its units in
    turn.  Untraced: until the next unit would end after ``seconds``
    (at least one pass).  Traced: one untraced pass, then traced passes
    until the next would end after ``seconds`` (at least one)."""

    def load() -> float:
        started = time.perf_counter()
        for module in IMPORTS:
            importlib.import_module(module)
        return time.perf_counter() - started

    imported = timed(load)
    from layers import TARGETS, import_layers
    from tracing import Tracer
    from workloads import WORKLOADS

    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    workload = WORKLOADS[name](seed, scratch)
    units = workload.units
    run = Run({unit: [] for unit in units}, {unit: [] for unit in units}, [imported], 0.0)
    #: per unit: its last set-up + repeat, to stop before the run overshoots
    last: dict[str, float] = {}
    cycle_s = 0.0
    try:
        run.once.append(timed(workload.setup))
        begin = time.perf_counter()
        for index in itertools.count():
            unit, cycles = units[index % len(units)], index // len(units)
            elapsed = time.perf_counter() - begin
            if trace and unit == units[0]:
                if cycles >= 2 and elapsed + cycle_s > seconds:
                    break
                if cycles == 1:
                    import_layers()
                    run.tracer = Tracer()
                    run.tracer.install(TARGETS)
                    workload.tracer = run.tracer
                cycle_s = -elapsed
            elif not trace and cycles >= 1 and elapsed + last[unit] > seconds:
                break
            run.setups[unit].append(timed(workload.prepare, unit))
            opened = time.perf_counter()
            sample = workload.run_unit(unit)
            sample.window = (opened, time.perf_counter())
            run.samples[unit].append(sample)
            last[unit] = sample.window[1] - run.setups[unit][-1][1]
            if unit == units[-1]:
                cycle_s += sample.window[1] - begin
                if cycles == 0:
                    # memory stays allocated across passes (intern tables,
                    # memos), so the peak is taken over set-up and one
                    # pass, whatever the number of passes in the run
                    run.peak_rss_mb = peak_rss_mb()
    finally:
        if run.tracer is not None:
            run.tracer.restore()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return run


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a workload; returns the result line plus the details the
    table and the benchmark's tests read."""
    from layers import EXACT_COUNTS, PER_LAYER, layer_metrics
    from speed import HostSpeed
    from workloads import PassResult

    host = HostSpeed()
    if not trace:
        host.start()
    try:
        run = repeat_units(name, seed, seconds, trace)
    finally:
        host.stop()
    samples, units = run.samples, list(run.samples)
    everything = [p for unit in units for p in samples[unit]]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    problems = [problem for p in everything for problem in p.problems]
    full = min(len(samples[unit]) for unit in units)
    passes = [PassResult.merge([samples[unit][k] for unit in units]) for k in range(full)]
    details: dict = {
        "problems": problems,
        "digests": sorted({p.digest() for p in passes}),
    }
    tracer = run.tracer
    if tracer is None:
        for p in everything:
            p.slowdown = host.slowdown(*p.window)

        def nominal(step: tuple[float, float, float]) -> float:
            seconds, start, end = step
            return seconds / host.slowdown(start, end)

        def typical(field: str) -> list[float]:
            """Per call or verdict of a pass, in order: the median over the
            unit's repeats of its time at nominal host speed."""
            return [
                statistics.median(value / p.slowdown for value, p in zip(values, repeats))
                for unit in units
                for repeats in [samples[unit]]
                for values in zip(*(getattr(p, field) for p in repeats))
            ]

        wall_s = sum(
            statistics.median(p.wall_s / p.slowdown for p in samples[unit]) for unit in units
        )
        value, label = tail(typical("latencies"))
        metrics = {
            "setup_s": sum(nominal(step) for step in run.once) + sum(
                statistics.median(nominal(step) for step in run.setups[unit])
                for unit in units
            ),
            "wall_s": wall_s,
            "first_verdict_s": statistics.fmean(typical("first_verdicts")),
            "requests_per_s": sum(samples[unit][0].requests for unit in units) / wall_s,
            "latency_p50_s": statistics.median(typical("request_latencies")),
            "latency_tail_s": value,
            "peak_rss_mb": run.peak_rss_mb,
        }
        units_of = dict(END_TO_END)
        details["tail"] = label
        details["raw_wall_s"] = sum(
            statistics.median(p.wall_s for p in samples[unit]) for unit in units
        )
    else:
        traced = passes[1:]
        metrics = layer_metrics(tracer, len(traced))
        coverage = [
            tracer.covered(*p.window) / (p.window[1] - p.window[0])
            for unit in units
            for p in samples[unit][1:]
        ]
        metrics["trace.coverage"] = statistics.median(coverage)
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - passes[0].wall_s
        )
        metrics["trace.spans"] = len(tracer.spans) / len(traced)
        units_of = dict(PER_LAYER)
        details["exact_counts"] = {key: metrics[key] for key in EXACT_COUNTS}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-s{seed}.json"
        trace_path.write_text(
            json.dumps({"traceEvents": tracer.chrome(), "displayTimeUnit": "ms"})
        )
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    details["samples"] = {
        unit: [(p.wall_s, p.slowdown) for p in samples[unit]] for unit in units
    }
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units_of[key]} for key in units_of
        },
    }
    return {"line": line, "details": details}


def table(name: str, result: dict) -> str:
    line, details = result["line"], result["details"]
    rows = [f"perfbench {name}: each unit's repeats, wall seconds / host slowdown"]
    for unit, repeats in details["samples"].items():
        shown = " ".join(f"{wall:.3f}/{slow:.2f}" for wall, slow in repeats)
        rows.append(f"  {unit:<26} x{len(repeats)}  {shown}")
    for key, metric in line["metrics"].items():
        rows.append(f"  {key:<26} {metric['value']:>14.6g} {metric['unit']}")
    if "tail" in details:
        rows.append(f"  latency_tail_s is the {details['tail']} verdict latencies of a pass")
        rows.append(
            f"  {'wall_s at the host speed':<26} {details['raw_wall_s']:>14.6g} s"
            "  (not normalised: the median repeats' wall time)"
        )
        ratio = line["failed"] / line["attempted"] if line["attempted"] else 1.0
        rows.append(
            f"  {'fail_ratio':<26} {ratio:>14.6g} 1"
            f"  ({line['failed']} of {line['attempted']} failed)"
        )
    if "trace_file" in details:
        rows.append(f"  spans written to {details['trace_file']}")
    rows.append(f"  verdict digest {' '.join(details['digests'])}")
    for problem in details["problems"]:
        rows.append(f"  MISS {problem}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="proof-path benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(table(args.workload, result))
    print(json.dumps(result["line"]), flush=True)
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
