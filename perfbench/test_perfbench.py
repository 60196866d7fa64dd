"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench -q

They run each workload for one pass, untraced and traced, so they take a
few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from speed import NOMINAL_PROBE_S, SENSITIVITY, HostSpeed  # noqa: E402
from tracing import Target, Tracer, wrappers_left  # noqa: E402
from workloads import WORKLOADS, build_design  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs() -> dict:
    """One untraced and one traced single-pass run of every workload."""
    return {
        (name, trace): run.measure(name, SEED, 0, trace)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_verdicts_match(runs: dict, name: str) -> None:
    plain, traced = runs[(name, False)], runs[(name, True)]
    assert plain["line"]["correct"], plain["details"]["problems"]
    assert traced["line"]["correct"], traced["details"]["problems"]
    assert len(plain["details"]["digests"]) == 1
    assert plain["details"]["digests"] == traced["details"]["digests"]


def test_every_wrapper_restored(runs: dict) -> None:
    assert runs  # the traced runs above have installed and restored
    assert wrappers_left() == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_unit(runs: dict, name: str) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        emitted = runs[(name, trace)]["line"]["metrics"]
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in emitted.items()} == declared
        for metric in emitted.values():
            assert isinstance(metric["value"], float | int)
    for metric in SPEC["end_to_end"]:
        assert runs[(name, False)]["line"]["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(runs: dict, name: str) -> None:
    again = run.measure(name, SEED, 0, True)
    first = runs[(name, True)]["details"]["exact_counts"]
    assert again["details"]["exact_counts"] == first


def test_seed_changes_programs_not_answers(runs: dict) -> None:
    for stream, count in (("designs", 1), ("service", 2)):
        assert inputs.programs(1, count, stream) != inputs.programs(2, count, stream)
    assert inputs.operator_order(1, list("abcdef")) != inputs.operator_order(2, list("abcdef"))

    from repro import jobs, proofs

    answers = []
    for seed in (SEED, SEED + 1):
        (program,) = inputs.programs(seed, 1, "designs")
        pipelined = build_design("random-dlx", program)
        report = jobs.discharge_jobs(
            pipelined, proofs.generate_obligations(pipelined), jobs=1, cache=None
        )
        answers.append(sorted((r.oid, r.status.value) for r in report.records))
    assert answers[0] == answers[1]
    assert {status for _oid, status in answers[0]} <= {"proved", "trace-ok"}

    # the campaign's kill set is order-independent: same digest, other seed
    other = run.measure("fault-campaign", SEED + 1, 0, False)
    assert other["line"]["correct"]
    assert other["details"]["digests"] == runs[("fault-campaign", False)]["details"]["digests"]


def test_self_time_excludes_nested_spans() -> None:
    def inner() -> None:
        time.sleep(0.02)

    tracer = Tracer()
    inner_w = tracer.wrap(inner, "t.inner")
    outer_w = tracer.wrap(lambda: (time.sleep(0.01), inner_w()), "t.outer")
    outer_w()
    seconds, calls = tracer.self_times()
    assert calls == {"t.inner": 1, "t.outer": 1}
    assert 0.008 < seconds["t.outer"] < 0.018
    assert seconds["t.inner"] >= 0.019
    (inner_span,) = [s for s in tracer.spans if s[1] == "t.inner"]
    (outer_span,) = [s for s in tracer.spans if s[1] == "t.outer"]
    assert inner_span[4] == outer_span[0] and outer_span[4] is None


def test_install_wraps_every_alias_and_restores() -> None:
    import repro.jobs
    import repro.jobs.engine
    import repro.service.server

    original = repro.jobs.engine.discharge_jobs
    tracer = Tracer()
    tracer.install(
        [
            Target("jobs.engine", "repro.jobs.engine:discharge_jobs"),
            Target("formal.sat", "repro.formal.sat:Solver.solve"),
        ]
    )
    try:
        assert repro.jobs.discharge_jobs is repro.jobs.engine.discharge_jobs
        assert repro.service.server.discharge_jobs is repro.jobs.engine.discharge_jobs
        assert repro.jobs.engine.discharge_jobs is not original
        assert wrappers_left()
    finally:
        tracer.restore()
    assert repro.jobs.engine.discharge_jobs is original
    assert wrappers_left() == []


def test_slowdown_follows_mean_probe_over_nominal() -> None:
    host = HostSpeed()
    host.readings = [(1.0, NOMINAL_PROBE_S), (2.0, 2 * NOMINAL_PROBE_S), (5.0, 3 * NOMINAL_PROBE_S)]
    assert host.slowdown(0.5, 2.5) == pytest.approx(1.5**SENSITIVITY)
    # no probe inside: the nearest to the window's middle
    assert host.slowdown(3.9, 4.1) == pytest.approx(3.0**SENSITIVITY)


def test_host_speed_probes_and_stops() -> None:
    host = HostSpeed(period=0.01)
    host.start()
    time.sleep(0.2)
    host.stop()
    assert host.readings and all(cpu > 0 for _at, cpu in host.readings)
    assert not host._thread.is_alive()


def test_tail_is_highest_percentile_with_ten_beyond() -> None:
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label == "p90.0 of 100"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cold-cores",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode not in (0, None)
    assert '"correct"' not in done.stdout
