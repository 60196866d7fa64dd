"""One simulation backend on the proof path; the interpreter is its oracle.

Every proof-path simulation — the shared obligation trace, the runs of
:mod:`repro.core.consistency` and the absint trace filter — constructs
:class:`repro.hdl.compile.CompiledSimulator`.  The differential tests
rerun the same checks with the reference :class:`repro.hdl.sim.Simulator`
patched back in at those call sites and require identical evidence:
every trace verdict with its method and detail (violation strings
included, via fault-catalog mutants that fail), and every mining result
with its proven set and rejection reasons.  The guard test pins that the
shipped path never constructs the interpreter at all.
"""

from __future__ import annotations

import importlib

import pytest

from repro.absint.mine import mine_invariants
from repro.core.transform import transform
from repro.faults import CORES, generate_mutants, run_campaign
from repro.hdl.sim import Simulator
from repro.jobs import ResultCache, discharge_jobs
from repro.proofs import generate_obligations
from repro.proofs.discharge import build_trace, discharge_trace
from repro.proofs.obligations import ObligationKind

#: the modules whose simulations make up the proof path (imported by
#: name: ``repro.proofs.discharge`` the attribute is a function)
CALL_SITES = tuple(
    importlib.import_module(f"repro.{name}")
    for name in ("proofs.discharge", "core.consistency", "absint.mine")
)


def _install_interpreter(monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Swap the interpreter in at every call site; returns the names of
    the modules it is then constructed for, so a test can tell that the
    oracle really ran."""
    built: list[str] = []

    class Oracle(Simulator):
        def __init__(self, module, state=None) -> None:
            built.append(module.name)
            super().__init__(module, state)

    for site in CALL_SITES:
        monkeypatch.setattr(site, "CompiledSimulator", Oracle)
    return built


def _trace_evidence(pipelined, cycles: int) -> list[tuple[str, str, str, str]]:
    """(checker, status, method, detail) of every trace obligation, run the
    way the engine runs them: one shared trace, each checker on top."""
    obligations = [
        o for o in generate_obligations(pipelined) if o.kind is ObligationKind.TRACE
    ]
    trace = build_trace(pipelined, cycles)
    evidence = []
    for obligation in obligations:
        record = discharge_trace(
            pipelined, obligation, trace=trace, trace_cycles=cycles
        )
        evidence.append(
            (obligation.checker, record.status.value, record.method, record.detail)
        )
    return evidence


def _mining_evidence(pipelined, check: bool) -> tuple[list[str], dict[str, str]]:
    result = mine_invariants(pipelined, check=check)
    return sorted(inv.name for inv in result.proven), result.rejected


def _evidence(core: str, max_per_operator: int | None) -> dict[str, object]:
    """Trace verdicts and mining results of the core and of its mutants
    (mutants are mined unchecked: the trace filter is what simulates)."""
    cycles = CORES[core].trace_cycles
    design = transform(CORES[core].build_machine())
    evidence: dict[str, object] = {
        core: (_trace_evidence(design, cycles), _mining_evidence(design, True))
    }
    for mutant in generate_mutants(core, max_per_operator=max_per_operator):
        pipelined = mutant.build()
        evidence[mutant.mid] = (
            _trace_evidence(pipelined, cycles),
            _mining_evidence(pipelined, False),
        )
    return evidence


@pytest.mark.parametrize(
    ("core", "max_per_operator", "failing_checker"),
    [
        ("toy", None, "consistency"),
        pytest.param("dlx-small", 1, "consistency", marks=pytest.mark.slow),
        pytest.param("dlx-spec", 1, "commit_streams", marks=pytest.mark.slow),
    ],
)
def test_proof_path_matches_interpreter_oracle(
    core, max_per_operator, failing_checker, monkeypatch
):
    shipped = _evidence(core, max_per_operator)
    with monkeypatch.context() as patch:
        built = _install_interpreter(patch)
        oracle = _evidence(core, max_per_operator)
    assert built, "the interpreter was never constructed: stale call sites?"
    assert oracle == shipped

    # the comparison covers violations, not just passing verdicts
    verdicts = [row for traces, _ in shipped.values() for row in traces]
    failures = [row for row in verdicts if row[1] == "failed"]
    assert any(row[0] == failing_checker and row[3] for row in failures)
    assert all(status == "trace-ok" for _, status, _, _ in shipped[core][0])
    rejections = [
        reason for _, (_, rejected) in shipped.values() for reason in rejected.values()
    ]
    assert any(reason.startswith("falsified at trace cycle") for reason in rejections)


def test_proof_path_never_constructs_the_interpreter(monkeypatch, tmp_path):
    def refuse(self, *args, **kwargs) -> None:
        raise AssertionError("the interpreter was constructed on the proof path")

    monkeypatch.setattr(Simulator, "__init__", refuse)

    design = transform(CORES["toy"].build_machine())
    obligations = generate_obligations(design)
    report = discharge_jobs(
        design, obligations, jobs=1, cache=ResultCache(tmp_path / "cache")
    )
    assert len(report.outcomes) == len(obligations)
    assert {o.record.status.value for o in report.outcomes} <= {"proved", "trace-ok"}

    campaign = run_campaign(cores=["toy"])
    assert campaign.baseline_clean == {"toy": True}
    assert campaign.survivors == [], campaign.format_text()
    assert campaign.results
