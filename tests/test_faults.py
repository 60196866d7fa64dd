"""Mutation campaign over the verifier (repro.faults).

The fast tier runs the complete toy-core campaign — every mutant must be
killed by lint, trace or formal checking, otherwise the verifier has a
soundness gap.  The DLX-scale campaigns are slow-marked.  Alongside the
campaign, targeted unit tests pin the mutation operators themselves and
the near-miss mutants that historically required workload or catalog
fixes to kill.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.transform import transform
from repro.faults import (
    CORES,
    OPERATORS,
    DetectParams,
    combine_modules,
    detect,
    generate_mutants,
    run_campaign,
    run_mutant,
)
from repro.faults.catalog import CoreSpec
from repro.faults.operators import (
    first_mux,
    force_net,
    invert_net,
    rewrite_module,
    swap_mux_arms,
    with_register,
)
from repro.hdl import expr as E


@pytest.fixture(scope="module")
def toy_spec() -> CoreSpec:
    return CORES["toy"]


@pytest.fixture(scope="module")
def toy_baseline(toy_spec):
    return transform(toy_spec.build_machine())


# ---------------------------------------------------------------------------
# operators


def test_force_net_rewrites_every_occurrence(toy_baseline):
    reg = next(iter(toy_baseline.module.registers.values()))
    mutated = force_net(toy_baseline, reg.next, 0)
    assert mutated is not toy_baseline
    assert mutated.module is not toy_baseline.module
    # the original machine is untouched (operators are non-destructive)
    toy_baseline.module.validate()
    mutated.module.validate()


def test_invert_net_requires_single_bit(toy_baseline):
    wide = next(
        reg.next
        for reg in toy_baseline.module.registers.values()
        if reg.next.width > 1
    )
    with pytest.raises(ValueError):
        invert_net(toy_baseline, wide)


def test_rewrite_module_width_check(toy_baseline):
    reg = next(iter(toy_baseline.module.registers.values()))
    with pytest.raises(ValueError):
        rewrite_module(
            toy_baseline, [(reg.next, E.const(reg.next.width + 1, 0))]
        )


def test_with_register_targets_one_register(toy_baseline):
    name = next(iter(toy_baseline.module.registers))
    reg = toy_baseline.module.registers[name]
    mutated = with_register(
        toy_baseline, name, next=E.const(reg.width, 0)
    )
    assert isinstance(mutated.module.registers[name].next, E.Const)
    # every other register keeps its original next expression
    for other, mreg in mutated.module.registers.items():
        if other != name:
            assert mreg.next is toy_baseline.module.registers[other].next


def test_swap_mux_arms_flips_selection(toy_baseline):
    for reg in toy_baseline.module.registers.values():
        mux = first_mux(reg.next)
        if mux is not None:
            break
    else:
        pytest.skip("no mux in toy netlist")
    mutated = swap_mux_arms(toy_baseline, mux)
    swapped = first_mux(mutated.module.registers[reg.name].next)
    assert swapped is not None
    assert swapped.then.width == mux.then.width


# ---------------------------------------------------------------------------
# catalog


def test_generate_mutants_rejects_unknown_operator():
    with pytest.raises(ValueError, match="unknown mutation operator"):
        generate_mutants("toy", operators=["no-such-fault"])


def test_generate_mutants_cap_per_operator():
    capped = generate_mutants("toy", max_per_operator=1)
    by_operator: dict[str, int] = {}
    for mutant in capped:
        by_operator[mutant.operator] = by_operator.get(mutant.operator, 0) + 1
    assert all(count == 1 for count in by_operator.values())


def test_mutant_ids_unique_and_buildable():
    mutants = generate_mutants("toy", max_per_operator=2)
    mids = [mutant.mid for mutant in mutants]
    assert len(mids) == len(set(mids))
    # every mutant either builds a valid netlist or raises (a build kill)
    for mutant in mutants[:6]:
        try:
            mutated = mutant.build()
        except Exception:
            continue
        mutated.module.validate()


# ---------------------------------------------------------------------------
# detection ladder


def test_baseline_is_clean(toy_baseline, toy_spec):
    assert detect(toy_baseline, toy_spec.trace_cycles) == ("", "")


def test_early_valid_mutant_killed(toy_spec):
    """Regression: forcing a forwarding valid bit high breaks the load-use
    interlock and must be caught.  (The machine-level 'move the annotation
    a stage earlier' variant is *equivalent* — per-stage write enables mask
    it — which is why the catalog mutates the valid chain directly.)"""
    mutants = [
        m
        for m in generate_mutants(toy_spec, operators=["early-valid"])
    ]
    assert mutants, "toy catalog must enumerate early-valid sites"
    for mutant in mutants:
        result = run_mutant(mutant, toy_spec.trace_cycles)
        assert result.detected, f"{mutant.mid} survived"


def test_drop_forwarding_killed_by_lint(toy_spec):
    """Deleting a forwarding network from the transform metadata (claimed
    coverage the hardware never got) is a lint kill, not a trace kill."""
    mutants = generate_mutants(toy_spec, operators=["drop-forwarding"])
    assert mutants
    for mutant in mutants:
        result = run_mutant(mutant, toy_spec.trace_cycles)
        assert result.detected
        assert result.detector == "lint"


# ---------------------------------------------------------------------------
# campaigns


def test_toy_campaign_no_survivors():
    """The tentpole acceptance check, fast tier: every toy-core mutant is
    detected.  A survivor is a verifier soundness gap and a hard failure."""
    report = run_campaign(cores=["toy"])
    assert report.baseline_clean == {"toy": True}
    assert report.survivors == [], report.format_text()
    assert report.ok
    assert report.score == 1.0
    # coverage sanity: the campaign is not vacuous and uses several operators
    assert len(report.results) >= 25
    assert len(report.by_operator()) >= 10


def test_campaign_report_roundtrips_to_json():
    report = run_campaign(
        cores=["toy"], operators=["invert-we", "swap-mux"]
    )
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["mutants"] == len(report.results)
    assert payload["survivors"] == []
    assert set(payload["by_operator"]) == {"invert-we", "swap-mux"}
    assert "score" in payload and "wall_seconds" in payload
    text = report.format_text()
    assert "0 surviving" in text


def test_campaign_respects_operator_selection():
    report = run_campaign(cores=["toy"], operators=["stuck-full"])
    assert {result.operator for result in report.results} == {"stuck-full"}
    assert report.ok


@pytest.mark.slow
def test_dlx_small_campaign_no_survivors():
    """DLX-scale acceptance: the hazard-torture workload (RAW distances
    1-3 on both operand positions, load-use, store/load round-trips,
    sub-word accesses, branches and jumps) kills the full catalog."""
    report = run_campaign(cores=["dlx-small"])
    assert report.baseline_clean == {"dlx-small": True}
    assert report.survivors == [], report.format_text()
    assert len(report.results) >= 50


@pytest.mark.slow
def test_dlx_spec_campaign_no_survivors():
    """The speculative core validates the rollback-tag operators
    (drop-rollback / shift-rollback) on top of the shared catalog."""
    report = run_campaign(cores=["dlx-spec"])
    assert report.survivors == [], report.format_text()
    operators = {result.operator for result in report.results}
    assert "drop-rollback" in operators
    assert "shift-rollback" in operators


# ---------------------------------------------------------------------------
# lockstep (bit-parallel) trace rung


def _campaign_verdicts(report):
    return [(r.mid, r.detector, r.detail) for r in report.results]


def test_combine_modules_lane_parity(toy_baseline, toy_spec):
    """Every lane of the combined module simulates exactly the module it
    selects: lane 0 the golden design, lane k mutant k."""
    from repro.hdl.batchsim import BatchSimulator
    from repro.hdl.sim import Simulator

    mutants = []
    for mutant in generate_mutants(toy_spec):
        try:
            mutants.append(mutant.build())
        except Exception:
            continue
        if len(mutants) == 6:
            break
    combined, lane_states = combine_modules(
        toy_baseline.module, [m.module for m in mutants]
    )
    lanes = len(mutants) + 1
    batch = BatchSimulator(combined, lanes=lanes, lane_states=lane_states)
    # a fresh transform as the lane-0 reference: the fixture module may
    # carry proof instrumentation, which the combination leaves out
    golden = transform(toy_spec.build_machine())
    references = [Simulator(golden.module)] + [
        Simulator(m.module) for m in mutants
    ]
    sel = list(range(lanes))
    for cycle in range(40):
        packed = batch.step({"__mutsel__": sel})
        for lane, reference in enumerate(references):
            expected = reference.step({})
            for name, value in expected.items():
                assert batch.slot(packed[name], lane) == value, (
                    f"lane {lane} cycle {cycle} probe {name}"
                )
    for lane, reference in enumerate(references):
        view = batch.lane(lane)
        assert view.state.registers == reference.state.registers
        assert view.state.memories == reference.state.memories


def test_combine_modules_rejects_mutsel_collision(toy_baseline):
    from repro.faults.lockstep import MUTSEL, LockstepIncompatible

    module = toy_baseline.module
    clashing = type(module)(module.name)
    clashing.add_input(MUTSEL, 1)
    with pytest.raises(LockstepIncompatible):
        combine_modules(clashing, [clashing])


def test_lockstep_campaign_matches_per_vector_toy():
    """The batched trace rung must not change a single verdict: same
    kills, same detector attribution, same detail strings."""
    per_vector = run_campaign(cores=["toy"], params=DetectParams(lanes=1))
    lockstep = run_campaign(cores=["toy"], params=DetectParams(lanes=64))
    assert lockstep.baseline_clean == {"toy": True}
    assert _campaign_verdicts(lockstep) == _campaign_verdicts(per_vector)
    assert lockstep.survivors == [], lockstep.format_text()


def test_lockstep_campaign_chunks_smaller_than_catalog():
    """lanes smaller than the mutant count exercises the chunked path
    (several lockstep runs per core) without changing verdicts."""
    operators = ["invert-we", "stuck-full", "weaken-dhaz", "drop-hit"]
    per_vector = run_campaign(cores=["toy"], operators=operators)
    lockstep = run_campaign(
        cores=["toy"], operators=operators, params=DetectParams(lanes=4)
    )
    assert _campaign_verdicts(lockstep) == _campaign_verdicts(per_vector)
    assert lockstep.ok


def test_faults_cli_lanes_knob(tmp_path, capsys):
    """`repro faults --lanes` reaches DetectParams; the default comes
    from the engine's lane width and stays out of proof fingerprints
    (lane count is semantics-preserving)."""
    from repro.cli import main as cli_main
    from repro.jobs import EngineParams

    assert EngineParams().lanes == 64
    assert "lanes" not in EngineParams().invariant_params()
    out = tmp_path / "faults.json"
    code = cli_main(
        [
            "faults",
            "--core",
            "toy",
            "--operator",
            "invert-we",
            "--lanes",
            "4",
            "--quiet",
            "--json",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True and payload["mutants"] >= 1


@pytest.mark.slow
def test_lockstep_campaign_full_equivalence():
    """Acceptance: toy + dlx-small through the batched rung — the full
    118-mutant catalog, kill set identical to per-vector, 0 survivors."""
    cores = ["toy", "dlx-small"]
    per_vector = run_campaign(cores=cores, params=DetectParams(lanes=1))
    lockstep = run_campaign(cores=cores, params=DetectParams(lanes=64))
    assert lockstep.baseline_clean == {"toy": True, "dlx-small": True}
    assert _campaign_verdicts(lockstep) == _campaign_verdicts(per_vector)
    assert len(lockstep.results) == 118
    assert lockstep.killed == 118
    assert lockstep.survivors == [], lockstep.format_text()


# the (mid, detector, detail) list of every mutant, as the campaign
# reported it before static detection was made change-driven
PINNED_VERDICTS = pathlib.Path(__file__).parent / "data" / "campaign_verdicts.json"


@pytest.mark.parametrize(
    "core",
    ["toy", pytest.param("dlx-small", marks=pytest.mark.slow)],
)
def test_campaign_verdicts_pinned(core):
    """Every kill, its detector and its detail string, verbatim."""
    expected = json.loads(PINNED_VERDICTS.read_text())[core]
    report = run_campaign(cores=[core], params=DetectParams(lanes=64))
    assert [list(v) for v in _campaign_verdicts(report)] == expected


def test_detect_params_tighten_budget(toy_baseline, toy_spec):
    """A tiny conflict budget must degrade to unknown/no-kill gracefully,
    never crash — the campaign treats UNKNOWN as *not* detected."""
    params = DetectParams(max_conflicts=1)
    detector, _detail = detect(toy_baseline, toy_spec.trace_cycles, params)
    assert detector in ("", "formal", "trace", "lint")


def test_operator_registry_is_stable():
    """The CLI and CI reports key on operator names; renames are breaking."""
    assert set(OPERATORS) >= {
        "stuck-data",
        "invert-we",
        "always-we",
        "swap-mux",
        "invert-enable",
        "stuck-full",
        "drop-hit",
        "swap-hit-values",
        "weaken-dhaz",
        "weaken-stall",
        "drop-rollback",
        "shift-rollback",
        "drop-forwarding",
        "early-valid",
    }
