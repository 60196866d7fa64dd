"""The layers of the proof path, the functions the traced run wraps in
each, and the per-layer metrics derived from their spans.

Span names are ``<layer>.<what>``; a metric ``<span>_s`` is the summed
self time of that span per traced pass, ``<span>_calls`` its call count.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil

from tracing import Target, Tracer


def design_id(machine_spec: dict) -> str:
    """The id shared by every span of one service design: a digest of the
    canonical machine spec, computable on both sides of the socket."""
    body = json.dumps(machine_spec, sort_keys=True, separators=(",", ":"))
    return "svc-" + hashlib.sha256(body.encode()).hexdigest()[:10]


def _sat(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("formal.sat_conflicts", result.conflicts)


def _mine(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("absint.mine_cached", int(result.from_cache))
    tracer.count("absint.proven", len(result.proven))
    tracer.count("absint.candidates", result.candidates)


def _is_content_cache(args) -> bool:
    # FamilyCache subclasses ResultCache; its lookups are the family
    # store's, not the content cache's
    return type(args[0]).__name__ == "ResultCache"


def _cache_span(kind: str):
    def name(args) -> str:
        return f"jobs.cache_{kind}" if _is_content_cache(args) else f"analysis.store_{kind}"

    return name


def _cache_get(tracer: Tracer, args, kwargs, result) -> None:
    if _is_content_cache(args):
        tracer.count("jobs.cache_hits" if result is not None else "jobs.cache_misses")


def _engine(tracer: Tracer, args, kwargs, report) -> None:
    tracer.count("jobs.busy_s", sum(report.worker_seconds.values()))
    tracer.count("jobs.capacity_s", report.jobs * report.wall_seconds)
    tracer.count("jobs.crashes", report.crashes)
    tracer.count("jobs.retries", report.retries)


def _lookup(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("analysis.served")


def _enter_design(tracer: Tracer, args) -> None:
    # the server builds each job's machine right before solving it: from
    # here on, spans on this executor thread belong to that design
    tracer.set_design(design_id(args[0]))


TARGETS: list[Target] = [
    Target("core.transform", "repro.core.transform:transform"),
    Target("proofs.generate", "repro.proofs.obligations:generate_obligations"),
    Target("proofs.fingerprint", "repro.proofs.obligations:Obligation.fingerprint"),
    Target("proofs.group", "repro.proofs.discharge:discharge_invariant_group"),
    Target("proofs.trace", "repro.proofs.discharge:build_trace"),
    Target("proofs.trace", "repro.proofs.discharge:discharge_trace"),
    Target("formal.ts_build", "repro.formal.bmc:TransitionSystem.from_module"),
    Target("formal.coi", "repro.formal.bmc:TransitionSystem.cone_of_influence"),
    Target("formal.blast", "repro.formal.aig:BitBlaster.blast"),
    Target("formal.blast", "repro.formal.bmc:Unroller.blast_in_frame"),
    Target("formal.sat", "repro.formal.sat:Solver.solve", observe=_sat),
    Target("hdl.interp", "repro.hdl.sim:Simulator.step"),
    Target("hdl.compiled", "repro.hdl.compile:CompiledSimulator.step"),
    Target("hdl.batch_compile", "repro.hdl.batchsim:compile_batch"),
    Target("hdl.batch_run", "repro.hdl.batchsim:BatchSimulator.step"),
    Target("absint.mine", "repro.absint.mine:mine_invariants", observe=_mine),
    Target("absint.inject", "repro.absint.mine:inject_invariants"),
    Target("absint.fixpoint", "repro.absint.fixpoint:analyze"),
    Target("lint.semantic", "repro.lint.semantic:lint_semantic"),
    Target("lint.pipeline", "repro.lint.registry:lint_pipeline"),
    Target("lint.taint", "repro.lint.taint:lint_taint"),
    Target(_cache_span("get"), "repro.jobs.cache:ResultCache.get", observe=_cache_get),
    Target(_cache_span("put"), "repro.jobs.cache:ResultCache.put"),
    Target(_cache_span("scan"), "repro.jobs.cache:ResultCache.__len__"),
    Target("jobs.engine", "repro.jobs.engine:discharge_jobs", observe=_engine),
    Target("analysis.context", "repro.analysis.family:family_context"),
    Target("analysis.lookup", "repro.analysis.family:FamilyContext.lookup", observe=_lookup),
    Target("analysis.seed", "repro.analysis.family:FamilyContext.seed"),
    Target("faults.generate", "repro.faults.catalog:generate_mutants"),
    Target("faults.static", "repro.faults.campaign:detect_static"),
    Target("faults.formal", "repro.faults.campaign:detect_formal"),
    Target("faults.lockstep", "repro.faults.campaign:run_mutants_lockstep"),
    # the server's own engine call: one span per solved job key, wrapped
    # around the jobs.engine span installed above
    Target("service.solve", "repro.service.server:discharge_jobs", only_here=True),
    Target("service.build", "repro.service.protocol:build_pipelined", enter=_enter_design),
]

DETECTORS = ("build", "lint", "absint", "taint", "trace", "formal")

#: every per-layer metric the traced run reports, with its unit
PER_LAYER: list[tuple[str, str]] = [
    ("formal.sat_s", "s"),
    ("formal.sat_calls", "count"),
    ("formal.sat_conflicts", "count"),
    ("formal.blast_s", "s"),
    ("proofs.group_s", "s"),
    ("proofs.group_calls", "count"),
    ("formal.coi_s", "s"),
    ("formal.coi_calls", "count"),
    ("formal.ts_build_s", "s"),
    ("proofs.fingerprint_s", "s"),
    ("proofs.fingerprint_calls", "count"),
    ("proofs.generate_s", "s"),
    ("proofs.trace_s", "s"),
    ("hdl.interp_s", "s"),
    ("hdl.interp_cycles", "count"),
    ("hdl.compiled_s", "s"),
    ("hdl.batch_compile_s", "s"),
    ("hdl.batch_run_s", "s"),
    ("absint.mine_s", "s"),
    ("absint.mine_cached", "count"),
    ("absint.proven_ratio", "ratio"),
    ("absint.inject_s", "s"),
    ("absint.fixpoint_s", "s"),
    ("lint.semantic_s", "s"),
    ("lint.pipeline_s", "s"),
    ("lint.taint_s", "s"),
    ("jobs.cache_get_s", "s"),
    ("jobs.cache_put_s", "s"),
    ("jobs.cache_hits", "count"),
    ("jobs.cache_misses", "count"),
    ("jobs.cache_hit_ratio", "ratio"),
    ("jobs.cache_scan_s", "s"),
    ("jobs.cache_scan_calls", "count"),
    ("jobs.engine_self_s", "s"),
    ("jobs.worker_busy_ratio", "ratio"),
    ("jobs.crashes", "count"),
    ("jobs.retries", "count"),
    ("analysis.context_s", "s"),
    ("analysis.lookup_s", "s"),
    ("analysis.seed_s", "s"),
    ("analysis.served_ratio", "ratio"),
    ("faults.generate_s", "s"),
    ("faults.static_s", "s"),
    ("faults.formal_s", "s"),
    ("faults.lockstep_s", "s"),
    *((f"faults.kills_{detector}", "count") for detector in DETECTORS),
    ("service.solve_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.solves", "count"),
    ("service.replayed", "count"),
    ("service.deduped", "count"),
    ("service.shed", "count"),
    ("core.transform_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

#: counts that must repeat exactly across two runs of one seed
EXACT_COUNTS = (
    "proofs.fingerprint_calls",
    "formal.coi_calls",
    "formal.sat_calls",
    "jobs.cache_hits",
    "jobs.cache_misses",
    "jobs.cache_scan_calls",
    *(f"faults.kills_{detector}" for detector in DETECTORS),
    "service.solves",
    "service.replayed",
    "service.deduped",
)


def import_layers() -> None:
    """Import every ``repro`` module, so that each alias of a wrapped
    function exists before :meth:`Tracer.install` looks for it (and is
    restored afterwards)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the tracer's spans and
    counts."""
    seconds, calls = tracer.self_times()
    # a service solve encloses the engine's spans: its metric is the
    # whole solve, not its self time
    seconds["service.solve"] = sum(
        span[3] - span[2] for span in tracer.spans if span[1] == "service.solve"
    )
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        stem = metric.rsplit("_", 1)[0]
        if metric == "jobs.engine_self_s":
            values[metric] = seconds.get("jobs.engine", 0.0)
        elif metric.endswith("_s"):
            # a span's time, or one the workload measured itself
            values[metric] = seconds.get(stem, counts.get(metric, 0.0))
        elif metric.endswith("_calls"):
            values[metric] = calls.get(stem, 0)
        else:
            values[metric] = counts.get(metric, 0)
    values["hdl.interp_cycles"] = calls.get("hdl.interp", 0)
    values["absint.proven_ratio"] = ratio(
        counts.get("absint.proven", 0), counts.get("absint.candidates", 0)
    )
    hits, misses = counts.get("jobs.cache_hits", 0), counts.get("jobs.cache_misses", 0)
    values["jobs.cache_hit_ratio"] = ratio(hits, hits + misses)
    values["jobs.worker_busy_ratio"] = ratio(
        counts.get("jobs.busy_s", 0), counts.get("jobs.capacity_s", 0)
    )
    values["analysis.served_ratio"] = ratio(
        counts.get("analysis.served", 0), calls.get("analysis.lookup", 0)
    )
    per_pass = max(1, passes)
    for metric, unit in PER_LAYER:
        if unit != "ratio":
            values[metric] = values[metric] / per_pass
    return values
