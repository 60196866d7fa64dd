"""The three workloads.  Each builds its inputs from the seed (``inputs``),
drives the program through its public API or its socket, and checks every
verdict against its known answer.

A workload is a fixed list of units; one pass runs each unit once.  It has
three steps: ``setup()`` once per run (the seeded operator order),
``prepare(unit)`` before every unit (a fresh machine build, a fresh
server: the set-up that repeats), and ``run_unit(unit)``, the timed unit.
``tracer`` is set while the traced run records spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from layers import DETECTORS, design_id
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: the verdicts of an unmutated design: every obligation proved or trace-ok
GOOD = ("proved", "trace-ok")

CORES = ("toy", "dlx-small", "dlx-spec")
CAMPAIGN_CORES = ("toy", "dlx-small")


@dataclass
class PassResult:
    wall_s: float
    #: per call or request, in a fixed order: start to its first verdict
    first_verdicts: list[float] = field(default_factory=list)
    #: per verdict: its call or request start to its arrival
    latencies: list[float] = field(default_factory=list)
    #: per call or request: start to its last verdict
    request_latencies: list[float] = field(default_factory=list)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: (design, obligation, status) of every verdict, for comparing runs
    verdicts: list[tuple[str, str, str]] = field(default_factory=list)
    #: the unit's start and end, and the host's slowdown over them
    window: tuple[float, float] = (0.0, 0.0)
    slowdown: float = 1.0

    def miss(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @classmethod
    def merge(cls, parts: list[PassResult]) -> PassResult:
        """One pass made of ``parts``, units that ran one after another."""
        whole = cls(wall_s=sum(p.wall_s for p in parts))
        for part in parts:
            whole.first_verdicts += part.first_verdicts
            whole.latencies += part.latencies
            whole.request_latencies += part.request_latencies
            whole.requests += part.requests
            whole.attempted += part.attempted
            whole.failed += part.failed
            whole.problems += part.problems
            whole.verdicts += part.verdicts
        return whole

    def digest(self) -> str:
        body = json.dumps(sorted(self.verdicts)).encode()
        return hashlib.sha256(body).hexdigest()[:16]


class Workload:
    """A workload is a fixed list of units (a design's discharge, a core's
    campaign, a whole client stream); one pass runs each unit once."""

    name = ""
    units: tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tracer: Tracer | None = None
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def design_scope(self, design: str):
        return self.tracer.design(design) if self.tracer else nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)

    def setup(self) -> float:
        return 0.0

    def prepare(self, unit: str) -> float:
        return 0.0

    def run_unit(self, unit: str) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cold-cores: the designer's discharge loop
# ---------------------------------------------------------------------------


def build_design(name: str, program: str) -> object:
    """One freshly built and transformed design (fresh objects: no
    in-process memo survives a rebuild): a catalog core, or ``random-dlx``,
    the DLX machine running the seeded program."""
    from repro.core import transform
    from repro.dlx import DlxConfig, assemble, build_dlx_machine
    from repro.faults import CORES as CATALOG

    if name in CATALOG:
        return transform(CATALOG[name].build_machine())
    words = assemble(program)
    machine = build_dlx_machine(
        words,
        config=DlxConfig(
            imem_addr_width=max(4, math.ceil(math.log2(len(words) + 4))),
            dmem_addr_width=inputs.DMEM_BITS,
        ),
    )
    return transform(machine)


class ColdCores(Workload):
    """Cold discharge at ``jobs=1`` of toy, dlx-small, dlx-spec and the
    seeded DLX program, one design per unit, each into a fresh cache
    directory."""

    name = "cold-cores"
    units = (*CORES, "random-dlx")

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        (self.program,) = inputs.programs(seed, 1, "designs")
        self.design: object | None = None

    def prepare(self, unit: str) -> float:
        start = time.perf_counter()
        self.design = build_design(unit, self.program)
        return time.perf_counter() - start

    def run_unit(self, unit: str) -> PassResult:
        from repro import jobs, proofs

        cache_dir = self.fresh_dir("cold-cache")
        result = PassResult(wall_s=0.0, requests=1)
        stamps: list[float] = []
        start = time.perf_counter()

        def on_outcome(outcome) -> None:
            stamps.append(time.perf_counter() - start)

        with self.design_scope(unit):
            obligations = proofs.generate_obligations(self.design)
            report = jobs.discharge_jobs(
                self.design,
                obligations,
                params=jobs.EngineParams(),
                jobs=1,
                cache=jobs.ResultCache(cache_dir),
                on_outcome=on_outcome,
            )
        result.wall_s = time.perf_counter() - start
        shutil.rmtree(cache_dir)
        result.request_latencies.append(result.wall_s)
        result.first_verdicts.append(stamps[0] if stamps else math.inf)
        result.latencies.extend(stamps)
        if len(stamps) != len(obligations):
            result.miss(f"{unit}: {len(stamps)} verdicts streamed for"
                        f" {len(obligations)} obligations")
        for outcome in report.outcomes:
            record = outcome.record
            result.attempted += 1
            result.verdicts.append((unit, record.oid, record.status.value))
            if record.status.value not in GOOD:
                result.miss(f"{unit}/{record.oid}: {record.status.value}"
                            f" ({record.method})")
        return result


# ---------------------------------------------------------------------------
# fault-campaign: the CI mutation campaign
# ---------------------------------------------------------------------------

_VERDICT = re.compile(r": (killed by \w+|SURVIVED) \(")


class FaultCampaign(Workload):
    """``run_campaign`` at ``lanes=64``, one core per unit (toy, then
    dlx-small): every baseline clean, every mutant killed."""

    name = "fault-campaign"
    units = CAMPAIGN_CORES

    def setup(self) -> float:
        from repro import faults

        self.operators = inputs.operator_order(self.seed, list(faults.OPERATORS))
        return 0.0

    def prepare(self, unit: str) -> float:
        # run_campaign builds its own machine; this times the same build
        # and transform of the baseline core
        from repro.core import transform
        from repro.faults import CORES as CATALOG

        start = time.perf_counter()
        transform(CATALOG[unit].build_machine())
        return time.perf_counter() - start

    def run_unit(self, unit: str) -> PassResult:
        from repro import faults

        result = PassResult(wall_s=0.0, requests=1)
        stamps: list[float] = []
        start = time.perf_counter()

        def progress(message: str) -> None:
            if _VERDICT.search(message):
                stamps.append(time.perf_counter() - start)

        with self.design_scope(f"campaign-{unit}"):
            report = faults.run_campaign(
                cores=[unit],
                operators=self.operators,
                params=faults.DetectParams(lanes=64),
                progress=progress,
            )
        result.wall_s = time.perf_counter() - start
        result.request_latencies.append(result.wall_s)
        result.first_verdicts.append(stamps[0] if stamps else math.inf)
        result.latencies.extend(stamps)
        result.attempted += 1
        result.verdicts.append((unit, "baseline", str(report.baseline_clean.get(unit))))
        if not report.baseline_clean.get(unit):
            result.miss(f"{unit}: baseline not clean")
        for mutant in report.results:
            result.attempted += 1
            result.verdicts.append((mutant.core, mutant.mid, mutant.detector))
            if not mutant.detected:
                result.miss(f"{mutant.mid}: survived")
        if not report.results:
            result.miss(f"{unit}: the campaign generated no mutants")
        if len(stamps) != len(report.results):
            result.miss(f"{unit}: {len(stamps)} verdicts reported for"
                        f" {len(report.results)} mutants")
        kills = report.by_detector()
        for detector in DETECTORS:
            self.count(f"faults.kills_{detector}", kills.get(detector, 0))
        return result


# ---------------------------------------------------------------------------
# service-stream: two closed-loop clients against a live server
# ---------------------------------------------------------------------------


class ServiceStream(Workload):
    """Two closed-loop clients, two tenants, one live server per pass
    (fresh root).

    Both clients open with the same toy request: one solves it, the other
    is coalesced onto that solve (dedup), and the solve seeds the toy width
    family.  Then each client sends a fresh DLX program of its own, so two
    solves contend for the CPUs, and an exact repeat of it (a replay);
    client A also sends toy at width 16, served from the family store.

    The counts repeat exactly on every pass: each repeat follows its
    original on the same client, and the two programs start together,
    after the toy solve, and look the cache up long before either stores
    a verdict.
    """

    name = "service-stream"
    units = ("stream",)

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        p, q = (
            {"program": source, "dmem_bits": inputs.DMEM_BITS}
            for source in inputs.programs(seed, 2, "service")
        )
        toy = {"core": "toy"}
        self.clients = [
            ("team-a", [toy, p, {"core": "toy", "width": 16}, p]),
            ("team-b", [toy, q, q]),
        ]
        self.server: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.trace_file: Path | None = None

    def prepare(self, unit: str) -> float:
        root = self.fresh_dir("service-root")
        command = [sys.executable, "-u", str(HERE / "serve.py"), "--root", str(root)]
        self.trace_file = None
        if self.tracer is not None:
            self.trace_file = root.parent / f"{root.name}-spans.json"
            command += ["--trace", str(self.trace_file)]
        start = time.perf_counter()
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        line = self.server.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop_server()
            raise RuntimeError(f"service failed to start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))
        return time.perf_counter() - start

    def stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()

    def close(self) -> None:
        self.stop_server()

    def _client(self, tenant: str, specs: list[dict], log: list[dict]) -> None:
        from repro.service import ServiceClient, protocol

        client = ServiceClient(*self.address, tenant=tenant, timeout=170.0)
        for spec in specs:
            design = design_id(protocol.canonical_machine_spec(spec))
            entry = {"design": design, "sent": time.perf_counter(), "stamps": []}
            with self.design_scope(design), (
                self.tracer.span("bench.request") if self.tracer else nullcontext()
            ):
                stream = client.stream(spec)
                if stream.status != 200:  # a refusal: a finished DischargeResult
                    entry.update(status=stream.status, events=[], error=stream.error)
                else:
                    events = []
                    with stream:
                        for event in stream:
                            if event.get("type") == "verdict":
                                entry["stamps"].append(time.perf_counter())
                            events.append(event)
                    entry.update(
                        status=200, events=events, disposition=stream.disposition
                    )
            entry["done"] = time.perf_counter()
            log.append(entry)

    def run_unit(self, unit: str) -> PassResult:
        from repro.service import ServiceClient

        logs: list[list[dict]] = [[] for _ in self.clients]
        errors: list[Exception] = []

        def client(index: int) -> None:
            try:
                self._client(*self.clients[index], logs[index])
            except Exception as error:  # reported as a failed pass below
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(len(self.clients))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(175.0)
        wall = time.perf_counter() - start
        result = PassResult(wall_s=wall)
        try:
            stats = ServiceClient(*self.address).stats()
        finally:
            self.stop_server()
        if errors or any(thread.is_alive() for thread in threads):
            result.miss(f"client failed: {errors!r}")
        for name in ("solves", "replayed", "deduped", "shed"):
            self.count(f"service.{name}", stats.get(name, 0))
        self._check(logs, result)
        if self.tracer is not None and self.trace_file is not None:
            recorded = json.loads(self.trace_file.read_text())
            self.tracer.absorb(recorded["spans"], recorded["counts"])
            self._queue_wait(logs, recorded["spans"])
        return result

    def _queue_wait(self, logs: list[list[dict]], spans: list[list]) -> None:
        """Request sent -> its solve started, summed over the solved
        designs (the server's first span of a design is its build)."""
        started: dict[str, float] = {}
        for span in spans:
            design = span[5]
            if design is not None:
                started[design] = min(started.get(design, span[2]), span[2])
        sent: dict[str, float] = {}
        for entry in (e for log in logs for e in log):
            sent[entry["design"]] = min(sent.get(entry["design"], entry["sent"]), entry["sent"])
        for design, solve_start in started.items():
            if design in sent:
                self.count("service.queue_wait_s", max(0.0, solve_start - sent[design]))

    def _check(self, logs: list[list[dict]], result: PassResult) -> None:
        solved: dict[str, list[tuple]] = {}
        # client by client, so a request keeps its position on every pass
        for entry in (e for log in logs for e in log):
            result.requests += 1
            result.request_latencies.append(entry["done"] - entry["sent"])
            # a request's verdicts stream in: each one's latency counts
            result.latencies.extend(stamp - entry["sent"] for stamp in entry["stamps"])
            stamps = entry["stamps"]
            result.first_verdicts.append(stamps[0] - entry["sent"] if stamps else math.inf)
            design = entry["design"]
            if entry["status"] != 200:
                result.attempted += 1
                result.miss(f"{design}: HTTP {entry['status']} {entry.get('error')}")
                continue
            verdicts = [e for e in entry["events"] if e.get("type") == "verdict"]
            done = [e for e in entry["events"] if e.get("type") == "done"]
            result.attempted += max(1, len(verdicts))
            if not done or not done[-1].get("ok") or not verdicts:
                result.miss(f"{design}: request did not complete ok")
                continue
            answer = sorted((v["oid"], v["status"], v["method"]) for v in verdicts)
            for oid, status, _method in answer:
                result.verdicts.append((design, oid, status))
                if status not in GOOD:
                    result.miss(f"{design}/{oid}: {status}")
            # a replayed or coalesced stream must repeat the solve verbatim
            first = solved.setdefault(design, answer)
            if answer != first:
                result.miss(f"{design}: {entry.get('disposition')} verdicts differ")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdCores, FaultCampaign, ServiceStream)
}
