"""Outside-in tracing of the proof path, from the benchmark's own files.

:class:`Tracer` wraps the public functions of each ``repro`` layer where
their callers look them up — every module global bound to the function
object, or the class attribute for a method — and records one span per
call.  Nothing under ``src/`` changes; :meth:`Tracer.restore` puts every
original binding back.

A span is ``(id, name, start, end, parent, design, thread, self_s, pid)``.
``parent`` is the innermost wrapped call enclosing it on the same thread;
``design`` is the request or design id the benchmark set for that thread
(:meth:`Tracer.design`), shared by every span of one design or request.
``self_s`` is the span's duration minus the time of the wrapped calls
nested directly inside it.  Spans stay in memory; :meth:`Tracer.chrome`
turns them into Chrome trace-event JSON, which Perfetto opens.

Forked engine workers inherit the wrappers but their spans die with them:
solver work inside a forked pool worker shows only as the parent's
waiting time, i.e. in ``jobs.engine`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: marks a wrapper so tests can prove none is left behind
WRAPPED = "__perfbench_wrapped__"

Observe = Callable[["Tracer", tuple, dict, object], None]
Enter = Callable[["Tracer", tuple], None]


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``where`` is ``"module:function"`` or
    ``"module:Class.method"``; ``span`` names its spans (a callable picks
    the name from the call's arguments).  ``observe`` turns the call's
    arguments and result into counts; ``enter`` runs before the span opens
    (to set the thread's design id).  ``only_here`` wraps only the binding
    in ``module`` instead of every alias of the function."""

    span: str | Callable[[tuple], str]
    where: str
    observe: Observe | None = None
    enter: Enter | None = None
    only_here: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._absorbed = 0

    # -- recording ---------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def set_design(self, design: str | None) -> None:
        self._tls.design = design

    @contextmanager
    def design(self, design: str | None) -> Iterator[None]:
        """Spans on this thread inside the block carry ``design``."""
        previous = getattr(self._tls, "design", None)
        self._tls.design = design
        try:
            yield
        finally:
            self._tls.design = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block."""
        token = self._enter()
        try:
            yield
        finally:
            self._exit(name, token)

    def _enter(self) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, name: str, token: tuple) -> None:
        end = time.perf_counter()
        frame, parent, start = token
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self.spans.append(
            (
                frame[0],
                name,
                start,
                end,
                parent,
                getattr(self._tls, "design", None),
                threading.get_ident(),
                duration - frame[1],
                self._pid,
            )
        )

    def wrap(
        self,
        fn: Callable,
        span: str | Callable[[tuple], str],
        observe: Observe | None = None,
        enter: Enter | None = None,
    ) -> Callable:
        tracer = self
        name_of = span if callable(span) else (lambda _args: span)

        if inspect.isgeneratorfunction(fn):
            # time each resume; the consumer's work between items is not
            # the generator's
            def wrapper(*args, **kwargs):
                name = name_of(args)
                design = getattr(tracer._tls, "design", None)
                gen = fn(*args, **kwargs)
                stack = tracer._stack()
                frame = [next(tracer._ids), 0.0]
                parent = stack[-1][0] if stack else None
                busy = 0.0
                first = last = time.perf_counter()
                try:
                    while True:
                        stack.append(frame)
                        resumed = time.perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            last = time.perf_counter()
                            stack.pop()
                            busy += last - resumed
                            if stack:
                                stack[-1][1] += last - resumed
                        yield item
                finally:
                    gen.close()
                    tracer.spans.append(
                        (
                            frame[0],
                            name,
                            first,
                            last,
                            parent,
                            design,
                            threading.get_ident(),
                            busy - frame[1],
                            tracer._pid,
                        )
                    )

        else:

            def wrapper(*args, **kwargs):
                if enter is not None:
                    enter(tracer, args)
                token = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(name_of(args), token)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module_name, _, attr = target.where.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(
                        self.wrap(raw.__func__, target.span, target.observe, target.enter)
                    )
                else:
                    new = self.wrap(raw, target.span, target.observe, target.enter)
                self._bind(owner, method, new, raw)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, target.span, target.observe, target.enter)
            if target.only_here:
                self._bind(module, attr, wrapper, original)
                continue
            for loaded in _repro_modules():
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._bind(loaded, name, wrapper, original)

    def _bind(self, owner: object, name: str, new: object, old: object) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    # -- summaries -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time and call count."""
        seconds: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for span in self.spans:
            seconds[span[1]] += span[7]
            calls[span[1]] += 1
        return dict(seconds), dict(calls)

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by root layer spans (spans
        named ``bench.*`` belong to the benchmark, not to a layer)."""
        intervals = sorted(
            (max(s[2], start), min(s[3], end))
            for s in self.spans
            if s[4] is None and not s[1].startswith("bench.")
        )
        total = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def absorb(self, spans: list[list], counts: dict[str, float]) -> None:
        """Merge spans and counts recorded by another process (the service
        subprocess).  Ids are offset so they stay unique."""
        self._absorbed += 1
        offset = self._absorbed * 10**9
        for sid, name, start, end, parent, design, thread, self_s, pid in spans:
            parent = None if parent is None else parent + offset
            self.spans.append(
                (sid + offset, name, start, end, parent, design, thread, self_s, pid)
            )
        for name, amount in counts.items():
            self.count(name, amount)

    def chrome(self) -> list[dict]:
        """Chrome trace events (complete ``X`` events, microseconds)."""
        return [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": thread,
                "args": {
                    "id": sid,
                    "parent": parent,
                    "design": design,
                    "self_us": round(self_s * 1e6, 3),
                },
            }
            for sid, name, start, end, parent, design, thread, self_s, pid in self.spans
        ]


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def wrappers_left() -> list[str]:
    """Every ``repro`` binding that is still a benchmark wrapper."""
    left: list[str] = []
    for loaded in _repro_modules():
        module_name = loaded.__name__
        for name, value in list(vars(loaded).items()):
            if getattr(value, WRAPPED, False):
                left.append(f"{module_name}.{name}")
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, raw in vars(value).items():
                    inner = getattr(raw, "__func__", raw)
                    if getattr(inner, WRAPPED, False):
                        left.append(f"{module_name}.{name}.{attr}")
    return left
