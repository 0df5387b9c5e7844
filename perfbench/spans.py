"""Stdlib span recorder and the outside-in instrumentation of ``repro``.

Spans are recorded by wrapping functions of the library from here, never
by editing ``src/``.  Each span has a name, start and end
(``perf_counter_ns``), its own id, the id of the span that was open when
it started (tracked per thread / asyncio task through ``contextvars``)
and the id of the request it belongs to.  Per-name totals (calls, total
time, self time) are folded in as each span closes; the first
``DEFAULT_KEEP`` spans are also kept whole for the Chrome trace file.

Self time is a span's duration minus the time its child spans cover.
Children of one span run in the same context one after another, so the
time they cover is the sum of their durations.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Spans kept whole for the Chrome trace; later spans only feed the totals.
DEFAULT_KEEP = 50_000


class _Frame:
    __slots__ = ("name", "id", "parent", "req", "start", "child_ns", "token")

    def __init__(self, name, span_id, parent, req, start):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.req = req
        self.start = start
        self.child_ns = 0
        self.token = None


class Recorder:
    """In-memory span recorder; disabled until :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._current: contextvars.ContextVar[_Frame | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}

    # -- recording ----------------------------------------------------------

    def open(self, name: str, *, root: bool = False, request: bool = False) -> _Frame:
        parent = None if root else self._current.get()
        if request:
            req = next(self._requests)
        else:
            req = parent.req if parent is not None else None
        frame = _Frame(name, next(self._ids), parent, req, time.perf_counter_ns())
        frame.token = self._current.set(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter_ns()
        self._current.reset(frame.token)
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child_ns += duration
        with self._lock:
            total = self.totals.get(frame.name)
            if total is None:
                total = self.totals[frame.name] = [0, 0, 0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame.child_ns
            if len(self.spans) < DEFAULT_KEEP:
                tid = self._threads.setdefault(
                    threading.get_ident(), len(self._threads)
                )
                self.spans.append((
                    frame.name, frame.start, end, frame.id,
                    parent.id if parent is not None else None, frame.req, tid,
                ))
            else:
                self.dropped += 1

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- export -------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        pid = os.getpid()
        events = [
            {
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "args": {"id": span_id, "parent": parent, "req": req},
            }
            for name, start, end, span_id, parent, req, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped}}, handle)

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        *,
        root: bool = False,
        request: bool = False,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so each call records one span.

        ``name`` may be a callable of the call's arguments, for wrappers
        shared by several objects (pipeline stages name themselves).
        """
        rec = self
        label = name if callable(name) else (lambda *args, **kwargs: name)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not rec.enabled:
                    return await fn(*args, **kwargs)
                frame = rec.open(label(*args, **kwargs), root=root,
                                 request=request)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec.close(frame)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            frame = rec.open(label(*args, **kwargs), root=root, request=request)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(frame)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper


def _stage_name(stage, *args, **kwargs) -> str:
    return f"stage.{stage.name}"


class Instrumentation:
    """Patches span wrappers into ``repro`` and takes them out again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[object, str, object]] = []
        self.distinct_gates: dict[int, object] = {}

    def _patch(self, owner: object, attr: str, name, **options) -> None:
        # Classes are patched through __dict__ so the raw function (not a
        # bound method) is wrapped and later restored.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(name, original, **options))

    def install(self) -> None:
        """Wrap the layer functions the per-layer metrics are read from."""
        import repro.core.mirage_pass as mirage_pass
        import repro.polytopes.coverage as coverage
        import repro.polytopes.registry as registry
        import repro.service.service as service
        import repro.transpiler.executors as executors
        import repro.transpiler.kernel.route as route
        import repro.transpiler.metrics as metrics
        import repro.transpiler.passes.sabre_swap as sabre_swap
        import repro.transpiler.passmanager as passmanager

        rec = self.recorder
        distinct = self.distinct_gates

        # Pipeline stages: every pass class that defines its own run().
        stack = [passmanager.BasePass]
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            if "run" in cls.__dict__ and cls is not passmanager.BasePass:
                self._patch(cls, "run", _stage_name)
        # Route kernel and its phases.
        self._patch(
            sabre_swap, "route_kernel", "kernel.route_kernel",
            on_return=lambda state: rec.count("kernel.swaps", state.swaps_added),
        )
        self._patch(route, "_choose_swap", "kernel.choose_swap")
        self._patch(route.KernelState, "extended_ids", "kernel.extended_ids")
        self._patch(route.KernelState, "lookahead_pairs", "kernel.lookahead_pairs")
        # The MIRAGE mirror decision.
        self._patch(mirage_pass.MirageSwap, "_commit_two_qubit_flat",
                    "mirage.commit")

        # Weyl coordinates: count distinct gate objects (held alive so
        # their ids are never reused while the recorder is installed).
        def gate_coordinate_wrapper(original):
            @functools.wraps(original)
            def counting(gate):
                if rec.enabled:
                    distinct.setdefault(id(gate), gate)
                return original(gate)
            return counting

        original_gc = metrics.gate_coordinate
        counted = rec.wrap("weyl.gate_coordinate", gate_coordinate_wrapper(original_gc))
        for module in (metrics, mirage_pass):
            self._patches.append((module, "gate_coordinate", original_gc))
            module.gate_coordinate = counted
        self._patch(mirage_pass, "mirror_coordinate", "weyl.mirror_coordinate")
        # Coverage lookups and the registry.
        self._patch(coverage.CoverageSet, "cost_of_many", "coverage.cost_of_many")
        self._patch(registry.CoverageRegistry, "get", "coverage.registry_get")
        # Dispatch sessions: publish (add_payload), ship (submit), drain (close).
        for cls in vars(executors).values():
            if isinstance(cls, type) and issubclass(cls, executors.DispatchSession):
                for attr, phase in (("add_payload", "publish"), ("submit", "ship"),
                                    ("close", "drain")):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, f"dispatch.{phase}.{cls.__name__}")
        # Service tier: admission, window sealing and window dispatch.
        self._patch(service.MirageService, "submit", "service.request",
                    request=True)
        self._patch(service.MirageService, "_admit", "service.admit")
        self._patch(service.MirageService, "_seal", "service.seal", root=True)
        self._patch(service.MirageService, "_run_window", "service.window",
                    root=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.distinct_gates.clear()
