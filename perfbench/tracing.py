"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the ``repro`` layers from the
outside: nothing under ``src/`` knows it exists.  Every wrapped call
records one span (name, start, end, parent span, request id) and adds
its *self time* -- its duration minus the time covered by wrapped calls
it made -- to a per-name total.  Spans stay in memory until the run
writes them out.

Methods are replaced on their class, so calls through any instance hit
the wrapper.  A module-level function is rebound in every loaded
``repro`` module that holds it: ``repro.service`` re-exports
``snapshot``/``restore`` from ``repro.service.checkpoint``, and a
wrapper installed on only one of the two names would miss the calls
made through the other.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: (layer, span name, owner, attribute, owner/task-id argument index).
#: ``owner`` is a dotted class path (method) or module path (function);
#: the argument index, when set, names the positional argument that
#: carries the task id used as the span's request id.
LAYER_FUNCTIONS = (
    ("sched", "sched.events.run", "repro.sched.events.EventQueue",
     "run", None),
    ("sched", "sched.kernel.drain", "repro.sched.kernel.SchedulingKernel",
     "drain", None),
    ("sched", "sched.kernel.sample", "repro.sched.kernel.SchedulingKernel",
     "sample", None),
    ("sched", "sched.kernel.charge_placement",
     "repro.sched.kernel.SchedulingKernel", "charge_placement", None),
    ("sched", "sched.kernel.maybe_defrag",
     "repro.sched.kernel.SchedulingKernel", "maybe_defrag", None),
    ("fleet", "fleet.request", "repro.fleet.manager.FleetManager",
     "request", 3),
    ("fleet", "fleet.prefetch_admission", "repro.fleet.manager.FleetManager",
     "prefetch_admission", None),
    ("core", "core.manager.request", "repro.core.manager.LogicSpaceManager",
     "request", 3),
    ("core", "core.manager.prefetch_admission",
     "repro.core.manager.LogicSpaceManager", "prefetch_admission", None),
    ("core", "core.manager.release", "repro.core.manager.LogicSpaceManager",
     "release", 1),
    ("core", "core.defrag.plan", "repro.core.defrag.DefragPlanner",
     "plan", None),
    ("core", "core.defrag.plan_prefetch", "repro.core.defrag.DefragPlanner",
     "plan_prefetch", None),
    ("core", "core.defrag.plan_consolidation",
     "repro.core.defrag.DefragPlanner", "plan_consolidation", None),
    ("placement", "placement.fit.prefetch", "repro.placement.fit.CachedFitter",
     "prefetch", None),
    ("placement", "placement.free.allocate",
     "repro.placement.incremental.IncrementalFreeSpace", "allocate", None),
    ("placement", "placement.free.release",
     "repro.placement.incremental.IncrementalFreeSpace", "release", None),
    ("service", "service.advance", "repro.service.app.ReproService",
     "advance", None),
    ("service", "service.submit", "repro.service.app.ReproService",
     "submit", None),
    ("service", "service.status", "repro.service.app.ReproService",
     "status", 1),
    ("service", "service.tasks", "repro.service.app.ReproService",
     "tasks", None),
    ("service", "service.stats", "repro.service.app.ReproService",
     "stats", None),
    ("service", "service.cancel", "repro.service.app.ReproService",
     "cancel", 1),
    ("service", "service.door.admit",
     "repro.service.admission.AdmissionController", "admit", None),
    ("service", "service.checkpoint.snapshot", "repro.service.checkpoint",
     "snapshot", None),
    ("service", "service.checkpoint.restore", "repro.service.checkpoint",
     "restore", None),
)

#: span name -> layer, for the per-layer self-time shares.
LAYER_OF = {name: layer for layer, name, *_ in LAYER_FUNCTIONS}


class Tracer:
    """An in-memory span recorder with a self-time stack.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.  ``request`` is the driver-set request id that
    spans without an id argument of their own inherit (the submission
    index on the service workload); a span whose call carries a task
    id uses that instead, and a nested span inherits its parent's.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.request: int | None = None
        #: finished spans: (span id, parent id, request id, name,
        #: start, end); ids index this list in start order.
        self.spans: list[tuple] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.total_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: items handed to calls, for names registered with a counter
        #: (``count_items``): e.g. shapes per prefetch_admission call.
        self.items: Counter = Counter()
        self._item_counters: dict[str, object] = {}
        #: open spans: [span id, request id, seconds covered by children]
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget every recorded span and total (wrappers stay)."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans.clear()
        self.self_seconds.clear()
        self.total_seconds.clear()
        self.calls.clear()
        self.items.clear()
        self._next_id = 0

    def count_items(self, name: str, counter) -> None:
        """Add ``counter(args)`` to :attr:`items` on every call of the
        span ``name``."""
        self._item_counters[name] = counter

    def wrap(self, name: str, fn, id_arg: int | None = None):
        """Return ``fn`` wrapped to record one span per call."""
        clock = self.clock
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if id_arg is not None and len(args) > id_arg:
                request = args[id_arg]
            elif stack:
                request = stack[-1][1]
            else:
                request = tracer.request
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, request, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer.self_seconds[name] += duration - frame[2]
                tracer.total_seconds[name] += duration
                tracer.calls[name] += 1
                counter = tracer._item_counters.get(name)
                if counter is not None:
                    tracer.items[name] += counter(args)
                tracer.spans.append(
                    (span_id, parent, request, name, start, end)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr: str, name: str,
              id_arg: int | None = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper.

        For a module-level function, every loaded ``repro`` module that
        binds the same object under ``attr`` is rebound too, so the
        wrapper sees calls made through re-exported names.
        """
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, id_arg)
        holders = [owner]
        if isinstance(owner, type(sys)):
            holders = [
                module for key, module in list(sys.modules.items())
                if (key == "repro" or key.startswith("repro."))
                and getattr(module, attr, None) is original
            ] or [owner]
        for holder in holders:
            self._installed.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        """Wrap every layer function in ``functions`` (see
        :data:`LAYER_FUNCTIONS`)."""
        for _layer, name, owner_path, attr, id_arg in functions:
            self.patch(_resolve(owner_path), attr, name, id_arg)

    def uninstall(self) -> None:
        """Put every wrapped name back to its original object."""
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)


def write_spans(path, spans) -> None:
    """Write spans as gzipped JSON lines: [id, parent, request, name,
    start, end], times in seconds on the tracer's clock."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in sorted(spans):
            out.write(json.dumps(list(span)) + "\n")


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or ``a.b.C`` as a class of one."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)
