"""Task and application models for the on-line scheduling experiments.

Two workload shapes appear in the paper:

* **Independent tasks** (the Diessel-style stream behind the
  defragmentation study): each task needs a ``height x width`` rectangle
  of CLBs for ``exec_seconds``, arrives on-line, and waits when no
  contiguous space exists.
* **Applications** (Fig. 1): "an application comprises a set of
  functions that are predominantly executed sequentially"; while one
  function runs, its successor can be configured in advance during the
  reconfiguration interval *rt*, hiding the reconfiguration time
  entirely — unless space or the configuration port is missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real

from repro.device.geometry import Rect


class TaskState(Enum):
    """Life-cycle of a placed task."""

    PENDING = "pending"
    QUEUED = "queued"
    CONFIGURING = "configuring"
    READY = "ready"
    RUNNING = "running"
    FINISHED = "finished"
    REJECTED = "rejected"
    #: dropped by an explicit cancel request (the always-on service's
    #: API; batch runs never enter this state).
    CANCELLED = "cancelled"
    #: lost to a fault: the task was running when its host member died
    #: (or a stuck-at outbreak took its region) and no surviving fabric
    #: could ever host its footprint (see :mod:`repro.faults`).
    DROPPED = "dropped"


def check_task_fields(height, width, exec_seconds, arrival,
                      max_wait=None) -> None:
    """Refuse task fields no simulation can honour (``ValueError``).

    ``height`` and ``width`` must be positive integers (numpy integers
    included, ``bool`` refused); ``exec_seconds`` and ``arrival`` finite
    numbers >= 0; ``max_wait`` ``None`` or a finite number >= 0.  One
    rule set for every entry point — :class:`Task` construction,
    workloads, NDJSON traces, checkpoint restore and the service's
    ``submit``, which calls this before spending an admission token.
    """
    for name, value in (("height", height), ("width", width)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(
                f"{name} must be a positive integer, got {value!r}"
            )
        if value < 1:
            raise ValueError(f"non-positive shape: {name} is {value}")
    times = [("exec_seconds", exec_seconds), ("arrival", arrival)]
    if max_wait is not None:
        times.append(("max_wait", max_wait))
    for name, value in times:
        check_seconds(name, value)


def check_seconds(name: str, value) -> None:
    """Refuse a time that is not a finite number >= 0 (``ValueError``;
    ``bool`` refused).  The rule :func:`check_task_fields` applies to
    each task time, shared with the fault-injection entry points."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"negative time: {name} is {value}")


@dataclass(slots=True)
class Task:
    """One independent task instance.

    Construction validates the request fields (:func:`check_task_fields`),
    so a task that exists can always be placed, timed and finished.
    """

    task_id: int
    height: int
    width: int
    exec_seconds: float
    arrival: float
    #: maximum queueing time before the request is abandoned (None =
    #: wait forever).  Diessel et al. [5] measure the *allocation rate*
    #: under exactly this kind of impatience.
    max_wait: float | None = None
    #: QoS priority class (higher = more urgent); only the ``priority``
    #: queue discipline reads it — FIFO admission ignores classes.
    priority: int = 0
    #: owning tenant (multi-tenant traces; empty for the synthetic
    #: single-tenant generators).  Purely a label: admission never reads
    #: it, but per-tenant fairness accounting groups finish counts by it.
    tenant: str = ""
    state: TaskState = TaskState.PENDING
    rect: Rect | None = None
    configured_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    halted_seconds: float = 0.0

    def __post_init__(self) -> None:
        """Validate the request fields (see :func:`check_task_fields`)."""
        check_task_fields(self.height, self.width, self.exec_seconds,
                          self.arrival, self.max_wait)

    @property
    def area(self) -> int:
        """Footprint in CLB sites."""
        return self.height * self.width

    @property
    def prefetch_key(self) -> str:
        """Bitstream identity for the resident-bitstream cache.

        Independent tasks are one-shot, so the key is per-task: a task
        never *hits* the cache, but the planner can still preload its
        bitstream while it waits in the queue (the kernel's
        ``maybe_prefetch`` walks the queue discipline's order and picks
        up any entry exposing this attribute).
        """
        return f"task:{self.task_id}"

    @property
    def waiting_seconds(self) -> float:
        """Time between arrival and execution start (inf if never ran)."""
        if self.started_at is None:
            return float("inf")
        return self.started_at - self.arrival

    @property
    def turnaround_seconds(self) -> float:
        """Arrival to completion (inf if unfinished)."""
        if self.finished_at is None:
            return float("inf")
        return self.finished_at - self.arrival

    def __str__(self) -> str:
        return (
            f"<task {self.task_id} {self.height}x{self.width} "
            f"{self.state.value}>"
        )


@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """One function of an application (Fig. 1's A1, B2, C3 ...)."""

    name: str
    height: int
    width: int
    exec_seconds: float

    @property
    def area(self) -> int:
        """Footprint in CLB sites."""
        return self.height * self.width


@dataclass
class ApplicationSpec:
    """An application: an ordered chain of functions."""

    name: str
    functions: list[FunctionSpec]
    #: QoS priority class (higher = more urgent); read by the
    #: ``priority`` queue discipline when stalled applications compete
    #: for released space.
    priority: int = 0

    @property
    def total_area(self) -> int:
        """Sum of function footprints (can exceed the device: that is
        the virtual-hardware premise)."""
        return sum(f.area for f in self.functions)

    @property
    def total_exec_seconds(self) -> float:
        """Pure execution time of the chain (the zero-overhead bound)."""
        return sum(f.exec_seconds for f in self.functions)


@dataclass(slots=True)
class FunctionRun:
    """Execution record of one function instance."""

    app: str
    spec: FunctionSpec
    rect: Rect | None = None
    configured_at: float | None = None
    #: port seconds the function's own configuration cost (excluding
    #: rearrangement moves); the stall accounting uses it to tell
    #: un-hidden configuration apart from waiting for space.
    config_seconds: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def prefetched(self) -> bool:
        """True when the function was configured strictly before it
        started — the Fig. 1 ideal ("the reconfiguration time overhead
        may be virtually zero, if new functions are swapped in advance").
        A function whose start had to wait for its own configuration is
        not prefetched: its reconfiguration time was exposed."""
        return (
            self.configured_at is not None
            and self.started_at is not None
            and self.configured_at < self.started_at
        )


@dataclass
class ApplicationRun:
    """Execution record of a whole application."""

    spec: ApplicationSpec
    runs: list[FunctionRun] = field(default_factory=list)
    finished_at: float | None = None

    @property
    def makespan(self) -> float:
        """Total elapsed time (inf if unfinished)."""
        if self.finished_at is None or not self.runs:
            return float("inf")
        first = self.runs[0]
        start = first.started_at if first.started_at is not None else 0.0
        return self.finished_at - start

    @property
    def stall_seconds(self) -> float:
        """Reconfiguration-induced delay: elapsed minus pure execution."""
        if self.finished_at is None:
            return float("inf")
        return max(0.0, self.makespan - self.spec.total_exec_seconds)
