"""The benchmark's three workloads: stack, seeded inputs, one replay.

Each workload turns a seed into plain input rows (the only thing the
program receives), builds a fresh scheduling stack per replay, drives
it through the public APIs of ``repro.sched``, ``repro.fleet`` and
``repro.service`` in this process (no threads, sockets or pools), and
returns a :class:`Replay` with the host timings, the simulated outcome
and the counts the correctness checks need.

* ``device-defrag`` -- the paper's scenario: one XCV200 with
  concurrent rearrangement, backfill admission, threshold-triggered
  proactive consolidation and a serial Boundary-Scan port, fed the
  registered ``fragmenting`` stream.  The consolidation planner carries
  it; the fleet layer is absent.
* ``fleet-surge`` -- four XC2S30 members under first-fit device
  selection and priority admission, fed the registered ``fleet-surge``
  stream with three priority levels.  The admission warm-up forwarded to
  every member carries it; no proactive consolidation runs.
* ``service-mixed`` -- a ``ReproService`` (2-member fleet, priority
  queue, queue depth 64) driven as a closed loop by one caller: every
  submission is a clock catch-up, a submit and a status read; listings,
  stats, cancels and checkpoint round trips ride along at fixed
  cadences.  The only workload where the service layer does real work.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field

import repro.service
from repro.core.cost import CostModel
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.fleet import FleetManager
from repro.perf import PERF
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.tasks import Task
from repro.sched.workload import make_workload

from . import checks
from .hostspeed import ScaledClock, probe_seconds

clock = time.perf_counter

#: Cells of one run draw seeds ``seed * CELL_STRIDE + cell``, so runs
#: with different seeds never share a cell.
CELL_STRIDE = 1000


def cell_seed(seed: int, cell: int) -> int:
    """The generator seed of cell ``cell`` of a run seeded ``seed``."""
    if not 0 <= cell < CELL_STRIDE:
        raise ValueError(f"cell {cell} outside 0..{CELL_STRIDE - 1}")
    return seed * CELL_STRIDE + cell


@dataclass
class Replay:
    """One replay of a workload's inputs through a fresh stack."""

    #: host seconds from the first submission to the drained end, in
    #: reference seconds (see ``hostspeed.py``); raw with no probe.
    host_s: float
    #: the same host seconds, unscaled.
    raw_host_s: float
    #: kernel events processed (simulated work done).
    events: int
    #: submissions attempted.
    attempted: int
    #: hash of the deterministic simulated outcome (bit-identity).
    outcome_digest: str
    #: terminal buckets for the conservation check.
    counts: dict
    #: the managers whose fabrics must be empty at the end.
    managers: list
    #: seconds per submission, scaled like ``host_s``: clock
    #: catch-up plus admission.
    submit_s: list[float] = field(default_factory=list)
    #: seconds per status/tasks/stats read (service only).
    read_s: list[float] = field(default_factory=list)
    #: seconds per snapshot/encode/decode/restore (service only).
    checkpoint_s: list[float] = field(default_factory=list)
    #: layer counters for the traced run's per-layer metrics.
    layer: dict = field(default_factory=dict)
    #: service only: the service driven to the end, and a replica
    #: restored mid-run with the submission index it resumes at.
    service: object = None
    replica: tuple | None = None

    @property
    def events_per_s(self) -> float:
        """Kernel events per host second."""
        return self.events / self.host_s


def _sim_summary(metrics, attempted: int, failed: int) -> dict:
    """The simulated outcome figures reported beside the digest."""
    return {
        "failed_frac": failed / attempted,
        "wait_mean_s": metrics.mean_waiting,
        "util_mean": metrics.mean_utilization,
    }


class CampaignWorkload:
    """A task stream replayed through ``OnlineTaskScheduler.run``,
    exactly like one campaign cell."""

    name = ""
    tasks = 0

    def generate(self, seed: int) -> list[list]:
        """Input rows: [id, height, width, exec_s, arrival, max_wait,
        priority] per task."""
        return [
            [t.task_id, t.height, t.width, t.exec_seconds, t.arrival,
             t.max_wait, t.priority]
            for t in self._stream(seed)
        ]

    def _stream(self, seed: int) -> list[Task]:
        raise NotImplementedError

    def build(self) -> OnlineTaskScheduler:
        """A fresh scheduler over a fresh manager stack."""
        raise NotImplementedError

    def replay(self, rows: list[list], tracer=None,
               keep_replica: bool = False, probe=probe_seconds) -> Replay:
        """Run the stream once; submission latency is the host time
        between consecutive arrivals' admission calls returning."""
        del tracer, keep_replica  # spans need no request id here
        scheduler = self.build()
        tasks = [
            Task(task_id=r[0], height=r[1], width=r[2], exec_seconds=r[3],
                 arrival=r[4], max_wait=r[5], priority=r[6])
            for r in rows
        ]
        kernel = scheduler.kernel
        enqueue = kernel.enqueue
        PERF.reset()
        timer = ScaledClock(probe)
        previous = [timer.stretch_start]

        def stamped(item, **kwargs):
            enqueue(item, **kwargs)
            now = clock()
            timer.sample("submit", now - max(previous[0],
                                             timer.stretch_start))
            previous[0] = now
            timer.tick()

        kernel.enqueue = stamped
        metrics = scheduler.run(tasks)
        timer.close()
        del kernel.enqueue
        managers = getattr(scheduler.manager, "members",
                           [scheduler.manager])
        failed = metrics.rejected + metrics.dropped_tasks
        outcome = asdict(metrics)
        outcome["events"] = scheduler.events.processed
        return Replay(
            host_s=timer.scaled_s,
            raw_host_s=timer.raw_s,
            events=scheduler.events.processed,
            attempted=len(tasks),
            outcome_digest=checks.digest(outcome),
            counts={
                "attempted": len(tasks),
                "finished": metrics.finished,
                "rejected": metrics.rejected,
                "dropped": metrics.dropped_tasks,
            },
            managers=managers,
            submit_s=timer.samples.get("submit", []),
            layer={
                "perf": PERF.snapshot(),
                "placements": sum(t.configured_at is not None
                                  for t in tasks),
                "port_busy_sim_s": metrics.port_busy_seconds,
                "proactive_defrags": metrics.proactive_defrags,
                "sim": _sim_summary(metrics, len(tasks), failed),
            },
        )


class DeviceDefrag(CampaignWorkload):
    """The paper's scenario on its device (see the module docstring)."""

    name = "device-defrag"
    tasks = 1000
    device = "XCV200"

    def _stream(self, seed: int) -> list[Task]:
        return make_workload("fragmenting", device(self.device), seed,
                             n=self.tasks)

    def build(self) -> OnlineTaskScheduler:
        dev = device(self.device)
        manager = LogicSpaceManager(
            Fabric(dev),
            cost_model=CostModel(dev, port_kind="boundary-scan"),
            policy=RearrangePolicy.CONCURRENT,
            fit="first",
            defrag_policy="threshold",
        )
        return OnlineTaskScheduler(manager, queue="backfill",
                                   ports="serial")


class FleetSurge(CampaignWorkload):
    """A four-member fleet under a surge (see the module docstring)."""

    name = "fleet-surge"
    tasks = 1500
    device = "XC2S30"
    members = 4

    def _stream(self, seed: int) -> list[Task]:
        return make_workload("fleet-surge", device(self.device), seed,
                             n=self.tasks, priority_levels=3)

    def build(self) -> OnlineTaskScheduler:
        dev = device(self.device)
        fleet = FleetManager(
            [LogicSpaceManager(Fabric(dev)) for _ in range(self.members)],
            policy="first-fit",
        )
        return OnlineTaskScheduler(fleet, queue="priority", ports="serial")


@dataclass
class _Tally:
    """What one service driver loop observed, besides timings."""

    refused: int = 0
    cancelled: int = 0
    checkpoint_bytes: int = 0


class ServiceMixed:
    """A closed-loop single caller against a live service."""

    name = "service-mixed"
    submissions = 2000
    config = {"fleet_size": 2, "queue": "priority", "max_queue_depth": 64}
    tenants = ("alice", "bob", "carol")
    qos_classes = ("gold", "silver", "best-effort")
    mean_interarrival = 0.15
    #: every k-th submission also lists the newest tasks and reads stats.
    read_every = 10
    #: every k-th submission also round-trips a checkpoint.
    checkpoint_every = 250
    #: share of submissions whose caller cancels them if still queued.
    cancel_share = 0.05

    def generate(self, seed: int) -> list[list]:
        """Input rows: [at, height, width, exec_s, tenant, qos, cancel].

        Each tenant mostly uses its own QoS class (alice gold, bob
        silver, carol best-effort) and sometimes another, so all three
        classes and their token buckets see traffic.
        """
        rng = random.Random(seed)
        rows = []
        now = 0.0
        for _ in range(self.submissions):
            now += rng.expovariate(1.0 / self.mean_interarrival)
            tenant = rng.randrange(len(self.tenants))
            qos = (self.qos_classes[tenant] if rng.random() < 0.8
                   else rng.choice(self.qos_classes))
            rows.append([
                now, rng.randint(2, 5), rng.randint(2, 6),
                rng.uniform(0.4, 1.6), self.tenants[tenant], qos,
                rng.random() < self.cancel_share,
            ])
        return rows

    def build(self) -> repro.service.ReproService:
        """A fresh service."""
        return repro.service.ReproService(
            repro.service.ServiceConfig(**self.config)
        )

    def step(self, service, index: int, row: list, tally: _Tally,
             timer: ScaledClock):
        """One caller iteration; returns the restored service when the
        iteration round-tripped a checkpoint, else None."""
        at, height, width, exec_seconds, tenant, qos, cancel = row
        started = clock()
        service.advance(until=at)
        view = service.submit(height, width, exec_seconds,
                              tenant=tenant, qos=qos)
        timer.sample("submit", clock() - started)
        if view["admitted"]:
            started = clock()
            state = service.status(view["task"])["state"]
            timer.sample("read", clock() - started)
            if cancel and state == "queued":
                service.cancel(view["task"])
                tally.cancelled += 1
        else:
            tally.refused += 1
        if (index + 1) % self.read_every == 0:
            started = clock()
            service.tasks(limit=20)
            listed = clock()
            service.stats()
            timer.sample("read", listed - started)
            timer.sample("read", clock() - listed)
        if (index + 1) % self.checkpoint_every == 0:
            started = clock()
            text = json.dumps(repro.service.snapshot(service))
            restored = repro.service.restore(json.loads(text))
            timer.sample("checkpoint", clock() - started)
            tally.checkpoint_bytes = len(text)
            return restored
        return None

    def replay(self, rows: list[list], tracer=None,
               keep_replica: bool = False, probe=probe_seconds) -> Replay:
        """Drive every row, then settle the service.  With
        ``keep_replica`` the service restored at the middle checkpoint
        is kept for :meth:`finish_replica`."""
        service = self.build()
        tally = _Tally()
        middle = (len(rows) // self.checkpoint_every // 2
                  * self.checkpoint_every)
        replica = None
        PERF.reset()
        timer = ScaledClock(probe)
        for index, row in enumerate(rows):
            if tracer is not None:
                tracer.request = index
            restored = self.step(service, index, row, tally, timer)
            if keep_replica and restored is not None \
                    and index + 1 == middle:
                replica = (restored, middle)
            timer.tick()
        service.settle()
        timer.close()
        engine = service.engine
        metrics = engine.metrics
        failed = tally.refused + metrics.rejected + metrics.dropped_tasks
        outcome = {
            "journal": checks.digest(engine.journal),
            "telemetry": checks.digest(engine.telemetry),
            "metrics": asdict(metrics),
            "refused": tally.refused,
            "cancelled": tally.cancelled,
        }
        return Replay(
            host_s=timer.scaled_s,
            raw_host_s=timer.raw_s,
            events=engine.events.processed,
            attempted=len(rows),
            outcome_digest=checks.digest(outcome),
            counts={
                "attempted": len(rows),
                "finished": metrics.finished,
                "rejected": metrics.rejected,
                "refused": tally.refused,
                "cancelled": tally.cancelled,
                "dropped": metrics.dropped_tasks,
            },
            managers=service.manager.members,
            submit_s=timer.samples.get("submit", []),
            read_s=timer.samples.get("read", []),
            checkpoint_s=timer.samples.get("checkpoint", []),
            layer={
                "perf": PERF.snapshot(),
                "placements": sum(t.configured_at is not None
                                  for t in engine.tasks.values()),
                "port_busy_sim_s": metrics.port_busy_seconds,
                "proactive_defrags": metrics.proactive_defrags,
                "refusals": tally.refused,
                "journal_events": len(engine.journal),
                "checkpoint_bytes": tally.checkpoint_bytes,
                "sim": _sim_summary(metrics, len(rows), failed),
            },
            service=service,
            replica=replica,
        )

    def finish_replica(self, rows: list[list], replay: Replay) -> None:
        """Drive the mid-run replica to the end and require the
        uninterrupted service's journal and telemetry, bit for bit."""
        replica, resume = replay.replica
        tally = _Tally()
        timer = ScaledClock(probe=None)
        for index in range(resume, len(rows)):
            self.step(replica, index, rows[index], tally, timer)
        replica.settle()
        original = replay.service.engine
        checks.check_same_stream("journal", original.journal,
                                 replica.engine.journal)
        checks.check_same_stream("telemetry", original.telemetry,
                                 replica.engine.telemetry)


WORKLOADS = {w.name: w for w in (DeviceDefrag(), FleetSurge(),
                                 ServiceMixed())}
