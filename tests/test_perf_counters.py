"""Exact hot-path work counters for two fixed, seeded runs.

The :mod:`repro.perf` counters are a pure function of a seeded run:
they count probes, eviction screens, screened windows, relocation
searches and packed first-fit calls, never host time.  Pinning them
exactly makes a lost memo or an extra screen fail here with no host
noise.  A deliberate change to the admission path's work updates the
numbers below together with the change that explains them.
"""

from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.fleet import FleetManager
from repro.perf import PERF
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.workload import fleet_surge_tasks, heavy_tail_tasks

PINNED = (
    "admission_probes",
    "screen_calls",
    "screen_windows",
    "evict_moves_calls",
    "first_fit_scalar",
)


def _counted(scheduler: OnlineTaskScheduler, tasks) -> dict:
    """Run ``tasks`` and return the pinned counters of that run."""
    PERF.reset()
    scheduler.run(tasks)
    snapshot = PERF.snapshot()
    return {name: snapshot[name] for name in PINNED}


def test_two_member_fleet_surge_work_is_pinned():
    fleet = FleetManager(
        [LogicSpaceManager(Fabric(device("XC2S30"))) for _ in range(2)],
        policy="first-fit",
    )
    tasks = fleet_surge_tasks(300, seed=11, priority_levels=3)
    counts = _counted(OnlineTaskScheduler(fleet, queue="priority"), tasks)
    assert counts == {
        "admission_probes": 296,
        "screen_calls": 202,
        "screen_windows": 3049,
        "evict_moves_calls": 140,
        "first_fit_scalar": 767,
    }


def test_single_device_backfill_icap_work_is_pinned():
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    tasks = heavy_tail_tasks(
        300, seed=5, mean_interarrival=0.05, size_range=(2, 6),
        max_wait=4.0, priority_levels=3,
    )
    scheduler = OnlineTaskScheduler(manager, queue="backfill", ports="icap")
    counts = _counted(scheduler, tasks)
    assert counts == {
        "admission_probes": 3273,
        "screen_calls": 758,
        "screen_windows": 22120,
        "evict_moves_calls": 1183,
        "first_fit_scalar": 6336,
    }
