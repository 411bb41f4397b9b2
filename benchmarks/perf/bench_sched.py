#!/usr/bin/env python3
"""Scheduling-kernel performance harness — ``BENCH_sched.json``.

The kernel refactor put every scheduler event (arrival, admission pass,
finish, timeout, defrag trigger) through one shared code path, so its
event throughput bounds how large a simulated workload a campaign can
afford.  Three layers of evidence:

* **events** — the raw discrete-event core: schedule/cancel/run cycles
  through :class:`~repro.sched.events.EventQueue`, reported as events
  per second;
* **queues** — discipline mechanics in isolation: push + tombstone
  discard + scan over large queues for every discipline, showing the
  lazy-tombstone scheme holds its O(1) discard as queues grow (the
  historical ``deque.remove`` path was O(n) per timeout);
* **kernel** — whole-scheduler runs: one heavy-tail stream per
  (queue discipline x port model) cell, wall clock plus the kernel's
  processed-event counter, i.e. end-to-end events per second.  Each
  cell also samples the :data:`repro.perf.PERF` hot-path counters
  (probes issued, memo and dominance skips, eviction screens and
  relocation searches, first-fit probes), so the committed JSON shows
  *why* a cell is fast, not just how fast — the next optimisation round
  starts from committed hit rates instead of ad-hoc profiling.  The
  ``screen_cache_*`` and ``first_fit_vector`` columns always read 0
  now (their caches and paths were deleted); they stay so the payload
  layout matches the committed file.

Run from the repo root:

    PYTHONPATH=src python benchmarks/perf/bench_sched.py
    PYTHONPATH=src python benchmarks/perf/bench_sched.py --smoke

``--smoke`` shrinks stream sizes for CI; ``--profile PATH`` wraps the
kernel grid in cProfile and writes the stats file to PATH (CI attaches
it to every run as an artifact, so a regression always ships with the
profile that explains it).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import sys
import time
import zlib
from pathlib import Path

from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.perf import PERF
from repro.sched.events import EventQueue
from repro.sched.ports import PORT_MODEL_NAMES
from repro.sched.queues import QUEUE_NAMES, make_queue
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.workload import heavy_tail_tasks


def bench_events(n_events: int) -> dict:
    """Raw event-core throughput: schedule, cancel 25 %, run to empty."""
    queue = EventQueue()
    sink = []
    started = time.perf_counter()
    handles = [
        queue.at(float(i % 977), lambda i=i: sink.append(i))
        for i in range(n_events)
    ]
    for handle in handles[::4]:
        handle.cancel()
    queue.run()
    elapsed = time.perf_counter() - started
    fired = len(sink)
    return {
        "scheduled": n_events,
        "fired": fired,
        "wall_seconds": elapsed,
        "events_per_second": fired / elapsed if elapsed > 0 else 0.0,
    }


class _Stub:
    """Queueable stand-in with the area the disciplines order by."""

    __slots__ = ("area",)

    def __init__(self, area: int) -> None:
        self.area = area


def bench_queues(n_items: int) -> list[dict]:
    """Discipline mechanics: push all, tombstone half, scan+take rest."""
    out = []
    for name in QUEUE_NAMES:
        discipline = make_queue(name)
        items = [_Stub(area=(i * 37) % 100 + 1) for i in range(n_items)]
        started = time.perf_counter()
        for i, item in enumerate(items):
            discipline.push(item, priority=i % 4, area=item.area,
                            now=float(i))
        for item in items[::2]:
            discipline.discard(item)  # O(1) tombstone, half the queue
        drained = 0
        now = float(n_items)
        while len(discipline):
            for item in discipline.scan(now):
                discipline.take(item)
                drained += 1
                break
        elapsed = time.perf_counter() - started
        ops = n_items * 2 + drained  # pushes + discards + scans
        out.append({
            "queue": name,
            "items": n_items,
            "drained": drained,
            "wall_seconds": elapsed,
            "ops_per_second": ops / elapsed if elapsed > 0 else 0.0,
        })
        print(
            f"queue {name:>9}: {elapsed:6.3f} s for {n_items} push + "
            f"{n_items // 2} discard + {drained} scans "
            f"({out[-1]['ops_per_second']:10.0f} ops/s)"
        )
    return out


def cell_seed(queue: str, ports: str) -> int:
    """Deterministic workload seed for one (queue, ports) cell.

    Every cell replays its *own* fixed stream: a CRC of the cell name,
    stable across runs, machines and Python versions (unlike ``hash``).
    Re-running the harness therefore reproduces every cell bit-for-bit
    (``tests/test_bench_sched.py`` pins this), while distinct cells no
    longer share one stream — a single pathological seed cannot skew
    the whole grid.
    """
    return zlib.crc32(f"{queue}/{ports}".encode()) % 100_000


def bench_kernel(n_tasks: int) -> list[dict]:
    """End-to-end scheduler event throughput per (queue, ports) cell.

    The first cell's run is preceded by one small *untimed* warmup run
    so allocator pools and numpy kernels are paged in before anything
    is measured — historically the first cell paid the process cold
    start and read ~20 % slow.
    """
    out = []
    dev = device("XCV200")
    warm = OnlineTaskScheduler(
        LogicSpaceManager(Fabric(dev)),
        queue=QUEUE_NAMES[0], ports=PORT_MODEL_NAMES[0],
    )
    warm.run(heavy_tail_tasks(
        min(n_tasks, 60), seed=cell_seed(QUEUE_NAMES[0], PORT_MODEL_NAMES[0]),
        mean_interarrival=0.05, size_range=(3, 10), max_wait=8.0,
        priority_levels=3,
    ))
    for queue in QUEUE_NAMES:
        for ports in PORT_MODEL_NAMES:
            manager = LogicSpaceManager(Fabric(dev))
            seed = cell_seed(queue, ports)
            tasks = heavy_tail_tasks(
                n_tasks, seed=seed, mean_interarrival=0.05,
                size_range=(3, 10), max_wait=8.0, priority_levels=3,
            )
            scheduler = OnlineTaskScheduler(manager, queue=queue,
                                            ports=ports)
            PERF.reset()
            started = time.perf_counter()
            metrics = scheduler.run(tasks)
            elapsed = time.perf_counter() - started
            processed = scheduler.events.processed
            out.append({
                "queue": queue,
                "ports": ports,
                "tasks": n_tasks,
                "seed": seed,
                "events_processed": processed,
                "wall_seconds": elapsed,
                "events_per_second": (
                    processed / elapsed if elapsed > 0 else 0.0
                ),
                "finished": metrics.finished,
                "rejected": metrics.rejected,
                "perf": PERF.collect(),
            })
            print(
                f"kernel {queue:>9} x {ports:<8}: {elapsed:6.3f} s, "
                f"{processed:6d} events "
                f"({out[-1]['events_per_second']:9.0f} ev/s), "
                f"{metrics.finished} finished / {metrics.rejected} rejected"
            )
    return out


def main(argv: list[str] | None = None) -> int:
    """Run the harness and write the JSON evidence."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: smaller streams")
    parser.add_argument("--out", default="BENCH_sched.json",
                        metavar="PATH", help="output JSON path")
    parser.add_argument("--profile", metavar="PATH",
                        help="cProfile the kernel grid and write the "
                             "pstats dump here (read it with "
                             "'python -m pstats PATH')")
    args = parser.parse_args(argv)
    n_events = 20_000 if args.smoke else 200_000
    n_items = 5_000 if args.smoke else 50_000
    n_tasks = 60 if args.smoke else 300
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
        kernel_rows = bench_kernel(n_tasks)
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(f"wrote kernel-grid profile to {args.profile}")
    else:
        kernel_rows = bench_kernel(n_tasks)
    payload = {
        "machine": platform.platform(),
        "python": platform.python_version(),
        "smoke": args.smoke,
        "events": bench_events(n_events),
        "queues": bench_queues(n_items),
        "kernel": kernel_rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
