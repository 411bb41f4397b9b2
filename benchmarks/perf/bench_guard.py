#!/usr/bin/env python3
"""Benchmark regression guard — fresh smoke runs vs committed evidence.

The committed ``BENCH_sched.json`` / ``BENCH_freespace.json`` /
``BENCH_fleet.json`` / ``BENCH_service.json`` /
``BENCH_prefetch.json`` / ``BENCH_defrag.json`` files are the
performance claims this repository makes (kernel events per second,
queue-discipline ops per second, free-space microbenchmark latency,
fleet scheduling throughput, service door throughput and latency,
prefetch stall reduction, defrag planner latency).  A
refactor can silently walk those claims back without ever reddening a
correctness test, so CI re-runs both harnesses in ``--smoke`` mode and
compares every *rate* metric against the committed baseline:

* rates where **higher is better** (``events_per_second``,
  ``ops_per_second``, ``submissions_per_second``, ...) fail when the
  fresh value drops below ``baseline / factor``;
* rates where **lower is better** (``us_per_op``, the door's p99
  admission latency, the planner's ``*_ms_per_plan``) fail when the
  fresh value rises above ``baseline * factor``.

The default ``factor`` of 3x is deliberately loose: smoke streams are
smaller than the committed full runs and CI machines are slower and
noisier than the machine that produced the baseline, so the guard only
catches *structural* regressions (an accidentally quadratic queue, a
lost cache), never scheduler jitter.  Wall-clock totals are not
compared at all — they scale with stream size, rates largely don't.

Metrics are matched by key (queue name, (queue, ports) cell, (grid,
engine) pair, planner grid); keys present on only one side are
reported and skipped, so resizing the smoke grid does not break the
guard.

Run from the repo root (CI runs exactly this, see
``.github/workflows/ci.yml``):

    PYTHONPATH=src python benchmarks/perf/bench_guard.py

Pass ``--fresh-sched`` / ``--fresh-freespace`` / ``--fresh-fleet`` /
``--fresh-service`` / ``--fresh-prefetch`` / ``--fresh-defrag`` to
compare existing result files instead of re-running the harnesses (the
test suite uses this to exercise the comparison logic on canned
payloads).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

#: Fresh-vs-baseline tolerance: fail only on a worse-than-3x move.
DEFAULT_FACTOR = 3.0

#: Absolute floors (events/second) on the *committed* kernel cells.
#: The ratio comparison above tolerates a slow CI box, but it would
#: also tolerate quietly committing a slower baseline: nothing stops
#: ``BENCH_sched.json`` itself from walking the performance claims
#: back one re-measurement at a time.  These floors pin the claims to
#: the baseline file: every ``(queue, ports)`` cell must stay at or
#: above the blanket floor, and the named cells at their stricter
#: ones.  Raise a floor when an optimisation makes a cell durably
#: faster; lowering one is an explicit, reviewable act.
KERNEL_CELL_FLOOR = 1000.0
KERNEL_CELL_FLOORS = {
    "fifo/serial": 6000.0,
    "fifo/icap": 2000.0,
    "priority/serial": 10000.0,
    "sjf/serial": 10000.0,
}

_PERF_DIR = Path(__file__).resolve().parent
_REPO_ROOT = _PERF_DIR.parent.parent


def sched_rates(payload: dict) -> dict[str, float]:
    """Flatten a ``bench_sched`` payload to ``{metric key: rate}``.

    All rates are higher-is-better throughputs.
    """
    rates: dict[str, float] = {}
    events = payload.get("events")
    if events:
        rates["events/events_per_second"] = events["events_per_second"]
    for row in payload.get("queues", []):
        rates[f"queues/{row['queue']}/ops_per_second"] = \
            row["ops_per_second"]
    for row in payload.get("kernel", []):
        key = f"kernel/{row['queue']}x{row['ports']}/events_per_second"
        rates[key] = row["events_per_second"]
    return rates


def freespace_rates(payload: dict) -> dict[str, float]:
    """Flatten a ``bench_freespace`` payload to ``{metric key: us/op}``.

    All rates are lower-is-better per-operation latencies.
    """
    rates: dict[str, float] = {}
    for row in payload.get("micro", []):
        for engine, us in row.get("us_per_op", {}).items():
            rates[f"micro/{row['grid']}/{engine}/us_per_op"] = us
    return rates


def fleet_rates(payload: dict) -> dict[str, float]:
    """Flatten a ``bench_fleet`` payload to ``{metric key: rate}``.

    All rates are higher-is-better throughputs: end-to-end events per
    second per fleet size and per selection policy, plus the raw
    selection-decision rate.
    """
    rates: dict[str, float] = {}
    for row in payload.get("scaling", []):
        key = f"scaling/size-{row['fleet_size']}/events_per_second"
        rates[key] = row["events_per_second"]
    for row in payload.get("policies", []):
        rates[f"policies/{row['policy']}/events_per_second"] = \
            row["events_per_second"]
    for row in payload.get("selection", []):
        rates[f"selection/{row['policy']}/decisions_per_second"] = \
            row["decisions_per_second"]
    return rates


def service_throughputs(payload: dict) -> dict[str, float]:
    """Higher-is-better rates of a ``bench_service`` payload."""
    rates: dict[str, float] = {}
    crowd = payload.get("flash_crowd")
    if crowd:
        rates["flash_crowd/submissions_per_second"] = \
            crowd["submissions_per_second"]
    http = payload.get("http")
    if http:
        rates["http/requests_per_second"] = http["requests_per_second"]
    return rates


def service_latencies(payload: dict) -> dict[str, float]:
    """Lower-is-better latencies of a ``bench_service`` payload."""
    rates: dict[str, float] = {}
    crowd = payload.get("flash_crowd")
    if crowd:
        rates["flash_crowd/admission_latency_us/p99"] = \
            crowd["admission_latency_us"]["p99"]
    checkpoint = payload.get("checkpoint")
    if checkpoint:
        rates["checkpoint/restore_ms"] = checkpoint["restore_ms"]
    return rates


def prefetch_rates(payload: dict) -> dict[str, float]:
    """Higher-is-better throughputs of a ``bench_prefetch`` payload:
    end-to-end events per second per workload section and mode — the
    cache bookkeeping must never become a simulator slowdown."""
    rates: dict[str, float] = {}
    for section in ("codec_swap", "bursty"):
        for row in payload.get(section, []):
            key = f"{section}/{row['prefetch']}/events_per_second"
            rates[key] = row["events_per_second"]
    return rates


def prefetch_stalls(payload: dict) -> dict[str, float]:
    """Lower-is-better *relative* config stall of a ``bench_prefetch``
    payload: each mode's exposed config-stall seconds divided by the
    same payload's ``never`` row.  Absolute stall totals scale with
    stream size (smoke streams are smaller than the committed full
    runs), the within-payload ratio does not — a mode whose ratio
    climbs toward 1.0 has stopped prefetching."""
    rates: dict[str, float] = {}
    for section in ("codec_swap", "bursty"):
        rows = {row["prefetch"]: row for row in payload.get(section, [])}
        never = rows.get("never")
        if not never or not never["config_stall_seconds"]:
            continue
        for mode, row in rows.items():
            if mode == "never":
                continue
            rates[f"{section}/{mode}/relative_config_stall"] = (
                row["config_stall_seconds"]
                / never["config_stall_seconds"]
            )
    return rates


def defrag_latencies(payload: dict) -> dict[str, float]:
    """Lower-is-better planner latencies of a ``bench_defrag`` payload:
    milliseconds per consolidation and per reactive plan, per grid."""
    rates: dict[str, float] = {}
    for row in payload.get("planner", []):
        for metric in ("consolidation_ms_per_plan", "reactive_ms_per_plan"):
            rates[f"planner/{row['grid']}/{metric}"] = row[metric]
    return rates


def kernel_floor_failures(payload: dict) -> list[str]:
    """Floor violations of a committed ``bench_sched`` baseline.

    Unlike :func:`compare` this never looks at the fresh run: it holds
    the checked-in evidence itself to the absolute per-cell claims in
    :data:`KERNEL_CELL_FLOORS`, so the check is deterministic on every
    machine.
    """
    failures = []
    for row in payload.get("kernel", []):
        cell = f"{row['queue']}/{row['ports']}"
        floor = KERNEL_CELL_FLOORS.get(cell, KERNEL_CELL_FLOOR)
        rate = row["events_per_second"]
        if rate < floor:
            failures.append(
                f"kernel/{cell}: committed baseline {rate:.0f} ev/s is "
                f"below its {floor:.0f} ev/s floor"
            )
    return failures


def compare(baseline: dict[str, float], fresh: dict[str, float],
            factor: float, higher_is_better: bool) -> list[str]:
    """Regression messages for every shared metric outside tolerance."""
    failures = []
    for key in sorted(baseline.keys() & fresh.keys()):
        base, now = baseline[key], fresh[key]
        if base <= 0 or now <= 0:
            continue  # degenerate timing; nothing to compare
        ratio = base / now if higher_is_better else now / base
        if ratio > factor:
            direction = "dropped" if higher_is_better else "rose"
            failures.append(
                f"{key}: {direction} {ratio:.1f}x "
                f"(baseline {base:.1f}, fresh {now:.1f})"
            )
    for key in sorted(baseline.keys() ^ fresh.keys()):
        side = "baseline" if key in baseline else "fresh"
        print(f"note: {key} only in {side}; skipped")
    return failures


def _run_smoke(harness: str, out: Path) -> dict:
    """Run one perf harness in smoke mode and load its JSON."""
    subprocess.run(
        [sys.executable, str(_PERF_DIR / harness), "--smoke",
         "--out", str(out)],
        check=True, cwd=_REPO_ROOT,
    )
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    """Compare fresh smoke runs against the committed baselines."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                        help="per-metric regression tolerance "
                             "(default: %(default)sx)")
    parser.add_argument("--baseline-dir", default=str(_REPO_ROOT),
                        metavar="DIR",
                        help="directory holding the committed BENCH files")
    parser.add_argument("--fresh-sched", metavar="PATH",
                        help="existing bench_sched result to compare "
                             "instead of re-running the harness")
    parser.add_argument("--fresh-freespace", metavar="PATH",
                        help="existing bench_freespace result to compare "
                             "instead of re-running the harness")
    parser.add_argument("--fresh-fleet", metavar="PATH",
                        help="existing bench_fleet result to compare "
                             "instead of re-running the harness")
    parser.add_argument("--fresh-service", metavar="PATH",
                        help="existing bench_service result to compare "
                             "instead of re-running the harness")
    parser.add_argument("--fresh-prefetch", metavar="PATH",
                        help="existing bench_prefetch result to compare "
                             "instead of re-running the harness")
    parser.add_argument("--fresh-defrag", metavar="PATH",
                        help="existing bench_defrag result to compare "
                             "instead of re-running the harness")
    args = parser.parse_args(argv)
    baseline_dir = Path(args.baseline_dir)

    with tempfile.TemporaryDirectory(prefix="bench_guard_") as tmp:
        if args.fresh_sched:
            fresh_sched = json.loads(Path(args.fresh_sched).read_text())
        else:
            fresh_sched = _run_smoke("bench_sched.py",
                                     Path(tmp) / "sched.json")
        if args.fresh_freespace:
            fresh_free = json.loads(Path(args.fresh_freespace).read_text())
        else:
            fresh_free = _run_smoke("bench_freespace.py",
                                    Path(tmp) / "freespace.json")
        if args.fresh_fleet:
            fresh_fleet = json.loads(Path(args.fresh_fleet).read_text())
        else:
            fresh_fleet = _run_smoke("bench_fleet.py",
                                     Path(tmp) / "fleet.json")
        if args.fresh_service:
            fresh_service = json.loads(
                Path(args.fresh_service).read_text()
            )
        else:
            fresh_service = _run_smoke("bench_service.py",
                                       Path(tmp) / "service.json")
        if args.fresh_prefetch:
            fresh_prefetch = json.loads(
                Path(args.fresh_prefetch).read_text()
            )
        else:
            # The harness itself exits non-zero when a prefetch mode
            # stops beating `never`, so a structural breakage fails
            # here before any ratio is compared.
            fresh_prefetch = _run_smoke("bench_prefetch.py",
                                        Path(tmp) / "prefetch.json")
        if args.fresh_defrag:
            fresh_defrag = json.loads(Path(args.fresh_defrag).read_text())
        else:
            fresh_defrag = _run_smoke("bench_defrag.py",
                                      Path(tmp) / "defrag.json")

    failures = []
    baseline_sched = json.loads(
        (baseline_dir / "BENCH_sched.json").read_text()
    )
    failures += kernel_floor_failures(baseline_sched)
    failures += compare(sched_rates(baseline_sched),
                        sched_rates(fresh_sched),
                        args.factor, higher_is_better=True)
    baseline_free = json.loads(
        (baseline_dir / "BENCH_freespace.json").read_text()
    )
    failures += compare(freespace_rates(baseline_free),
                        freespace_rates(fresh_free),
                        args.factor, higher_is_better=False)
    baseline_fleet = json.loads(
        (baseline_dir / "BENCH_fleet.json").read_text()
    )
    failures += compare(fleet_rates(baseline_fleet),
                        fleet_rates(fresh_fleet),
                        args.factor, higher_is_better=True)
    baseline_service = json.loads(
        (baseline_dir / "BENCH_service.json").read_text()
    )
    failures += compare(service_throughputs(baseline_service),
                        service_throughputs(fresh_service),
                        args.factor, higher_is_better=True)
    failures += compare(service_latencies(baseline_service),
                        service_latencies(fresh_service),
                        args.factor, higher_is_better=False)
    baseline_prefetch = json.loads(
        (baseline_dir / "BENCH_prefetch.json").read_text()
    )
    failures += compare(prefetch_rates(baseline_prefetch),
                        prefetch_rates(fresh_prefetch),
                        args.factor, higher_is_better=True)
    failures += compare(prefetch_stalls(baseline_prefetch),
                        prefetch_stalls(fresh_prefetch),
                        args.factor, higher_is_better=False)
    baseline_defrag = json.loads(
        (baseline_dir / "BENCH_defrag.json").read_text()
    )
    failures += compare(defrag_latencies(baseline_defrag),
                        defrag_latencies(fresh_defrag),
                        args.factor, higher_is_better=False)
    if not fresh_service.get("checkpoint", {}).get(
            "roundtrip_identical", True):
        failures.append(
            "checkpoint/roundtrip_identical: restored service diverged "
            "from the uninterrupted run"
        )

    if failures:
        print(f"bench_guard: {len(failures)} metric(s) regressed "
              f"beyond {args.factor}x:")
        for line in failures:
            print(f"  FAIL {line}")
        return 1
    print(f"bench_guard: all shared metrics within {args.factor}x "
          f"of the committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
