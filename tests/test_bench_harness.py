"""The perf harnesses as software: determinism and the regression guard.

Two things the benchmark layer now promises:

* ``bench_sched.bench_kernel`` pins one deterministic workload seed per
  (queue, ports) cell — two invocations replay identical histories, so
  event counts and admission outcomes are comparable run to run (the
  historical single shared seed also meant one pathological stream
  skewed every cell);
* ``bench_guard`` compares fresh smoke rates against the committed
  ``BENCH_*.json`` evidence and fails on any worse-than-``factor``
  move, in the right direction for each metric family (throughputs
  must not drop, per-op latencies must not rise), skipping keys present
  on only one side.

The guard's comparison logic is tested on canned payloads here; CI runs
the real thing (fresh smoke runs) as a separate job step.
"""

import importlib.util
from pathlib import Path

import pytest

_PERF = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, _PERF / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_sched = _load("bench_sched")
bench_guard = _load("bench_guard")


class TestKernelSeeding:
    def test_cell_seeds_distinct_and_stable(self):
        """Every (queue, ports) cell gets its own seed, and the mapping
        is a pure function — stable across processes and machines
        (CRC32, not ``hash``)."""
        from repro.sched.ports import PORT_MODEL_NAMES
        from repro.sched.queues import QUEUE_NAMES

        cells = [(q, p) for q in QUEUE_NAMES for p in PORT_MODEL_NAMES]
        seeds = [bench_sched.cell_seed(q, p) for q, p in cells]
        assert len(set(seeds)) == len(cells)
        assert seeds == [bench_sched.cell_seed(q, p) for q, p in cells]

    def test_two_smoke_runs_identical_event_counts(self):
        """The satellite acceptance: re-running the kernel bench
        replays every cell bit-for-bit — identical event counts and
        admission outcomes, only the wall clock may differ."""
        first = bench_sched.bench_kernel(15)
        second = bench_sched.bench_kernel(15)
        deterministic = [
            {k: row[k] for k in ("queue", "ports", "seed",
                                 "events_processed", "finished",
                                 "rejected")}
            for row in first
        ]
        assert deterministic == [
            {k: row[k] for k in ("queue", "ports", "seed",
                                 "events_processed", "finished",
                                 "rejected")}
            for row in second
        ]


class TestGuardRates:
    def test_sched_rates_flatten(self):
        payload = {
            "events": {"events_per_second": 50_000.0},
            "queues": [{"queue": "fifo", "ops_per_second": 1e6}],
            "kernel": [{"queue": "fifo", "ports": "serial",
                        "events_per_second": 4000.0}],
        }
        assert bench_guard.sched_rates(payload) == {
            "events/events_per_second": 50_000.0,
            "queues/fifo/ops_per_second": 1e6,
            "kernel/fifoxserial/events_per_second": 4000.0,
        }

    def test_freespace_rates_flatten(self):
        payload = {"micro": [
            {"grid": "XCV200",
             "us_per_op": {"recompute": 1800.0, "incremental": 110.0}},
        ]}
        assert bench_guard.freespace_rates(payload) == {
            "micro/XCV200/recompute/us_per_op": 1800.0,
            "micro/XCV200/incremental/us_per_op": 110.0,
        }

    def test_fleet_rates_flatten(self):
        payload = {
            "scaling": [{"fleet_size": 2, "events_per_second": 700.0}],
            "policies": [{"policy": "round-robin",
                          "events_per_second": 650.0}],
            "selection": [{"policy": "first-fit",
                           "decisions_per_second": 150_000.0}],
        }
        assert bench_guard.fleet_rates(payload) == {
            "scaling/size-2/events_per_second": 700.0,
            "policies/round-robin/events_per_second": 650.0,
            "selection/first-fit/decisions_per_second": 150_000.0,
        }

    def test_prefetch_rates_flatten_and_stalls_normalize(self):
        payload = {
            "codec_swap": [
                {"prefetch": "never", "events_per_second": 800.0,
                 "config_stall_seconds": 0.4},
                {"prefetch": "plan", "events_per_second": 900.0,
                 "config_stall_seconds": 0.3},
            ],
            "bursty": [],
        }
        assert bench_guard.prefetch_rates(payload) == {
            "codec_swap/never/events_per_second": 800.0,
            "codec_swap/plan/events_per_second": 900.0,
        }
        # Stall is exported as a ratio against the same payload's
        # `never` row, so smoke and full runs stay comparable.
        assert bench_guard.prefetch_stalls(payload) == {
            "codec_swap/plan/relative_config_stall": pytest.approx(0.75),
        }

    def test_prefetch_stalls_skip_degenerate_baseline(self):
        payload = {"codec_swap": [
            {"prefetch": "never", "events_per_second": 1.0,
             "config_stall_seconds": 0.0},
            {"prefetch": "cache", "events_per_second": 1.0,
             "config_stall_seconds": 0.0},
        ], "bursty": []}
        assert bench_guard.prefetch_stalls(payload) == {}

    def test_service_rates_split_by_direction(self):
        payload = {
            "flash_crowd": {
                "submissions_per_second": 800.0,
                "admission_latency_us": {"p50": 90.0, "p99": 1500.0},
            },
            "checkpoint": {"restore_ms": 5.0,
                           "roundtrip_identical": True},
            "http": {"requests_per_second": 2000.0},
        }
        assert bench_guard.service_throughputs(payload) == {
            "flash_crowd/submissions_per_second": 800.0,
            "http/requests_per_second": 2000.0,
        }
        assert bench_guard.service_latencies(payload) == {
            "flash_crowd/admission_latency_us/p99": 1500.0,
            "checkpoint/restore_ms": 5.0,
        }

    def test_committed_defrag_file_gates_a_slower_planner(self):
        """The committed planner cells pass against themselves, and one
        consolidation row 4x slower fails at the default ratio."""
        import copy
        import json

        committed = json.loads(
            (_PERF.parent.parent / "BENCH_defrag.json").read_text()
        )
        base = bench_guard.defrag_latencies(committed)
        assert {"planner/XCV200/consolidation_ms_per_plan",
                "planner/XCV200/reactive_ms_per_plan"} <= base.keys()
        assert bench_guard.compare(base, base, bench_guard.DEFAULT_FACTOR,
                                   higher_is_better=False) == []
        slower = copy.deepcopy(committed)
        row = next(r for r in slower["planner"] if r["grid"] == "XCV200")
        row["consolidation_ms_per_plan"] *= 4
        failures = bench_guard.compare(
            base, bench_guard.defrag_latencies(slower),
            bench_guard.DEFAULT_FACTOR, higher_is_better=False,
        )
        assert len(failures) == 1
        assert failures[0].startswith(
            "planner/XCV200/consolidation_ms_per_plan: rose 4.0x")


class TestGuardCompare:
    BASE = {"a": 1000.0, "b": 200.0}

    def test_within_tolerance_passes(self):
        fresh = {"a": 400.0, "b": 190.0}  # 2.5x down: inside 3x
        assert bench_guard.compare(self.BASE, fresh, 3.0,
                                   higher_is_better=True) == []

    def test_throughput_drop_fails(self):
        fresh = {"a": 300.0, "b": 190.0}  # a dropped 3.3x
        failures = bench_guard.compare(self.BASE, fresh, 3.0,
                                       higher_is_better=True)
        assert len(failures) == 1 and failures[0].startswith("a:")

    def test_latency_rise_fails_in_other_direction(self):
        fresh = {"a": 3500.0, "b": 250.0}  # a rose 3.5x
        failures = bench_guard.compare(self.BASE, fresh, 3.0,
                                       higher_is_better=False)
        assert len(failures) == 1 and failures[0].startswith("a:")
        # The same move read as a throughput would *pass* — direction
        # matters.
        assert bench_guard.compare(self.BASE, fresh, 3.0,
                                   higher_is_better=True) == []

    def test_unshared_keys_skipped(self):
        fresh = {"a": 900.0, "new_cell": 5.0}
        assert bench_guard.compare(self.BASE, fresh, 3.0,
                                   higher_is_better=True) == []

    def test_degenerate_timings_skipped(self):
        fresh = {"a": 0.0, "b": 190.0}
        assert bench_guard.compare(self.BASE, fresh, 3.0,
                                   higher_is_better=True) == []


class TestKernelFloors:
    """Absolute floors on the committed kernel baseline itself."""

    @staticmethod
    def _cell(queue, ports, rate):
        return {"queue": queue, "ports": ports,
                "events_per_second": rate}

    def test_healthy_baseline_passes(self):
        payload = {"kernel": [
            self._cell("fifo", "serial", 6500.0),
            self._cell("backfill", "icap", 1100.0),
        ]}
        assert bench_guard.kernel_floor_failures(payload) == []

    def test_blanket_floor_catches_any_cell(self):
        payload = {"kernel": [self._cell("backfill", "icap", 900.0)]}
        failures = bench_guard.kernel_floor_failures(payload)
        assert len(failures) == 1
        assert "backfill/icap" in failures[0]

    def test_named_floor_is_stricter_than_blanket(self):
        # 5000 ev/s clears the blanket floor by 5x but not the cell's
        # own 6000 ev/s claim.
        payload = {"kernel": [self._cell("fifo", "serial", 5000.0)]}
        failures = bench_guard.kernel_floor_failures(payload)
        assert len(failures) == 1 and "fifo/serial" in failures[0]

    def test_committed_baseline_meets_its_floors(self):
        """The repo's own BENCH_sched.json honours every claim the
        guard enforces — the acceptance evidence, checked in CI."""
        import json

        payload = json.loads(
            (Path(__file__).parent.parent / "BENCH_sched.json")
            .read_text()
        )
        assert payload["kernel"], "committed baseline has no kernel grid"
        assert bench_guard.kernel_floor_failures(payload) == []

    def test_slow_committed_baseline_fails_the_cli(self, tmp_path):
        """The floor check runs against the *baseline*, so a healthy
        fresh run cannot mask a walked-back committed claim."""
        import json

        e2e = TestGuardEndToEnd()
        base = e2e._baselines(tmp_path)
        sched = json.loads((base / "BENCH_sched.json").read_text())
        sched["kernel"] = [self._cell("backfill", "icap", 500.0)]
        (base / "BENCH_sched.json").write_text(json.dumps(sched))
        paths = e2e._fresh(tmp_path, events=30_000.0, us=150.0)
        assert e2e._run(base, paths) == 1


class TestGuardEndToEnd:
    """The CLI on canned fresh payloads (no benchmark runs)."""

    def _baselines(self, tmp_path: Path) -> Path:
        import json

        (tmp_path / "BENCH_sched.json").write_text(json.dumps({
            "events": {"events_per_second": 60_000.0},
            "queues": [], "kernel": [],
        }))
        (tmp_path / "BENCH_freespace.json").write_text(json.dumps({
            "micro": [{"grid": "XCV200",
                       "us_per_op": {"incremental": 100.0}}],
        }))
        (tmp_path / "BENCH_fleet.json").write_text(json.dumps({
            "scaling": [{"fleet_size": 2,
                         "events_per_second": 700.0}],
            "policies": [], "selection": [],
        }))
        (tmp_path / "BENCH_service.json").write_text(json.dumps({
            "flash_crowd": {"submissions_per_second": 800.0,
                            "admission_latency_us": {"p99": 1000.0}},
            "checkpoint": {"restore_ms": 5.0,
                           "roundtrip_identical": True},
            "http": {"requests_per_second": 2000.0},
        }))
        (tmp_path / "BENCH_prefetch.json").write_text(json.dumps({
            "codec_swap": [
                {"prefetch": "never", "events_per_second": 800.0,
                 "config_stall_seconds": 0.4},
                {"prefetch": "plan", "events_per_second": 900.0,
                 "config_stall_seconds": 0.25},
            ],
            "bursty": [],
        }))
        (tmp_path / "BENCH_defrag.json").write_text(json.dumps({
            "planner": [{"grid": "XCV200",
                         "consolidation_ms_per_plan": 1.0,
                         "reactive_ms_per_plan": 10.0}],
        }))
        return tmp_path

    def _fresh(self, tmp_path: Path, events: float, us: float,
               fleet: float = 600.0, subs: float = 700.0,
               roundtrip: bool = True, plan_stall: float = 0.2,
               consolidation_ms: float = 1.5):
        import json

        sched = tmp_path / "fresh_sched.json"
        sched.write_text(json.dumps(
            {"events": {"events_per_second": events},
             "queues": [], "kernel": []}
        ))
        free = tmp_path / "fresh_free.json"
        free.write_text(json.dumps(
            {"micro": [{"grid": "XCV200",
                        "us_per_op": {"incremental": us}}]}
        ))
        fleet_path = tmp_path / "fresh_fleet.json"
        fleet_path.write_text(json.dumps(
            {"scaling": [{"fleet_size": 2, "events_per_second": fleet}],
             "policies": [], "selection": []}
        ))
        service = tmp_path / "fresh_service.json"
        service.write_text(json.dumps(
            {"flash_crowd": {"submissions_per_second": subs,
                             "admission_latency_us": {"p99": 1200.0}},
             "checkpoint": {"restore_ms": 6.0,
                            "roundtrip_identical": roundtrip},
             "http": {"requests_per_second": 1800.0}}
        ))
        prefetch = tmp_path / "fresh_prefetch.json"
        prefetch.write_text(json.dumps(
            {"codec_swap": [
                {"prefetch": "never", "events_per_second": 750.0,
                 "config_stall_seconds": 0.5},
                {"prefetch": "plan", "events_per_second": 850.0,
                 "config_stall_seconds": plan_stall},
            ], "bursty": []}
        ))
        defrag = tmp_path / "fresh_defrag.json"
        defrag.write_text(json.dumps(
            {"planner": [{"grid": "XCV200",
                          "consolidation_ms_per_plan": consolidation_ms,
                          "reactive_ms_per_plan": 12.0}]}
        ))
        return sched, free, fleet_path, service, prefetch, defrag

    def _run(self, base: Path, paths) -> int:
        sched, free, fleet, service, prefetch, defrag = paths
        return bench_guard.main([
            "--baseline-dir", str(base),
            "--fresh-sched", str(sched),
            "--fresh-freespace", str(free),
            "--fresh-fleet", str(fleet),
            "--fresh-service", str(service),
            "--fresh-prefetch", str(prefetch),
            "--fresh-defrag", str(defrag),
        ])

    def test_clean_comparison_exits_zero(self, tmp_path):
        base = self._baselines(tmp_path)
        paths = self._fresh(tmp_path, events=30_000.0, us=150.0)
        assert self._run(base, paths) == 0

    def test_regression_exits_nonzero(self, tmp_path):
        base = self._baselines(tmp_path)
        paths = self._fresh(tmp_path, events=10_000.0, us=450.0)
        assert self._run(base, paths) == 1

    def test_fleet_throughput_drop_caught(self, tmp_path):
        base = self._baselines(tmp_path)
        paths = self._fresh(tmp_path, events=30_000.0, us=150.0,
                            fleet=100.0)
        assert self._run(base, paths) == 1

    def test_prefetch_stall_rise_caught(self, tmp_path):
        """A mode whose relative config stall climbs past tolerance
        (the cache quietly stopped helping) fails the guard."""
        base = self._baselines(tmp_path)
        # Baseline plan/never stall ratio is 0.25/0.4 = 0.625; the
        # fresh 0.99/0.5 = 1.98 is 3.2x worse and must fail, while the
        # default 0.2/0.5 = 0.4 passes (see the cases above).
        paths = self._fresh(tmp_path, events=30_000.0, us=150.0,
                            plan_stall=0.99)
        assert self._run(base, paths) == 1

    def test_defrag_planner_slowdown_caught(self, tmp_path):
        base = self._baselines(tmp_path)
        paths = self._fresh(tmp_path, events=30_000.0, us=150.0,
                            consolidation_ms=4.0)
        assert self._run(base, paths) == 1

    def test_checkpoint_divergence_fails_even_when_fast(self, tmp_path):
        """``roundtrip_identical: false`` is a correctness failure the
        guard must flag regardless of every rate being healthy."""
        base = self._baselines(tmp_path)
        paths = self._fresh(tmp_path, events=30_000.0, us=150.0,
                            roundtrip=False)
        assert self._run(base, paths) == 1
