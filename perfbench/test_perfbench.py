"""Tests of the benchmark's own machinery.

Each correctness check is shown failing on an input built to break it,
and the tracer's self-time arithmetic, its handling of re-exported
names and the nearest-rank percentile are pinned on small cases.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.service
from perfbench import checks, workloads
from perfbench.hostspeed import ScaledClock
from perfbench.run import DEFAULT_SEED, HELD_OUT_SEED, percentile
from perfbench.tracing import Tracer
from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric


def small_service() -> workloads.ServiceMixed:
    """The service workload cut to 120 submissions, 4 checkpoints."""
    workload = workloads.ServiceMixed()
    workload.submissions = 120
    workload.checkpoint_every = 30
    return workload


# -- percentile ---------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [35, 20, 15, 50, 40]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile(values, 0) == 15
    assert percentile(list(range(1, 101)), 99) == 99
    with pytest.raises(ValueError):
        percentile([], 50)


# -- tracer -------------------------------------------------------------------

class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.self_seconds == {"leaf": 4.0, "middle": 1.5,
                                   "outer": 3.0}
    assert tracer.total_seconds == {"leaf": 4.0, "middle": 5.5,
                                    "outer": 8.5}
    by_name = {}
    for span_id, parent, _request, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, start, end))
    outer_id = by_name["outer"][0][0]
    middle_id = by_name["middle"][0][0]
    assert by_name["outer"][0][1] is None
    assert by_name["middle"][0][1] == outer_id
    assert [p for _, p, _, _ in by_name["leaf"]] == [middle_id, middle_id]
    assert by_name["outer"][0][2:] == (0.0, 8.5)


def test_span_request_ids_come_from_arguments_or_parent():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda: None)
    owner = tracer.wrap("owner", lambda _self, task_id: inner(), id_arg=1)
    tracer.request = 7
    tracer.wrap("plain", lambda: None)()
    owner(object(), 42)
    requests = {name: request for _, _, request, name, _, _ in tracer.spans}
    assert requests == {"plain": 7, "owner": 42, "inner": 42}


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.now += 1.0
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.wrap("failing", failing)()
    assert tracer.self_seconds["failing"] == 1.0
    tracer.reset()
    assert not tracer.spans and not tracer.calls


def test_patch_reaches_reexported_names_and_uninstalls():
    original = repro.service.checkpoint.snapshot
    assert repro.service.snapshot is original
    tracer = Tracer()
    tracer.patch(repro.service.checkpoint, "snapshot", "snap")
    try:
        assert repro.service.snapshot is not original
        repro.service.snapshot(repro.service.ReproService())
    finally:
        tracer.uninstall()
    assert tracer.calls["snap"] == 1
    assert repro.service.snapshot is original
    assert repro.service.checkpoint.snapshot is original


def test_tracing_leaves_the_simulation_unchanged():
    for workload in (workloads.WORKLOADS["device-defrag"],
                     workloads.WORKLOADS["fleet-surge"], small_service()):
        rows = workload.generate(3)[:120]
        plain = workload.replay(rows)
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.replay(rows, tracer=tracer)
        finally:
            tracer.uninstall()
        assert tracer.calls["sched.kernel.drain"] > 0
        assert traced.outcome_digest == plain.outcome_digest


# -- host-speed scaling -------------------------------------------------------

def test_scaled_clock_scales_each_stretch_by_its_probes():
    clock = FakeClock()
    probes = iter([0.02, 0.02, 0.01])  # at start, then at each close
    timer = ScaledClock(probe=lambda: next(probes), every=1.0, clock=clock)
    clock.now += 0.4
    timer.sample("submit", 0.4)
    timer.tick()  # 0.4 s old: stays open
    assert timer.raw_s == 0.0
    clock.now += 0.6
    timer.sample("submit", 0.6)
    timer.tick()  # closes: probes 0.02 and 0.02, half the reference speed
    assert timer.raw_s == pytest.approx(1.0)
    assert timer.scaled_s == pytest.approx(0.5)
    assert timer.samples["submit"] == pytest.approx([0.2, 0.3])
    clock.now += 0.3
    timer.sample("read", 0.3)
    timer.close()  # probes 0.02 and 0.01: scale 0.010 / 0.015
    assert timer.raw_s == pytest.approx(1.3)
    assert timer.scaled_s == pytest.approx(0.7)
    assert timer.samples["read"] == pytest.approx([0.2])


def test_scaled_clock_without_probe_is_raw_host_time():
    clock = FakeClock()
    timer = ScaledClock(probe=None, clock=clock)
    clock.now += 2.0
    timer.sample("submit", 2.0)
    timer.close()
    assert timer.raw_s == timer.scaled_s == 2.0
    assert timer.samples == {"submit": [2.0]}


# -- correctness checks -------------------------------------------------------

def test_input_digest_check_flags_a_changed_load():
    table = checks.load_digests()
    for name, workload in workloads.WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rows = workload.generate(workloads.cell_seed(seed, 0))
            assert checks.check_input_digest(name, seed,
                                             checks.digest(rows), table)
    rows = workloads.WORKLOADS["fleet-surge"].generate(
        workloads.cell_seed(DEFAULT_SEED, 0))
    rows[10][3] += 1e-9  # one execution time, one nanosecond longer
    with pytest.raises(checks.CheckFailed, match="input digest"):
        checks.check_input_digest("fleet-surge", DEFAULT_SEED,
                                  checks.digest(rows), table)
    assert not checks.check_input_digest("fleet-surge", 10**6, "x", table)


def test_conservation_check_flags_a_lost_task():
    counts = {"attempted": 10, "finished": 6, "rejected": 2, "refused": 1,
              "cancelled": 1, "dropped": 0}
    checks.check_conservation(counts)
    counts["finished"] = 5
    with pytest.raises(checks.CheckFailed, match="conservation"):
        checks.check_conservation(counts)


def test_empty_fabric_check_flags_a_leaked_region():
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    checks.check_fabrics_empty([manager])
    assert manager.request(2, 3, owner=1).success
    with pytest.raises(checks.CheckFailed, match="6 sites"):
        checks.check_fabrics_empty([manager])


def test_outcome_check_flags_a_different_digest():
    checks.check_same_outcome("x", "abc", "abc")
    with pytest.raises(checks.CheckFailed, match="not deterministic"):
        checks.check_same_outcome("x", "abc", "abd")


def test_stream_check_flags_one_changed_or_missing_entry():
    journal = [{"seq": i, "event": "submitted"} for i in range(4)]
    checks.check_same_stream("journal", journal, list(journal))
    changed = [dict(entry) for entry in journal]
    changed[2]["event"] = "admitted"
    with pytest.raises(checks.CheckFailed, match="entry 2"):
        checks.check_same_stream("journal", journal, changed)
    with pytest.raises(checks.CheckFailed, match="lengths"):
        checks.check_same_stream("journal", journal, journal[:3])


def test_replica_check_passes_and_flags_a_diverged_replica():
    workload = small_service()
    rows = workload.generate(5)
    replay = workload.replay(rows, keep_replica=True)
    assert replay.replica[1] == 60
    checks.check_conservation(replay.counts)
    checks.check_fabrics_empty(replay.managers)
    workload.finish_replica(rows, replay)

    broken = workload.replay(rows, keep_replica=True)
    broken.replica[0].submit(2, 2, 0.5, tenant="mallory")
    with pytest.raises(checks.CheckFailed):
        workload.finish_replica(rows, broken)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-surge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert result.returncode != 0
    assert result.stdout == ""
