"""Task-field validation: one rule set, checked before any state moves.

Each service case below reproduces an input that used to wedge or
corrupt a live service: a degenerate shape poisoned the queue, a
negative duration leaked fabric area after placement, a NaN duration
sent the clock to NaN, a fractional height crashed inside numpy, and
every one of them still spent a rate-limit token.  The rules live in
:func:`repro.sched.tasks.check_task_fields`; :class:`~repro.sched.tasks.Task`,
the trace parser, checkpoint restore and ``ReproService.submit`` all
share them.
"""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.sched.tasks import Task, check_task_fields
from repro.sched.trace import parse_trace
from repro.service import ReproService, ServiceAPI, snapshot, restore
from repro.service.app import ServiceConfig


def fresh() -> ReproService:
    return ReproService()


def door_state(service: ReproService) -> str:
    return json.dumps(service.door.export_state(), sort_keys=True)


def assert_service_usable(service: ReproService) -> None:
    """A valid submission still places and the clock stays finite."""
    view = service.submit(2, 2, 1.0)
    assert view["admitted"] and view["state"] == "configuring"
    service.settle()
    assert math.isfinite(service.now)
    assert service.status(view["task"])["state"] == "finished"


# -- the service cases -------------------------------------------------------


def test_degenerate_shape_is_refused_and_does_not_wedge_the_queue():
    service = fresh()
    with pytest.raises(ValueError, match="non-positive shape"):
        service.submit(0, 2, 1.0)
    assert service.engine.tasks == {}
    assert_service_usable(service)


def test_negative_duration_is_refused_before_placement():
    service = fresh()
    with pytest.raises(ValueError, match="negative time"):
        service.submit(2, 2, -1.0)
    assert service.engine.tasks == {}
    assert not service.manager.fabric.occupancy.any()
    assert_service_usable(service)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_duration_cannot_corrupt_the_clock(bad):
    service = fresh()
    with pytest.raises(ValueError, match="finite"):
        service.submit(2, 2, bad)
    service.settle()
    assert math.isfinite(service.now)
    assert_service_usable(service)


@pytest.mark.parametrize("height", [2.5, True, "2"])
def test_non_integer_height_is_a_value_error(height):
    service = fresh()
    with pytest.raises(ValueError, match="positive integer"):
        service.submit(height, 2, 1.0)
    assert_service_usable(service)


@pytest.mark.parametrize("fields", [
    dict(height=0, width=2, exec_seconds=1.0),
    dict(height=2, width=2, exec_seconds=-1.0),
    dict(height=2, width=2, exec_seconds=math.nan),
    dict(height=2.5, width=2, exec_seconds=1.0),
    dict(height=2, width=2, exec_seconds=1.0, max_wait=-1.0),
    dict(height=2, width=2, exec_seconds=1.0, max_wait="soon"),
    dict(height=2, width=2, exec_seconds=1.0, at=math.inf),
])
def test_a_refused_body_spends_no_token_and_moves_no_clock(fields):
    service = fresh()
    before = door_state(service)
    with pytest.raises(ValueError):
        service.submit(**fields)
    assert door_state(service) == before
    assert service.now == 0.0
    assert service.engine.journal == []


def test_invalid_post_is_a_400_not_a_500():
    async def body():
        api = ServiceAPI(ReproService())
        host, port = await api.start(port=0)
        statuses = []
        try:
            for payload in (
                {"height": 0, "width": 2, "exec_seconds": 1.0},
                {"height": 2.5, "width": 2, "exec_seconds": 1.0},
                {"height": 2, "width": 2, "exec_seconds": -1.0},
                {"height": 2, "width": 2, "exec_seconds": 1.0,
                 "max_wait": "soon"},
                {"height": 2, "width": 2, "exec_seconds": 1.0, "at": "x"},
                {"height": 2, "width": 2, "exec_seconds": 1.0},
            ):
                reader, writer = await asyncio.open_connection(host, port)
                data = json.dumps(payload).encode()
                writer.write(
                    (f"POST /tasks HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {len(data)}\r\n\r\n").encode() + data
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                statuses.append(int(raw.split(b" ", 2)[1]))
        finally:
            await api.stop()
        return statuses

    assert asyncio.run(body()) == [400, 400, 400, 400, 400, 202]


# -- the shared rules --------------------------------------------------------


def test_rules_accept_numpy_integers_and_refuse_bools():
    task = Task(1, np.int64(3), np.int32(2), 1.0, 0.0)
    assert task.area == 6
    check_task_fields(1, 1, 0.0, 0.0, None)
    check_task_fields(1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        Task(1, 2, False, 1.0, 0.0)
    with pytest.raises(ValueError):
        Task(1, 2, 2, True, 0.0)


@pytest.mark.parametrize("fields", [
    (0, 1, 1.0, 0.0, None),
    (1, -3, 1.0, 0.0, None),
    (1, 1, -0.5, 0.0, None),
    (1, 1, 1.0, -1.0, None),
    (1, 1, 1.0, math.nan, None),
    (1, 1, 1.0, 0.0, math.inf),
    (1, 1, 1.0, 0.0, -2.0),
    (1, 1, "1", 0.0, None),
])
def test_task_construction_refuses_every_broken_field(fields):
    height, width, exec_seconds, arrival, max_wait = fields
    with pytest.raises(ValueError):
        Task(1, height, width, exec_seconds, arrival, max_wait=max_wait)


@pytest.mark.parametrize("line, message", [
    ('{"at": 0, "height": 2.5, "width": 2, "duration": 1}',
     "positive integer"),
    ('{"at": 0, "height": 2, "width": 2, "duration": NaN}', "finite"),
    ('{"at": 0, "height": 2, "width": 2, "duration": 1, "max_wait": -1}',
     "negative time"),
    ('{"at": 0, "width": 2, "duration": 1}', "missing field"),
    ('[1, 2]', "not a JSON object"),
])
def test_trace_lines_share_the_rules(line, message):
    with pytest.raises(ValueError, match=f"line 1.*{message}"):
        parse_trace(line + "\n")


def test_restore_refuses_a_checkpoint_task_with_a_broken_field():
    service = fresh()
    service.submit(2, 2, 1.0)
    state = json.loads(json.dumps(snapshot(service)))
    restore(json.loads(json.dumps(state)))  # the honest one restores
    state["tasks"][0]["height"] = 0
    with pytest.raises(ValueError, match="non-positive shape"):
        restore(state)


# -- fault requests ----------------------------------------------------------


def busy_fleet() -> ReproService:
    """Two XC2S15 members; four 2x3 tasks configuring on member 0 along
    its top rows, so a region fault at (0, 0) overlaps live work."""
    service = ReproService(ServiceConfig(device="XC2S15", fleet_size=2))
    for _ in range(4):
        service.submit(2, 3, 5.0)
    service.advance(until=0.5)
    return service


def fault_fingerprint(service: ReproService):
    """Everything a refused fault must leave alone: the counters and
    clock (``stats``), every task view, both fabrics, the journal and
    the pending events."""
    return (
        json.dumps(service.stats(), sort_keys=True),
        json.dumps(service.tasks(), sort_keys=True),
        [m.fabric.occupancy.tobytes()
         for m in service.engine.kernel._managers],
        len(service.engine.journal),
        service.engine.events.pending,
    )


@pytest.mark.parametrize("kind, fields, message", [
    ("region-stuck", dict(height=2, width=6, duration=-5.0),
     "negative time: duration"),
    ("region-stuck", dict(height=2, width=6, duration=math.nan),
     "duration must be finite"),
    ("region-stuck", dict(height=2, width=6, duration=math.inf),
     "duration must be finite"),
    ("region-stuck", dict(row=0.5, height=2, width=6), "row must be an"),
    ("region-stuck", dict(height=2, width=6.0), "width must be an"),
    ("region-stuck", dict(height=0, width=6), "degenerate region"),
    ("port-flaky", dict(backoff=math.nan), "backoff must be finite"),
    ("port-flaky", dict(backoff=math.inf), "backoff must be finite"),
    ("port-flaky", dict(retries=2.5), "retries must be an integer"),
    ("port-flaky", dict(retries=True), "retries must be an integer"),
])
def test_a_refused_fault_changes_nothing(kind, fields, message):
    service = busy_fleet()
    before = fault_fingerprint(service)
    with pytest.raises(ValueError, match=message):
        service.inject_fault(kind, **fields)
    assert fault_fingerprint(service) == before
    assert service.stats()["faults_injected"] == 0
    service.settle()
    assert math.isfinite(service.now)
    assert all(v["state"] == "finished" for v in service.tasks())
    assert not any(m.fabric.occupancy.any()
                   for m in service.engine.kernel._managers)


def test_valid_fault_boundaries_are_accepted():
    service = busy_fleet()
    service.inject_fault("port-flaky", retries=0, backoff=0.0)
    out = service.inject_fault("region-stuck", row=6, col=0, height=2,
                               width=2, duration=0.0)
    assert out["fault"] == 1
    assert service.stats()["faults_injected"] == 2


def test_invalid_fault_post_is_a_400_not_a_500():
    async def body():
        api = ServiceAPI(ReproService())
        host, port = await api.start(port=0)
        statuses = []
        try:
            for payload in (
                {"kind": "port-flaky", "backoff": "nan"},
                {"kind": "port-flaky", "backoff": "inf"},
                {"kind": "port-flaky", "member": [0]},
                {"kind": "region-stuck", "height": 2, "width": 2,
                 "duration": -5},
                {"kind": "region-stuck", "height": 2, "width": 2,
                 "duration": {"s": 1}},
                {"kind": "region-stuck", "row": 2.7, "height": 2,
                 "width": 2},
                {"kind": "port-flaky", "retries": "3"},
                {"kind": "port-flaky", "retries": 1, "backoff": 0.5},
            ):
                reader, writer = await asyncio.open_connection(host, port)
                data = json.dumps(payload).encode()
                writer.write(
                    (f"POST /faults HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {len(data)}\r\n\r\n").encode()
                    + data
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                statuses.append(int(raw.split(b" ", 2)[1]))
        finally:
            await api.stop()
        return statuses, api.service.stats()["faults_injected"]

    statuses, injected = asyncio.run(body())
    assert statuses == [400, 400, 400, 400, 400, 400, 400, 200]
    assert injected == 1


# -- task listing ------------------------------------------------------------


def listed_service() -> ReproService:
    """Finished, configuring, queued and rejected tasks side by side."""
    service = ReproService(ServiceConfig(device="XC2S15"))
    for i in range(12):
        service.submit(4, 4 + i % 3, 1.0 + i, qos=("gold", "silver")[i % 2])
    service.advance(until=4.0)
    return service


def all_views_then_slice(service, state=None, limit=None):
    """The listing spelled out the long way: every view, then filter
    and slice."""
    views = [service.status(i)
             for i in sorted(service.engine.tasks, reverse=True)]
    if state is not None:
        views = [v for v in views if v["state"] == state]
    return views if limit is None else views[:limit]


@pytest.mark.parametrize("state", [None, "finished", "queued", "rejected",
                                   "configuring", "bogus"])
@pytest.mark.parametrize("limit", [None, 0, 1, 3, 100, -2])
def test_task_listing_equals_the_full_build(state, limit):
    service = listed_service()
    assert {v["state"] for v in service.tasks()} \
        == {"finished", "configuring", "queued", "rejected"}
    assert service.tasks(state=state, limit=limit) \
        == all_views_then_slice(service, state, limit)


@pytest.mark.parametrize("state", [None, "rejected"])
def test_task_listing_builds_at_most_limit_views(state, monkeypatch):
    service = listed_service()
    built = []
    status = service.status

    def counting(task_id):
        built.append(task_id)
        return status(task_id)

    monkeypatch.setattr(service, "status", counting)
    views = service.tasks(state=state, limit=2)
    assert len(views) == 2
    assert len(built) == 2
