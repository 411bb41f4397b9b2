"""Differential suite for the admission shape memos.

The kernel's shape-level failure memos and dominance certificates
(:meth:`SchedulingKernel._shape_blocked`) exist purely to skip probes
whose outcome is provably unchanged — so a kernel with the memos
disabled must produce *bit-identical* schedules: the same admissions,
rejections, timeouts, metrics and port timelines, event for event.
This suite runs the two kernels in lockstep over hypothesis-chosen
workloads (timeout-heavy churn, every queue discipline x port model),
and separately pins the invalidation contract: a memo can never
outlive a space-version bump, and every memo verdict is backed by a
real failing probe.
"""

from hypothesis import given, settings, strategies as st

from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.workload import heavy_tail_tasks


def _disable_memos(kernel) -> None:
    """Turn the shape memos off on one kernel instance: every probe
    runs against the manager, nothing is recorded."""
    kernel._shape_blocked = lambda height, width, count=True: False
    kernel._note_shape_failed = lambda height, width, dominant: None


def _churn_tasks(n: int, seed: int):
    """A timeout-heavy stream on the XC2S15's 8x12 grid: tight
    footprints and short deadlines keep the queue saturated, so the
    memos (and their invalidation) are exercised hard."""
    return heavy_tail_tasks(
        n, seed=seed, mean_interarrival=0.05, size_range=(2, 6),
        max_wait=4.0, priority_levels=3,
    )


def _run(queue: str, ports: str, seed: int, n: int, memoised: bool):
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    # The admission trace: every placement that happened, in order,
    # with its rearrangement method.  Failed probes are *meant* to
    # differ — skipping them is exactly what the memos do — so only
    # the successes of ``manager.request`` (which sees probes, not
    # schedule) are compared.
    placed = []
    request = manager.request

    def traced(*args, **kwargs):
        o = request(*args, **kwargs)
        if o.success:
            placed.append((o.owner, o.rect, o.method, o.config_seconds))
        return o

    manager.request = traced
    scheduler = OnlineTaskScheduler(manager, queue=queue, ports=ports)
    if not memoised:
        _disable_memos(scheduler.kernel)
    metrics = scheduler.run(_churn_tasks(n, seed))
    return (
        metrics,
        scheduler.events.processed,
        scheduler.port.busy_seconds,
        manager.fabric.occupancy.tobytes(),
        placed,
    )


@settings(max_examples=4, deadline=None)
@given(
    queue=st.sampled_from(["fifo", "priority", "backfill"]),
    ports=st.sampled_from(["serial", "icap"]),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_memoised_kernel_is_observationally_identical(queue, ports, seed):
    """500+-step lockstep: memos on vs off, identical everything."""
    n = 220  # ~3 events per task: arrival + admit/timeout + finish
    memo = _run(queue, ports, seed, n, memoised=True)
    bare = _run(queue, ports, seed, n, memoised=False)
    assert memo[0] == bare[0], "metrics diverged"
    assert memo[1] == bare[1], "event counts diverged"
    assert memo[2] == bare[2], "port busy time diverged"
    assert memo[3] == bare[3], "final occupancy diverged"
    assert memo[4] == bare[4], "admission trace diverged"
    assert memo[1] >= 500, "churn too small to exercise the memos"


def test_shape_memo_never_outlives_a_generation_bump():
    """The invalidation contract, hit directly: both the exact-shape
    memo and a dominance certificate go stale the moment the space
    version bumps (``note_space_changed`` — the hook every occupancy
    mutation reaches)."""
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    kernel = OnlineTaskScheduler(manager).kernel
    kernel._note_shape_failed(3, 3, dominant=True)
    assert kernel._shape_blocked(3, 3)
    # dominance: an equal-or-larger footprint is blocked too
    assert kernel._shape_blocked(4, 5)
    kernel.note_space_changed()
    assert not kernel._shape_blocked(3, 3)
    assert not kernel._shape_blocked(4, 5)


def test_every_memo_skip_is_backed_by_a_real_failure():
    """Soundness under churn: whenever the memo calls a shape blocked,
    an actual probe of that shape against the live manager must fail —
    no admissible item is ever skipped."""
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    scheduler = OnlineTaskScheduler(manager, queue="backfill",
                                    ports="icap")
    kernel = scheduler.kernel
    original = kernel._shape_blocked
    verified = [0]

    def checked(height: int, width: int) -> bool:
        blocked = original(height, width)
        if blocked:
            outcome = manager.request(height, width, owner=10_000_000)
            assert not outcome.success, (
                f"memo skipped an admissible {height}x{width} shape"
            )
            verified[0] += 1
        return blocked

    kernel._shape_blocked = checked
    scheduler.run(_churn_tasks(200, seed=3))
    assert verified[0] > 0, "the memo never fired: churn too gentle"
