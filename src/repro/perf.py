"""Process-wide hot-path work counters.

The admission hot path skips work through memos — the kernel's
per-item and shape-level failure memos, the fleet's per-member probe
memo, the planner's per-generation shape-independent state.  Each one is provably transparent (it may only
skip work whose outcome is unchanged), which also makes each one
invisible: a broken invalidation shows up as *wrong results* (pinned by
the differential suites), but a broken *hit rate* shows up as nothing at
all — the code silently does the full work again and only the wall
clock knows.

This module makes that work countable.  It keeps one process-global
:class:`PerfCounters` instance (:data:`PERF`) that the hot paths bump
with plain attribute increments — no locks, no dict lookups, no
formatting — and that the performance harnesses sample per benchmark
cell (``benchmarks/perf/bench_sched.py`` commits the numbers to
``BENCH_sched.json``) and the always-on service exports under
``/stats``.  The counts are deterministic for a seeded run, so tests
can pin them exactly (``tests/test_perf_counters.py``); per-layer wall
time comes from an external tracer, not from this module.

Counter semantics (all monotonically increasing since the last
:meth:`~PerfCounters.reset`):

``admission_probes``
    ``manager.request`` calls issued by the kernel's admission loop —
    the work everything below exists to avoid.
``item_memo_skips`` / ``shape_memo_skips`` / ``dominance_skips``
    admission probes skipped by the per-item failure memo, the exact
    shape-level memo and the dominance (equal-or-larger footprint)
    memo respectively.
``fleet_member_skips``
    per-member probes the fleet manager skipped because the shape
    already failed on that member at its current free-space generation.
``screen_calls`` / ``screen_windows``
    vectorised eviction screens actually run, and the total candidate
    windows they examined.
``screen_cache_hits`` / ``screen_cache_misses``
    always 0.  The planner no longer caches screen verdicts: the
    kernel and fleet memos already stop a failed shape from being
    re-probed against the same grid, so a verdict cache could never
    hit.  The columns stay so committed benchmark payloads keep their
    layout.
``evict_moves_calls``
    sequential relocation searches (the work the screens gate).
``first_fit_scalar``
    packed first-fit probes (:func:`repro.placement.bitgrid.first_fit_bits`)
    that reached the row scan.
``first_fit_vector``
    always 0.  The vectorised word-packed first-fit it counted only
    served grids of 4,096 sites or more, never ran, and was deleted;
    the column stays so committed benchmark payloads keep their layout.
"""

from __future__ import annotations

#: Counter attribute names, in reporting order.  Kept explicit (rather
#: than introspected) so the snapshot layout is stable for the
#: committed benchmark JSON.
COUNTER_NAMES = (
    "admission_probes",
    "item_memo_skips",
    "shape_memo_skips",
    "dominance_skips",
    "fleet_member_skips",
    "screen_calls",
    "screen_windows",
    "screen_cache_hits",
    "screen_cache_misses",
    "evict_moves_calls",
    "first_fit_scalar",
    "first_fit_vector",
)


class PerfCounters:
    """A bundle of hot-path counters with snapshot/reset semantics."""

    __slots__ = COUNTER_NAMES

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        """Current counter values as a dict.

        Every counter is reported — including zeros — so committed
        benchmark payloads keep a stable column set across runs.
        """
        return {name: getattr(self, name) for name in COUNTER_NAMES}

    def collect(self) -> dict:
        """Snapshot, then reset — one benchmark cell's worth of counts."""
        out = self.snapshot()
        self.reset()
        return out


#: The process-global counter bundle the hot paths increment.
PERF = PerfCounters()
