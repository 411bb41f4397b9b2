"""Host-speed calibration: host seconds expressed on a reference host.

On the shared 2-vCPU VM the benchmark was built on, the speed of one
process drifts by up to 2x over tens of seconds: an identical 0.5 s
replay read between 0.6x and 1.26x of its median within 150 s, and the
spread between 40 s runs of the same code reached 0.2-0.3 of the
median.  Raw host time of one run therefore mostly measures the
neighbours.

The benchmark interleaves a fixed calibration probe -- about 10 ms of
the kind of work the program does: slicing, testing and masking a small
integer grid in numpy, plus dict updates -- every ``PROBE_EVERY_S``
seconds of a replay, and expresses each stretch of host time between
two probes in *reference seconds*: raw seconds x ``PROBE_REF_S`` / the
mean of the two probe times.  On a host where the probe takes
``PROBE_REF_S`` the two coincide.  The probe is the benchmark's own
code, so a change to the program moves the replay and not the probe,
and shows in full.  Probe time itself is excluded from every figure.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: probe time, in host seconds, of the reference host (about this
#: VM's median).
PROBE_REF_S = 0.010
#: host seconds between two probes during a replay.
PROBE_EVERY_S = 0.5
#: timed probe runs per calibration; their median is used.
PROBE_REPEATS = 3

_GRID = np.zeros((28, 42), dtype=np.int32)


def _probe_work() -> int:
    """A fixed mix of small-grid numpy work and dict updates."""
    rng = random.Random(7)
    grid = _GRID.copy()
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for step in range(1500):
        row, col = rng.randrange(20), rng.randrange(35)
        window = grid[row:row + 6, col:col + 7]
        if window.any():
            grid[grid == grid[row, col]] = 0
        else:
            window[:] = step + 1
        seen[row, col] = seen.get((row, col), 0) + 1
        total += len(seen)
    return total


def probe_seconds(clock=time.perf_counter) -> float:
    """Median host seconds of ``PROBE_REPEATS`` probe runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = clock()
        _probe_work()
        times.append(clock() - start)
    return statistics.median(times)


class ScaledClock:
    """The host time of one replay, scaled stretch by stretch.

    The driver reports latency samples with :meth:`sample` and calls
    :meth:`tick` between operations; once ``every`` seconds have passed
    since the stretch began, the stretch closes: a probe runs, and the
    stretch's host seconds and samples are scaled by ``PROBE_REF_S``
    over the mean of the probes at its two ends.  :meth:`close` ends
    the last stretch.  With ``probe=None`` nothing is probed or scaled
    (the traced run and the warm-ups use raw host time).
    """

    def __init__(self, probe=probe_seconds, every: float = PROBE_EVERY_S,
                 clock=time.perf_counter) -> None:
        self.probe = probe
        self.every = every
        self.clock = clock
        #: unscaled and scaled host seconds of the closed stretches.
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: scaled latency samples of the closed stretches, by kind.
        self.samples: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []
        self._probe_s = probe() if probe is not None else PROBE_REF_S
        #: host instant the open stretch began (after its probe).
        self.stretch_start = clock()

    def sample(self, kind: str, seconds: float) -> None:
        """Record one raw latency sample in the open stretch."""
        self._pending.append((kind, seconds))

    def tick(self) -> None:
        """Close the open stretch if it is ``every`` seconds old."""
        if self.clock() - self.stretch_start >= self.every:
            self.close()

    def close(self) -> None:
        """Close the open stretch: probe, then scale what it holds."""
        raw = self.clock() - self.stretch_start
        scale = 1.0
        if self.probe is not None:
            probe_s = self.probe()
            scale = 2 * PROBE_REF_S / (self._probe_s + probe_s)
            self._probe_s = probe_s
        self.raw_s += raw
        self.scaled_s += raw * scale
        for kind, seconds in self._pending:
            self.samples.setdefault(kind, []).append(seconds * scale)
        self._pending.clear()
        self.stretch_start = self.clock()
