"""Free-space generation: the invalidation key of generation-keyed memos.

The fleet's per-member failure memo and the defragmentation planner's
shared-state memo key on a free-space engine's ``generation`` counter:
equal generations promise byte-identical occupancy, so anything cached
against a generation stays valid until the counter moves.  A mutation
that provably changes nothing must therefore leave the counter — and
every answer computed from the grid — exactly where it was, or those
memos would be dropped for no reason.
"""

import random

import numpy as np

from repro.device.geometry import Rect
from repro.placement.fit import first_fit
from repro.placement.incremental import IncrementalFreeSpace


def churned_engine(rows=14, cols=20, steps=40, seed=11):
    """An incremental engine after some scattered alloc/release churn."""
    engine = IncrementalFreeSpace(np.zeros((rows, cols), dtype=np.int32))
    rng = random.Random(seed)
    placed = []
    owner = 0
    for _ in range(steps):
        if placed and rng.random() < 0.4:
            engine.release(placed.pop(rng.randrange(len(placed))))
            continue
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        fitting = engine.rectangles_fitting(h, w)
        if not fitting:
            continue
        host = sorted(fitting)[rng.randrange(len(fitting))]
        rect = Rect(host.row + rng.randint(0, host.height - h),
                    host.col + rng.randint(0, host.width - w), h, w)
        owner += 1
        engine.allocate(rect, owner)
        placed.append(rect)
    return engine


class TestExactInvalidation:
    """The generation counter moves on effective mutations only."""

    def test_noop_release_keeps_cache_warm(self):
        """No-op mutations provably change nothing — no invalidation."""
        engine = churned_engine()
        free = first_fit(engine.occupancy, 2, 2, index=engine)
        assert free is not None
        before = first_fit(engine.occupancy, 3, 3, index=engine)
        generation = engine.generation
        mers = set(engine.mers)
        engine.release(free)  # already free: generation must not move
        assert engine.generation == generation
        assert set(engine.mers) == mers
        assert first_fit(engine.occupancy, 3, 3, index=engine) == before
        # An effective mutation on the same region does move it.
        engine.allocate(free, owner=999)
        assert engine.generation == generation + 1
