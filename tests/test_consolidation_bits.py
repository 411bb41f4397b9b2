"""Proactive consolidation on packed free rows, held to the grid path.

:meth:`DefragPlanner.plan_consolidation` scores its candidates with the
bit-sweep largest free rectangle
(:func:`repro.placement.bitgrid.largest_free_rect_bits`) and replays
truncated move prefixes on free-row bitmasks
(:func:`repro.placement.compaction.apply_moves_bits`).  The references
here are the grid algorithms: the largest of
:func:`maximal_empty_rectangles`, and the planner re-stated with
:func:`ordered_compaction`, :func:`apply_moves` and that MER maximum.
Grids run up to 130 columns so rows cross a 64-bit word.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.defrag import DefragPlanner
from repro.device.geometry import Rect
from repro.placement.bitgrid import pack_free_rows
from repro.placement.compaction import (
    Move,
    apply_moves,
    apply_moves_bits,
    ordered_compaction,
)
from repro.placement.free_space import (
    largest_empty_rectangle,
    maximal_empty_rectangles,
)


def _mer_largest_area(occ: np.ndarray) -> int:
    return max((r.area for r in maximal_empty_rectangles(occ)), default=0)


def reference_consolidation(occ: np.ndarray, cap: int):
    """The consolidation planner on scratch grids: ``(moves, method,
    target area)`` of the winning candidate, or ``None``."""
    baseline = _mer_largest_area(occ)
    left = ordered_compaction(occ, toward="left")
    top = ordered_compaction(occ, toward="top")
    candidates = [("consolidate-left", left[:cap]),
                  ("consolidate-top", top[:cap])]
    if left and len(left) < cap:
        corner = left + ordered_compaction(apply_moves(occ, left),
                                           toward="top")
        candidates.append(("consolidate-corner", corner[:cap]))
    best = None
    best_key = None
    for method, moves in candidates:
        if not moves:
            continue
        area = _mer_largest_area(apply_moves(occ, moves))
        if area <= baseline:
            continue
        key = (-area, sum(m.src.area for m in moves),
               sum(m.distance for m in moves))
        if best_key is None or key < best_key:
            best = (moves, method, area)
            best_key = key
    return best


@st.composite
def resident_grids(draw):
    """Rectangular residents with unique owners, half of them released
    again, on grids up to 12 x 130; plus the empty and the full grid."""
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 130))
    kind = draw(st.sampled_from(["empty", "full", "residents",
                                 "residents", "residents"]))
    occ = np.zeros((rows, cols), dtype=np.int32)
    if kind == "full":
        occ[...] = 1
    elif kind == "residents":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        owner = 0
        for _ in range(rows * cols // 3):
            h = int(rng.integers(1, max(1, rows // 2) + 1))
            w = int(rng.integers(1, max(1, cols // 6) + 1))
            r = int(rng.integers(0, rows - h + 1))
            c = int(rng.integers(0, cols - w + 1))
            view = occ[r:r + h, c:c + w]
            if view.any():
                continue
            owner += 1
            view[...] = owner
        for resident in range(1, owner + 1):
            if rng.random() < 0.5:
                occ[occ == resident] = 0
    return occ


class TestLargestEmptyRectangle:
    @settings(max_examples=60, deadline=None)
    @given(occ=resident_grids())
    def test_area_matches_the_mer_maximum(self, occ):
        rect = largest_empty_rectangle(occ)
        area = rect.area if rect is not None else 0
        assert area == _mer_largest_area(occ)
        if rect is not None:
            view = occ[rect.row:rect.row_end, rect.col:rect.col_end]
            assert view.shape == (rect.height, rect.width)
            assert not view.any()

    @pytest.mark.parametrize("free, expect", [
        # Both 5 x 2 halves start on row 0 at height 5: leftmost wins.
        ([(0, 0, 5, 2), (0, 3, 5, 2)], Rect(0, 0, 5, 2)),
        # 3 x 2 on the left, 2 x 3 on the right, both from row 0: the
        # shorter one wins over the leftmost one.
        ([(0, 0, 3, 2), (0, 3, 2, 3)], Rect(0, 3, 2, 3)),
        # A 4 x 1 column from row 0 on the right against a 1 x 4 row
        # lower down on the left: the topmost wins over both.
        ([(0, 5, 4, 1), (2, 0, 1, 4)], Rect(0, 5, 4, 1)),
    ])
    def test_tie_rule(self, free, expect):
        rows = max(r + h for r, _, h, _ in free)
        cols = max(c + w for _, c, _, w in free) + 1
        occ = np.ones((rows, cols), dtype=np.int32)
        for r, c, h, w in free:
            occ[r:r + h, c:c + w] = 0
        largest = _mer_largest_area(occ)
        ties = [m for m in maximal_empty_rectangles(occ)
                if m.area == largest]
        assert len(ties) == 2
        assert largest_empty_rectangle(occ) == expect


class TestPlanConsolidation:
    @settings(max_examples=60, deadline=None)
    @given(occ=resident_grids(), cap=st.sampled_from([1, 2, 3, 5, 16]))
    def test_matches_the_grid_reference(self, occ, cap):
        plan = DefragPlanner(
            max_consolidation_moves=cap).plan_consolidation(occ)
        expect = reference_consolidation(occ, cap)
        if expect is None:
            assert plan is None
            return
        moves, method, area = expect
        assert plan is not None
        assert (plan.moves, plan.method, plan.target.area) == (
            moves, method, area)
        compacted = apply_moves(occ, plan.moves)
        assert apply_moves_bits(pack_free_rows(occ), plan.moves) \
            == pack_free_rows(compacted)
        view = compacted[plan.target.row:plan.target.row_end,
                         plan.target.col:plan.target.col_end]
        assert not view.any()

    def test_truncated_candidate_wins(self):
        # Residents on columns 1, 3 and 5 of one row.  The full left
        # compaction needs three moves; capped at one, only its first
        # move runs, freeing columns 1..2 — not the 3..6 run the whole
        # sweep would leave.
        occ = np.zeros((1, 7), dtype=np.int32)
        occ[0, 1], occ[0, 3], occ[0, 5] = 1, 2, 3
        assert len(ordered_compaction(occ, toward="left")) == 3
        plan = DefragPlanner(max_consolidation_moves=1).plan_consolidation(occ)
        assert plan.method == "consolidate-left"
        assert plan.moves == [Move(1, Rect(0, 1, 1, 1), Rect(0, 0, 1, 1))]
        assert plan.target == Rect(0, 1, 1, 2)
        assert reference_consolidation(occ, 1) == (
            plan.moves, plan.method, 2)

    def test_corner_candidate_starts_from_the_left_sweep(self):
        # Only #2 can slide left; the top sweep that follows must see it
        # at its new column, or #3 cannot rise into the vacated site.
        occ = np.array([[0, 2], [0, 3], [1, 3], [0, 0]], dtype=np.int32)
        plan = DefragPlanner().plan_consolidation(occ)
        assert plan.method == "consolidate-corner"
        assert plan.moves == [
            Move(2, Rect(0, 1, 1, 1), Rect(0, 0, 1, 1)),
            Move(3, Rect(1, 1, 2, 1), Rect(0, 1, 2, 1)),
            Move(1, Rect(2, 0, 1, 1), Rect(1, 0, 1, 1)),
        ]
        assert plan.target == Rect(2, 0, 2, 2)
        assert reference_consolidation(occ, 16) == (
            plan.moves, plan.method, 4)


def test_bit_replay_raises_the_apply_moves_error():
    occ = np.zeros((2, 3), dtype=np.int32)
    occ[0, 0], occ[0, 1] = 1, 2
    collide = [Move(1, Rect(0, 0, 1, 1), Rect(0, 1, 1, 1))]
    with pytest.raises(ValueError, match="lands on occupied sites") as grid:
        apply_moves(occ, collide)
    with pytest.raises(ValueError, match="lands on occupied sites") as bits:
        apply_moves_bits(pack_free_rows(occ), collide)
    assert str(bits.value) == str(grid.value)
