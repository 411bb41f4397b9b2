"""Unit + property tests for placement heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.devices import device
from repro.device.geometry import Rect
from repro.placement.bitgrid import first_fit_bits, pack_free_rows
from repro.placement.fit import (
    FIT_ALGORITHMS,
    best_fit,
    bottom_left,
    first_fit,
    fitter,
    free_anchor_mask,
)


def grid(rows=8, cols=8):
    return np.zeros((rows, cols), dtype=int)


class TestFreeAnchorMask:
    def test_empty_grid_all_anchors(self):
        mask = free_anchor_mask(grid(4, 4), 2, 2)
        assert mask.shape == (3, 3)
        assert mask.all()

    def test_oversized_request_empty(self):
        assert free_anchor_mask(grid(3, 3), 4, 1).size == 0

    def test_obstacle_blocks_windows(self):
        occ = grid(4, 4)
        occ[1, 1] = 9
        mask = free_anchor_mask(occ, 2, 2)
        assert not mask[0, 0]
        assert not mask[1, 1]
        assert mask[2, 2]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 7), st.integers(2, 7),
        st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6),
    )
    def test_mask_matches_direct_check(self, rows, cols, h, w, seed):
        rng = np.random.RandomState(seed)
        occ = (rng.rand(rows, cols) < 0.35).astype(int)
        mask = free_anchor_mask(occ, h, w)
        if h > rows or w > cols:
            assert mask.size == 0
            return
        for r in range(rows - h + 1):
            for c in range(cols - w + 1):
                want = bool((occ[r : r + h, c : c + w] == 0).all())
                assert bool(mask[r, c]) == want


class TestFirstFit:
    def test_picks_row_major_first(self):
        occ = grid()
        occ[0, :4] = 1
        assert first_fit(occ, 2, 2) == Rect(0, 4, 2, 2)

    def test_none_when_no_space(self):
        occ = np.ones((4, 4), dtype=int)
        assert first_fit(occ, 1, 1) is None

    def test_exact_fit(self):
        assert first_fit(grid(3, 3), 3, 3) == Rect(0, 0, 3, 3)


class TestBestFit:
    def test_prefers_tight_hole(self):
        occ = grid(6, 10)
        occ[:, 3] = 1  # 6x3 hole on the left, 6x6 on the right
        rect = best_fit(occ, 6, 3)
        assert rect == Rect(0, 0, 6, 3)

    def test_none_when_too_large(self):
        assert best_fit(grid(3, 3), 4, 4) is None


class TestBottomLeft:
    def test_minimises_row_plus_col(self):
        occ = grid()
        occ[0, 0] = 1
        rect = bottom_left(occ, 1, 1)
        assert rect in (Rect(0, 1, 1, 1), Rect(1, 0, 1, 1))

    def test_ties_break_to_lower_row(self):
        occ = grid()
        occ[0, 0] = 1
        assert bottom_left(occ, 1, 1) == Rect(0, 1, 1, 1)


class TestRegistry:
    def test_known_names(self):
        assert set(FIT_ALGORITHMS) == {"first", "best", "bottom-left"}
        assert fitter("first") is first_fit

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="bottom-left"):
            fitter("worst")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 8), st.integers(3, 8),
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6),
)
def test_all_heuristics_return_free_rectangles(rows, cols, h, w, seed):
    rng = np.random.RandomState(seed)
    occ = (rng.rand(rows, cols) < 0.3).astype(int)
    for name, algo in FIT_ALGORITHMS.items():
        rect = algo(occ, h, w)
        if rect is not None:
            view = occ[rect.row : rect.row_end, rect.col : rect.col_end]
            assert view.shape == (h, w), name
            assert (view == 0).all(), name


def _scattered_grid(rows, cols, blocks, noise, seed):
    """Rectangular residents plus single-site noise, like a churned
    fabric: a few large free windows survive between the blocks."""
    rng = np.random.default_rng(seed)
    occ = np.zeros((rows, cols), dtype=np.int32)
    for owner in range(1, blocks + 1):
        r, c = int(rng.integers(rows)), int(rng.integers(cols))
        occ[r:r + int(rng.integers(1, 9)),
            c:c + int(rng.integers(1, 17))] = owner
    occ[rng.random((rows, cols)) < noise] = blocks + 1
    return occ


class TestFirstFitBits:
    """The packed-row first fit the planners use equals the grid path of
    :func:`first_fit`, on rows of one machine word and of several."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 16), st.integers(1, 130)),
            st.just((64, 96)),   # an XCV1000-sized grid
        ),
        h=st.integers(1, 12), w=st.integers(1, 100),
        blocks=st.integers(0, 30), noise=st.sampled_from([0.0, 0.01, 0.1]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_grid_first_fit(self, shape, h, w, blocks, noise,
                                    seed):
        rows, cols = shape
        occ = _scattered_grid(rows, cols, blocks, noise, seed)
        expect = first_fit(occ, h, w)
        got = first_fit_bits(pack_free_rows(occ), h, w)
        assert got == (None if expect is None else (expect.row, expect.col))

    def test_window_straddling_a_word_boundary_on_xcv1000(self):
        dev = device("XCV1000")
        occ = np.ones((dev.clb_rows, dev.clb_cols), dtype=np.int32)
        occ[40:45, 60:70] = 0   # columns 60..69 span words 0 and 1
        occ[50:55, 70:96] = 0   # wider, but lower: row-major loses
        assert first_fit(occ, 5, 10) == Rect(40, 60, 5, 10)
        assert first_fit_bits(pack_free_rows(occ), 5, 10) == (40, 60)
        assert first_fit_bits(pack_free_rows(occ), 5, 11) == (50, 70)
        assert first_fit_bits(pack_free_rows(occ), 6, 10) is None
