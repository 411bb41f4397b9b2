"""Partial rearrangement planners: the Diessel et al. baselines.

The paper's section 1 leans on reference [5] (Diessel, El Gindy,
Middendorf, Schmeck, Schmidt — "Dynamic scheduling of tasks on partially
reconfigurable FPGAs"): methods to find *partial rearrangements* that
release enough contiguous space for a waiting function, "while minimising
disruptions to running functions that are to be relocated".  Two of those
methods are implemented here as planners over an occupancy grid:

* :func:`ordered_compaction` — slide every resident function as far as
  possible toward one edge, in edge-distance order (1-D compaction);
* :func:`local_repacking` — remove the functions intersecting a window
  and re-pack them (largest first, best-fit) within it.

Planners *propose* moves on a scratch copy; they never touch the real
fabric.  The paper's contribution enters afterwards: reference [5] had
"no physical execution of these rearrangements ... other than halting
those functions", whereas dynamic relocation executes the same move list
concurrently with execution (see ``repro.core.manager``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.geometry import Rect

from .bitgrid import (
    band_mask,
    clear_rect,
    pack_free_rows,
    run_anchor_mask,
    set_rect,
    span_mask,
)
from .fit import best_fit


@dataclass(frozen=True, slots=True)
class Move:
    """Relocate one resident function's footprint."""

    owner: int
    src: Rect
    dst: Rect

    @property
    def distance(self) -> int:
        """Manhattan distance of the move (CLB units)."""
        return abs(self.src.row - self.dst.row) + abs(self.src.col - self.dst.col)

    @property
    def columns_touched(self) -> int:
        """Configuration columns involved in moving this footprint."""
        lo = min(self.src.col, self.dst.col)
        hi = max(self.src.col_end, self.dst.col_end)
        return hi - lo

    def __str__(self) -> str:
        return f"move #{self.owner} {self.src} -> {self.dst}"


def footprints(occupancy: np.ndarray) -> dict[int, Rect]:
    """Owner id -> rectangular footprint, from an occupancy grid.

    Owners appear in ascending id order (the ``np.unique`` order the
    planners' tie-breaking has always relied on), one bounding box per
    owner, computed in a single grouped pass instead of one grid scan
    per resident.
    """
    flat = occupancy.ravel()
    occupied = np.flatnonzero(flat)
    if occupied.size == 0:
        return {}
    order = np.argsort(flat[occupied], kind="stable")
    owners = flat[occupied][order]
    srows = occupied[order] // occupancy.shape[1]
    scols = occupied[order] % occupancy.shape[1]
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    min_r = np.minimum.reduceat(srows, starts)
    max_r = np.maximum.reduceat(srows, starts)
    min_c = np.minimum.reduceat(scols, starts)
    max_c = np.maximum.reduceat(scols, starts)
    return {
        int(owner): Rect(
            int(r0), int(c0), int(r1 - r0 + 1), int(c1 - c0 + 1)
        )
        for owner, r0, c0, r1, c1 in zip(
            owners[starts], min_r, min_c, max_r, max_c
        )
    }


def apply_moves(occupancy: np.ndarray, moves: list[Move]) -> np.ndarray:
    """Return a copy of ``occupancy`` with the moves applied in order."""
    grid = occupancy.copy()
    for m in moves:
        grid[m.src.row : m.src.row_end, m.src.col : m.src.col_end] = 0
        view = grid[m.dst.row : m.dst.row_end, m.dst.col : m.dst.col_end]
        if (view != 0).any():
            raise ValueError(f"{m} lands on occupied sites")
        view[...] = m.owner
    return grid


def apply_moves_bits(row_bits: list[int], moves: list[Move]) -> list[int]:
    """:func:`apply_moves` on free-column bitmasks: a copy of
    ``row_bits`` with the moves applied in order, raising the same
    ``ValueError`` when a destination is not free."""
    bits = list(row_bits)
    for m in moves:
        set_rect(bits, m.src.row, m.src.row_end,
                 span_mask(m.src.col, m.src.width))
        dst_mask = span_mask(m.dst.col, m.dst.width)
        if band_mask(bits, m.dst.row, m.dst.row_end) & dst_mask != dst_mask:
            raise ValueError(f"{m} lands on occupied sites")
        clear_rect(bits, m.dst.row, m.dst.row_end, dst_mask)
    return bits


def ordered_compaction(occupancy: np.ndarray,
                       toward: str = "left") -> list[Move]:
    """Slide every function as far as possible toward one edge.

    Functions are processed in order of distance to the target edge, so
    each slides into space vacated by its predecessors; rows are
    preserved (1-D moves only), which keeps every move executable by a
    sequence of single-column relocation steps.
    """
    if toward not in ("left", "top"):
        raise ValueError("toward must be 'left' or 'top'")
    moves, _ = compaction_moves(
        footprints(occupancy), pack_free_rows(occupancy), toward
    )
    return moves


def compaction_moves(
    prints: dict[int, Rect], row_bits: list[int], toward: str
) -> tuple[list[Move], list[int]]:
    """:func:`ordered_compaction` over precomputed footprints and
    free-column bitmasks.

    Callers that try several compaction directions (and then probe the
    compacted grid) share one footprint scan and one row packing; the
    returned bitmask list is the *compacted* grid's free columns, so the
    probe needs no scratch-grid replay.  ``row_bits`` is not modified.
    """
    bits = list(row_bits)
    moves: list[Move] = []
    if toward == "left":
        order = sorted(prints, key=lambda o: prints[o].col)
    else:
        order = sorted(prints, key=lambda o: prints[o].row)
    for owner in order:
        rect = prints[owner]
        src_mask = span_mask(rect.col, rect.width)
        set_rect(bits, rect.row, rect.row_end, src_mask)
        best = rect
        if toward == "left":
            # Leftmost column whose whole window is free across the
            # function's rows; anchors right of the original column are
            # masked off (sliding right is not compaction).
            band = band_mask(bits, rect.row, rect.row_end)
            anchors = run_anchor_mask(band, rect.width) & ((1 << rect.col) - 1)
            if anchors:
                col = (anchors & -anchors).bit_length() - 1
                best = Rect(rect.row, col, rect.height, rect.width)
        else:
            # Vertical mirror of the left path: bit r of the column mask
            # is set when the function's columns are free across row r;
            # the topmost height-run anchored above the original row (if
            # any) is where the function slides to.
            col_free = 0
            for r in range(min(len(bits), rect.row + rect.height - 1)):
                if (bits[r] & src_mask) == src_mask:
                    col_free |= 1 << r
            anchors = run_anchor_mask(col_free, rect.height) \
                & ((1 << rect.row) - 1)
            if anchors:
                row = (anchors & -anchors).bit_length() - 1
                best = Rect(row, rect.col, rect.height, rect.width)
        clear_rect(bits, best.row, best.row_end,
                   span_mask(best.col, best.width))
        if best != rect:
            moves.append(Move(owner, rect, best))
    return moves, bits


def local_repacking(occupancy: np.ndarray, window: Rect) -> list[Move] | None:
    """Re-pack the functions wholly inside ``window`` with best-fit.

    Functions are removed and re-placed largest-first inside the window.
    Returns ``None`` when the repacking fails (some function no longer
    fits) — in that case nothing should be executed.  Functions that
    merely straddle the window's border are left untouched.
    """
    grid = occupancy.copy()
    prints = footprints(grid)
    inside = {
        owner: rect
        for owner, rect in prints.items()
        if window.contains_rect(rect)
    }
    for rect in inside.values():
        grid[rect.row : rect.row_end, rect.col : rect.col_end] = 0
    moves: list[Move] = []
    sub = grid[window.row : window.row_end, window.col : window.col_end]
    for owner, rect in sorted(
        inside.items(), key=lambda kv: kv[1].area, reverse=True
    ):
        spot = best_fit(sub, rect.height, rect.width)
        if spot is None:
            return None
        dst = Rect(
            window.row + spot.row, window.col + spot.col, rect.height, rect.width
        )
        sub[spot.row : spot.row_end, spot.col : spot.col_end] = owner
        if dst != rect:
            moves.append(Move(owner, rect, dst))
    return moves


def moves_feasible(occupancy: np.ndarray, moves: list[Move]) -> bool:
    """True when the move list applies cleanly in order."""
    try:
        apply_moves(occupancy, moves)
    except ValueError:
        return False
    return True


def sequence_moves(occupancy: np.ndarray,
                   moves: list[Move]) -> list[Move] | None:
    """Order ``moves`` so each lands on space free at execution time.

    Planners choose destinations on a grid where all movers are already
    vacated; physically the moves run one at a time, so a destination may
    still be covered by a *pending* mover's source.  Greedy scheduling:
    repeatedly execute any move whose destination is currently free
    (ignoring its own source overlap).  Returns ``None`` for circular
    dependencies — the plan is then not executable as-is.
    """
    grid = occupancy.copy()
    pending = list(moves)
    ordered: list[Move] = []
    while pending:
        progressed = False
        for move in list(pending):
            view = grid[
                move.dst.row : move.dst.row_end, move.dst.col : move.dst.col_end
            ]
            blockers = set(int(v) for v in np.unique(view)) - {0, move.owner}
            if blockers:
                continue
            grid[
                move.src.row : move.src.row_end, move.src.col : move.src.col_end
            ] = 0
            grid[
                move.dst.row : move.dst.row_end, move.dst.col : move.dst.col_end
            ] = move.owner
            ordered.append(move)
            pending.remove(move)
            progressed = True
        if not progressed:
            return None
    return ordered
