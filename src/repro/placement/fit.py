"""On-line placement heuristics for incoming functions.

When a new function arrives, the manager must pick a free rectangle for
it ("placement decisions have to be made on-line", section 1).  These are
the standard choices evaluated by the on-line placement literature the
paper builds on (Diessel et al. [5]):

* :func:`first_fit` — row-major scan, first position whose rectangle is
  free;
* :func:`best_fit` — the maximal empty rectangle with the least leftover
  area, anchored at its corner;
* :func:`bottom_left` — the feasible position closest to the top-left
  corner (classic on-line bin-packing heuristic).

All return a :class:`~repro.device.geometry.Rect` or ``None`` without
modifying the grid; the caller allocates.  Each heuristic has two equal
query paths:

* **grid path** (``index=None``) — feasibility testing over an integral
  image of the occupancy grid, O(rows x cols) vectorised numpy; used on
  the planner's scratch grids, which have no index attached;
* **index path** — read the answer off a
  :class:`~repro.placement.free_space.FreeSpaceIndex`'s maximal empty
  rectangles in O(K): every feasible anchor lies in some fitting MER
  whose top-left corner precedes it in the heuristic's order, so the
  best corner *is* the answer.

The two paths return identical rectangles (the differential suite pins
this), so schedulers can switch engines without changing the science.
"""

from __future__ import annotations

import numpy as np

from repro.device.geometry import Rect

from .free_space import FreeSpaceIndex, rectangles_fitting


def free_anchor_mask(occupancy: np.ndarray, height: int,
                     width: int) -> np.ndarray:
    """Boolean mask of anchors where a ``height`` x ``width`` rectangle
    is entirely free.  Shape: (rows-height+1, cols-width+1); empty when
    the request exceeds the grid."""
    rows, cols = occupancy.shape
    if height > rows or width > cols or height < 1 or width < 1:
        return np.zeros((0, 0), dtype=bool)
    occupied = (occupancy != 0).astype(np.int32)
    integral = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    integral[1:, 1:] = occupied.cumsum(0).cumsum(1)
    window = (
        integral[height:, width:]
        - integral[:-height, width:]
        - integral[height:, :-width]
        + integral[:-height, :-width]
    )
    return window == 0


def _fitting(occupancy: np.ndarray, height: int, width: int,
             index: FreeSpaceIndex | None) -> list[Rect]:
    """MERs hosting the request, from the index when one is attached."""
    if index is not None:
        return index.rectangles_fitting(height, width)
    return rectangles_fitting(occupancy, height, width)


def first_fit(occupancy: np.ndarray, height: int, width: int,
              index: FreeSpaceIndex | None = None) -> Rect | None:
    """First free position in row-major order.

    Index path: any feasible anchor (r, c) lies inside a fitting MER
    whose corner (M.row, M.col) precedes (r, c) row-major and is itself
    feasible — so the row-major-first corner over fitting MERs is the
    row-major-first anchor.
    """
    if index is not None:
        fitting = index.rectangles_fitting(height, width)
        if not fitting:
            return None
        host = min(fitting, key=lambda r: (r.row, r.col))
        return Rect(host.row, host.col, height, width)
    mask = free_anchor_mask(occupancy, height, width)
    if mask.size == 0 or not mask.any():
        return None
    flat = int(np.flatnonzero(mask)[0])
    r, c = divmod(flat, mask.shape[1])
    return Rect(r, c, height, width)


def best_fit(occupancy: np.ndarray, height: int, width: int,
             index: FreeSpaceIndex | None = None) -> Rect | None:
    """Anchor in the maximal empty rectangle with least leftover area.

    Leftover ties break toward the smaller rectangle perimeter and then
    toward the top-left, keeping the packing deterministic.
    """
    fitting = _fitting(occupancy, height, width, index)
    if not fitting:
        return None

    def key(r: Rect) -> tuple[int, int, int, int]:
        leftover = r.area - height * width
        return (leftover, 2 * (r.height + r.width), r.row, r.col)

    host = min(fitting, key=key)
    return Rect(host.row, host.col, height, width)


def bottom_left(occupancy: np.ndarray, height: int, width: int,
                index: FreeSpaceIndex | None = None) -> Rect | None:
    """The feasible position minimising (row + col), then row.

    Packs functions toward one corner, which empirically preserves large
    free rectangles on the opposite side.  Index path: within one MER's
    anchor range both coordinates are minimised at its corner, so the
    best corner over fitting MERs minimises the key globally.
    """
    if index is not None:
        fitting = index.rectangles_fitting(height, width)
        if not fitting:
            return None
        host = min(fitting, key=lambda r: (r.row + r.col, r.row))
        return Rect(host.row, host.col, height, width)
    mask = free_anchor_mask(occupancy, height, width)
    if mask.size == 0 or not mask.any():
        return None
    rs, cs = np.nonzero(mask)
    keys = rs + cs
    best = int(np.lexsort((rs, keys))[0])
    return Rect(int(rs[best]), int(cs[best]), height, width)


#: Registry used by the manager/scheduler configuration surface.
FIT_ALGORITHMS = {
    "first": first_fit,
    "best": best_fit,
    "bottom-left": bottom_left,
}


def fitter(name: str):
    """Look up a placement heuristic by name."""
    try:
        return FIT_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(FIT_ALGORITHMS))
        raise KeyError(f"unknown fit algorithm {name!r}; known: {known}") from None


class CachedFitter:
    """Name-only vestige of a removed per-generation answer cache.

    Nothing in the package uses this class.  It stays only because the
    benchmark's tracer wraps :meth:`prefetch` by name; it goes when a
    benchmark change drops that binding.
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def prefetch(self, occupancy: np.ndarray,
                 shapes: list[tuple[int, int]],
                 index: FreeSpaceIndex) -> None:
        """Answer each shape with the wrapped heuristic, discarding the
        answers."""
        for height, width in shapes:
            self.fn(occupancy, height, width, index=index)
