"""Fragmentation metrics for the FPGA logic space.

Quantifies the paper's core observation: free areas "tend to become so
small that they fail to satisfy any request and for that reason remain
unused" (section 1).  Metrics:

* :func:`fragmentation_index` — 1 minus the largest-free-rectangle share
  of the total free area: 0 when all free space is one rectangle, tending
  to 1 as the space shatters;
* :func:`satisfiable_fraction` — the share of a request distribution that
  the current free space can host; the operational meaning of
  fragmentation for an on-line scheduler;
* :func:`free_region_count` — number of 4-connected free regions;
* :func:`average_free_rectangle` — mean area of the maximal empty
  rectangles;
* :func:`reclaimable_sites` — free sites outside the largest free
  rectangle: the upper bound on what a perfect consolidation could fold
  back into one contiguous block, the quantity the proactive defrag
  policies chase.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .free_space import (
    FreeSpaceIndex,
    free_mask,
    largest_empty_rectangle,
    maximal_empty_rectangles,
)


def _mers_of(occupancy: np.ndarray,
             index: FreeSpaceIndex | None) -> list:
    """The MER list — read off the index when one is attached, else
    recomputed from the grid."""
    if index is not None:
        return index.mers
    return maximal_empty_rectangles(occupancy)


def _largest_of(occupancy: np.ndarray,
                index: FreeSpaceIndex | None) -> int:
    """Largest free rectangle area — answered by the index in O(1)
    amortised when one is attached (both engines precompute it per
    generation), else recomputed from the grid."""
    if index is not None:
        return index.largest_free_area()
    largest = largest_empty_rectangle(occupancy)
    return largest.area if largest is not None else 0


def fragmentation_index(occupancy: np.ndarray,
                        index: FreeSpaceIndex | None = None) -> float:
    """1 - (largest free rectangle area / free area); 0.0 when empty of
    fragmentation (or when there is no free space at all)."""
    free = (index.free_area() if index is not None
            else int(free_mask(occupancy).sum()))
    if free == 0:
        return 0.0
    largest = _largest_of(occupancy, index)
    return 1.0 - largest / free


def satisfiable_fraction(
    occupancy: np.ndarray, requests: list[tuple[int, int]],
    index: FreeSpaceIndex | None = None,
) -> float:
    """Fraction of (height, width) requests the free space can host."""
    if not requests:
        return 1.0
    mers = _mers_of(occupancy, index)
    satisfied = 0
    for height, width in requests:
        if any(r.height >= height and r.width >= width for r in mers):
            satisfied += 1
    return satisfied / len(requests)


def free_region_count(occupancy: np.ndarray) -> int:
    """Number of 4-connected free regions ("small pools of resources")."""
    free = free_mask(occupancy)
    seen = np.zeros_like(free, dtype=bool)
    rows, cols = free.shape
    regions = 0
    for r in range(rows):
        for c in range(cols):
            if not free[r, c] or seen[r, c]:
                continue
            regions += 1
            queue = deque([(r, c)])
            seen[r, c] = True
            while queue:
                y, x = queue.popleft()
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if (
                        0 <= ny < rows
                        and 0 <= nx < cols
                        and free[ny, nx]
                        and not seen[ny, nx]
                    ):
                        seen[ny, nx] = True
                        queue.append((ny, nx))
    return regions


def average_free_rectangle(occupancy: np.ndarray,
                           index: FreeSpaceIndex | None = None) -> float:
    """Mean area of the maximal empty rectangles (0.0 when full)."""
    mers = _mers_of(occupancy, index)
    if not mers:
        return 0.0
    return sum(r.area for r in mers) / len(mers)


def reclaimable_sites(occupancy: np.ndarray,
                      index: FreeSpaceIndex | None = None) -> int:
    """Free sites a perfect consolidation could add to the largest
    free rectangle (free area minus the current largest's area; 0 when
    the free space is already one rectangle, or the grid is full)."""
    free = (index.free_area() if index is not None
            else int(free_mask(occupancy).sum()))
    if free == 0:
        return 0
    largest = _largest_of(occupancy, index)
    return free - largest


def utilization(occupancy: np.ndarray,
                index: FreeSpaceIndex | None = None) -> float:
    """Fraction of sites occupied.

    With an index attached the occupied count is derived from its
    tracked free-area tally instead of re-scanning the grid; the two
    integer counts are equal by the engine's invariant, so the quotient
    is bit-identical.
    """
    total = occupancy.size
    if not total:
        return 0.0
    if index is not None:
        return float(total - index.free_area()) / total
    return float((occupancy != 0).sum()) / total
