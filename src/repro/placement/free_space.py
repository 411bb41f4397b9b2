"""Free-space management: maximal empty rectangles over the CLB grid.

The fragmentation problem the paper sets out to solve (section 1):

    "Since each of the multiple independent functions sharing the logic
    space occupies a different amount of resources, many small pools of
    resources are created as they are released.  These unallocated areas
    tend to become so small that they fail to satisfy any request and for
    that reason remain unused, leading to a fragmentation of the FPGA
    logic space."

The manager keeps all maximal empty rectangles (the KAMER approach of the
on-line placement literature): a rectangle of free sites is *maximal*
when no strictly larger free rectangle contains it.  Allocation decisions
and the fragmentation metrics both derive from this set.

Two engines maintain that set behind the common :class:`FreeSpaceIndex`
protocol:

* :class:`FreeSpaceManager` (``"recompute"``) — the reference engine:
  every mutation drops the cached MER list; the next query recomputes it
  from the whole grid with :func:`maximal_empty_rectangles`;
* :class:`~repro.placement.incremental.IncrementalFreeSpace`
  (``"incremental"``) — maintains the MER set by local splitting on
  ``allocate`` and a bounded merge sweep on ``release``, never touching
  parts of the grid the mutation cannot reach.

Both engines *own* their occupancy mutations: callers use
:meth:`FreeSpaceIndex.allocate` / :meth:`FreeSpaceIndex.release` instead
of writing the array and remembering to invalidate — the stale-cache
footgun of the original wrapper is thereby unreachable from the manager
stack (the fabric delegates every occupancy write here).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.device.geometry import Rect

from .bitgrid import largest_free_rect_bits, pack_free_rows

#: Names accepted by :func:`make_free_space` (and the campaign's
#: ``free_space`` axis).
FREE_SPACE_NAMES = ("recompute", "incremental")


def free_mask(occupancy: np.ndarray) -> np.ndarray:
    """Boolean mask of free sites from an occupancy grid (0 = free)."""
    return occupancy == 0


def maximal_empty_rectangles(occupancy: np.ndarray) -> list[Rect]:
    """All maximal empty rectangles of the occupancy grid.

    Histogram sweep: for every row, the stack-based largest-rectangle
    algorithm emits each rectangle that cannot be widened at its height;
    a containment pass then removes rectangles nested in larger ones.
    Complexity O(R*C + K^2) with K maximal rectangles — ample for
    device-scale grids (the XCV200 is 28x42).
    """
    rows, cols = occupancy.shape
    free = free_mask(occupancy)
    heights = np.zeros(cols, dtype=np.int64)
    candidates: set[tuple[int, int, int, int]] = set()
    for r in range(rows):
        heights = np.where(free[r], heights + 1, 0)
        # Stack sweep over the histogram of this row.
        stack: list[tuple[int, int]] = []  # (start_col, height)
        for c in range(cols + 1):
            h = int(heights[c]) if c < cols else 0
            start = c
            while stack and stack[-1][1] >= h:
                s, sh = stack.pop()
                # Rectangle of height sh spanning columns s..c-1,
                # rows r-sh+1..r; maximal downwards at this row only if
                # the row below is blocked or we are at the bottom.
                bottom_blocked = r == rows - 1 or not bool(
                    free[r + 1, s : c].all()
                )
                if sh > 0 and bottom_blocked:
                    candidates.add((r - sh + 1, s, sh, c - s))
                start = s
            if h > 0 and (not stack or stack[-1][1] < h):
                stack.append((start, h))
    rects = [Rect(*c) for c in candidates]
    # Drop rectangles contained in another candidate.
    rects.sort(key=lambda x: x.area, reverse=True)
    maximal: list[Rect] = []
    for rect in rects:
        if not any(other.contains_rect(rect) for other in maximal):
            maximal.append(rect)
    return maximal


def largest_empty_rectangle(occupancy: np.ndarray) -> Rect | None:
    """The largest free rectangle (None when the grid is full).

    Its area equals the largest of :func:`maximal_empty_rectangles`;
    among equal areas the topmost row wins, then the shortest height,
    then the leftmost column (see
    :func:`~repro.placement.bitgrid.largest_free_rect_bits`, which runs
    on the packed free rows without enumerating the MER set).
    """
    found = largest_free_rect_bits(pack_free_rows(occupancy))
    return Rect(*found) if found is not None else None


def rectangles_fitting(occupancy: np.ndarray, height: int,
                       width: int) -> list[Rect]:
    """Maximal empty rectangles that can host a ``height`` x ``width``
    request (no rotation: functions are placed as designed)."""
    return [
        r
        for r in maximal_empty_rectangles(occupancy)
        if r.height >= height and r.width >= width
    ]


@runtime_checkable
class FreeSpaceIndex(Protocol):
    """What every free-space engine offers the manager stack.

    An index is bound to one occupancy grid.  It owns the grid's
    mutations: :meth:`allocate` and :meth:`release` write the array *and*
    keep the maximal-empty-rectangle set consistent, so a query can never
    observe a stale view.  External code that mutates the array directly
    must call :meth:`rebuild` afterwards (the fabric never does).
    """

    @property
    def occupancy(self) -> np.ndarray:
        """The bound occupancy grid (0 = free, owner ids otherwise)."""

    @property
    def generation(self) -> int:
        """Counter bumped by every effective occupancy mutation; equal
        generations guarantee byte-identical occupancy, so callers may
        memoise fit and plan decisions against it."""

    @property
    def mers(self) -> list[Rect]:
        """Current maximal empty rectangles (order unspecified)."""

    def allocate(self, rect: Rect, owner: int = 1) -> None:
        """Mark ``rect`` occupied by ``owner`` and update the MER set."""

    def release(self, rect: Rect) -> None:
        """Mark ``rect`` free and update the MER set."""

    def fits(self, height: int, width: int) -> bool:
        """True when some free rectangle can host the request."""

    def rectangles_fitting(self, height: int, width: int) -> list[Rect]:
        """MERs that can host a ``height`` x ``width`` request."""

    def free_area(self) -> int:
        """Total free sites."""

    def largest_free_area(self) -> int:
        """Area of the largest free rectangle (0 when the grid is full)."""

    def rebuild(self) -> None:
        """Resynchronise with the grid after an external mutation."""


class FreeSpaceManager:
    """The ``"recompute"`` engine: cache-and-invalidate over the full
    sweep.

    This is the reference implementation the differential suite holds
    the incremental engine against: correctness is trivial (every query
    after a mutation recomputes from the grid), speed is not (each
    recomputation is O(R*C + K^2) regardless of how small the change
    was).
    """

    name = "recompute"

    def __init__(self, occupancy: np.ndarray) -> None:
        self._occupancy = occupancy
        self._cache: list[Rect] | None = None
        self._generation = 0

    @property
    def occupancy(self) -> np.ndarray:
        """The bound occupancy grid."""
        return self._occupancy

    @property
    def generation(self) -> int:
        """Counter bumped by every effective occupancy mutation.

        Matches the incremental engine's counter step for step over any
        shared mutation history (the differential suite pins this):
        allocations and effective releases bump it, releasing an
        already-free region does not, and :meth:`rebuild` /
        :meth:`invalidate` count as one external mutation.
        """
        return self._generation

    def _check_bounds(self, rect: Rect) -> None:
        rows, cols = self._occupancy.shape
        if rect.row < 0 or rect.col < 0 or rect.row_end > rows \
                or rect.col_end > cols:
            raise ValueError(f"rectangle {rect} outside the {rows}x{cols} grid")

    def allocate(self, rect: Rect, owner: int = 1) -> None:
        """Claim ``rect`` for ``owner``; the region must be free."""
        if owner == 0:
            raise ValueError("owner 0 is the free marker")
        self._check_bounds(rect)
        view = self._occupancy[rect.row : rect.row_end, rect.col : rect.col_end]
        if bool((view != 0).any()):
            raise ValueError(f"region {rect} is not entirely free")
        view[...] = owner
        self._cache = None
        self._generation += 1

    def release(self, rect: Rect) -> None:
        """Return ``rect`` to the free pool."""
        self._check_bounds(rect)
        view = self._occupancy[rect.row : rect.row_end,
                               rect.col : rect.col_end]
        if not bool((view != 0).any()):
            return  # the region was already free: nothing can change
        view[...] = 0
        self._cache = None
        self._generation += 1

    def invalidate(self) -> None:
        """Drop the cached MER list.

        Only needed after an *external* mutation of the occupancy array;
        :meth:`allocate` / :meth:`release` invalidate on their own.
        Kept as the historical name of :meth:`rebuild`.
        """
        self._cache = None
        self._generation += 1

    def rebuild(self) -> None:
        """Resynchronise with the grid (same as :meth:`invalidate`)."""
        self.invalidate()

    @property
    def mers(self) -> list[Rect]:
        """Current maximal empty rectangles."""
        if self._cache is None:
            self._cache = maximal_empty_rectangles(self._occupancy)
        return self._cache

    def fits(self, height: int, width: int) -> bool:
        """True when some free rectangle can host the request."""
        return any(
            r.height >= height and r.width >= width for r in self.mers
        )

    def rectangles_fitting(self, height: int, width: int) -> list[Rect]:
        """MERs that can host a ``height`` x ``width`` request."""
        return [
            r for r in self.mers
            if r.height >= height and r.width >= width
        ]

    def free_area(self) -> int:
        """Total free sites."""
        return int(free_mask(self._occupancy).sum())

    def largest_free_area(self) -> int:
        """Area of the largest free rectangle (0 when the grid is full)."""
        return max((r.area for r in self.mers), default=0)


def make_free_space(name: str, occupancy: np.ndarray) -> FreeSpaceIndex:
    """Construct a free-space engine by registry name.

    ``"recompute"`` builds the reference :class:`FreeSpaceManager`,
    ``"incremental"`` the split/merge engine of
    :mod:`repro.placement.incremental`.
    """
    # Imported here: incremental.py builds on this module's sweep.
    from .incremental import IncrementalFreeSpace

    engines = {
        "recompute": FreeSpaceManager,
        "incremental": IncrementalFreeSpace,
    }
    try:
        engine = engines[name]
    except KeyError:
        known = ", ".join(FREE_SPACE_NAMES)
        raise KeyError(
            f"unknown free-space engine {name!r}; known: {known}"
        ) from None
    return engine(occupancy)
