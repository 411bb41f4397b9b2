"""Packed-row bitmask primitives for placement hot paths.

The planner and the free-space engines all answer the same inner-loop
question — "is this ``height`` x ``width`` window entirely free?" — many
thousands of times per scheduling run.  Numpy views answer it in ~30µs;
a per-row Python integer whose bit ``c`` mirrors "column ``c`` is free"
answers it in well under a microsecond, because an entire row of the
device collapses to one machine word (or a few, via arbitrary-precision
ints) and a window test collapses to shift-and-AND arithmetic.

:class:`~repro.placement.incremental.IncrementalFreeSpace` already keeps
such masks for its release sweep; this module extracts the bit tricks so
the rearrangement planners (`repro.core.defrag`,
`repro.placement.compaction`) can run their candidate searches on the
same representation instead of slicing numpy scratch grids.

Conventions: bit ``c`` of ``row_bits[r]`` is set iff site ``(r, c)`` is
free.  All helpers are pure; callers own the (cheap) list copies.
"""

from __future__ import annotations

import numpy as np

from repro.perf import PERF


def pack_free_rows(occupancy: np.ndarray) -> list[int]:
    """Per-row free-column bitmasks of a grid (bit c set = column c free)."""
    packed = np.packbits(occupancy == 0, axis=1, bitorder="little")
    return [
        int.from_bytes(packed[r].tobytes(), "little")
        for r in range(occupancy.shape[0])
    ]


def span_mask(col: int, width: int) -> int:
    """Bitmask covering columns ``col .. col + width - 1``."""
    return ((1 << width) - 1) << col


def run_anchor_mask(bits: int, width: int) -> int:
    """Anchors of ``width``-long runs: bit ``c`` set iff bits
    ``c .. c + width - 1`` are all set in ``bits``.

    Doubling shift-AND: after each step the mask witnesses runs of
    ``shift`` columns, and two overlapping witnesses ``step`` apart
    witness a run of ``shift + step``.
    """
    mask = bits
    shift = 1
    while shift < width and mask:
        step = min(shift, width - shift)
        mask &= mask >> step
        shift += step
    return mask


def first_fit_bits(row_bits: list[int], height: int,
                   width: int) -> tuple[int, int] | None:
    """Row-major-first anchor of a free ``height`` x ``width`` window.

    Matches :func:`repro.placement.fit.first_fit`'s grid path exactly:
    the topmost row holding any feasible anchor wins, leftmost column
    within it.  Returns ``(row, col)`` or ``None``.  Rows wider than
    one machine word are plain arbitrary-precision ints, so the same
    loop serves every device.
    """
    rows = len(row_bits)
    if rows < height:
        return None
    # The widest row's top free bit bounds every run's end column.
    if max(row_bits, default=0).bit_length() < width:
        return None
    PERF.first_fit_scalar += 1
    for r in range(rows - height + 1):
        band = row_bits[r]
        for rr in range(r + 1, r + height):
            band &= row_bits[rr]
            if not band:
                break
        # A band with fewer than ``width`` set bits cannot hold a run;
        # ``bit_count`` is C-speed and skips the doubling walk for the
        # (common, on saturated grids) hopeless bands.
        if band.bit_count() < width:
            continue
        anchors = run_anchor_mask(band, width)
        if anchors:
            return r, (anchors & -anchors).bit_length() - 1
    return None


def largest_free_rect_bits(
    row_bits: list[int],
) -> tuple[int, int, int, int] | None:
    """The largest free rectangle as ``(row, col, height, width)``, or
    ``None`` when no site is free.

    Ties go to the topmost row, then the shortest height, then the
    leftmost column.  For each top row the band of columns free across
    rows ``top .. top + height - 1`` shrinks as the height grows; its
    longest run of set bits is the widest rectangle of that height.
    Any taller rectangle from this top row is at most
    ``popcount(band)`` wide and ``rows - top`` high, so the descent
    stops once that bound cannot beat the best area found.  Runs are
    grown by shift-AND starting from the width that would beat the
    best, so most bands cost one doubling walk or none.
    """
    rows = len(row_bits)
    best = 0
    found = None
    for top in range(rows):
        rows_left = rows - top
        band = -1
        for height in range(1, rows_left + 1):
            band &= row_bits[top + height - 1]
            free = band.bit_count()
            if free * rows_left <= best:
                break
            width = best // height + 1
            if free < width:
                continue
            anchors = run_anchor_mask(band, width)
            if not anchors:
                continue
            while True:
                longer = anchors & (anchors >> 1)
                if not longer:
                    break
                anchors = longer
                width += 1
            best = height * width
            found = (top, (anchors & -anchors).bit_length() - 1,
                     height, width)
    return found


def clear_rect(row_bits: list[int], row: int, row_end: int,
               mask: int) -> None:
    """Mark the masked columns of rows ``row .. row_end - 1`` occupied."""
    inv = ~mask
    for r in range(row, row_end):
        row_bits[r] &= inv


def set_rect(row_bits: list[int], row: int, row_end: int,
             mask: int) -> None:
    """Mark the masked columns of rows ``row .. row_end - 1`` free."""
    for r in range(row, row_end):
        row_bits[r] |= mask


def band_mask(row_bits: list[int], row: int, row_end: int) -> int:
    """Columns free across *all* of rows ``row .. row_end - 1``."""
    band = row_bits[row]
    for r in range(row + 1, row_end):
        band &= row_bits[r]
        if not band:
            break
    return band
