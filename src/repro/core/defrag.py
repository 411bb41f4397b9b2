"""Rearrangement planning: which running functions move, and where.

The goal, from the paper's section 1:

    "If a new function cannot be allocated immediately due to lack of
    contiguous free resources, a suitable rearrangement of a subset of
    the functions currently running may solve the problem."

The planner proposes a move list that releases a contiguous ``height`` x
``width`` rectangle, preferring plans that disturb the fewest running
functions (reference [5]'s criterion: "minimising disruptions to running
functions that are to be relocated").  Three strategies are tried, best
plan wins:

* **none-needed** — the request already fits (empty move list);
* **ordered compaction** — slide residents toward an edge (1-D moves);
* **eviction** — pick a target window and relocate exactly the functions
  overlapping it into free space elsewhere (the most surgical plan).

Planning happens on scratch copies (packed free-row bitmasks, and grids
where moves are sequenced); execution belongs to the manager,
which charges reconfiguration time per move and — in the paper's
contribution — performs the moves *concurrently* with execution via
dynamic relocation instead of halting the moved functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.geometry import Rect
from repro.perf import PERF
from repro.placement.bitgrid import (
    clear_rect,
    first_fit_bits,
    largest_free_rect_bits,
    pack_free_rows,
    set_rect,
    span_mask,
)
from repro.placement.compaction import (
    Move,
    apply_moves_bits,
    compaction_moves,
    footprints,
    sequence_moves,
)

@dataclass
class RearrangementPlan:
    """A target rectangle plus the moves that make it free."""

    target: Rect
    moves: list[Move] = field(default_factory=list)
    method: str = "none-needed"

    @property
    def moved_area(self) -> int:
        """Total CLB sites that must be relocated."""
        return sum(m.src.area for m in self.moves)

    @property
    def disturbed_functions(self) -> int:
        """Number of running functions the plan touches."""
        return len({m.owner for m in self.moves})

    def __str__(self) -> str:
        return (
            f"<plan {self.method}: target {self.target}, "
            f"{len(self.moves)} moves, {self.moved_area} sites>"
        )


class DefragPlanner:
    """Finds minimal-disturbance rearrangements for a placement request."""

    def __init__(self, max_moves: int = 8, max_candidates: int = 256,
                 max_consolidation_moves: int = 16) -> None:
        if max_moves < 1:
            raise ValueError("max_moves must be positive")
        if max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if max_consolidation_moves < 1:
            raise ValueError("max_consolidation_moves must be positive")
        self.max_moves = max_moves
        self.max_candidates = max_candidates
        #: proactive consolidations serve no single request, so they may
        #: disturb more functions than a reactive plan is allowed to.
        self.max_consolidation_moves = max_consolidation_moves
        #: per-occupancy-generation shared state (see :meth:`plan`):
        #: packed rows, footprints, compaction sweeps and eviction
        #: arrays, all pure functions of the grid named by the token.
        self._cache_token: object = None
        self._shared: dict = {}

    def plan(self, occupancy: np.ndarray, height: int, width: int,
             token: object = None) -> RearrangementPlan | None:
        """Best plan freeing a ``height`` x ``width`` rectangle, or None.

        Candidate plans are scored by (functions disturbed, sites moved,
        total move distance) — fewer and smaller disruptions first.

        ``token``, when supplied, must name the occupancy content (the
        free-space engine's generation counter qualifies: it bumps on
        every effective mutation).  Calls sharing a token reuse the
        shape-independent work — row packing, footprints, both
        compaction sweeps and the eviction arrays — so an admission
        pass probing several shapes against one unchanged fabric packs
        the grid once.  Without a token every call computes from
        scratch.
        """
        shared = self._shared_state(token)
        if "row_bits" not in shared:
            shared["row_bits"] = pack_free_rows(occupancy)
        row_bits = shared["row_bits"]
        spot = first_fit_bits(row_bits, height, width)
        if spot is not None:
            return RearrangementPlan(Rect(spot[0], spot[1], height, width))
        # No rearrangement can help when the free *area* is too small:
        # defragmentation only consolidates, it cannot create sites.
        if sum(b.bit_count() for b in row_bits) < height * width:
            return None
        if "prints" not in shared:
            shared["prints"] = footprints(occupancy)
        prints = shared["prints"]
        eviction = self._eviction_plan(
            occupancy, prints, row_bits, height, width, shared
        )
        candidates = self._compaction_plans(
            prints, row_bits, height, width, shared
        )
        if eviction is not None:
            candidates.append(eviction)
        candidates = [
            p for p in candidates if len(p.moves) <= self.max_moves
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda p: (
                p.disturbed_functions,
                p.moved_area,
                sum(m.distance for m in p.moves),
            ),
        )

    def _shared_state(self, token: object) -> dict:
        """The per-token scratch dict: fresh when the token moved, and a
        throwaway one when there is no token."""
        if token is None:
            return {}
        if self._cache_token != token:
            self._cache_token = token
            self._shared = {}
        return self._shared

    def plan_prefetch(self, occupancy: np.ndarray,
                      shapes: list[tuple[int, int]],
                      token: object) -> None:
        """:meth:`plan` for each shape, discarding the answers.

        Nothing in the package calls this.  It stays only because the
        benchmark's tracer wraps it by name; it goes when a benchmark
        change drops that binding.
        """
        for height, width in shapes:
            self.plan(occupancy, height, width, token=token)

    def plan_consolidation(
        self, occupancy: np.ndarray
    ) -> RearrangementPlan | None:
        """Best consolidation: maximise the largest free rectangle.

        Unlike :meth:`plan`, no pending request drives the search — the
        goal is to compact the resident functions so that *future*
        arrivals find the free space as contiguous as possible (the
        proactive-defragmentation premise).  Candidates are ordered
        compactions toward the left edge, the top edge, and both in
        sequence (corner packing), each truncated to
        ``max_consolidation_moves``; a prefix of a compaction move list
        is always executable in order, so truncation stays collision
        free.  All three come from one footprint scan and one row
        packing: every sweep returns its compacted free-row bitmasks,
        the corner sweep starts from the left sweep's, and only a
        truncated prefix is replayed (:func:`apply_moves_bits`).
        Returns ``None`` unless some candidate *strictly* grows
        the largest free rectangle — consolidation never shrinks it, and
        pointless move lists are never executed.  The returned plan's
        ``target`` is the largest free rectangle of the compacted grid.
        """
        row_bits = pack_free_rows(occupancy)
        prints = footprints(occupancy)
        current = largest_free_rect_bits(row_bits)
        baseline = current[2] * current[3] if current is not None else 0
        cap = self.max_consolidation_moves
        left, left_bits = compaction_moves(prints, row_bits, "left")
        top, top_bits = compaction_moves(prints, row_bits, "top")
        candidates: list[tuple[str, list[Move], list[int]]] = [
            ("consolidate-left", left, left_bits),
            ("consolidate-top", top, top_bits),
        ]
        if left and len(left) < cap:
            # Corner packing: compact left, then compact the result up
            # (skipped when truncation could never reach the top moves —
            # the candidate would duplicate the plain left compaction).
            shifted = dict(prints)
            for m in left:
                shifted[m.owner] = m.dst
            up, corner_bits = compaction_moves(shifted, left_bits, "top")
            candidates.append(("consolidate-corner", left + up, corner_bits))
        best: RearrangementPlan | None = None
        best_key: tuple[int, int, int] | None = None
        for method, moves, bits in candidates:
            if not moves:
                continue
            if len(moves) > cap:
                moves = moves[:cap]
                bits = apply_moves_bits(row_bits, moves)
            found = largest_free_rect_bits(bits)
            if found is None:
                continue
            target = Rect(*found)
            if target.area <= baseline:
                continue
            key = (
                -target.area,
                sum(m.src.area for m in moves),
                sum(m.distance for m in moves),
            )
            if best_key is None or key < best_key:
                best = RearrangementPlan(target, moves, method)
                best_key = key
        return best

    # -- strategies ---------------------------------------------------------

    def _compaction_plans(self, prints: dict[int, Rect],
                          row_bits: list[int], height: int, width: int,
                          shared: dict) -> list[RearrangementPlan]:
        plans: list[RearrangementPlan] = []
        sweeps = shared.setdefault("compaction", {})
        for toward in ("left", "top"):
            # The sweep is shape-independent: within one token both
            # directions are computed once and every probed shape reads
            # the (moves, compacted bitmask) pair from the shared state.
            if toward not in sweeps:
                sweeps[toward] = compaction_moves(prints, row_bits, toward)
            moves, compacted_bits = sweeps[toward]
            # A plan longer than ``max_moves`` is discarded by
            # :meth:`plan` regardless of where the shape would
            # land, so the first-fit probe is skipped outright — on
            # saturated grids the compaction move lists routinely
            # overshoot the cap and this avoids the probe entirely.
            if not moves or len(moves) > self.max_moves:
                continue
            spot = first_fit_bits(compacted_bits, height, width)
            if spot is not None:
                plans.append(
                    RearrangementPlan(
                        Rect(spot[0], spot[1], height, width),
                        moves, f"compaction-{toward}",
                    )
                )
        return plans

    @staticmethod
    def _evict_state(occupancy: np.ndarray, prints: dict[int, Rect],
                     shared: dict) -> dict:
        """Shape-independent arrays the eviction scan reads per call.

        Everything here is a pure function of the occupancy grid (the
        footprint coordinate columns, the packed free-space rows, each
        blocker's per-row span masks and the sorted unique blocker
        shapes), so within one planner token the whole bundle is built
        once and every probed shape reuses it.
        """
        if "evict" in shared:
            return shared["evict"]
        print_items = list(prints.items())
        count = len(print_items)
        pr = np.fromiter((kv[1].row for kv in print_items),
                         dtype=np.int64, count=count)
        pc = np.fromiter((kv[1].col for kv in print_items),
                         dtype=np.int64, count=count)
        ph = np.fromiter((kv[1].height for kv in print_items),
                         dtype=np.int64, count=count)
        pw = np.fromiter((kv[1].width for kv in print_items),
                         dtype=np.int64, count=count)
        state = {
            "print_items": print_items,
            "pr": pr, "pc": pc, "ph": ph, "pw": pw,
            "areas": ph * pw,
            # Plain-list mirrors for the per-shape anchor dedup in
            # :meth:`_eviction_windows` — the candidate sets are a few
            # dozen ints, where a Python set beats array machinery.
            "coord_lists": (pr.tolist(), pc.tolist(),
                            ph.tolist(), pw.tolist()),
        }
        rows, cols = occupancy.shape
        if cols <= 64:
            packed = np.packbits(occupancy == 0, axis=1,
                                 bitorder="little")
            buf = np.zeros((rows, 8), dtype=np.uint8)
            buf[:, : packed.shape[1]] = packed
            state["base64"] = buf.view("<u8").ravel()
            spans = (((np.uint64(1) << pw.astype(np.uint64))
                      - np.uint64(1)) << pc.astype(np.uint64))
            rows_idx = np.arange(rows)
            covers = (pr[:, None] <= rows_idx[None, :]) \
                & (rows_idx[None, :] < pr[:, None] + ph[:, None])
            blocker_rows = np.where(covers, spans[:, None], np.uint64(0))
            state["blocker_rows"] = blocker_rows
            # Span sums stay exact in float64 up to 2^53, so narrow
            # grids can fold member masks through BLAS (see
            # :meth:`_screen_windows`).
            state["blocker_f"] = (blocker_rows.astype(np.float64)
                                  if cols <= 52 else None)
            # Unique blocker shapes, ascending (height, width): the
            # screen's band/anchor reductions grow incrementally in
            # exactly that order.
            key = ph * np.int64(65) + pw
            uniq_key, inv = np.unique(key, return_inverse=True)
            state["uh"] = uniq_key // 65
            state["uw"] = uniq_key % 65
            state["inv"] = inv
            # Footprint -> shape one-hot, so the screen can map a
            # window/blocker membership matrix onto the (much smaller)
            # set of windows each *shape* actually blocks.
            onehot = np.zeros((count, len(uniq_key)), dtype=np.int64)
            onehot[np.arange(count), inv] = 1
            state["shape_onehot"] = onehot
        shared["evict"] = state
        return state

    def _eviction_windows(
        self, occupancy: np.ndarray, state: dict, height: int, width: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Candidate windows for one shape, in scan order.

        Anchors come from 'corner points' (edges of the device and of
        resident footprints), optionally subsampled to
        ``max_candidates``; each window's blocker set is enumerated with
        one separable overlap pass.  Returns ``(member, n_w, wr, wc)``
        filtered to windows with 1..``max_moves`` blockers, or ``None``
        when no window qualifies.
        """
        rows, cols = occupancy.shape
        count = len(state["print_items"])
        pr, pc, ph, pw = (state["pr"], state["pc"],
                          state["ph"], state["pw"])
        prl, pcl, phl, pwl = state["coord_lists"]
        rhi = rows - height
        chi = cols - width
        if rhi < 0 or chi < 0:
            return None
        rset = {0, rhi}
        for p, h in zip(prl, phl):
            for v in (p - height, p, p + h):
                if 0 <= v <= rhi:
                    rset.add(v)
        ra = np.array(sorted(rset), dtype=np.int64)
        cset = {0, chi}
        for p, w in zip(pcl, pwl):
            for v in (p - width, p, p + w):
                if 0 <= v <= chi:
                    cset.add(v)
        ca = np.array(sorted(cset), dtype=np.int64)
        # Bound the search (minimising disturbance is a heuristic, not an
        # exhaustive optimisation): subsample anchors evenly if needed.
        while len(ra) * len(ca) > self.max_candidates:
            if len(ra) >= len(ca):
                ra = ra[::2]
            else:
                ca = ca[::2]
        # Footprint/window overlap, separably per axis; the (R, C, P)
        # AND enumerates every window's blocker set in scan order.
        row_ov = (pr[:, None] < ra[None, :] + height) \
            & (pr[:, None] + ph[:, None] > ra[None, :])
        col_ov = (pc[:, None] < ca[None, :] + width) \
            & (pc[:, None] + pw[:, None] > ca[None, :])
        member = (
            row_ov.T[:, None, :] & col_ov.T[None, :, :]
        ).reshape(-1, count)
        n_all = member.sum(axis=1)
        valid = np.flatnonzero((n_all > 0) & (n_all <= self.max_moves))
        if valid.size == 0:
            return None
        return (
            member[valid],
            n_all[valid],
            np.repeat(ra, len(ca))[valid],
            np.tile(ca, len(ra))[valid],
        )

    def _eviction_plan(self, occupancy: np.ndarray,
                       prints: dict[int, Rect], base_bits: list[int],
                       height: int, width: int,
                       shared: dict) -> RearrangementPlan | None:
        """Try target windows anchored at 'corner points' (edges of the
        device and of resident footprints); relocate exactly the
        overlapping functions into remaining free space.

        The candidate scan is reorganised for speed without changing the
        winner.  The plan key is lexicographic with the disturbance
        count first, so a window disturbing fewer functions always beats
        one disturbing more: windows are bucketed by blocker count
        (counted for the whole anchor grid in one vectorised pass) and
        evaluated strictly lightest-bucket-first.  A vectorised bitmask
        screen (:meth:`_screen_windows`) then discards every window
        containing a blocker with no relocation spot — every window
        whose per-window eviction attempt would fail on some placement —
        so the sequential spot search only runs on the rare survivors.
        """
        rows, cols = occupancy.shape
        if height > rows or width > cols or not prints:
            return None
        state = self._evict_state(occupancy, prints, shared)
        win = self._eviction_windows(occupancy, state, height, width)
        if win is None:
            return None
        member, n_w, wr, wc = win
        keep = self._screen_windows(
            occupancy, state, member, wr, wc, height, width
        )
        if keep is not None:
            if not keep.any():
                return None
            member, n_w, wr, wc = member[keep], n_w[keep], wr[keep], wc[keep]
        return self._eviction_select(
            occupancy, state, base_bits, member, n_w, wr, wc,
            height, width,
        )

    def _eviction_select(
        self, occupancy: np.ndarray, state: dict, base_bits: list[int],
        member: np.ndarray, n_w: np.ndarray, wr: np.ndarray,
        wc: np.ndarray, height: int, width: int,
    ) -> RearrangementPlan | None:
        """Pick the winning window among the screen survivors.

        One disturbed function is already minimal non-trivial
        disruption; the first single-blocker window (in scan order)
        with a workable relocation wins outright.  Heavier buckets are
        ranked by (sites moved, distance) with scan order breaking
        ties, and the best *sequenceable* candidate wins — the same
        winner the one-window-at-a-time scan selected.

        The (sites moved) rank is lazy: a window's moved area is the
        sum of its blockers' footprint areas — every blocker yields
        exactly one move whose source is its footprint — so it is known
        from the member matrix *before* any relocation search runs.
        Windows are grouped by moved area ascending and only groups
        reached before a winner pay for their move lists, which is most
        of the eviction cost on rejection-heavy streams.
        """
        print_items = state["print_items"]
        areas = state["areas"].tolist()
        # Survivor counts are tiny after the screen (a handful per
        # shape), so the walk runs on plain Python containers — per-
        # bucket numpy dispatches would dominate the actual work.
        w_idx, p_idx = np.nonzero(member)
        n = member.shape[0]
        blockers_of: list[list[int]] = [[] for _ in range(n)]
        for w, p in zip(w_idx.tolist(), p_idx.tolist()):
            blockers_of[w].append(p)
        wr_l = wr.tolist()
        wc_l = wc.tolist()
        n_l = n_w.tolist()
        order = sorted(range(n), key=lambda i: (n_l[i], i))
        pos = 0
        while pos < len(order):
            seq = order[pos]
            bucket = n_l[seq]
            if bucket == 1:
                pos += 1
                target = Rect(wr_l[seq], wc_l[seq], height, width)
                blockers = [print_items[i] for i in blockers_of[seq]]
                moves = self._evict_moves(base_bits, blockers, target)
                if moves is None:
                    continue
                ordered = sequence_moves(occupancy, moves)
                if ordered is not None:
                    return RearrangementPlan(target, ordered, "eviction")
                continue
            # One whole bucket, grouped by moved area ascending; only
            # groups reached before a winner pay for their move lists.
            stop = pos
            while stop < len(order) and n_l[order[stop]] == bucket:
                stop += 1
            idxs = order[pos:stop]
            pos = stop
            area_of = {
                i: sum(areas[p] for p in blockers_of[i]) for i in idxs
            }
            by_area = sorted(idxs, key=lambda i: (area_of[i], i))
            g = 0
            while g < len(by_area):
                area = area_of[by_area[g]]
                scored: list[tuple[int, int, Rect, list[Move]]] = []
                while g < len(by_area):
                    seq = by_area[g]
                    if area_of[seq] != area:
                        break
                    g += 1
                    target = Rect(wr_l[seq], wc_l[seq], height, width)
                    blockers = [print_items[i] for i in blockers_of[seq]]
                    moves = self._evict_moves(base_bits, blockers, target)
                    if moves is None:
                        continue
                    distance = sum(m.distance for m in moves)
                    scored.append((distance, seq, target, moves))
                scored.sort(key=lambda entry: (entry[0], entry[1]))
                for _, _, target, moves in scored:
                    ordered = sequence_moves(occupancy, moves)
                    if ordered is not None:
                        return RearrangementPlan(
                            target, ordered, "eviction"
                        )
        return None

    def _screen_windows(
        self,
        occupancy: np.ndarray,
        state: dict,
        member: np.ndarray,
        wr: np.ndarray,
        wc: np.ndarray,
        height: int,
        width: int,
    ) -> np.ndarray | None:
        """Which windows could possibly relocate *all* their blockers.

        ``member``/``wr``/``wc`` are one shape's candidate windows (see
        :meth:`_eviction_windows`).  Builds every window's vacated grid
        as one row of uint64 free-column masks (blockers lifted, the
        ``height`` x ``width`` target reserved) and, per distinct
        blocker shape, answers "does this shape fit somewhere?" for all
        windows at once via shifted-AND band reductions.  The vacated
        grid over-states the free space at every placement step except
        the first (earlier relocations only consume sites), so a shape
        with no spot here has no spot in the real sequential attempt
        either — the filter never drops a window the per-window
        eviction search could have used.  Returns a boolean keep-mask
        over the windows, or ``None`` when the device is too wide for
        the uint64 fast path (the caller then evaluates every window
        sequentially).

        ``state`` carries the occupancy-only inputs
        (:meth:`_evict_state`): the packed free rows, per-blocker span
        masks and the unique blocker shapes sorted ascending, which is
        exactly the order the band/anchor reductions grow in.
        """
        rows, cols = occupancy.shape
        if cols > 64:
            return None
        # Fold each window's member span masks in one matmul: footprints
        # are disjoint rectangles, so their masks never share a bit and
        # summing them IS their union; blocker sites are occupied, hence
        # never set in the free-space base, so the final merge is a
        # plain OR.  Narrow grids run the product through BLAS — float64
        # sums of sub-2^52 masks are exact — wide ones use the integer
        # path.  Either way the working set stays (windows x rows).
        blocker_f = state["blocker_f"]
        if blocker_f is not None:
            lifted = (member.astype(np.float64) @ blocker_f) \
                .astype(np.uint64)
        else:
            lifted = member.astype(np.uint64) @ state["blocker_rows"]
        bits = state["base64"][None, :] | lifted
        # Reserve each window's target.
        windows = member.shape[0]
        tspan = np.uint64((1 << width) - 1) << wc.astype(np.uint64)
        rowsel = wr[:, None] + np.arange(height)[None, :]
        bits[np.arange(windows)[:, None], rowsel] &= ~tspan[:, None]
        PERF.screen_calls += 1
        PERF.screen_windows += windows
        # One "does shape (h, w) fit anywhere?" bit per (shape, window).
        # Row bands and column-run anchors both grow *incrementally*
        # (heights and then widths visited in ascending order — the
        # sort order of ``uh``/``uw``), so each unit of height or width
        # costs a single vectorised op over all windows no matter how
        # many shapes share it.  Shapes of blockers in no window cost
        # two extra ops here and gate nothing below (their member
        # columns are all False).  The reductions run transposed —
        # (rows, windows), windows contiguous — so every slab the ops
        # touch is a contiguous block of whole rows.
        bits_t = bits.T.copy()
        sbuf = np.empty_like(bits_t)
        uh, uw, inv = state["uh"], state["uw"], state["inv"]
        shapes = len(uh)
        # Only shapes blocking some candidate window gate a verdict;
        # skipping the rest caps the band/anchor growth at the largest
        # active shape.  ``fits`` defaults to True so
        # the skipped rows (never selected by a True member bit) stay
        # inert in the verdict gather below.
        active = sorted(set(inv[member.any(axis=0)].tolist()))
        fits = np.ones((shapes, windows), dtype=bool)
        band = bits_t        # AND of rows r..r+covered_h-1 per row r
        bbuf: np.ndarray | None = None
        covered_h = 1
        ai = 0
        n_active = len(active)
        while ai < n_active:
            s = int(active[ai])
            bh = int(uh[s])
            while covered_h < bh:
                n = rows - covered_h
                if bbuf is None:
                    bbuf = np.empty_like(bits_t)
                    np.bitwise_and(bits_t[:n], bits_t[covered_h:],
                                   out=bbuf[:n])
                    band = bbuf
                else:
                    np.bitwise_and(band[:n], bits_t[covered_h:],
                                   out=band[:n])
                covered_h += 1
            bandw = rows - bh + 1
            anchors = band
            abuf: np.ndarray | None = None
            covered_w = 1
            while ai < n_active and int(uh[active[ai]]) == bh:
                s = int(active[ai])
                bw = int(uw[s])
                while covered_w < bw:
                    shifted = sbuf[:bandw]
                    np.right_shift(band[:bandw],
                                   np.uint64(covered_w), out=shifted)
                    if abuf is None:
                        abuf = band[:bandw] & shifted
                        anchors = abuf
                    else:
                        np.bitwise_and(abuf, shifted, out=abuf)
                    covered_w += 1
                fits[s] = np.bitwise_or.reduce(
                    anchors[:bandw], axis=0
                ) != 0
                ai += 1
        # A window survives unless it contains a blocker whose shape has
        # no relocation spot at all.
        bad = (member & ~fits[inv].T).any(axis=1)
        return ~bad

    def _evict_moves(
        self,
        base_bits: list[int],
        blockers: list[tuple[int, Rect]],
        target: Rect,
    ) -> list[Move] | None:
        """Relocation moves clearing ``target``, or None when some
        blocker has nowhere to go.

        Works on packed free-column bitmasks: vacate the blockers,
        reserve the target, then first-fit each blocker largest-first —
        the exact scratch-grid procedure of the eviction strategy, minus
        the numpy copies.  Sequencing is the caller's job.
        """
        PERF.evict_moves_calls += 1
        bits = list(base_bits)
        for _, rect in blockers:
            set_rect(bits, rect.row, rect.row_end,
                     span_mask(rect.col, rect.width))
        clear_rect(bits, target.row, target.row_end,
                   span_mask(target.col, target.width))
        moves: list[Move] = []
        for owner, rect in sorted(
            blockers, key=lambda kv: kv[1].area, reverse=True
        ):
            spot = first_fit_bits(bits, rect.height, rect.width)
            if spot is None:
                return None
            dst = Rect(spot[0], spot[1], rect.height, rect.width)
            clear_rect(bits, dst.row, dst.row_end,
                       span_mask(dst.col, dst.width))
            moves.append(Move(owner, rect, dst))
        return moves
