"""The MinMax methods (Section 4) — the paper's primary contribution.

Both variants encode community ``B`` into the sorted ``Encd_B`` buffer
(encoded ID + part sums) and community ``A`` into the sorted ``Encd_A``
buffer (encoded Min/Max + part ranges), then pair entries with a
double loop that exploits the sort orders:

* ``MIN PRUNE`` — once ``eB.encd_ID < eA.encd_Min`` no later ``eA`` can
  match either (``Encd_A`` ascends on ``encd_Min``), so the scan for the
  current ``b`` stops;
* ``MAX PRUNE`` — while ``skip`` is still active, every leading ``eA``
  with ``encd_Max < eB.encd_ID`` can be skipped for *all* later ``b``
  too (``Encd_B`` ascends on ``encd_ID``), operated via ``offset``;
* ``NO OVERLAP`` — the cheap part/range test fails, skipping the full
  d-dimensional comparison.

``Ap-MinMax`` (Algorithm Ap-MinMax) commits to the first match per ``b``.
``Ex-MinMax`` (Algorithm Ex-MinMax) instead records *all* matches of the
current ``b`` and tracks ``maxV`` — the largest ``encoded_Max`` among the
matched ``a``'s.  When the current ``b`` is min-pruned and the *next*
``b``'s encoded ID exceeds ``maxV``, no future user can touch the
accumulated matches (a segment boundary), so the CSF function is called
on the segment and the structures reset.  Segments are vertex-disjoint
unions of connected components of the candidate graph, which is why
per-segment CSF selects exactly the same pairs as one global CSF call —
the cross-method tests assert this equality against Ex-Baseline.

The ``numpy`` engines screen a block of consecutive ``Encd_B`` rows per
numpy pass (:meth:`_MinMaxBase._screen_blocks`) instead of one user per
pass, and return the same pairs and MATCH / NO MATCH counts as the
loops.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

import numpy as np

from ..core.encoding import EncodedCandidates, EncodedTargets, MinMaxEncoder
from ..core.events import EventTrace, EventType
from ..core.matching import build_adjacency, get_matcher, linf_match
from .base import CSJAlgorithm

__all__ = ["ApMinMax", "ExMinMax"]

#: (row, col) cells one screening pass covers.  It bounds the boolean
#: plane, the edge arrays and the full check of a block.
BLOCK_CELLS = 1 << 16


def _first_free_hits(
    rows: np.ndarray, cols: np.ndarray, hits: np.ndarray
) -> np.ndarray:
    """Ap-MinMax's greedy commit over one block's screened edges.

    ``rows``/``cols`` are the block's edges in ``(row, col)`` order,
    every column still free when the block starts; ``hits`` indexes the
    edges that pass the full check, ascending.  Each row takes its first
    hit whose column no earlier row of the block took.  Returns the
    edge indices of the commits, in row order.
    """
    hit_rows, hit_cols = rows[hits], cols[hits]
    breaks = np.flatnonzero(hit_rows[1:] != hit_rows[:-1]) + 1
    bounds = [0, *breaks.tolist(), int(hits.size)]
    claimed: set[int] = set()
    commits: list[int] = []
    # A row scans at most one hit per column taken earlier in the block.
    for begin, end in zip(bounds, bounds[1:]):
        for k in range(begin, end):
            col = int(hit_cols[k])
            if col not in claimed:
                claimed.add(col)
                commits.append(k)
                break
    return hits[commits]


class _MinMaxBase(CSJAlgorithm):
    """Shared construction and helpers for both MinMax variants."""

    def __init__(
        self,
        epsilon: int,
        *,
        n_parts: int = 4,
        engine: str = "numpy",
        record_trace: bool = False,
    ) -> None:
        super().__init__(epsilon, engine=engine, record_trace=record_trace)
        self.n_parts = int(n_parts)

    def _encoder(self, n_dims: int) -> MinMaxEncoder:
        # The paper fixes 4 parts for d = 27; for lower-dimensional data
        # the segmentation degrades gracefully to at most one part per
        # dimension.
        return MinMaxEncoder(self.epsilon, min(self.n_parts, n_dims))

    def _screen_blocks(
        self,
        targets: EncodedTargets,
        candidates: EncodedCandidates,
        vectors_b: np.ndarray,
        vectors_a: np.ndarray,
        used: np.ndarray | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Screen ``Encd_B`` block by block against ``Encd_A``.

        Yields ``(rows, cols, hits)`` per block of consecutive ``Encd_B``
        rows: the (target, candidate) positions that pass the window and
        complete part/range tests, in ``(row, col)`` order, and the
        ascending indices of those that also pass the full d-dimensional
        check.  Columns set in ``used`` when the block starts are left
        out.  A block spans at most ``BLOCK_CELLS`` (row, col) cells, so
        memory never grows with the whole join.
        """
        ids = targets.encoded_id
        # Encd_A ascends on encoded_Min, so a row's window is a prefix
        # [0, hi) of it; the running maximum of encoded_Max gives the
        # first column lo whose window can still reach the row at all.
        his = np.searchsorted(candidates.encoded_min, ids, side="right").tolist()
        reach = np.maximum.accumulate(candidates.encoded_max)
        los = np.searchsorted(reach, ids, side="left").tolist()
        # One contiguous row per part keeps every comparison a plain
        # plane; per-dimension rows make each full-check step a 1-D gather.
        range_min = np.ascontiguousarray(candidates.range_min.T)
        range_max = np.ascontiguousarray(candidates.range_max.T)
        dims_b = vectors_b[targets.real_ids].T
        dims_a = vectors_a[candidates.real_ids].T
        n_b = targets.n_users
        start = 0
        while start < n_b:
            lo = los[start]
            fits = bisect.bisect_right(
                range(start + 1, n_b + 1),
                BLOCK_CELLS,
                key=lambda end: (end - start) * max(his[end - 1] - lo, 0),
            )
            stop = start + max(fits, 1)
            hi = his[stop - 1]
            if hi > lo:
                plane = np.empty((stop - start, hi - lo), dtype=bool)
                plane[:] = True if used is None else ~used[lo:hi]
                # Every part inside its range implies the summed window
                # test, so the part planes alone are the whole screen.
                parts = targets.parts[start:stop]
                for part in range(parts.shape[1]):
                    column = parts[:, part, None]
                    plane &= range_min[part, lo:hi] <= column
                    plane &= range_max[part, lo:hi] >= column
                # A flat scan is several times faster than a 2-D nonzero.
                rows, cols = np.divmod(np.flatnonzero(plane), hi - lo)
                rows += start
                cols += lo
                yield rows, cols, self._full_hits(dims_b, dims_a, rows, cols)
            start = stop

    def _full_hits(
        self,
        dims_b: np.ndarray,
        dims_a: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Indices of the edges within epsilon in every dimension.

        Folds one dimension at a time and keeps only its survivors, so
        once a dimension rejects most edges the rest are cheap.
        """
        hits = np.arange(rows.size)
        for dim_b, dim_a in zip(dims_b, dims_a):
            if not hits.size:
                break
            keep = np.abs(dim_a[cols] - dim_b[rows]) <= self.epsilon
            hits, rows, cols = hits[keep], rows[keep], cols[keep]
        return hits


class ApMinMax(_MinMaxBase):
    """Approximate MinMax (Algorithm Ap-MinMax)."""

    name = "ap-minmax"
    exact = False

    # ------------------------------------------------------------------
    # faithful reference engine
    # ------------------------------------------------------------------
    def _join_python(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> list[tuple[int, int]]:
        with trace.stage("encode"):
            encoder = self._encoder(vectors_b.shape[1])
            targets = encoder.encode_targets(vectors_b)
            candidates = encoder.encode_candidates(vectors_a)
        n_a = candidates.n_users
        used = np.zeros(n_a, dtype=bool)
        offset = 0
        pairs: list[tuple[int, int]] = []
        for i in range(targets.n_users):
            while offset < n_a and used[offset]:
                offset += 1
            encoded_id = int(targets.encoded_id[i])
            b_label = targets.entry_label(i)
            skip = True
            j = offset
            while j < n_a:
                if used[j]:
                    j += 1
                    continue
                a_label = candidates.entry_label(j)
                if encoded_id < candidates.encoded_min[j]:
                    trace.emit(EventType.MIN_PRUNE, b_label, a_label)
                    break
                if encoded_id <= candidates.encoded_max[j]:
                    skip = False
                    if not MinMaxEncoder.parts_overlap(
                        targets.parts[i],
                        candidates.range_min[j],
                        candidates.range_max[j],
                    ):
                        trace.emit(EventType.NO_OVERLAP, b_label, a_label)
                        j += 1
                        continue
                    b_real = int(targets.real_ids[i])
                    a_real = int(candidates.real_ids[j])
                    if linf_match(vectors_b[b_real], vectors_a[a_real], self.epsilon):
                        trace.emit(EventType.MATCH, b_label, a_label)
                        pairs.append((b_real, a_real))
                        used[j] = True
                        break
                    trace.emit(EventType.NO_MATCH, b_label, a_label)
                    j += 1
                    continue
                # encoded_id > encoded_Max: this a can never match a later
                # (larger) b either, but only while skip is still active
                # may the global offset advance past it.
                if skip:
                    trace.emit(EventType.MAX_PRUNE, b_label, a_label)
                    offset = j + 1
                j += 1
        return pairs

    # ------------------------------------------------------------------
    # vectorised engine (identical matching)
    # ------------------------------------------------------------------
    def _join_numpy(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> list[tuple[int, int]]:
        with trace.stage("encode"):
            encoder = self._encoder(vectors_b.shape[1])
            targets = encoder.encode_targets(vectors_b)
            candidates = encoder.encode_candidates(vectors_a)
        n_b, n_a = targets.n_users, candidates.n_users
        used = np.zeros(n_a, dtype=bool)
        # owner[col]: the row that took the column (n_b while free);
        # taken[row]: the column the row took (n_a while unmatched).
        owner = np.full(n_a, n_b, dtype=np.int64)
        taken = np.full(n_b, n_a, dtype=np.int64)
        matched: list[np.ndarray] = []
        no_match = 0
        for rows, cols, hits in self._screen_blocks(
            targets, candidates, vectors_b, vectors_a, used=used
        ):
            commits = _first_free_hits(rows, cols, hits)
            if not commits.size:
                no_match += int(rows.size)
                continue
            block_rows, block_cols = rows[commits], cols[commits]
            used[block_cols] = True
            owner[block_cols] = block_rows
            taken[block_rows] = block_cols
            matched.append(block_rows)
            # The python engine fails on every window entry of a row
            # before its match (or on all of them) that no earlier row
            # had taken: every edge, less each committing row's tail
            # from its match on, less the edges onto earlier takes.
            row_ends = np.searchsorted(rows, block_rows, side="right")
            prior = np.flatnonzero(owner[cols] < rows)
            no_match += (
                rows.size
                - int((row_ends - commits).sum())
                - int(np.count_nonzero(cols[prior] < taken[rows[prior]]))
            )
        matched_rows = np.concatenate(matched) if matched else np.empty(0, np.int64)
        trace.emit_bulk(EventType.MATCH, int(matched_rows.size))
        trace.emit_bulk(EventType.NO_MATCH, no_match)
        return list(
            zip(
                targets.real_ids[matched_rows].tolist(),
                candidates.real_ids[taken[matched_rows]].tolist(),
            )
        )


class ExMinMax(_MinMaxBase):
    """Exact MinMax (Algorithm Ex-MinMax) with maxV segmentation."""

    name = "ex-minmax"
    exact = True

    def __init__(
        self,
        epsilon: int,
        *,
        n_parts: int = 4,
        engine: str = "numpy",
        record_trace: bool = False,
        matcher: str = "csf",
    ) -> None:
        super().__init__(
            epsilon, n_parts=n_parts, engine=engine, record_trace=record_trace
        )
        self.matcher_name = matcher
        self._matcher = get_matcher(matcher)

    # ------------------------------------------------------------------
    # faithful reference engine
    # ------------------------------------------------------------------
    def _join_python(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> list[tuple[int, int]]:
        with trace.stage("encode"):
            encoder = self._encoder(vectors_b.shape[1])
            targets = encoder.encode_targets(vectors_b)
            candidates = encoder.encode_candidates(vectors_a)
        n_a = candidates.n_users
        matched_b: dict[int, set[int]] = {}
        matched_a: dict[int, set[int]] = {}
        offset = 0
        max_v = 0
        pairs: list[tuple[int, int]] = []

        def flush_segment() -> None:
            nonlocal matched_b, matched_a, max_v
            if matched_b:
                segment_pairs = self._matcher(matched_b, matched_a)
                trace.note(
                    "CSF("
                    + ", ".join(
                        f"<b{b + 1}, a{a + 1}>"
                        for b in sorted(matched_b)
                        for a in sorted(matched_b[b])
                    )
                    + ")"
                )
                pairs.extend(segment_pairs)
            matched_b, matched_a = {}, {}
            max_v = 0

        for i in range(targets.n_users):
            encoded_id = int(targets.encoded_id[i])
            b_label = targets.entry_label(i)
            skip = True
            j = offset
            while j < n_a:
                a_label = candidates.entry_label(j)
                if encoded_id < candidates.encoded_min[j]:
                    trace.emit(EventType.MIN_PRUNE, b_label, a_label)
                    next_id = (
                        int(targets.encoded_id[i + 1])
                        if i + 1 < targets.n_users
                        else None
                    )
                    if next_id is None or next_id > max_v:
                        # MAX PRUNE applies to every match of the current
                        # segment: no later b can reach them.
                        flush_segment()
                    break
                if encoded_id <= candidates.encoded_max[j]:
                    skip = False
                    if not MinMaxEncoder.parts_overlap(
                        targets.parts[i],
                        candidates.range_min[j],
                        candidates.range_max[j],
                    ):
                        trace.emit(EventType.NO_OVERLAP, b_label, a_label)
                        j += 1
                        continue
                    b_real = int(targets.real_ids[i])
                    a_real = int(candidates.real_ids[j])
                    if linf_match(vectors_b[b_real], vectors_a[a_real], self.epsilon):
                        matched_b.setdefault(b_real, set()).add(a_real)
                        matched_a.setdefault(a_real, set()).add(b_real)
                        if candidates.encoded_max[j] > max_v:
                            max_v = int(candidates.encoded_max[j])
                        trace.emit(
                            EventType.MATCH, b_label, a_label, f"maxV = {max_v}"
                        )
                    else:
                        trace.emit(EventType.NO_MATCH, b_label, a_label)
                    j += 1
                    continue
                if skip:
                    trace.emit(EventType.MAX_PRUNE, b_label, a_label)
                    offset = j + 1
                j += 1
            else:
                # The scan exhausted Encd_A without a MIN PRUNE; the
                # same safety test applies (Figure 3, instance 4): once
                # the next b overshoots maxV, the segment is closed.
                next_id = (
                    int(targets.encoded_id[i + 1])
                    if i + 1 < targets.n_users
                    else None
                )
                if next_id is None or next_id > max_v:
                    flush_segment()
        # Whatever accumulated without hitting a safe boundary is
        # flushed at the end.
        flush_segment()
        return pairs

    # ------------------------------------------------------------------
    # vectorised engine (identical matching via one global CSF)
    # ------------------------------------------------------------------
    def _join_numpy(
        self, vectors_b: np.ndarray, vectors_a: np.ndarray, trace: EventTrace
    ) -> list[tuple[int, int]]:
        with trace.stage("encode"):
            encoder = self._encoder(vectors_b.shape[1])
            targets = encoder.encode_targets(vectors_b)
            candidates = encoder.encode_candidates(vectors_a)
        raw_pairs: list[tuple[int, int]] = []
        screened = 0
        for rows, cols, hits in self._screen_blocks(
            targets, candidates, vectors_b, vectors_a
        ):
            screened += int(rows.size)
            raw_pairs.extend(
                zip(
                    targets.real_ids[rows[hits]].tolist(),
                    candidates.real_ids[cols[hits]].tolist(),
                )
            )
        trace.emit_bulk(EventType.MATCH, len(raw_pairs))
        trace.emit_bulk(EventType.NO_MATCH, screened - len(raw_pairs))
        if not raw_pairs:
            return []
        with trace.stage("matching"):
            matched_b, matched_a = build_adjacency(raw_pairs)
            return self._matcher(matched_b, matched_a)
