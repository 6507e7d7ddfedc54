"""Per-dimension min/max envelopes and the pair-level pre-screen.

LSF-Join-style distributed similarity joins hinge on cheap per-pair
filters that discard work before the expensive join runs.  CSJ admits a
particularly strong one: the join condition requires *every* dimension
of a matched pair to differ by at most epsilon, so if the value ranges
of two communities are separated by more than epsilon in even a single
dimension, **no** user pair can match and the CSJ similarity is exactly
zero.  The envelope (per-dimension min and max over a community's
users) is computed once per community in O(n·d) and each pair test is
O(d) — negligible next to a join.

All-pairs screening (:func:`envelope_candidates`) is output-sensitive:
a sort-and-``searchsorted`` sweep along the most selective dimension
seeds only the pairs that overlap there, in bounded chunks, and a
vectorised check over every dimension refines each chunk — never a
C x C matrix, never a C^2 pair list.

Soundness: for a dimension ``t`` with ``min_A[t] - max_B[t] > eps`` (or
symmetrically ``min_B[t] - max_A[t] > eps``), every ``b in B`` and
``a in A`` satisfy ``|b[t] - a[t]| >= min_A[t] - max_B[t] > eps``, so
the candidate graph is empty, every method returns an empty matching,
and Eq. (1) evaluates to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.types import Community

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "Envelope",
    "community_envelope",
    "envelopes_separated",
    "stack_envelopes",
    "envelope_candidates",
    "envelope_pairs",
]

#: Instance-level memo attribute of :func:`community_envelope`.
_ENVELOPE_CACHE_ATTR = "_envelope_cache"

#: Seeds refined per vectorised step of :func:`envelope_candidates`;
#: bounds the sweep's working set to a few MiB whatever C is.
CANDIDATE_CHUNK = 1 << 15

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Envelope:
    """Per-dimension value bounds of one community's user vectors."""

    mins: np.ndarray  # shape (d,), int64
    maxs: np.ndarray  # shape (d,), int64

    @property
    def n_dims(self) -> int:
        return int(self.mins.shape[0])


def community_envelope(community: Community) -> Envelope:
    """The per-dimension min/max envelope of a community (memoised).

    Envelopes are epsilon-independent and a community's vectors are
    frozen read-only at construction, so the envelope is computed once
    and stashed on the instance — sweeps touching the same community at
    many epsilons (or many engines sharing a catalog) pay the O(n*d)
    scan a single time.  ``dataclasses.replace`` builds fresh instances,
    so a mutated copy never inherits a stale envelope.
    """
    cached = community.__dict__.get(_ENVELOPE_CACHE_ATTR)
    if cached is not None:
        return cached
    vectors = community.vectors
    envelope = Envelope(
        mins=vectors.min(axis=0).astype(np.int64, copy=False),
        maxs=vectors.max(axis=0).astype(np.int64, copy=False),
    )
    # Community is a frozen dataclass; the memo is not a field, so
    # object.__setattr__ is the sanctioned back door.
    object.__setattr__(community, _ENVELOPE_CACHE_ATTR, envelope)
    return envelope


def stack_envelopes(
    envelopes: Sequence[Envelope],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-community bounds into ``(C, d)`` min/max matrices."""
    mins = np.stack([envelope.mins for envelope in envelopes])
    maxs = np.stack([envelope.maxs for envelope in envelopes])
    return mins, maxs


def envelope_candidates(
    mins: np.ndarray,
    maxs: np.ndarray,
    epsilon: int,
    *,
    chunk_size: int = CANDIDATE_CHUNK,
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, whose envelopes are not separated.

    ``mins``/``maxs`` are stacked ``(C, d)`` bounds (``mins <= maxs``)
    as built by :func:`stack_envelopes`.  The result — two int64 arrays,
    sorted by ``(i, j)`` — is exactly the pairs for which
    :func:`envelopes_separated` returns ``False``.

    Sorted by its minimum along dimension ``t``, an envelope ``i`` can
    only survive against the envelopes whose minimum lies within
    ``max_i[t] + epsilon`` — a ``searchsorted`` window.  The sweep runs
    along the dimension with the fewest such seeds (counted exactly,
    O(C log C) per dimension); seeds are materialised ``chunk_size`` at
    a time and refined over every dimension, so memory stays
    O(C·d + survivors) and work O(d·C log C + seeds·d).
    """
    mins = np.asarray(mins, dtype=np.int64)
    maxs = np.asarray(maxs, dtype=np.int64)
    n, d = mins.shape
    if d == 0 or (mins > maxs).any():
        raise ValueError("envelopes need d >= 1 and mins <= maxs")
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return empty, empty
    epsilon = min(int(epsilon), int(_INT64_MAX))
    # max + epsilon, clamped so bounds near the int64 top cannot wrap.
    reach = np.minimum(maxs, _INT64_MAX - epsilon) + epsilon
    best: tuple[int, np.ndarray, np.ndarray] | None = None
    for dim in range(d):
        order = np.argsort(mins[:, dim], kind="stable")
        ends = np.searchsorted(mins[order, dim], reach[order, dim], side="right")
        counts = ends - np.arange(1, n + 1)
        if best is None or counts.sum() < best[0]:
            best = (int(counts.sum()), order, counts)
    total, order, counts = best
    starts = np.concatenate(([0], np.cumsum(counts)))
    firsts, seconds = [empty], [empty]
    for begin in range(0, total, max(1, int(chunk_size))):
        seed = np.arange(begin, min(begin + chunk_size, total), dtype=np.int64)
        position = np.searchsorted(starts, seed, side="right") - 1
        first = order[position]
        second = order[position + 1 + seed - starts[position]]
        for low, high in zip(mins.T, maxs.T):
            keep = (low[second] - high[first] <= epsilon) & (
                low[first] - high[second] <= epsilon
            )
            first, second = first[keep], second[keep]
        firsts.append(np.minimum(first, second))
        seconds.append(np.maximum(first, second))
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    ranked = np.lexsort((second, first))
    return first[ranked], second[ranked]


def envelope_pairs(
    envelopes: Mapping[str, Envelope], epsilon: int
) -> list[tuple[str, str]]:
    """Sorted key pairs ``(a, b)``, ``a < b``, surviving the screen.

    Keys pair only with keys of the same dimensionality (a similarity
    across dimensionalities is undefined); each dimensionality group
    is one :func:`envelope_candidates` sweep.
    """
    by_dims: dict[int, list[str]] = {}
    for key in sorted(envelopes):
        by_dims.setdefault(envelopes[key].n_dims, []).append(key)
    pairs: list[tuple[str, str]] = []
    for group in by_dims.values():
        if len(group) < 2:
            continue
        mins, maxs = stack_envelopes([envelopes[key] for key in group])
        first, second = envelope_candidates(mins, maxs, epsilon)
        pairs.extend(
            (group[i], group[j]) for i, j in zip(first.tolist(), second.tolist())
        )
    pairs.sort()
    return pairs


def envelopes_separated(
    first: Envelope,
    second: Envelope,
    epsilon: int,
    *,
    metrics: "MetricsRegistry | None" = None,
) -> bool:
    """True when some dimension separates the envelopes by more than epsilon.

    A ``True`` verdict is a proof that the CSJ similarity of the two
    communities is zero at this epsilon; ``False`` says nothing (the
    envelopes may overlap while no individual pair matches).  With
    ``metrics`` attached, every test is counted into
    ``repro_engine_envelope_tests_total`` and positive verdicts additionally into
    ``repro_engine_envelope_separations_total``.
    """
    gap_low = second.mins - first.maxs  # second strictly above first
    gap_high = first.mins - second.maxs  # first strictly above second
    separated = bool((gap_low > epsilon).any() or (gap_high > epsilon).any())
    if metrics is not None:
        metrics.inc("repro_engine_envelope_tests_total")
        if separated:
            metrics.inc("repro_engine_envelope_separations_total")
    return separated
