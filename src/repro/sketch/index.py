"""In-memory sketch index: sublinear candidate generation over communities.

The index answers "which community pairs *might* have non-zero CSJ
similarity at this epsilon" from band-bucket collisions instead of
testing all ``O(C^2)`` envelope pairs one by one:

* :meth:`SketchIndex.admits` — pair-level membership test against the
  two stored signatures (what the engine's pre-filter gate calls);
* :meth:`SketchIndex.candidate_pairs` — enumerate every admitted pair.
  ``coverage`` mode runs the envelope sweep over the bucket
  intervals; ``values`` mode seeds from the most selective
  dimension's posting lists.  Both are
  output-sensitive: wall time scales with collisions found, not with
  the full pair square.

Metrics (all under the ``repro_sketch_*`` family, emitted when a
registry is attached): signatures built, bucket collisions inspected,
pairs checked and pairs skipped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..core.types import Community
from ..engine.envelope import envelope_candidates
from .signature import CommunitySignature, SketchConfig, build_signature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = ["SketchIndex"]


class SketchIndex:
    """Banded-signature index over a fixed community collection.

    Signatures are built eagerly at construction (one pass over each
    community's matrix); every later membership test touches only the
    compact signatures.  The index is immutable once built and safe to
    share across engines with the same community list.
    """

    def __init__(
        self,
        communities: Sequence[Community],
        config: SketchConfig,
        *,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config
        self.metrics = metrics
        self.signatures: list[CommunitySignature] = [
            build_signature(community, config) for community in communities
        ]
        self.pairs_checked = 0
        self.pairs_skipped = 0
        self.collisions = 0
        if metrics is not None:
            metrics.inc(
                "repro_sketch_signatures_built_total", len(self.signatures)
            )

    @property
    def n_communities(self) -> int:
        return len(self.signatures)

    # -- pair-level test ----------------------------------------------
    def collides(self, first: int, second: int) -> bool:
        """Uncounted collision test (what the recall estimator probes).

        ``coverage`` mode requires intersecting bucket intervals in
        every ``(band, dimension)`` cell; ``values`` mode requires a
        shared bucket in some band for every dimension.
        """
        sig_a = self.signatures[first]
        sig_b = self.signatures[second]
        if sig_a.n_dims != sig_b.n_dims:
            raise ConfigurationError(
                "sketch signatures disagree on dimensionality "
                f"({sig_a.n_dims} vs {sig_b.n_dims})"
            )
        return self._collide(sig_a, sig_b)

    def admits(self, first: int, second: int) -> bool:
        """Counted pair test: :meth:`collides` plus metric bookkeeping."""
        admitted = self.collides(first, second)
        self.pairs_checked += 1
        if admitted:
            self.collisions += 1
        else:
            self.pairs_skipped += 1
        if self.metrics is not None:
            self.metrics.inc("repro_sketch_pairs_checked_total")
            if admitted:
                self.metrics.inc("repro_sketch_bucket_collisions_total")
            else:
                self.metrics.inc("repro_sketch_pairs_skipped_total")
        return admitted

    def _collide(
        self, sig_a: CommunitySignature, sig_b: CommunitySignature
    ) -> bool:
        if self.config.mode == "coverage":
            assert sig_a.interval_lo is not None and sig_b.interval_lo is not None
            assert sig_a.interval_hi is not None and sig_b.interval_hi is not None
            overlap = (sig_a.interval_lo <= sig_b.interval_hi) & (
                sig_b.interval_lo <= sig_a.interval_hi
            )
            return bool(overlap.all())
        assert sig_a.cells is not None and sig_b.cells is not None
        n_bands = self.config.n_bands
        for dim in range(sig_a.n_dims):
            if not any(
                not sig_a.cells[band][dim].isdisjoint(sig_b.cells[band][dim])
                for band in range(n_bands)
            ):
                return False
        return True

    # -- bulk enumeration ---------------------------------------------
    def candidate_pairs(self) -> set[tuple[int, int]]:
        """Every admitted unordered pair, as ``(i, j)`` with ``i < j``.

        ``coverage`` mode admits exactly the pairs whose bucket
        intervals overlap in every cell — the envelope test at epsilon
        0, answered by :func:`~repro.engine.envelope.envelope_candidates`.
        ``values`` mode seeds from the most selective dimension's
        posting lists and verifies each seed against the full
        signature.  Generation cost tracks collisions, not ``C^2``.
        """
        if not self.signatures:
            return set()
        if self.config.mode == "coverage":
            first, second = envelope_candidates(
                np.stack([sig.interval_lo.ravel() for sig in self.signatures]),
                np.stack([sig.interval_hi.ravel() for sig in self.signatures]),
                0,
            )
            seeds = out = set(zip(first.tolist(), second.tolist()))
        else:
            seeds = self._values_seeds()
            out = {
                pair
                for pair in seeds
                if self._collide(self.signatures[pair[0]], self.signatures[pair[1]])
            }
        self.pairs_checked += len(seeds)
        self.collisions += len(out)
        self.pairs_skipped += len(seeds) - len(out)
        if self.metrics is not None:
            self.metrics.inc("repro_sketch_pairs_checked_total", len(seeds))
            self.metrics.inc("repro_sketch_bucket_collisions_total", len(out))
            self.metrics.inc(
                "repro_sketch_pairs_skipped_total", len(seeds) - len(out)
            )
        return out

    def _values_seeds(self) -> set[tuple[int, int]]:
        """Posting-list seeds from the most selective dimension.

        For the chosen dimension a pair must share a bucket in some
        band, so the union of per-bucket pair lists over that
        dimension's bands is a superset of all admitted pairs.
        """
        n_dims = self.signatures[0].n_dims
        n_bands = self.config.n_bands
        postings: list[dict[tuple[int, int], list[int]]] = []
        mass: list[int] = []
        for dim in range(n_dims):
            lists: dict[tuple[int, int], list[int]] = {}
            for index, sig in enumerate(self.signatures):
                assert sig.cells is not None
                for band in range(n_bands):
                    for bucket in sig.cells[band][dim]:
                        lists.setdefault((band, bucket), []).append(index)
            postings.append(lists)
            mass.append(
                sum(len(members) * (len(members) - 1) // 2 for members in lists.values())
            )
        dim = mass.index(min(mass))
        seeds: set[tuple[int, int]] = set()
        for members in postings[dim].values():
            for position, first in enumerate(members):
                for second in members[position + 1 :]:
                    seeds.add((min(first, second), max(first, second)))
        return seeds

    def stats(self) -> dict[str, object]:
        """Counters for reports and the engine's ``stats()`` payload."""
        return {
            "mode": self.config.mode,
            "epsilon": self.config.epsilon,
            "n_bands": self.config.n_bands,
            "band_rows": self.config.band_rows,
            "signatures": self.n_communities,
            "pairs_checked": self.pairs_checked,
            "pairs_skipped": self.pairs_skipped,
            "collisions": self.collisions,
        }
