"""The output-sensitive envelope sweep and the survivor-only rankings.

* :func:`envelope_candidates` must return exactly the pairs the scalar
  :func:`envelopes_separated` keeps, whatever the ties, widths, epsilon,
  chunking or magnitude of the bounds;
* every all-pairs path must do work in the survivors, not in C^2:
  the catalog reads C envelope rows, and screening 10k communities
  fits in a few MiB;
* the rankings that no longer submit screened-out pairs — in-memory,
  catalog and a 2-shard fleet — must stay byte-identical to the
  reference loop that joins every pair, including when the refinement
  pool reaches into the lazy zero-similarity tail.
"""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.apps import top_k_pairs, top_k_pairs_reference
from repro.apps.topk import _joinable_count, _ratio_ok, zero_tail
from repro.catalog import PersistentCatalog
from repro.core.types import Community
from repro.engine import BatchEngine, Disposition, PairJob
from repro.engine.batch import VECTOR_SCREEN_MIN_JOBS
from repro.engine.envelope import (
    Envelope,
    community_envelope,
    envelope_candidates,
    envelope_pairs,
    envelopes_separated,
)
from repro.obs import MetricsRegistry
from repro.shard import ShardFleet, partition_catalog
from repro.testing import banded_community_fleet

INT64_MAX = int(np.iinfo(np.int64).max)


def brute_force(mins: np.ndarray, maxs: np.ndarray, epsilon: int) -> list:
    envelopes = [Envelope(mins[i], maxs[i]) for i in range(len(mins))]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(envelopes)), 2)
        if not envelopes_separated(envelopes[i], envelopes[j], epsilon)
    ]


@st.composite
def bounds(draw):
    """Stacked envelopes with many ties, zero widths and extreme offsets."""
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 4))
    low = draw(st.lists(st.integers(0, 8), min_size=n * d, max_size=n * d))
    width = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    # Near the int64 top, max + epsilon overflows unless clamped.
    offset = draw(st.sampled_from([0, -50, INT64_MAX - 11]))
    mins = np.array(low, dtype=np.int64).reshape(n, d) + offset
    maxs = mins + np.array(width, dtype=np.int64).reshape(n, d)
    return mins, maxs


EPSILONS = st.integers(0, 5) | st.sampled_from([2**62, INT64_MAX])


class TestEnvelopeCandidates:
    @settings(max_examples=300, deadline=None)
    @given(bounds(), EPSILONS, st.integers(1, 6))
    def test_matches_brute_force(self, stacked, epsilon, chunk_size):
        mins, maxs = stacked
        first, second = envelope_candidates(
            mins, maxs, epsilon, chunk_size=chunk_size
        )
        assert first.dtype == second.dtype == np.int64
        got = list(zip(first.tolist(), second.tolist()))
        assert got == brute_force(mins, maxs, epsilon)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs(self, n):
        mins = np.zeros((n, 3), dtype=np.int64)
        first, second = envelope_candidates(mins, mins, 0)
        assert list(zip(first.tolist(), second.tolist())) == (
            [(0, 1)] if n == 2 else []
        )

    def test_ties_at_epsilon_zero(self):
        # Identical zero-width envelopes touch; one count apart do not.
        mins = np.array([[5, 5], [5, 5], [6, 5], [5, 7]], dtype=np.int64)
        first, second = envelope_candidates(mins, mins, 0)
        assert list(zip(first.tolist(), second.tolist())) == [(0, 1)]
        first, second = envelope_candidates(mins, mins, 1)
        assert list(zip(first.tolist(), second.tolist())) == [
            (0, 1),
            (0, 2),
            (1, 2),
        ]

    def test_chunk_smaller_than_one_window(self):
        # Every pair overlaps: one window of 29 seeds, refined 3 at a time.
        mins = np.zeros((30, 2), dtype=np.int64)
        maxs = mins + 10
        first, second = envelope_candidates(mins, maxs, 0, chunk_size=3)
        assert len(first) == 30 * 29 // 2
        assert list(zip(first.tolist(), second.tolist())) == list(
            itertools.combinations(range(30), 2)
        )

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            envelope_candidates(np.array([[3]]), np.array([[2]]), 0)
        with pytest.raises(ValueError):
            envelope_candidates(np.zeros((3, 0)), np.zeros((3, 0)), 0)

    def test_envelope_pairs_groups_by_dimensionality(self):
        envelopes = {
            "b": Envelope(np.array([0, 0]), np.array([5, 5])),
            "a": Envelope(np.array([1, 1]), np.array([2, 2])),
            "c": Envelope(np.array([0, 0, 0]), np.array([5, 5, 5])),
            "d": Envelope(np.array([1, 1, 1]), np.array([1, 1, 1])),
            "e": Envelope(np.array([9]), np.array([9])),
        }
        assert envelope_pairs(envelopes, 0) == [("a", "b"), ("c", "d")]


@st.composite
def mixed_fleets(draw):
    """Small communities of two dimensionalities with clustered values."""
    communities = []
    for index in range(draw(st.integers(0, 9))):
        d = draw(st.sampled_from([2, 3]))
        users = draw(st.integers(1, 3))
        values = draw(
            st.lists(st.integers(0, 12), min_size=users * d, max_size=users * d)
        )
        communities.append(
            Community(f"k{index}", np.array(values).reshape(users, d))
        )
    return communities


class TestCatalogSweep:
    @settings(max_examples=40, deadline=None)
    @given(mixed_fleets(), st.integers(0, 4))
    def test_mixed_dims_catalog_matches_brute_force(self, fleet, epsilon):
        expected = sorted(
            (first.name, second.name)
            for first, second in itertools.combinations(fleet, 2)
            if first.n_dims == second.n_dims
            and not envelopes_separated(
                community_envelope(first), community_envelope(second), epsilon
            )
        )
        with PersistentCatalog(":memory:") as catalog:
            if fleet:
                catalog.register_many({c.name: c for c in fleet})
            assert catalog.candidate_pairs(epsilon) == expected

    def test_all_pairs_scan_reads_c_rows(self):
        rng = np.random.default_rng(3)
        n = 60
        fleet = {
            f"c{index:02d}": Community(
                f"c{index:02d}", rng.integers(0, 50, size=(4, 3))
            )
            for index in range(n)
        }
        with PersistentCatalog(":memory:") as catalog:
            catalog.register_many(fleet)
            before = catalog.io_stats()["repro_catalog_rows_scanned_total"]
            catalog.candidate_pairs(2)
            after = catalog.io_stats()["repro_catalog_rows_scanned_total"]
            assert after - before == n
            subset = sorted(fleet)[:7]
            catalog.candidate_pairs(2, keys=subset)
            final = catalog.io_stats()["repro_catalog_rows_scanned_total"]
            assert final - after == len(subset)

    def test_ten_thousand_community_screen_memory_bound(self):
        # Sparse survivors: envelopes scattered over a wide range.  The
        # former dense C x C x d screen needed ~6.8 GiB here.
        rng = np.random.default_rng(17)
        n, d = 10_000, 8
        mins = rng.integers(0, 10**7, size=(n, d))
        mins[-200:] = mins[:200] + 1  # 200 near-duplicates must survive
        maxs = mins + rng.integers(0, 1_000, size=(n, d))
        tracemalloc.start()
        try:
            first, second = envelope_candidates(mins, maxs, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert 200 <= len(first) == len(second) < n


# ----------------------------------------------------------------------
# survivor-only rankings against the all-pairs oracle
# ----------------------------------------------------------------------
BAND_GAP = 1_000


def tie_fleet(seed: int) -> list[Community]:
    """Bands of communities built to stress the lazy zero tail.

    * far-apart bands give envelope-separated (screened-out) pairs;
    * "hollow" members hold users only at two corners of their band,
      so their envelopes overlap every band mate's while no user pair
      matches — live pairs whose screen similarity is exactly 0.0;
    * sizes from 2 to 9 users make some pairs fail the size-ratio rule;
    * names are shuffled across bands so zero-scored live and
      screened-out pairs interleave in the name tie-break.

    The fleet is returned in name order, the order a catalog loads it
    in: equal-size pairs keep their input orientation, so only then is
    the catalog ranking comparable with the in-memory one.
    """
    rng = np.random.default_rng(seed)
    names = [f"c{index:02d}" for index in rng.permutation(15)]
    fleet = []
    for index, name in enumerate(names):
        base = (index % 3) * BAND_GAP
        size = int(rng.choice([2, 4, 5, 9]))
        if index % 4 == 0:
            corners = np.array([[base, base], [base + 60, base + 60]])
            rows = corners[np.arange(size) % 2]
        else:
            rows = base + 30 + rng.integers(-2, 3, size=(size, 2))
        fleet.append(Community(name, rows))
    return sorted(fleet, key=lambda community: community.name)


def comparable(scores) -> list[tuple]:
    return [
        (
            score.name_b,
            score.name_a,
            repr(score.similarity),
            score.result.n_matched,
            score.result.exact,
        )
        for score in scores
    ]


class TestZeroTailDifferential:
    EPSILON = 2

    def test_fleet_exercises_every_tie_case(self):
        fleet = tie_fleet(0)
        screen = get_algorithm("ap-minmax", self.EPSILON)
        live_zero = separated = ratio_failures = 0
        for first, second in itertools.combinations(fleet, 2):
            if not _ratio_ok(first.n_users, second.n_users):
                ratio_failures += 1
            elif envelopes_separated(
                community_envelope(first), community_envelope(second), self.EPSILON
            ):
                separated += 1
            elif screen.join(first, second).similarity == 0.0:
                live_zero += 1
        assert live_zero and separated and ratio_failures

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", [3, 12, 200])
    def test_all_rankings_agree(self, tmp_path, seed, k):
        fleet = tie_fleet(seed)
        expected = comparable(
            top_k_pairs_reference(fleet, epsilon=self.EPSILON, k=k)
        )
        assert comparable(top_k_pairs(fleet, epsilon=self.EPSILON, k=k)) == expected
        assert (
            comparable(
                top_k_pairs(fleet, epsilon=self.EPSILON, k=k, envelope_screen=False)
            )
            == expected
        )
        with PersistentCatalog(tmp_path / "u.db") as catalog:
            catalog.register_many({c.name: c for c in fleet})
            for screen in (True, False):
                ranked = top_k_pairs(
                    catalog, epsilon=self.EPSILON, k=k, envelope_screen=screen
                )
                assert comparable(ranked) == expected
            partition_catalog(catalog, tmp_path / "p", 2, epsilon=self.EPSILON)
        with ShardFleet(tmp_path / "p") as shards:
            with shards.coordinator() as coordinator:
                result = coordinator.top_k(epsilon=self.EPSILON, k=k)
        assert not result.degraded
        assert comparable(result.scores) == expected

    def test_pool_reaches_mixed_zero_ties(self):
        # With k above the survivor count the ranking ends in 0.0
        # entries of both kinds: live-but-unmatched and screened out.
        fleet = tie_fleet(0)
        by_name = {c.name: c for c in fleet}
        zeros = [
            score
            for score in top_k_pairs(fleet, epsilon=self.EPSILON, k=200)
            if score.similarity == 0.0
        ]
        kinds = {
            envelopes_separated(
                community_envelope(by_name[score.name_b]),
                community_envelope(by_name[score.name_a]),
                self.EPSILON,
            )
            for score in zeros
        }
        assert kinds == {True, False}

    def test_zero_tail_is_ordered_and_complete(self):
        names = ["d", "b", "a", "c"]
        sizes = [4, 4, 9, 5]
        excluded = {("b", "c")}
        tail = list(zero_tail(names, sizes, excluded))
        expected = sorted(
            (0.0, names[i], names[j])
            for i, j in itertools.combinations(range(4), 2)
            if _ratio_ok(sizes[i], sizes[j]) and (names[i], names[j]) not in excluded
        )
        assert tail == expected
        assert _joinable_count(sizes) == sum(
            _ratio_ok(sizes[i], sizes[j])
            for i, j in itertools.combinations(range(4), 2)
        )

    def test_screened_out_pairs_never_reach_the_screen_phase(self):
        fleet = tie_fleet(0)
        envelopes = [community_envelope(c) for c in fleet]
        screener = get_algorithm("ap-minmax", self.EPSILON)
        entries = []  # (-screen score, first, second, live)
        for i, j in itertools.combinations(range(len(fleet)), 2):
            if not _ratio_ok(fleet[i].n_users, fleet[j].n_users):
                continue
            live = not envelopes_separated(envelopes[i], envelopes[j], self.EPSILON)
            score = screener.join(fleet[i], fleet[j]).similarity if live else 0.0
            entries.append((-score, fleet[i].name, fleet[j].name, live))
        survivors = sum(entry[3] for entry in entries)
        # At k=3 the pool holds live pairs only; at k=15 it reaches into
        # the zero tail, whose entries are synthesised without an engine
        # job, so only the pool's live entries reach the refine phase.
        for k in (3, 15):
            metrics = MetricsRegistry()
            top_k_pairs(fleet, epsilon=self.EPSILON, k=k, metrics=metrics)
            pool = sorted(entries)[: max(k, round(k / 0.8))]
            pool_live = sum(entry[3] for entry in pool)
            assert metrics.counter("repro_engine_envelope_tests_total") == (
                survivors + pool_live
            )


class TestEngineGather:
    def test_mixed_dimension_jobs_fall_back_to_scalar_errors(self):
        from repro.core.errors import DimensionMismatchError

        fleet = [Community(f"x{i}", np.zeros((2, 2 + i % 2))) for i in range(8)]
        jobs = [
            PairJob(i, j, "ex-minmax", 1)
            for i, j in itertools.combinations(range(8), 2)
        ]
        with BatchEngine(fleet) as engine:
            with pytest.raises(DimensionMismatchError):
                engine.run(jobs)

    def test_long_job_lists_screen_identically(self):
        """The O(J·d) gather and the scalar path agree, counters included."""
        fleet = banded_community_fleet(4, 3)  # 12 communities, 66 pairs
        jobs = [
            PairJob.build(i, j, "ex-minmax", 2)
            for i, j in itertools.combinations(range(len(fleet)), 2)
        ]
        assert len(jobs) >= VECTOR_SCREEN_MIN_JOBS
        vector_metrics = MetricsRegistry()
        with BatchEngine(fleet, metrics=vector_metrics) as engine:
            vector = engine.run(jobs)
        # Batches one short of the threshold take the scalar path.
        step = VECTOR_SCREEN_MIN_JOBS - 1
        scalar_metrics = MetricsRegistry()
        with BatchEngine(fleet, metrics=scalar_metrics) as engine:
            scalar = [
                outcome
                for start in range(0, len(jobs), step)
                for outcome in engine.run(jobs[start : start + step])
            ]
        assert [o.disposition for o in vector] == [o.disposition for o in scalar]
        assert [o.result.similarity for o in vector] == [
            o.result.similarity for o in scalar
        ]
        for name in (
            "repro_engine_envelope_tests_total",
            "repro_engine_envelope_separations_total",
        ):
            assert vector_metrics.counter(name) == scalar_metrics.counter(name)
        assert vector_metrics.counter("repro_engine_envelope_tests_total") == len(jobs)
        screened = [o for o in vector if o.disposition is Disposition.SCREENED]
        assert 0 < len(screened) < len(jobs)
        assert vector_metrics.counter(
            "repro_engine_envelope_separations_total"
        ) == len(screened)

    def test_envelope_memoised_per_community(self):
        fleet = banded_community_fleet(1, 2)
        first = community_envelope(fleet[0])
        assert community_envelope(fleet[0]) is first
        clone = dataclasses.replace(fleet[0], name="clone")
        assert "_envelope_cache" not in clone.__dict__
        assert community_envelope(clone) is not first
        np.testing.assert_array_equal(community_envelope(clone).mins, first.mins)
