"""Tests for the SQLite-backed persistent catalog (repro.catalog)."""

from __future__ import annotations

import itertools
import sqlite3
import threading

import numpy as np
import pytest

from repro import csj_similarity
from repro.apps import top_k_pairs
from repro.analysis.sweeps import catalog_epsilon_sweep, epsilon_sweep
from repro.catalog import (
    CATALOG_COUNTERS,
    PersistentCatalog,
    content_fingerprint,
    init_catalog_metrics,
)
from repro.core.errors import ConfigurationError, ValidationError
from repro.core.types import Community
from repro.datasets.catalog import CommunityCatalog
from repro.engine.envelope import community_envelope, envelopes_separated
from repro.obs import MetricsRegistry
from repro.serve import CatalogBackedStore, UnknownCommunityError
from tests.conftest import banded_community_fleet

pytestmark = pytest.mark.catalog


def make_community(name: str, seed: int, n: int = 20, d: int = 4) -> Community:
    rng = np.random.default_rng(seed)
    return Community(name, rng.integers(0, 20, size=(n, d)), "Sport")


def register_fleet(catalog: PersistentCatalog, fleet: list[Community]) -> list[str]:
    keys = []
    for community in fleet:
        catalog.register(community.name, community)
        keys.append(community.name)
    return keys


def brute_force_surviving_pairs(
    fleet: list[Community], epsilon: int
) -> set[tuple[str, str]]:
    """Oracle: unordered surviving pairs by the in-memory envelope screen."""
    envelopes = {c.name: community_envelope(c) for c in fleet}
    survivors = set()
    for first, second in itertools.combinations(sorted(envelopes), 2):
        if not envelopes_separated(envelopes[first], envelopes[second], epsilon):
            survivors.add((first, second))
    return survivors


@pytest.fixture
def catalog(tmp_path) -> PersistentCatalog:
    with PersistentCatalog(tmp_path / "catalog.db") as cat:
        yield cat


class TestRegistry:
    def test_register_and_get(self, catalog):
        community = make_community("nike", 1)
        catalog.register("nike", community)
        loaded = catalog.get("nike")
        assert loaded.name == "nike"
        assert loaded.category == "Sport"
        assert np.array_equal(loaded.vectors, community.vectors)

    def test_keys_sorted_len_contains(self, catalog):
        catalog.register("b", make_community("B", 1))
        catalog.register("a", make_community("A", 2))
        assert catalog.keys() == ["a", "b"]
        assert len(catalog) == 2
        assert "a" in catalog and "ghost" not in catalog

    def test_metadata_without_vector_io(self, catalog):
        community = make_community("x", 3, n=31, d=5)
        catalog.register("x", community)
        record = catalog.metadata("x")
        assert (record.n_users, record.n_dims) == (31, 5)
        assert record.fingerprint == content_fingerprint(community.vectors)
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_envelope_matches_in_memory(self, catalog):
        community = make_community("x", 4)
        catalog.register("x", community)
        stored = catalog.envelope("x")
        expected = community_envelope(community)
        assert np.array_equal(stored.mins, expected.mins)
        assert np.array_equal(stored.maxs, expected.maxs)

    def test_get_unknown(self, catalog):
        with pytest.raises(ValidationError, match="registered"):
            catalog.get("ghost")
        with pytest.raises(ValidationError, match="registered"):
            catalog.metadata("ghost")

    def test_get_reads_one_row_and_reports_missing_vectors(self, catalog):
        catalog.register("x", make_community("X", 5))
        statements: list[str] = []
        catalog._connection.set_trace_callback(statements.append)
        try:
            loaded = catalog.get("x")
        finally:
            catalog._connection.set_trace_callback(None)
        assert (loaded.name, loaded.category) == ("X", "Sport")
        assert len(statements) == 1  # metadata and vectors in one query
        catalog._connection.execute("DELETE FROM vectors WHERE key = 'x'")
        with pytest.raises(ValidationError, match="no vectors stored under 'x'"):
            catalog.get("x")
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 1

    def test_records_match_per_key_metadata(self, catalog, monkeypatch):
        for seed, key in enumerate(["d", "a", "c", "e", "b"]):
            catalog.register(key, make_community(key.upper(), seed, n=10 + seed))
        expected = {key: catalog.metadata(key) for key in catalog.keys()}
        assert catalog.records() == expected
        assert list(catalog.records()) == sorted(expected)
        # Explicit keys are read IN-batched; a batch of 2 spans 3 queries.
        monkeypatch.setattr("repro.catalog.store._KEY_BATCH", 2)
        subset = catalog.records(["e", "a", "c", "a", "d"])
        assert subset == {key: expected[key] for key in ["a", "c", "d", "e"]}
        assert list(subset) == ["a", "c", "d", "e"]
        assert catalog.records([]) == {}
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_records_missing_key_raises(self, catalog):
        catalog.register("a", make_community("A", 1))
        with pytest.raises(ValidationError, match="'ghost'"):
            catalog.records(["a", "ghost"])

    def test_remove(self, catalog):
        catalog.register("x", make_community("X", 5))
        catalog.remove("x")
        assert catalog.keys() == []
        with pytest.raises(ValidationError):
            catalog.remove("x")

    @pytest.mark.parametrize("key", ["", "a|b", "a/b", "a\\b"])
    def test_invalid_keys_rejected(self, catalog, key):
        with pytest.raises(ValidationError):
            catalog.register(key, make_community("X", 6))

    def test_replace_updates_fingerprint(self, catalog):
        catalog.register("k", make_community("Old", 7))
        old = catalog.metadata("k").fingerprint
        catalog.register("k", make_community("New", 8))
        assert catalog.metadata("k").fingerprint != old
        assert catalog.get("k").name == "New"

    def test_register_many_bulk(self, catalog):
        fleet = banded_community_fleet(2, 3)
        catalog.register_many({c.name: c for c in fleet})
        assert len(catalog) == len(fleet)
        stats = catalog.io_stats()
        assert stats["repro_catalog_registrations_total"] == len(fleet)

    def test_metrics_mirrored(self, tmp_path):
        metrics = MetricsRegistry()
        init_catalog_metrics(metrics)
        with PersistentCatalog(tmp_path / "m.db", metrics=metrics) as cat:
            cat.register("a", make_community("A", 9))
            cat.get("a")
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["repro_catalog_registrations_total"] == 1
        assert snapshot["repro_catalog_vector_loads_total"] == 1
        for name in CATALOG_COUNTERS:
            assert name in snapshot


class TestWindowQuery:
    def test_candidates_match_brute_force(self, catalog):
        fleet = banded_community_fleet(3, 4, seed=11)
        register_fleet(catalog, fleet)
        envelopes = {c.name: community_envelope(c) for c in fleet}
        for epsilon in (0, 1, 5):
            for probe in fleet:
                expected = sorted(
                    other.name
                    for other in fleet
                    if other.name != probe.name
                    and not envelopes_separated(
                        envelopes[probe.name], envelopes[other.name], epsilon
                    )
                )
                assert catalog.candidate_keys(probe.name, epsilon) == expected

    def test_screening_loads_no_vectors(self, catalog):
        fleet = banded_community_fleet(3, 3, seed=12)
        register_fleet(catalog, fleet)
        catalog.candidate_keys(fleet[0].name, 2)
        catalog.candidate_pairs(2)
        stats = catalog.io_stats()
        assert stats["repro_catalog_vector_loads_total"] == 0
        assert stats["repro_catalog_window_queries_total"] == 2

    def test_negative_epsilon_rejected(self, catalog):
        catalog.register("a", make_community("A", 13))
        with pytest.raises(ValidationError, match="epsilon"):
            catalog.candidate_keys("a", -1)
        with pytest.raises(ValidationError, match="epsilon"):
            catalog.candidate_pairs(-1)

    def test_window_query_uses_index(self, catalog):
        catalog.register("a", make_community("A", 14))
        assert "idx_communities_window" in catalog.window_query_plan()

    def test_dimension_mismatch_never_survives(self, catalog):
        catalog.register("d4", make_community("D4", 15, d=4))
        catalog.register("d6", make_community("D6", 15, d=6))
        assert catalog.candidate_keys("d4", 1000) == []
        assert catalog.candidate_pairs(1000) == []


class TestWindowQueryAtScale:
    """The acceptance-scale screen: thousands of on-disk communities."""

    N_BANDS = 200
    PER_BAND = 10  # 2000 communities

    @pytest.fixture(scope="class")
    def big_catalog(self, tmp_path_factory):
        fleet = banded_community_fleet(
            self.N_BANDS, self.PER_BAND, users=3, dims=4, seed=16, band_gap=100
        )
        path = tmp_path_factory.mktemp("scale") / "big.db"
        with PersistentCatalog(path) as cat:
            cat.register_many({c.name: c for c in fleet})
            yield cat, fleet

    def test_screen_is_exact_and_vector_free(self, big_catalog):
        catalog, fleet = big_catalog
        assert len(catalog) == self.N_BANDS * self.PER_BAND
        envelopes = {c.name: community_envelope(c) for c in fleet}
        probe = fleet[self.PER_BAND * 100]  # a mid-band community
        before = catalog.io_stats()
        survivors = catalog.candidate_keys(probe.name, 2)
        after = catalog.io_stats()
        expected = sorted(
            other.name
            for other in fleet
            if other.name != probe.name
            and not envelopes_separated(
                envelopes[probe.name], envelopes[other.name], 2
            )
        )
        assert survivors == expected
        assert 0 < len(survivors) < len(fleet) // 10
        # Pruned communities' vectors are never read, and the indexed
        # stage-1 scan touches O(survivors) rows, not the whole table.
        assert after["repro_catalog_vector_loads_total"] == 0
        assert (
            before["repro_catalog_vector_loads_total"]
            == after["repro_catalog_vector_loads_total"]
        )
        scanned = (
            after["repro_catalog_rows_scanned_total"]
            - before["repro_catalog_rows_scanned_total"]
        )
        assert scanned < len(fleet) // 10

    def test_cold_start_touches_only_requested_rows(self, big_catalog):
        catalog, fleet = big_catalog
        with PersistentCatalog(catalog.path) as cold:
            cold.candidate_keys(fleet[0].name, 1)
            stats = cold.io_stats()
            assert stats["repro_catalog_vector_loads_total"] == 0
            cold.get(fleet[0].name)
            assert cold.io_stats()["repro_catalog_vector_loads_total"] == 1


class TestCandidatePairs:
    def test_pairs_match_brute_force(self, catalog):
        fleet = banded_community_fleet(3, 4, seed=17)
        register_fleet(catalog, fleet)
        for epsilon in (0, 1, 4):
            assert (
                set(catalog.candidate_pairs(epsilon))
                == brute_force_surviving_pairs(fleet, epsilon)
            )

    def test_keys_subset(self, catalog):
        fleet = banded_community_fleet(2, 4, seed=18)
        register_fleet(catalog, fleet)
        subset = [c.name for c in fleet[:5]]
        expected = {
            pair
            for pair in brute_force_surviving_pairs(fleet, 2)
            if pair[0] in subset and pair[1] in subset
        }
        assert set(catalog.candidate_pairs(2, keys=subset)) == expected
        assert catalog.candidate_pairs(2, keys=[]) == []

    def test_pair_screened_agrees(self, catalog):
        fleet = banded_community_fleet(2, 2, seed=19)
        register_fleet(catalog, fleet)
        surviving = brute_force_surviving_pairs(fleet, 1)
        for first, second in itertools.combinations(sorted(c.name for c in fleet), 2):
            assert catalog.pair_screened(first, second, 1) == (
                (first, second) not in surviving
            )


class TestSimilarityCache:
    def test_miss_then_hit(self, catalog):
        base = make_community("base", 20)
        catalog.register("base", base)
        catalog.register("twin", Community("twin", base.vectors, "Sport"))
        first = catalog.similarity("base", "twin", epsilon=1)
        second = catalog.similarity("base", "twin", epsilon=1)
        assert not first.from_cache
        assert second.from_cache
        assert second.similarity == first.similarity == pytest.approx(1.0)

    def test_hit_serves_without_vector_io(self, catalog):
        catalog.register("a", make_community("A", 21))
        catalog.register("b", make_community("B", 21))
        catalog.similarity("a", "b", epsilon=1)
        before = catalog.io_stats()["repro_catalog_vector_loads_total"]
        catalog.similarity("a", "b", epsilon=1)
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == before

    def test_distinct_parameters_distinct_entries(self, catalog):
        catalog.register("a", make_community("A", 22))
        catalog.register("b", make_community("B", 22))
        catalog.similarity("a", "b", epsilon=1)
        catalog.similarity("a", "b", epsilon=2)
        catalog.similarity("a", "b", epsilon=1, method="ap-minmax")
        catalog.similarity("a", "b", epsilon=1, matcher="hopcroft_karp")
        assert catalog.cache_size() == 4

    def test_reregistration_invalidates(self, catalog):
        catalog.register("a", make_community("A", 23))
        catalog.register("b", make_community("B", 23))
        catalog.similarity("a", "b", epsilon=1)
        catalog.register("a", make_community("A", 24))
        assert catalog.cache_size() == 0
        assert not catalog.similarity("a", "b", epsilon=1).from_cache

    def test_remove_purges_cache(self, catalog):
        catalog.register("a", make_community("A", 25))
        catalog.register("b", make_community("B", 25))
        catalog.similarity("a", "b", epsilon=1)
        catalog.remove("a")
        assert catalog.cache_size() == 0

    def test_cache_persists_across_handles(self, tmp_path):
        path = tmp_path / "c.db"
        with PersistentCatalog(path) as cat:
            cat.register("a", make_community("A", 26))
            cat.register("b", make_community("B", 26))
            cat.similarity("a", "b", epsilon=1)
        with PersistentCatalog(path) as reopened:
            assert reopened.cache_size() == 1
            assert reopened.similarity("a", "b", epsilon=1).from_cache

    def test_clear_cache(self, catalog):
        catalog.register("a", make_community("A", 27))
        catalog.register("b", make_community("B", 27))
        catalog.similarity("a", "b", epsilon=1)
        catalog.clear_cache()
        assert catalog.cache_size() == 0

    def test_matches_direct_join(self, catalog):
        community_b = make_community("b", 28, n=15)
        community_a = make_community("a", 28, n=25)
        catalog.register("b", community_b)
        catalog.register("a", community_a)
        cached = catalog.similarity("b", "a", epsilon=1)
        direct = csj_similarity(community_b, community_a, epsilon=1)
        assert cached.similarity == pytest.approx(direct.similarity)
        assert cached.n_matched == direct.n_matched


class TestCrashSafety:
    def test_uncommitted_writer_leaves_no_trace(self, tmp_path):
        path = tmp_path / "crash.db"
        with PersistentCatalog(path) as catalog:
            catalog.register("a", make_community("A", 29))
            catalog.register("b", make_community("B", 29))
            # A second writer begins a cache write and "crashes" (its
            # connection closes with the transaction open).  WAL rolls
            # the transaction back: nothing torn, nothing visible.
            raw = sqlite3.connect(str(path), isolation_level=None)
            raw.execute("BEGIN IMMEDIATE")
            raw.execute(
                "INSERT INTO similarity_cache "
                "(key_b, key_a, method, epsilon, options, fingerprint_b, "
                " fingerprint_a, similarity, n_matched, created_at) "
                "VALUES ('a', 'b', 'ex-minmax', 1, '()', 'x', 'y', 0.5, 3, 0)",
            )
            raw.close()
            assert catalog.cache_size() == 0
            # The store still works end to end after the crash.
            catalog.register("c", make_community("C", 30))
            assert not catalog.similarity("a", "b", epsilon=1).from_cache
            assert catalog.cache_size() == 1


class TestConcurrency:
    def test_two_handles_interleaved_writes_both_survive(self, tmp_path):
        """The JSON shim's last-writer-wins clobbering is gone.

        With ``CommunityCatalog`` two handles each hold the whole cache
        dict in memory and write it back wholesale, so the second save
        silently drops the first handle's entry.  Here both writes land
        as rows; each handle sees the other's entry.
        """
        path = tmp_path / "two.db"
        with PersistentCatalog(path) as one, PersistentCatalog(path) as two:
            one.register("a", make_community("A", 31))
            one.register("b", make_community("B", 31))
            one.register("c", make_community("C", 31))
            one.register("d", make_community("D", 31))
            # Interleaved: both handles computed before either wrote
            # would be the JSON-clobbering scenario; rows are upserts.
            one.similarity("a", "b", epsilon=1)
            two.similarity("c", "d", epsilon=1)
            assert one.cache_size() == 2
            assert two.cache_size() == 2
            assert two.similarity("a", "b", epsilon=1).from_cache
            assert one.similarity("c", "d", epsilon=1).from_cache

    def test_json_shim_clobbers_for_contrast(self, tmp_path):
        """Documents the bug the persistent catalog fixes (shim behavior)."""
        root = tmp_path / "legacy"
        one = CommunityCatalog(root)
        one.register("a", make_community("A", 32))
        one.register("b", make_community("B", 32))
        one.register("c", make_community("C", 32))
        one.register("d", make_community("D", 32))
        two = CommunityCatalog(root)  # snapshots the (empty) cache now
        one.similarity("a", "b", epsilon=1)
        two.similarity("c", "d", epsilon=1)  # writes back without (a, b)
        assert CommunityCatalog(root).cache_size() == 1

    def test_threaded_writes_none_lost(self, tmp_path):
        path = tmp_path / "threads.db"
        fleet = banded_community_fleet(2, 6, seed=33)
        with PersistentCatalog(path) as catalog:
            errors: list[BaseException] = []

            def worker(communities: list[Community]) -> None:
                try:
                    for community in communities:
                        catalog.register(community.name, community)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(fleet[i::4],))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert catalog.keys() == sorted(c.name for c in fleet)

    def test_two_processes_worth_of_handles_register(self, tmp_path):
        path = tmp_path / "multi.db"
        with PersistentCatalog(path) as one, PersistentCatalog(path) as two:
            one.register("from-one", make_community("X", 34))
            two.register("from-two", make_community("Y", 34))
            assert one.keys() == ["from-one", "from-two"]
            assert two.keys() == ["from-one", "from-two"]


class TestInterop:
    def test_import_export_roundtrip(self, tmp_path):
        legacy = CommunityCatalog(tmp_path / "legacy")
        fleet = banded_community_fleet(2, 2, seed=35)
        for community in fleet:
            legacy.register(community.name, community)
        with PersistentCatalog(tmp_path / "cat.db") as catalog:
            imported = catalog.import_directory(tmp_path / "legacy")
            assert imported == sorted(c.name for c in fleet)
            exported_root = tmp_path / "exported"
            catalog.export_directory(exported_root)
            reread = CommunityCatalog(exported_root)
            for community in fleet:
                assert np.array_equal(
                    reread.get(community.name).vectors, community.vectors
                )

    def test_import_empty_directory(self, tmp_path, catalog):
        assert catalog.import_directory(tmp_path / "empty") == []

    def test_export_subset(self, tmp_path, catalog):
        catalog.register("a", make_community("A", 36))
        catalog.register("b", make_community("B", 36))
        exported = catalog.export_directory(tmp_path / "sub", keys=["a"])
        assert exported == ["a"]
        assert CommunityCatalog(tmp_path / "sub").keys() == ["a"]

    def test_fingerprints_agree_with_shim(self, catalog, tmp_path):
        """Both stores hash content identically (shim truncates)."""
        from repro.datasets.catalog import _fingerprint

        community = make_community("x", 37)
        catalog.register("x", community)
        assert catalog.metadata("x").fingerprint.startswith(
            _fingerprint(community)
        )


class TestTopKOverCatalog:
    @pytest.fixture
    def fleet(self) -> list[Community]:
        return banded_community_fleet(3, 4, seed=38)

    @pytest.fixture
    def loaded(self, catalog, fleet) -> PersistentCatalog:
        register_fleet(catalog, fleet)
        return catalog

    @pytest.mark.parametrize("epsilon,k", [(1, 3), (1, 8), (3, 40)])
    def test_matches_in_memory_ranking(self, loaded, fleet, epsilon, k):
        expected = top_k_pairs(fleet, epsilon=epsilon, k=k)
        actual = top_k_pairs(loaded, epsilon=epsilon, k=k)
        assert [s.label for s in actual] == [s.label for s in expected]
        assert [s.similarity for s in actual] == pytest.approx(
            [s.similarity for s in expected]
        )
        for ours, theirs in zip(actual, expected):
            assert ours.result.method == theirs.result.method
            assert ours.result.engine == theirs.result.engine

    def test_screen_off_matches(self, loaded, fleet):
        expected = top_k_pairs(fleet, epsilon=1, k=5, envelope_screen=False)
        actual = top_k_pairs(loaded, epsilon=1, k=5, envelope_screen=False)
        assert [s.label for s in actual] == [s.label for s in expected]

    def test_keys_subset(self, loaded, fleet):
        subset = sorted(c.name for c in fleet[:6])
        expected = top_k_pairs(
            [c for c in fleet if c.name in subset], epsilon=1, k=4
        )
        actual = top_k_pairs(loaded, epsilon=1, k=4, keys=subset)
        assert [s.label for s in actual] == [s.label for s in expected]

    def test_keys_require_catalog(self, fleet):
        with pytest.raises(ConfigurationError, match="keys"):
            top_k_pairs(fleet, epsilon=1, k=3, keys=["x"])

    def test_screened_out_vectors_not_loaded(self, catalog):
        """Communities pruned for every pair never load their vectors."""
        fleet = banded_community_fleet(4, 2, seed=39, band_gap=10_000)
        register_fleet(catalog, fleet)
        top_k_pairs(catalog, epsilon=1, k=4)
        loads = catalog.io_stats()["repro_catalog_vector_loads_total"]
        # Only intra-band pairs survive, so each band loads its two
        # members once; nothing else is read.
        assert loads == len(fleet)


class TestCatalogSweep:
    def test_matches_in_memory_sweep(self, catalog):
        fleet = banded_community_fleet(1, 2, seed=40)
        register_fleet(catalog, fleet)
        epsilons = [0, 1, 2, 4]
        expected = epsilon_sweep(fleet[0], fleet[1], epsilons)
        actual = catalog_epsilon_sweep(
            catalog, fleet[0].name, fleet[1].name, epsilons
        )
        assert [p.similarity_percent for p in actual] == pytest.approx(
            [p.similarity_percent for p in expected]
        )
        assert [p.n_matched for p in actual] == [p.n_matched for p in expected]

    def test_separated_pair_synthesises_curve_without_io(self, catalog):
        fleet = banded_community_fleet(2, 1, seed=41, band_gap=10_000)
        register_fleet(catalog, fleet)
        points = catalog_epsilon_sweep(
            catalog, fleet[0].name, fleet[1].name, [0, 1, 2]
        )
        assert [p.similarity_percent for p in points] == [0.0, 0.0, 0.0]
        assert [p.n_matched for p in points] == [0, 0, 0]
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_validation(self, catalog):
        fleet = banded_community_fleet(1, 2, seed=42)
        register_fleet(catalog, fleet)
        with pytest.raises(ConfigurationError):
            catalog_epsilon_sweep(catalog, fleet[0].name, fleet[1].name, [])
        with pytest.raises(ConfigurationError):
            catalog_epsilon_sweep(
                catalog, fleet[0].name, fleet[1].name, [2, 1]
            )


class TestCatalogBackedStore:
    def test_names_span_catalog_without_loading(self, catalog):
        fleet = banded_community_fleet(2, 2, seed=43)
        register_fleet(catalog, fleet)
        store = CatalogBackedStore(catalog)
        assert store.names() == sorted(c.name for c in fleet)
        assert len(store) == len(fleet)
        assert store.loaded_names() == []
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 0

    def test_faults_in_lazily_on_first_touch(self, catalog):
        fleet = banded_community_fleet(2, 2, seed=44)
        register_fleet(catalog, fleet)
        store = CatalogBackedStore(catalog)
        name = fleet[0].name
        snapshot = store.snapshot(name)
        assert snapshot.community.name == name
        assert np.array_equal(snapshot.community.vectors, fleet[0].vectors)
        assert store.loaded_names() == [name]
        assert catalog.io_stats()["repro_catalog_vector_loads_total"] == 1

    def test_unknown_name(self, catalog):
        store = CatalogBackedStore(catalog)
        with pytest.raises(UnknownCommunityError):
            store.snapshot("ghost")

    def test_registered_overlay_wins(self, catalog):
        fleet = banded_community_fleet(1, 2, seed=45)
        register_fleet(catalog, fleet)
        store = CatalogBackedStore(catalog)
        fresh = make_community("fresh", 46)
        store.register_community(fresh)
        assert "fresh" in store
        assert store.names() == sorted([c.name for c in fleet] + ["fresh"])


class TestCatalogCLI:
    def test_import_ls_query_export(self, tmp_path, capsys):
        from repro.cli import main

        legacy_root = tmp_path / "legacy"
        legacy = CommunityCatalog(legacy_root)
        fleet = banded_community_fleet(2, 2, seed=47)
        for community in fleet:
            legacy.register(community.name, community)
        db = tmp_path / "cli.db"

        assert main(["catalog", "import", str(db), str(legacy_root)]) == 0
        assert "imported 4 communities" in capsys.readouterr().out

        assert main(["catalog", "ls", str(db)]) == 0
        out = capsys.readouterr().out
        for community in fleet:
            assert community.name in out
        assert "4 communities" in out

        probe = fleet[0].name
        assert main(["catalog", "query", str(db), probe, "--epsilon", "2"]) == 0
        out = capsys.readouterr().out
        assert "vector loads: 0" in out

        export_root = tmp_path / "exported"
        assert main(
            ["catalog", "export", str(db), str(export_root), "--keys", probe]
        ) == 0
        assert "exported 1 communities" in capsys.readouterr().out
        assert CommunityCatalog(export_root).keys() == [probe]
