"""Persistent-catalog benchmark: indexed screening and lazy cold starts.

Three measurements on a catalog-scale banded fleet persisted into one
SQLite database (the ``PersistentCatalog`` store):

* **cold start** — a fresh handle answering one candidate-window probe
  plus one vector load, versus hydrating the whole fleet into memory
  the way a list-based ``top_k_pairs`` caller must.  The probe touches
  O(survivors) index rows and exactly one vector blob, so its cost
  stays flat as the catalog grows while full hydration scales with the
  store.
* **screening working set** — one full ``candidate_pairs`` sweep over
  every stored community.  The sweep reads envelope columns only; the
  recorded ``vector_bytes_loaded`` stays zero against megabytes of
  stored vectors, which is what makes sweeps over a bigger-than-RAM
  catalog feasible: the resident working set is the envelope rows, not
  the corpus.
* **end to end** — ``top_k_pairs`` straight off the catalog versus the
  same ranking over the pre-loaded list.  The rankings must match
  pair for pair; the catalog run additionally records how many of the
  stored communities ever had their vectors paged in.

The ``catalog`` section merges into ``BENCH_engine.json`` (written by
``bench_engine_batch``) when not in smoke mode.  Runs carry the
``bench`` marker and are excluded from tier-1; ``scripts/bench_smoke.sh``
runs the seconds-long smoke variant.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

import pytest

from repro.apps import top_k_pairs
from repro.catalog import PersistentCatalog
from repro.core.types import Community
from repro.engine.envelope import community_envelope, envelopes_separated
from repro.testing import banded_community_fleet

#: Workload knobs (overridable for the smoke-scale run).
BANDS = int(os.environ.get("REPRO_BENCH_CATALOG_BANDS", 400))
PER_BAND = int(os.environ.get("REPRO_BENCH_CATALOG_PER_BAND", 5))
USERS = int(os.environ.get("REPRO_BENCH_CATALOG_USERS", 16))
DIMS = int(os.environ.get("REPRO_BENCH_CATALOG_DIMS", 6))
EPSILON = int(os.environ.get("REPRO_BENCH_CATALOG_EPSILON", 2))
TOP_K = int(os.environ.get("REPRO_BENCH_CATALOG_K", 10))
#: Smoke mode checks correctness only and skips the JSON merge.
SMOKE = os.environ.get("REPRO_BENCH_CATALOG_SMOKE", "0") == "1"

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

pytestmark = pytest.mark.catalog


def build_fleet(seed: int = 7) -> list[Community]:
    return banded_community_fleet(
        BANDS,
        PER_BAND,
        users=USERS,
        dims=DIMS,
        seed=seed,
        band_gap=600,
        high=40,
        name_format="band{band:03d}-m{member}",
    )


def timed(label: str, func):
    started = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - started
    print(f"  {label:28s} {elapsed:8.3f}s")
    return result, elapsed


def ranking_key(scores) -> list[tuple[str, str, str]]:
    return [(s.name_b, s.name_a, repr(s.similarity)) for s in scores]


@pytest.mark.bench
def bench_catalog(tmp_path_factory, report_writer):
    fleet = build_fleet()
    n_communities = len(fleet)
    path = tmp_path_factory.mktemp("catalog") / "bench.db"

    with PersistentCatalog(path) as writer:
        _, t_register = timed(
            "bulk register",
            lambda: writer.register_many({c.name: c for c in fleet}),
        )
        storage = writer.storage_stats()
    vector_bytes = storage["vector_bytes"]
    bytes_per_community = vector_bytes // n_communities

    # -- cold start: O(touched rows), not O(catalog) -------------------
    probe = fleet[n_communities // 2].name

    def cold_probe():
        with PersistentCatalog(path) as cold:
            survivors = cold.window_candidates(
                cold.envelope(probe), EPSILON, exclude=probe
            )
            community = cold.get(probe)
            stats = cold.io_stats()
        return survivors, community, stats

    (survivors, _, cold_stats), t_cold = timed("cold probe + 1 load", cold_probe)
    assert cold_stats["repro_catalog_vector_loads_total"] == 1
    rows_scanned = cold_stats["repro_catalog_rows_scanned_total"]
    if not SMOKE:
        assert rows_scanned < n_communities / 10

    def full_hydration():
        with PersistentCatalog(path) as cold:
            return [cold.get(key) for key in cold.keys()]

    hydrated, t_hydrate = timed("full hydration", full_hydration)
    assert len(hydrated) == n_communities

    # The probe's survivor set is exactly the in-memory envelope screen.
    envelopes = {c.name: community_envelope(c) for c in fleet}
    expected = sorted(
        other.name
        for other in fleet
        if other.name != probe
        and not envelopes_separated(envelopes[probe], envelopes[other.name], EPSILON)
    )
    assert survivors == expected

    # -- screening working set: all-pairs sweep, zero vector bytes ----
    with PersistentCatalog(path) as reader:
        pairs, t_sweep = timed(
            "all-pairs envelope sweep", lambda: reader.candidate_pairs(EPSILON)
        )
        sweep_stats = reader.io_stats()
    assert sweep_stats["repro_catalog_vector_loads_total"] == 0
    expected_pairs = {
        (first.name, second.name)
        for first, second in itertools.combinations(
            sorted(fleet, key=lambda c: c.name), 2
        )
        if not envelopes_separated(
            envelopes[first.name], envelopes[second.name], EPSILON
        )
    }
    assert set(pairs) == expected_pairs

    # -- end to end: catalog-backed vs pre-loaded top-k ----------------
    baseline, t_topk_memory = timed(
        "top-k over loaded list",
        lambda: top_k_pairs(fleet, epsilon=EPSILON, k=TOP_K),
    )
    with PersistentCatalog(path) as reader:
        scores, t_topk_catalog = timed(
            "top-k over catalog",
            lambda: top_k_pairs(reader, epsilon=EPSILON, k=TOP_K),
        )
        topk_loads = reader.io_stats()["repro_catalog_vector_loads_total"]
    assert ranking_key(scores) == ranking_key(baseline)

    section = {
        "workload": {
            "communities": n_communities,
            "bands": BANDS,
            "per_band": PER_BAND,
            "users_per_community": USERS,
            "dims": DIMS,
            "epsilon": EPSILON,
            "k": TOP_K,
            "smoke": SMOKE,
        },
        "storage": {
            "vector_bytes": vector_bytes,
            "bytes_per_community": bytes_per_community,
            "bulk_register_seconds": round(t_register, 4),
        },
        "cold_start": {
            "probe_plus_one_load_seconds": round(t_cold, 4),
            "full_hydration_seconds": round(t_hydrate, 4),
            "speedup_vs_hydration": round(t_hydrate / t_cold, 2),
            "index_rows_scanned": rows_scanned,
            "vector_loads": 1,
            "survivors": len(survivors),
        },
        "all_pairs_sweep": {
            "seconds": round(t_sweep, 4),
            "surviving_pairs": len(pairs),
            "vector_bytes_loaded": 0,
            "vector_bytes_on_disk": vector_bytes,
        },
        "top_k": {
            "catalog_seconds": round(t_topk_catalog, 4),
            "in_memory_seconds": round(t_topk_memory, 4),
            "communities_loaded": topk_loads,
            "communities_stored": n_communities,
            "ranking_identical": True,
        },
    }
    report = json.dumps(section, indent=2)
    report_writer("catalog", report)
    if not SMOKE:
        assert t_cold < t_hydrate, (
            f"cold probe ({t_cold:.3f}s) must beat full hydration "
            f"({t_hydrate:.3f}s)"
        )
        if _JSON_PATH.exists():
            merged = json.loads(_JSON_PATH.read_text())
            merged["catalog"] = section
            _JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
            print(f"[catalog section merged into {_JSON_PATH}]")
