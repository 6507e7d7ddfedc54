"""Shard-count scaling of the distributed all-pairs top-k.

Every community's counter sums are (near-)identical — group ``g`` sits
at ``[g*step, (G-1-g)*step]`` per user, a constant row sum — so a
sum-window index would prune nothing; the per-dimension envelope check
kills every inter-group pair (``step`` is far above epsilon plus
noise), leaving only the cheap intra-group joins.  The candidate scan
is the output-sensitive envelope sweep, so it costs the same on one
host as on N shards: what sharding divides is the per-shard work.

Measured per shard count (1/2/4/8 by default): the full distributed
``top_k`` through an in-process fleet, each run asserted byte-identical
to the single-host ranking on the union catalog.  The gate is a work
bound, not a speedup: every shard's local candidate count and owned
join count must stay within ``total / N`` plus the replication
overhead (pairs scanned on more than one shard) plus the largest
unsplittable component.  Shard servers run as threads of one process,
so wall-clock speedups reflect host CPUs and the GIL, not the plan;
they are reported, never asserted.  A skewed variant (one hot
component dwarfing the per-shard budget) compares the skew-aware split
against plain LPT at 4 shards.

The ``shard`` section merges into ``BENCH_engine.json`` when not in
smoke mode; ``scripts/bench_smoke.sh`` runs the seconds-long variant.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.apps import top_k_pairs
from repro.catalog import PersistentCatalog
from repro.core.types import Community
from repro.shard import ShardFleet, partition_catalog, plan_partition

#: Workload knobs (overridable for the smoke-scale run).
GROUPS = int(os.environ.get("REPRO_BENCH_SHARD_GROUPS", 512))
PER_GROUP = int(os.environ.get("REPRO_BENCH_SHARD_PER_GROUP", 4))
USERS = int(os.environ.get("REPRO_BENCH_SHARD_USERS", 8))
EPSILON = int(os.environ.get("REPRO_BENCH_SHARD_EPSILON", 4))
TOP_K = int(os.environ.get("REPRO_BENCH_SHARD_K", 10))
SHARD_COUNTS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_SHARD_SHARDS", "1,2,4,8").split(",")
)
#: Smoke mode checks correctness only and skips the JSON merge.
SMOKE = os.environ.get("REPRO_BENCH_SHARD_SMOKE", "0") == "1"

STEP = 100  # inter-group gap per dimension, >> EPSILON + noise
NOISE = 8

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

pytestmark = pytest.mark.shard


def sum_balanced_fleet(seed: int = 7) -> list[Community]:
    """Constant-row-sum groups: worst case for the sum-window index."""
    rng = np.random.default_rng(seed)
    fleet = []
    for group in range(GROUPS):
        base = np.array([group * STEP, (GROUPS - 1 - group) * STEP])
        for member in range(PER_GROUP):
            vectors = base + rng.integers(0, NOISE, size=(USERS, 2))
            fleet.append(Community(f"g{group:04d}-m{member}", vectors))
    return fleet


def skewed_fleet(seed: int = 23) -> list[Community]:
    """Uniform groups plus one hot component above the shard budget."""
    fleet = sum_balanced_fleet(seed)[: max(8, GROUPS // 8) * PER_GROUP]
    rng = np.random.default_rng(seed + 1)
    hot_users = USERS * 12
    base = rng.integers(0, 20, size=(hot_users, 2)) + GROUPS * STEP + 10_000
    fleet.append(Community("hot-mega", base))
    for member in range(5):
        noise = rng.integers(-2, 3, size=(hot_users // 2, 2))
        fleet.append(
            Community(
                f"hot-p{member}",
                np.maximum(base[: hot_users // 2] + noise, 0),
            )
        )
    return fleet


def timed(label: str, func):
    started = time.perf_counter()
    result = func()
    elapsed = time.perf_counter() - started
    print(f"  {label:32s} {elapsed:8.3f}s")
    return result, elapsed


def ranking_key(scores) -> list[tuple[str, str, str]]:
    return [(s.name_b, s.name_a, repr(s.similarity)) for s in scores]


def largest_component(candidates) -> int:
    """Pair count of the biggest connected component of the candidates."""
    parent: dict[str, str] = {}

    def find(key: str) -> str:
        parent.setdefault(key, key)
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for first, second in candidates:
        parent[find(first)] = find(second)
    sizes = Counter(find(first) for first, _ in candidates)
    return max(sizes.values(), default=0)


def per_shard_work(plan, shard_dir: Path, candidates) -> dict[str, list[int]]:
    """Each shard's local candidate count and the joins it owns."""
    scans = []
    for spec in plan.shards:
        with PersistentCatalog(shard_dir / spec.db) as shard_catalog:
            scans.append(len(shard_catalog.candidate_pairs(EPSILON)))
    owners: Counter = Counter()
    for pair in candidates:
        owner = plan.pair_owners.get(pair)
        if owner is None:
            owner = min(set(plan.shards_of(pair[0])) & set(plan.shards_of(pair[1])))
        owners[owner] += 1
    return {
        "candidates": scans,
        "joins": [owners[shard] for shard in range(plan.n_shards)],
    }


@pytest.mark.bench
def bench_shard_scaling(tmp_path_factory, report_writer):
    fleet = sum_balanced_fleet()
    root = tmp_path_factory.mktemp("shard_scaling")
    union_db = root / "union.db"

    with PersistentCatalog(union_db) as catalog:
        catalog.register_many({c.name: c for c in fleet})
        reference, t_single = timed(
            "single-host top-k (union)",
            lambda: top_k_pairs(catalog, epsilon=EPSILON, k=TOP_K),
        )
        # One union scan feeds every plan; each *distributed* run below
        # still pays its own shard-local scans inside top_k.
        candidates, t_scan = timed(
            "union candidate scan",
            lambda: catalog.candidate_pairs(EPSILON),
        )

    granularity = largest_component(candidates)
    curve = {}
    baseline_seconds = None
    for n_shards in SHARD_COUNTS:
        shard_dir = root / f"shards_{n_shards}"
        with PersistentCatalog(union_db) as catalog:
            plan, t_partition = timed(
                f"partition {n_shards}-way",
                lambda: partition_catalog(
                    catalog,
                    shard_dir,
                    n_shards,
                    epsilon=EPSILON,
                    candidate_pairs=candidates,
                ),
            )
        with ShardFleet(shard_dir) as shards:
            with shards.coordinator() as coordinator:
                result, t_topk = timed(
                    f"distributed top-k ({n_shards} shards)",
                    lambda: coordinator.top_k(epsilon=EPSILON, k=TOP_K),
                )
        assert not result.degraded
        assert ranking_key(result.scores) == ranking_key(reference)
        if baseline_seconds is None:
            baseline_seconds = t_topk
        work = per_shard_work(plan, shard_dir, candidates)
        replication = sum(work["candidates"]) - len(candidates)
        bound = len(candidates) / n_shards + replication + granularity
        for kind, counts in work.items():
            assert max(counts) <= bound, (
                f"{n_shards} shards: per-shard {kind} {counts} exceed "
                f"total/N + replication + granularity = {bound:.1f}"
            )
        curve[n_shards] = {
            "topk_seconds": round(t_topk, 4),
            "partition_seconds": round(t_partition, 4),
            "speedup_vs_1_shard": round(baseline_seconds / t_topk, 2),
            "imbalance": round(plan.stats["imbalance"], 3),
            "per_shard_candidates": work["candidates"],
            "per_shard_joins": work["joins"],
            "work_bound": round(bound, 1),
        }

    # -- skew: replicated split vs plain LPT at 4 shards ---------------
    skew = skewed_fleet()
    skew_db = root / "skew.db"
    skew_section = {}
    with PersistentCatalog(skew_db) as catalog:
        catalog.register_many({c.name: c for c in skew})
        skew_reference = top_k_pairs(catalog, epsilon=EPSILON, k=TOP_K)
        lpt_plan = plan_partition(
            catalog, 4, epsilon=EPSILON, replicate=False
        )
        split_dir = root / "skew_split"
        split_plan, _ = timed(
            "skew partition (split)",
            lambda: partition_catalog(
                catalog, split_dir, 4, epsilon=EPSILON
            ),
        )
    with ShardFleet(split_dir) as shards:
        with shards.coordinator() as coordinator:
            skew_result, t_skew = timed(
                "skewed distributed top-k",
                lambda: coordinator.top_k(epsilon=EPSILON, k=TOP_K),
            )
    assert not skew_result.degraded
    assert ranking_key(skew_result.scores) == ranking_key(skew_reference)
    skew_section = {
        "communities": len(skew),
        "replicated_keys": len(split_plan.replicated),
        "split_components": split_plan.stats["split_components"],
        "imbalance_split": round(split_plan.stats["imbalance"], 3),
        "imbalance_lpt": round(lpt_plan.stats["imbalance"], 3),
        "topk_seconds": round(t_skew, 4),
        "ranking_identical": True,
    }
    assert (
        split_plan.stats["imbalance"] <= lpt_plan.stats["imbalance"]
    ), "splitting the hot component must not worsen balance"

    section = {
        "workload": {
            "communities": len(fleet),
            "groups": GROUPS,
            "per_group": PER_GROUP,
            "users_per_community": USERS,
            "epsilon": EPSILON,
            "k": TOP_K,
            "sum_balanced": True,
            "smoke": SMOKE,
            "cpu_count": os.cpu_count(),
            "gate": "per-shard candidates and joins <= total/N + "
            "replication + largest component",
        },
        "single_host": {
            "topk_seconds": round(t_single, 4),
            "candidate_scan_seconds": round(t_scan, 4),
            "candidate_pairs": len(candidates),
            "largest_component_pairs": granularity,
        },
        "scaling": {str(n): entry for n, entry in curve.items()},
        "skew": skew_section,
    }
    report = json.dumps(section, indent=2)
    report_writer("shard_scaling", report)

    if not SMOKE:
        if _JSON_PATH.exists():
            merged = json.loads(_JSON_PATH.read_text())
            merged["shard"] = section
            _JSON_PATH.write_text(json.dumps(merged, indent=2) + "\n")
            print(f"[shard section merged into {_JSON_PATH}]")
