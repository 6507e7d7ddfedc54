"""Skew-aware partitioning of a persistent catalog into shard catalogs.

The partitioner answers one planning question: *which communities must
live together so a fleet of independent CSJ shard servers can answer
any candidate pair locally?*  The candidate graph at the plan epsilon
(vertices = catalog keys, edges = pairs surviving the catalog's
indexed envelope screen) decides it — two communities that can ever
have nonzero similarity at ``epsilon' <= epsilon`` are connected, so
placing whole connected components keeps every live pair co-located.

Components are costed with the quadratic join model
``cost(u, v) = n_users(u) * n_users(v)`` (plus a linear enumeration
term per member, so thousands of cheap singletons still spread) and
bin-packed greedily onto shards, largest first (LPT).  One
mega-component would serialise the sweep under pure LPT, so *hot*
components — those whose pair cost exceeds a configurable fraction of
the ideal per-shard share — are split **by pair** in replication mode:
each candidate pair is assigned to one owner shard, both endpoints are
stored on that shard (communities replicate, pairs do not), and the
plan records the pair→owner map so the coordinator evaluates every
replicated pair exactly once.  This is the LSF-Join trade: bounded
data replication buys per-pair placement freedom under skew.

A small seeded sample of candidate pairs is optionally joined with the
screen method to calibrate the abstract cost units into seconds; the
calibration only annotates the plan's ``stats`` (assignment is scale
free), matching the sample-first planning of adaptive MapReduce
similarity joins.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..algorithms import get_algorithm
from ..catalog import PersistentCatalog
from ..core.errors import ConfigurationError, ValidationError
from ..engine.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = ["PartitionPlan", "ShardSpec", "plan_partition", "partition_catalog"]

#: Plan file name inside a partition output directory.
PLAN_FILENAME = "plan.json"

#: Communities registered per shard-db transaction during materialise.
_REGISTER_CHUNK = 256

#: Key separator in the serialised pair→owner map.  Safe as a
#: delimiter because the catalog rejects ``|`` in keys.
_PAIR_SEP = "|"


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a partition plan."""

    shard: int
    db: str
    keys: tuple[str, ...]
    cost: int


@dataclass(frozen=True)
class PartitionPlan:
    """The full output of one partitioning run.

    ``metadata`` and ``envelopes`` carry every key's size and stored
    min/max envelope so the coordinator can re-run the ratio filter and
    the envelope screen from the plan alone — no union catalog needed
    at query time.  ``pair_owners`` assigns each pair of a split (hot)
    component to exactly one shard; pairs of unsplit components are
    owned implicitly by any shard holding both endpoints.
    """

    epsilon: int
    n_shards: int
    shards: tuple[ShardSpec, ...]
    metadata: Mapping[str, tuple[int, int]]  # key -> (n_users, n_dims)
    envelopes: Mapping[str, tuple[tuple[int, ...], tuple[int, ...]]]
    pair_owners: Mapping[tuple[str, str], int]
    replicated: tuple[str, ...]
    stats: Mapping[str, object] = field(default_factory=dict)

    # -- lookups -------------------------------------------------------
    def shards_of(self, key: str) -> tuple[int, ...]:
        """Every shard holding ``key`` (ascending; empty if unknown)."""
        return tuple(
            spec.shard for spec in self.shards if key in self._key_sets[spec.shard]
        )

    @property
    def _key_sets(self) -> dict[int, frozenset[str]]:
        cached = self.__dict__.get("_key_sets_cache")
        if cached is None:
            cached = {
                spec.shard: frozenset(spec.keys) for spec in self.shards
            }
            object.__setattr__(self, "_key_sets_cache", cached)
        return cached

    def owner_of(self, first: str, second: str) -> int | None:
        """The shard that should evaluate the pair, or ``None``.

        Split-component pairs have an explicit owner; any other pair is
        owned by the lowest shard holding both endpoints.  ``None``
        means the plan never co-located the pair (possible only for
        epsilons above the plan epsilon).
        """
        pair = (first, second) if first <= second else (second, first)
        explicit = self.pair_owners.get(pair)
        if explicit is not None:
            return explicit
        common = set(self.shards_of(pair[0])) & set(self.shards_of(pair[1]))
        return min(common) if common else None

    def envelope_of(self, key: str) -> Envelope:
        mins, maxs = self.envelopes[key]
        return Envelope(
            mins=np.asarray(mins, dtype=np.int64),
            maxs=np.asarray(maxs, dtype=np.int64),
        )

    def size_of(self, key: str) -> int:
        return self.metadata[key][0]

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "epsilon": self.epsilon,
            "n_shards": self.n_shards,
            "shards": [
                {
                    "shard": spec.shard,
                    "db": spec.db,
                    "keys": list(spec.keys),
                    "cost": spec.cost,
                }
                for spec in self.shards
            ],
            "metadata": {
                key: {"n_users": users, "n_dims": dims}
                for key, (users, dims) in sorted(self.metadata.items())
            },
            "envelopes": {
                key: {"mins": list(mins), "maxs": list(maxs)}
                for key, (mins, maxs) in sorted(self.envelopes.items())
            },
            "pair_owners": {
                f"{first}{_PAIR_SEP}{second}": owner
                for (first, second), owner in sorted(self.pair_owners.items())
            },
            "replicated": list(self.replicated),
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PartitionPlan":
        if payload.get("version") != 1:
            raise ValidationError(
                f"unsupported partition plan version {payload.get('version')!r}"
            )
        shards = tuple(
            ShardSpec(
                shard=int(entry["shard"]),
                db=str(entry["db"]),
                keys=tuple(entry["keys"]),
                cost=int(entry["cost"]),
            )
            for entry in payload["shards"]  # type: ignore[index]
        )
        metadata = {
            key: (int(value["n_users"]), int(value["n_dims"]))
            for key, value in payload["metadata"].items()  # type: ignore[union-attr]
        }
        envelopes = {
            key: (tuple(value["mins"]), tuple(value["maxs"]))
            for key, value in payload["envelopes"].items()  # type: ignore[union-attr]
        }
        pair_owners = {
            tuple(pair.split(_PAIR_SEP, 1)): int(owner)
            for pair, owner in payload["pair_owners"].items()  # type: ignore[union-attr]
        }
        return cls(
            epsilon=int(payload["epsilon"]),  # type: ignore[arg-type]
            n_shards=int(payload["n_shards"]),  # type: ignore[arg-type]
            shards=shards,
            metadata=metadata,
            envelopes=envelopes,
            pair_owners=pair_owners,  # type: ignore[arg-type]
            replicated=tuple(payload.get("replicated", ())),  # type: ignore[arg-type]
            stats=dict(payload.get("stats", {})),  # type: ignore[arg-type]
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "PartitionPlan":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def _pair_cost(metadata: Mapping[str, tuple[int, int]], pair: tuple[str, str]) -> int:
    return metadata[pair[0]][0] * metadata[pair[1]][0]


class _UnionFind:
    def __init__(self, items: Iterable[str]) -> None:
        self._parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, first: str, second: str) -> None:
        root_first, root_second = self.find(first), self.find(second)
        if root_first != root_second:
            # Deterministic representative: the smaller key wins.
            low, high = sorted((root_first, root_second))
            self._parent[high] = low


def _calibrate(
    catalog: PersistentCatalog,
    pairs: Sequence[tuple[str, str]],
    metadata: Mapping[str, tuple[int, int]],
    *,
    epsilon: int,
    screen_method: str,
    sample_pairs: int,
    seed: int,
) -> dict[str, object]:
    """Join a seeded pair sample to price the cost units in seconds."""
    if sample_pairs <= 0 or not pairs:
        return {"sampled_pairs": 0}
    rng = random.Random(seed)
    sample = sorted(rng.sample(list(pairs), min(sample_pairs, len(pairs))))
    screener = get_algorithm(screen_method, epsilon)
    total_cost = 0
    started = time.perf_counter()
    for first, second in sample:
        screener.join(catalog.get(first), catalog.get(second))
        total_cost += _pair_cost(metadata, (first, second))
    elapsed = time.perf_counter() - started
    return {
        "sampled_pairs": len(sample),
        "sample_cost": total_cost,
        "sample_seconds": round(elapsed, 6),
        "seconds_per_cost": (elapsed / total_cost) if total_cost else 0.0,
    }


def plan_partition(
    catalog: PersistentCatalog,
    n_shards: int,
    *,
    epsilon: int,
    hot_fraction: float = 1.0,
    replicate: bool = True,
    sample_pairs: int = 0,
    screen_method: str = "ap-minmax",
    seed: int = 7,
    candidate_pairs: Sequence[tuple[str, str]] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> PartitionPlan:
    """Plan a skew-aware ``n_shards``-way split of ``catalog``.

    ``epsilon`` is the *plan* epsilon: candidate pairs at any query
    epsilon up to it are guaranteed co-located on some shard.
    ``hot_fraction`` scales the hotness threshold (a component is hot
    when its pair cost exceeds ``hot_fraction`` times the ideal
    per-shard share); ``replicate=False`` disables splitting and falls
    back to pure LPT, which a skewed catalog will serialise — the
    benchmark measures exactly that contrast.  ``sample_pairs > 0``
    joins a seeded sample with ``screen_method`` to calibrate cost
    units into seconds (recorded in ``stats``).  ``candidate_pairs``
    short-circuits the catalog's candidate scan when the caller already
    computed it (the scan is the expensive step on large catalogs).
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
    if not 0.0 < hot_fraction:
        raise ConfigurationError(
            f"hot_fraction must be > 0, got {hot_fraction}"
        )
    metadata = {
        key: (record.n_users, record.n_dims)
        for key, record in catalog.records().items()
    }
    if not metadata:
        raise ConfigurationError("cannot partition an empty catalog")
    keys = list(metadata)
    envelopes = {
        key: (tuple(envelope.mins.tolist()), tuple(envelope.maxs.tolist()))
        for key, envelope in catalog.envelopes().items()
    }
    if candidate_pairs is None:
        candidate_pairs = catalog.candidate_pairs(epsilon)
    calibration = _calibrate(
        catalog,
        candidate_pairs,
        metadata,
        epsilon=epsilon,
        screen_method=screen_method,
        sample_pairs=sample_pairs,
        seed=seed,
    )

    # Connected components of the candidate graph.
    union = _UnionFind(keys)
    for first, second in candidate_pairs:
        union.union(first, second)
    component_keys: dict[str, list[str]] = {}
    for key in keys:
        component_keys.setdefault(union.find(key), []).append(key)
    component_pairs: dict[str, list[tuple[str, str]]] = {
        root: [] for root in component_keys
    }
    for pair in candidate_pairs:
        component_pairs[union.find(pair[0])].append(pair)

    def component_cost(root: str) -> int:
        pair_sum = sum(
            _pair_cost(metadata, pair) for pair in component_pairs[root]
        )
        member_sum = sum(metadata[key][0] for key in component_keys[root])
        return pair_sum + member_sum

    costs = {root: component_cost(root) for root in component_keys}
    total_pair_cost = sum(
        _pair_cost(metadata, pair) for pair in candidate_pairs
    )
    hot_threshold = (
        hot_fraction * total_pair_cost / n_shards if n_shards > 1 else None
    )

    loads = [0] * n_shards
    shard_keys: list[set[str]] = [set() for _ in range(n_shards)]
    pair_owners: dict[tuple[str, str], int] = {}
    split_components = 0

    def least_loaded() -> int:
        return min(range(n_shards), key=lambda shard: (loads[shard], shard))

    # Largest component first (ties broken by smallest member key, so
    # the plan is a pure function of the catalog contents).
    ordered = sorted(
        component_keys, key=lambda root: (-costs[root], min(component_keys[root]))
    )
    for root in ordered:
        pairs = component_pairs[root]
        pair_sum = sum(_pair_cost(metadata, pair) for pair in pairs)
        hot = (
            replicate
            and hot_threshold is not None
            and len(pairs) >= 2
            and pair_sum > hot_threshold
        )
        if hot:
            split_components += 1
            for pair in sorted(
                pairs, key=lambda pair: (-_pair_cost(metadata, pair), pair)
            ):
                shard = least_loaded()
                pair_owners[pair] = shard
                shard_keys[shard].update(pair)
                loads[shard] += _pair_cost(metadata, pair)
            # Members with no surviving pair (none in a component built
            # from pairs, but singleton-safe) still need a home.
            for key in component_keys[root]:
                if not any(key in held for held in shard_keys):
                    shard = least_loaded()
                    shard_keys[shard].add(key)
                    loads[shard] += metadata[key][0]
        else:
            shard = least_loaded()
            shard_keys[shard].update(component_keys[root])
            loads[shard] += costs[root]

    placements: dict[str, int] = {}
    for held in shard_keys:
        for key in held:
            placements[key] = placements.get(key, 0) + 1
    replicated = tuple(
        sorted(key for key, count in placements.items() if count > 1)
    )
    if metrics is not None:
        metrics.inc("repro_shard_plans_total")
        extra = sum(count - 1 for count in placements.values())
        metrics.inc("repro_shard_replicas_total", extra)

    shards = tuple(
        ShardSpec(
            shard=shard,
            db=f"shard_{shard:03d}.db",
            keys=tuple(sorted(shard_keys[shard])),
            cost=loads[shard],
        )
        for shard in range(n_shards)
    )
    stats: dict[str, object] = {
        "communities": len(keys),
        "candidate_pairs": len(candidate_pairs),
        "components": len(component_keys),
        "split_components": split_components,
        "replicated_keys": len(replicated),
        "total_pair_cost": total_pair_cost,
        "shard_costs": list(loads),
        "imbalance": (
            max(loads) / (sum(loads) / n_shards) if sum(loads) else 1.0
        ),
        "calibration": calibration,
    }
    return PartitionPlan(
        epsilon=int(epsilon),
        n_shards=n_shards,
        shards=shards,
        metadata=metadata,
        envelopes=envelopes,
        pair_owners=pair_owners,
        replicated=replicated,
        stats=stats,
    )


def partition_catalog(
    catalog: PersistentCatalog,
    out_dir: str | Path,
    n_shards: int,
    *,
    epsilon: int,
    hot_fraction: float = 1.0,
    replicate: bool = True,
    sample_pairs: int = 0,
    screen_method: str = "ap-minmax",
    seed: int = 7,
    candidate_pairs: Sequence[tuple[str, str]] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> PartitionPlan:
    """Plan and materialise: per-shard SQLite catalogs plus ``plan.json``.

    Every shard database holds exactly its plan keys, with each
    community stored under (and renamed to) its catalog key, so a shard
    server ranks under the same names the union catalog does.
    """
    plan = plan_partition(
        catalog,
        n_shards,
        epsilon=epsilon,
        hot_fraction=hot_fraction,
        replicate=replicate,
        sample_pairs=sample_pairs,
        screen_method=screen_method,
        seed=seed,
        candidate_pairs=candidate_pairs,
        metrics=metrics,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    import dataclasses as _dataclasses

    for spec in plan.shards:
        db_path = out / spec.db
        if db_path.exists():
            db_path.unlink()
        with PersistentCatalog(db_path) as shard_catalog:
            for start in range(0, len(spec.keys), _REGISTER_CHUNK):
                chunk = spec.keys[start : start + _REGISTER_CHUNK]
                batch = {}
                for key in chunk:
                    community = catalog.get(key)
                    if community.name != key:
                        community = _dataclasses.replace(community, name=key)
                    batch[key] = community
                shard_catalog.register_many(batch)
    plan.save(out / PLAN_FILENAME)
    return plan
