"""Distributed all-pairs top-k over a fleet of CSJ shard servers.

The coordinator runs the single-host ranking's pipeline,
:func:`repro.apps.topk.rank_pairs`, over a different candidate source
and join executor:

1. **Candidate scan** — every shard answers ``candidates`` from its
   local indexed envelope screen; the union (deduplicated across
   replicated components) equals the union catalog's surviving set,
   because the partitioner co-locates every candidate pair at plan
   epsilon.
2. **Screen, bounded merge, refine** — the shared pipeline, with every
   join on the pair's *owner* shard (the plan's pair→owner map for
   split hot components, the lowest live common holder otherwise) in
   ``join_batch`` requests.  Refined pairs come back as full
   :class:`~repro.core.types.CSJResult` payloads (JSON floats
   round-trip exactly), so the final ranking — pairs, similarities,
   orientation, tie-breaks — is byte-identical to the single-host
   ranking on the union catalog.

Failure handling is honest rather than heroic: per-shard deadlines and
bounded reconnect-retries ride on the serve layer's admission and
:class:`~repro.serve.ReconnectingClient`; when a shard stays down, its
exclusively-held communities drop out of the ranking universe, pairs
no surviving shard can evaluate are reported as *lost* (never silently
zero-scored), and the response names the missing shards.  A killed
distributed sweep resumes from a JSON-lines checkpoint the coordinator
writes as cells complete.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..analysis.sweeps import SweepPoint
from ..apps.topk import PairScore, rank_pairs, validate_ranking
from ..catalog import PersistentCatalog
from ..core.errors import ConfigurationError, ReproError
from ..core.types import CSJResult
from ..core.validation import size_ratio_ok
from ..engine.batch import zero_result
from ..engine.envelope import envelope_pairs, envelopes_separated
from ..obs import MetricsRegistry

# Submodule-direct import on purpose: repro.serve.server imports
# repro.shard.metrics, which runs this module via the package init
# while serve.server is still half-built.  serve.client is always
# complete by then (serve/__init__ loads it first), so only the
# client may be imported here at module scope; ShardFleet pulls in
# ServerThread and friends lazily inside start().
from ..serve.client import ReconnectingClient, ServeError
from .partition import PLAN_FILENAME, PartitionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.server import ServeConfig, ServerThread

__all__ = [
    "ShardError",
    "ShardUnavailableError",
    "ShardTopK",
    "ShardSweep",
    "ShardCoordinator",
    "ShardFleet",
]

#: Pairs per ``join_batch`` request; a shard's larger share is chunked.
JOIN_BATCH_PAIRS = 4096


class ShardError(ReproError):
    """A distributed query could not be planned or completed."""


class ShardUnavailableError(ShardError):
    """Shards are down and the caller did not allow partial results."""

    def __init__(self, missing: Iterable[int]) -> None:
        self.missing = tuple(sorted(missing))
        super().__init__(
            f"shard(s) {list(self.missing)} unavailable after retries "
            "(pass allow_partial=True for a degraded ranking)"
        )


@dataclass(frozen=True)
class ShardTopK:
    """One distributed ranking, with its degradation honestly reported.

    ``missing`` names shards that stayed down; ``dropped_keys`` are
    communities every holder of which is missing (removed from the
    ranking universe); ``lost_pairs`` are ratio-eligible candidate
    pairs no surviving shard could evaluate (excluded from the ranking
    rather than scored zero).  A non-degraded response is
    byte-identical to the single-host ranking.
    """

    scores: tuple[PairScore, ...]
    k: int
    epsilon: int
    missing: tuple[int, ...] = ()
    dropped_keys: tuple[str, ...] = ()
    lost_pairs: tuple[tuple[str, str], ...] = ()
    stats: Mapping[str, object] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.dropped_keys or self.lost_pairs)


@dataclass(frozen=True)
class ShardSweep:
    """One distributed epsilon sweep over a set of couples."""

    curves: Mapping[tuple[str, str], tuple[SweepPoint, ...]]
    resumed_cells: int
    missing: tuple[int, ...] = ()
    lost_cells: tuple[tuple[str, str, int], ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.lost_cells)


class ShardCoordinator:
    """Fans ``topk`` / ``join`` / ``sweep`` over the shards of one plan.

    ``addresses[i]`` must serve shard ``i`` of ``plan`` (a CSJ server
    over that shard's catalog).  Each shard gets one
    :class:`~repro.serve.ReconnectingClient` with ``retries``
    redial-retries; ``deadline_ms`` is forwarded as the per-request
    latency budget so a wedged shard is bounded by the serve layer's
    deadline machinery rather than a coordinator-side timer.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        addresses: Sequence[tuple[str, int]],
        *,
        metrics: "MetricsRegistry | None" = None,
        deadline_ms: float | None = None,
        retries: int = 1,
        timeout: float | None = 30.0,
    ) -> None:
        if len(addresses) != plan.n_shards:
            raise ConfigurationError(
                f"plan has {plan.n_shards} shards but {len(addresses)} "
                "addresses were given"
            )
        self.plan = plan
        # A private registry when none is shared: .inc is then a no-op
        # nobody reads, and every call site stays unconditional.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.deadline_ms = deadline_ms
        self._clients = [
            ReconnectingClient(host, port, timeout=timeout, retries=retries)
            for host, port in addresses
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, plan.n_shards),
            thread_name_prefix="repro-shard",
        )

    # -- plumbing ------------------------------------------------------
    def _request(self, shard: int, op: str, args: dict) -> dict:
        """One shard RPC with request/retry/failure accounting."""
        client = self._clients[shard]
        before = client.reconnects
        self.metrics.inc("repro_shard_requests_total")
        try:
            return client.request(op, args, deadline_ms=self.deadline_ms)
        except (ServeError, OSError):
            self.metrics.inc("repro_shard_failures_total")
            raise
        finally:
            self.metrics.inc("repro_shard_retries_total", client.reconnects - before)

    def _fanout(
        self, op: str, args: dict, shards: Iterable[int]
    ) -> tuple[dict[int, dict], set[int]]:
        """Issue one op to many shards concurrently; collect failures."""
        targets = sorted(shards)
        futures = {
            shard: self._executor.submit(self._request, shard, op, dict(args))
            for shard in targets
        }
        responses: dict[int, dict] = {}
        failed: set[int] = set()
        for shard, future in futures.items():
            try:
                responses[shard] = future.result()
            except (ServeError, OSError):
                failed.add(shard)
        return responses, failed

    # -- routing -------------------------------------------------------
    def _live_owner(
        self, first: str, second: str, missing: set[int]
    ) -> int | None:
        """The live shard that should evaluate a pair, if any."""
        pair = (first, second) if first <= second else (second, first)
        explicit = self.plan.pair_owners.get(pair)
        if explicit is not None and explicit not in missing:
            return explicit
        common = set(self.plan.shards_of(pair[0])) & set(
            self.plan.shards_of(pair[1])
        )
        live = common - missing
        return min(live) if live else None

    # -- join batches with re-routing ----------------------------------
    def _run_join_batches(
        self,
        pairs: list[tuple[str, str]],
        method: str,
        results: bool,
        *,
        epsilon: int,
        options: Mapping[str, object],
        missing: set[int],
    ) -> tuple[dict, list[tuple[str, str]]]:
        """The fleet's :data:`~repro.apps.topk.JoinExecutor`.

        Joins each pair on its live owner through ``join_batch``,
        re-routing a dead shard's pairs to another holder; ``missing``
        is updated in place with shards that die mid-phase.  Returns
        ``{pair: similarity}`` (``{pair: CSJResult}`` with ``results``)
        plus the pairs that became unroutable.
        """
        args: dict[str, object] = {"epsilon": epsilon, "method": method}
        if options:
            args["options"] = dict(options)
        if results:
            args["include_results"] = True
        evaluated: dict = {}
        lost: list[tuple[str, str]] = []
        while pairs:
            pending: dict[int, list[tuple[str, str]]] = {}
            for pair in pairs:
                owner = self._live_owner(pair[0], pair[1], missing)
                if owner is None:
                    lost.append(pair)
                else:
                    pending.setdefault(owner, []).append(pair)
            futures = {
                shard: self._executor.submit(
                    self._shard_batches, shard, shard_pairs, args
                )
                for shard, shard_pairs in pending.items()
            }
            pairs = []
            for shard, future in futures.items():
                entries, unprocessed = future.result()
                for entry in entries:
                    evaluated[(entry["first"], entry["second"])] = (
                        CSJResult.from_dict(entry["result"])
                        if results
                        else entry["similarity"]
                    )
                if unprocessed:
                    missing.add(shard)
                    pairs.extend(unprocessed)
        return evaluated, lost

    def _shard_batches(
        self, shard: int, pairs: list[tuple[str, str]], args: dict[str, object]
    ) -> tuple[list[dict], list[tuple[str, str]]]:
        """All of one shard's chunks, stopping at the first failure."""
        entries: list[dict] = []
        for start in range(0, len(pairs), JOIN_BATCH_PAIRS):
            chunk = pairs[start : start + JOIN_BATCH_PAIRS]
            try:
                response = self._request(
                    shard, "join_batch", {**args, "pairs": [list(p) for p in chunk]}
                )
            except (ServeError, OSError):
                return entries, pairs[start:]
            entries.extend(response["pairs"])
        return entries, []

    # -- the distributed ranking ---------------------------------------
    def top_k(
        self,
        *,
        epsilon: int,
        k: int,
        screen_method: str = "ap-minmax",
        refine_method: str = "ex-minmax",
        screen_margin: float = 0.8,
        allow_partial: bool = False,
        **options: object,
    ) -> ShardTopK:
        """The k most similar pairs across the whole fleet.

        With every shard reachable the result is byte-identical —
        pairs, similarities, orientation, ranking order — to
        ``top_k_pairs(union_catalog, epsilon=..., k=...)``.  With
        shards down and ``allow_partial=True``, the degraded contract
        of :class:`ShardTopK` applies instead.
        """
        validate_ranking(k, screen_margin)
        epsilon = int(epsilon)
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")

        # Phase 1: every shard's local candidate pairs.
        responses, missing = self._fanout(
            "candidates", {"epsilon": epsilon}, range(self.plan.n_shards)
        )
        if missing:
            if not allow_partial or not responses:
                raise ShardUnavailableError(missing)
        dropped = tuple(
            sorted(
                key
                for key in self.plan.metadata
                if all(shard in missing for shard in self.plan.shards_of(key))
            )
        )
        selected = sorted(set(self.plan.metadata) - set(dropped))
        size_of = {key: self.plan.size_of(key) for key in selected}

        live: set[tuple[str, str]] = set()
        duplicates = 0
        for response in responses.values():
            for first, second in response["pairs"]:
                pair = (first, second)
                if pair in live:
                    duplicates += 1
                elif first in size_of and second in size_of:
                    live.add(pair)
        self.metrics.inc("repro_shard_pairs_deduped_total", duplicates)

        # Pairs shard-local scans cannot vouch for: identify losses
        # under missing shards, and verify co-location coverage for
        # epsilons above the plan epsilon, from the plan's envelopes.
        lost: set[tuple[str, str]] = set()
        if missing or epsilon > self.plan.epsilon:
            envelopes = {key: self.plan.envelope_of(key) for key in selected}
            for pair in set(envelope_pairs(envelopes, epsilon)) - live:
                if not size_ratio_ok(size_of[pair[0]], size_of[pair[1]]):
                    continue
                if self._live_owner(pair[0], pair[1], missing) is None:
                    if not missing:
                        raise ShardError(
                            f"candidate pair {pair!r} at epsilon {epsilon} "
                            "is not co-located on any shard: the plan was "
                            f"built for epsilon <= {self.plan.epsilon}; "
                            "repartition with a larger plan epsilon"
                        )
                    lost.add(pair)

        # Phase 2: screen, bounded merge and refine — the one ranking
        # pipeline, every join on its owner shard.
        ranking = rank_pairs(
            selected,
            [size_of[key] for key in selected],
            sorted(
                pair
                for pair in live
                if size_ratio_ok(size_of[pair[0]], size_of[pair[1]])
            ),
            functools.partial(
                self._run_join_batches,
                epsilon=epsilon,
                options=options,
                missing=missing,
            ),
            epsilon=epsilon,
            k=k,
            screen_method=screen_method,
            refine_method=refine_method,
            screen_margin=screen_margin,
            lost=lost,
        )
        self.metrics.inc("repro_shard_pairs_merged_total", ranking.pool)

        missing_tuple = tuple(sorted(missing))
        lost_tuple = tuple(sorted(ranking.lost))
        if missing_tuple or lost_tuple or dropped:
            self.metrics.inc("repro_shard_degraded_total")
            if not allow_partial:
                raise ShardUnavailableError(missing_tuple)
        return ShardTopK(
            scores=tuple(ranking.scores),
            k=k,
            epsilon=epsilon,
            missing=missing_tuple,
            dropped_keys=dropped,
            lost_pairs=lost_tuple,
            stats={
                "communities": len(selected),
                "candidate_pairs": len(live),
                "duplicates": duplicates,
                "executed_pairs": ranking.executed,
                "n_screened": ranking.n_screened,
                "pool": ranking.pool,
            },
        )

    # -- single joins --------------------------------------------------
    def join(
        self,
        first: str,
        second: str,
        *,
        epsilon: int,
        method: str = "ex-minmax",
        options: Mapping[str, object] | None = None,
    ) -> dict:
        """Join one couple on its owner shard (``join`` endpoint shape).

        A couple the plan's envelopes prove separated at ``epsilon``
        needs no shard at all — the zero result is synthesised from
        plan metadata, exactly like the catalog ranking's screened
        pairs.
        """
        epsilon = int(epsilon)
        for key in (first, second):
            if key not in self.plan.metadata:
                raise ShardError(f"community {key!r} is not in the plan")
        owner = self._live_owner(first, second, set())
        if owner is None:
            if envelopes_separated(
                self.plan.envelope_of(first),
                self.plan.envelope_of(second),
                epsilon,
            ):
                result = zero_result(
                    method,
                    epsilon,
                    self.plan.size_of(first),
                    self.plan.size_of(second),
                )
                return {"disposition": "screened", "result": result.to_dict()}
            raise ShardError(
                f"pair ({first!r}, {second!r}) is not co-located on any "
                f"shard (plan epsilon {self.plan.epsilon}, query epsilon "
                f"{epsilon}); repartition with a larger plan epsilon"
            )
        args: dict[str, object] = {
            "first": first,
            "second": second,
            "epsilon": epsilon,
            "method": method,
        }
        if options:
            args["options"] = dict(options)
        return self._request(owner, "join", args)

    # -- distributed sweeps --------------------------------------------
    def sweep(
        self,
        pairs: Sequence[tuple[str, str]],
        epsilons: Sequence[int],
        *,
        method: str = "ex-minmax",
        options: Mapping[str, object] | None = None,
        checkpoint: str | Path | None = None,
        allow_partial: bool = False,
    ) -> ShardSweep:
        """Epsilon sweeps over many couples, with resumable checkpoints.

        Mirrors :func:`~repro.analysis.sweeps.catalog_epsilon_sweep`
        per couple: plan envelopes separated at ``max(epsilons)``
        synthesise the whole zero curve from metadata; every other
        ``(pair, epsilon)`` cell routes to the pair's owner shard.
        With ``checkpoint`` set, completed cells append to a JSON-lines
        file as they finish (torn trailing lines are tolerated), and a
        re-run skips them — a killed sweep resumes where it died.
        """
        if not epsilons:
            raise ConfigurationError("sweep needs at least one epsilon")
        if sorted(epsilons) != list(epsilons):
            raise ConfigurationError("epsilons must be given in ascending order")
        completed = self._load_checkpoint(checkpoint)
        resumed = 0
        missing: set[int] = set()
        lost_cells: list[tuple[str, str, int]] = []
        curves: dict[tuple[str, str], tuple[SweepPoint, ...]] = {}
        checkpoint_file = None
        if checkpoint is not None:
            path = Path(checkpoint)
            # A killed run can leave a torn final line with no newline;
            # start a fresh line so the append never glues onto it.
            torn_tail = (
                path.exists()
                and path.stat().st_size > 0
                and not path.read_bytes().endswith(b"\n")
            )
            checkpoint_file = open(path, "a", encoding="utf-8")
            if torn_tail:
                checkpoint_file.write("\n")
        try:
            for first, second in pairs:
                if envelopes_separated(
                    self.plan.envelope_of(first),
                    self.plan.envelope_of(second),
                    int(max(epsilons)),
                ):
                    curves[(first, second)] = tuple(
                        SweepPoint(
                            parameter=float(epsilon),
                            similarity_percent=0.0,
                            n_matched=0,
                            elapsed_seconds=0.0,
                        )
                        for epsilon in epsilons
                    )
                    continue
                points: list[SweepPoint] = []
                for epsilon in epsilons:
                    cell = (first, second, int(epsilon))
                    cached = completed.get(cell)
                    if cached is not None:
                        resumed += 1
                        points.append(cached)
                        continue
                    try:
                        response = self.join(
                            first,
                            second,
                            epsilon=int(epsilon),
                            method=method,
                            options=options,
                        )
                    except (ServeError, OSError):
                        owner = self._live_owner(first, second, missing)
                        if owner is not None:
                            missing.add(owner)
                        if not allow_partial:
                            raise
                        lost_cells.append(cell)
                        continue
                    result = response["result"]
                    point = SweepPoint(
                        parameter=float(epsilon),
                        similarity_percent=100.0 * float(result["similarity"]),
                        n_matched=len(result["pairs"]),
                        elapsed_seconds=float(result["elapsed_seconds"]),
                    )
                    points.append(point)
                    if checkpoint_file is not None:
                        checkpoint_file.write(
                            json.dumps(
                                {
                                    "first": first,
                                    "second": second,
                                    "epsilon": int(epsilon),
                                    "similarity_percent": point.similarity_percent,
                                    "n_matched": point.n_matched,
                                    "elapsed_seconds": point.elapsed_seconds,
                                },
                                separators=(",", ":"),
                            )
                            + "\n"
                        )
                        checkpoint_file.flush()
                curves[(first, second)] = tuple(points)
        finally:
            if checkpoint_file is not None:
                checkpoint_file.close()
        self.metrics.inc("repro_shard_resumed_total", resumed)
        if missing or lost_cells:
            self.metrics.inc("repro_shard_degraded_total")
        return ShardSweep(
            curves=curves,
            resumed_cells=resumed,
            missing=tuple(sorted(missing)),
            lost_cells=tuple(lost_cells),
        )

    @staticmethod
    def _load_checkpoint(
        checkpoint: str | Path | None,
    ) -> dict[tuple[str, str, int], SweepPoint]:
        completed: dict[tuple[str, str, int], SweepPoint] = {}
        if checkpoint is None or not Path(checkpoint).exists():
            return completed
        for line in Path(checkpoint).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line from a killed run
            try:
                cell = (
                    str(entry["first"]),
                    str(entry["second"]),
                    int(entry["epsilon"]),
                )
                completed[cell] = SweepPoint(
                    parameter=float(entry["epsilon"]),
                    similarity_percent=float(entry["similarity_percent"]),
                    n_matched=int(entry["n_matched"]),
                    elapsed_seconds=float(entry["elapsed_seconds"]),
                )
            except (KeyError, TypeError, ValueError):
                continue  # malformed line: recompute that cell
        return completed

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._executor.shutdown(wait=True)
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class ShardFleet:
    """An in-process fleet of shard servers over a partition directory.

    The self-hosting path of ``repro-csj shard topk`` and the test /
    benchmark harness: one :class:`~repro.serve.ServerThread` per shard
    database, each backed by a lazy
    :class:`~repro.serve.CatalogBackedStore`.  ``stop_shard`` kills one
    server (its catalog included) to exercise the degraded paths.
    """

    def __init__(
        self,
        plan_dir: str | Path,
        *,
        config: "ServeConfig | None" = None,
    ) -> None:
        self.plan_dir = Path(plan_dir)
        self.plan = PartitionPlan.load(self.plan_dir / PLAN_FILENAME)
        self._config = config
        self._threads: "list[ServerThread | None]" = []
        self._catalogs: list[PersistentCatalog | None] = []
        self.addresses: list[tuple[str, int]] = []

    def start(self) -> list[tuple[str, int]]:
        # Deferred import: see the module-scope note on the serve cycle.
        from ..serve.server import ServerThread
        from ..serve.store import CatalogBackedStore

        if self._threads:
            raise RuntimeError("fleet already started")
        for spec in self.plan.shards:
            catalog = PersistentCatalog(self.plan_dir / spec.db)
            store = CatalogBackedStore(catalog)
            thread = ServerThread(self._config, store=store)
            address = thread.start()
            self._catalogs.append(catalog)
            self._threads.append(thread)
            self.addresses.append(address)
        return list(self.addresses)

    def stop_shard(self, shard: int) -> None:
        """Kill one shard server (the shard-loss scenario)."""
        thread = self._threads[shard]
        if thread is not None:
            thread.stop()
            self._threads[shard] = None
        catalog = self._catalogs[shard]
        if catalog is not None:
            catalog.close()
            self._catalogs[shard] = None

    def stop(self) -> None:
        for shard in range(len(self._threads)):
            self.stop_shard(shard)
        self._threads = []
        self._catalogs = []
        self.addresses = []

    def coordinator(self, **kwargs: object) -> ShardCoordinator:
        """A coordinator bound to this fleet's addresses."""
        if not self.addresses:
            raise RuntimeError("fleet is not started")
        return ShardCoordinator(self.plan, self.addresses, **kwargs)  # type: ignore[arg-type]

    def __enter__(self) -> "ShardFleet":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()
