"""Top-k most-similar community pairs.

The paper's broadcast scenario (Section 1.2, ii.b) has the platform
apply CSJ "to a variety of community pairs" and act on the results in
priority order; Section 3 prescribes the economical execution: a fast
approximate method screens all pairs, then the exact method refines
only the survivors.

:func:`rank_pairs` is that pipeline, written once: screen the live
candidate pairs, merge their scores with the lazy zero tail into the
refinement pool, refine the pool's live entries and assemble the
ranking.  Where the joins run is the caller's :data:`JoinExecutor`,
and that is all the two rankings differ in:

* :func:`top_k_pairs` ranks an in-memory list or a
  :class:`~repro.catalog.PersistentCatalog` on a local
  :class:`~repro.engine.BatchEngine` (through :func:`run_pairs`), which
  gives it the envelope pre-screen, the join-result cache and
  multi-process execution (``n_jobs``) for free;
* :meth:`repro.shard.ShardCoordinator.top_k` ranks a shard fleet, each
  pair joined on its owner shard through ``join_batch`` requests.

``top_k_pairs_reference`` preserves the pre-engine serial loop as a
differential-testing oracle and as the baseline the engine benchmarks
measure against.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from ..algorithms import get_algorithm
from ..catalog import CatalogRecord, PersistentCatalog
from ..core.errors import ConfigurationError, DimensionMismatchError
from ..core.types import Community, CSJResult
from ..core.validation import size_ratio_ok
from ..engine import (
    BatchEngine,
    CheckpointLog,
    FaultPolicy,
    JoinResultCache,
    PairJob,
    PairOutcome,
    canonical_options,
)
from ..engine.batch import zero_result
from ..engine.envelope import community_envelope, envelope_candidates, stack_envelopes
from ..obs import JoinTelemetry, MetricsRegistry

__all__ = [
    "JoinExecutor",
    "PairScore",
    "Ranking",
    "rank_pairs",
    "run_pairs",
    "top_k_pairs",
    "top_k_pairs_reference",
    "validate_ranking",
    "zero_tail",
]

Pair = tuple[str, str]

#: Where a ranking's joins run.  ``execute(pairs, method, results)``
#: joins every pair (in the given orientation) with ``method`` and
#: returns ``({pair: similarity}, lost)`` — ``{pair: CSJResult}`` when
#: ``results`` is true — where ``lost`` lists the pairs it could not
#: evaluate.
JoinExecutor = Callable[[list[Pair], str, bool], tuple[dict, list[Pair]]]


@dataclass(frozen=True)
class PairScore:
    """One scored community pair."""

    name_b: str
    name_a: str
    similarity: float
    result: CSJResult

    @property
    def label(self) -> str:
        return f"<{self.name_b}, {self.name_a}>"


@dataclass(frozen=True)
class Ranking:
    """One :func:`rank_pairs` run: the top k and what it cost.

    ``lost`` holds every pair left out of the ranking universe (given
    up front or lost by the executor); ``executed`` counts the pairs
    the screen evaluated, ``n_screened`` the ratio-eligible pairs of
    the universe less the lost, ``pool`` the refinement-pool entries.
    """

    scores: list[PairScore]
    lost: frozenset[Pair]
    executed: int
    n_screened: int
    pool: int


# The benchmark counts size-ratio tests through this module attribute.
_ratio_ok = size_ratio_ok


def validate_ranking(k: int, screen_margin: float) -> None:
    """Reject a ranking's ``k`` and ``screen_margin`` before any work."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if not 0.0 < screen_margin <= 1.0:
        raise ConfigurationError(
            f"screen_margin must be within (0, 1], got {screen_margin}"
        )


def _validate(communities: list[Community], k: int, screen_margin: float) -> None:
    validate_ranking(k, screen_margin)
    names = [community.name for community in communities]
    if len(set(names)) != len(names):
        raise ConfigurationError("community names must be unique for ranking")


def _pool_size(n_screened: int, k: int, screen_margin: float) -> int:
    return min(n_screened, max(k, int(round(k / screen_margin))))


def _joinable_count(sizes: Sequence[int]) -> int:
    """Ratio-eligible pair count in O(C log C) — never O(C^2) space."""
    ordered = sorted(sizes)
    return sum(
        bisect_right(ordered, 2 * size) - index - 1
        for index, size in enumerate(ordered)
    )


def _rank_key(entry: tuple[float, str, str]) -> tuple[float, str, str]:
    return (-entry[0], entry[1], entry[2])


def zero_tail(
    names: Sequence[str],
    sizes: Sequence[int],
    excluded: Container[tuple[str, str]],
) -> Iterator[tuple[float, str, str]]:
    """Lazily yield ``(0.0, names[i], names[j])`` for the zero-scored pairs.

    Covers every ratio-eligible pair ``i < j`` not in ``excluded`` (the
    pairs that carry a screen score of their own), in ``_rank_key``
    order, so a :func:`heapq.merge` against the ranked survivors
    reproduces the full sort of all C^2 pairs while only the consumed
    prefix is ever enumerated.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    for first in order:
        for second in order:
            if second <= first:
                continue
            pair = (names[first], names[second])
            if pair not in excluded and _ratio_ok(sizes[first], sizes[second]):
                yield (0.0, pair[0], pair[1])


def rank_pairs(
    names: Sequence[str],
    sizes: Sequence[int],
    live: list[Pair],
    execute: JoinExecutor,
    *,
    epsilon: int,
    k: int,
    screen_method: str,
    refine_method: str,
    screen_margin: float,
    lost: Iterable[Pair] = (),
) -> Ranking:
    """The two-phase top-k over one ranking universe.

    ``names`` and ``sizes`` are the universe; ``live`` holds the
    ratio-eligible pairs the candidate screen kept, each in the
    orientation it is joined in, and ``lost`` the pairs known up front
    to be unevaluable.  ``execute`` screens ``live``; the best screen
    entries, merged with the lazy zero tail of every other
    ratio-eligible pair, form the refinement pool of
    ``ceil(k / screen_margin)`` entries.  The pool's screened pairs are
    refined, its zero entries come from
    :func:`~repro.engine.batch.zero_result`, and the top ``k`` are
    returned sorted by descending similarity (name tie-break).  Pairs
    the executor loses are left out, never scored zero.  Callers check
    ``k`` and ``screen_margin`` with :func:`validate_ranking` first.
    """
    lost = set(lost)
    screened, screen_lost = execute(live, screen_method, False)
    lost.update(screen_lost)
    n_screened = _joinable_count(sizes) - len(lost)
    # The refinement pool: ranked screen entries merged with the zero
    # tail; lost pairs are neither scored nor zero-ranked.
    ranked = sorted(
        ((similarity, first, second) for (first, second), similarity in screened.items()),
        key=_rank_key,
    )
    merged = heapq.merge(
        ranked, zero_tail(names, sizes, screened.keys() | lost), key=_rank_key
    )
    pool = list(itertools.islice(merged, _pool_size(n_screened, k, screen_margin)))
    refined, refine_lost = execute(
        [(first, second) for _, first, second in pool if (first, second) in screened],
        refine_method,
        True,
    )
    lost.update(refine_lost)
    size_of = dict(zip(names, sizes))
    scores: list[PairScore] = []
    for _, first, second in pool:
        result = refined.get((first, second))
        if result is None:
            if (first, second) in lost:
                continue  # honestly absent, never fabricated
            result = zero_result(
                refine_method, epsilon, size_of[first], size_of[second]
            )
        name_b, name_a = (second, first) if result.swapped else (first, second)
        scores.append(PairScore(name_b, name_a, result.similarity, result))
    scores.sort(key=lambda score: (-score.similarity, score.name_b, score.name_a))
    return Ranking(scores[:k], frozenset(lost), len(screened), n_screened, len(pool))


def run_pairs(
    engine: BatchEngine,
    pairs: Sequence[Pair],
    method: str,
    epsilon: int,
    options: Mapping[str, object],
) -> list[PairOutcome]:
    """Join named pairs on ``engine``, one :class:`~repro.engine.PairJob` each.

    Names index the engine's roster by community name.  The one
    job-building path of :func:`top_k_pairs` and of the serve
    ``join_batch`` op, so a shard's similarity is the single host's by
    construction.
    """
    index_of = {
        community.name: index for index, community in enumerate(engine.communities)
    }
    job_options = canonical_options(options)
    return engine.run(
        [
            PairJob(index_of[first], index_of[second], method, epsilon, job_options)
            for first, second in pairs
        ]
    )


def top_k_pairs(
    communities: "list[Community] | PersistentCatalog",
    *,
    epsilon: int,
    k: int,
    screen_method: str = "ap-minmax",
    refine_method: str = "ex-minmax",
    screen_margin: float = 0.8,
    n_jobs: int = 1,
    cache: JoinResultCache | int | None = None,
    envelope_screen: bool = True,
    metrics: MetricsRegistry | None = None,
    telemetry: list[JoinTelemetry] | None = None,
    fault_policy: FaultPolicy | None = None,
    checkpoint: CheckpointLog | str | Path | None = None,
    keys: list[str] | None = None,
    **options: object,
) -> list[PairScore]:
    """The k most similar pairs among ``communities``.

    Every unordered pair satisfying the CSJ size-ratio rule is screened
    with the approximate method; the best ``ceil(k / screen_margin)``
    survivors are refined exactly, and the top ``k`` refined pairs are
    returned sorted by descending similarity (name tie-break).  Only the
    pairs the envelope sweep keeps are joined; the pairs it rules out
    rank at similarity 0 through a lazy tail, never materialised.

    ``screen_margin`` < 1 widens the refinement pool to protect against
    approximate underestimation promoting the wrong pairs.

    ``n_jobs`` > 1 distributes the joins across worker processes;
    ``cache`` (an :class:`~repro.engine.JoinResultCache`, or an int
    capacity) memoises joins across calls; ``envelope_screen`` skips
    pairs whose min/max envelopes prove a zero similarity.  All three
    leave the returned ranking identical to the serial computation.
    With ``metrics`` attached, per-join records for both phases are
    appended to ``telemetry`` (when given).  ``fault_policy`` supervises
    both phases (timeouts / retries / quarantine) and ``checkpoint``
    makes completed joins durable so a killed ranking resumes without
    recomputing finished pairs.

    ``communities`` may also be a
    :class:`~repro.catalog.PersistentCatalog` (optionally restricted to
    ``keys``): the candidate screen then runs over the catalog's stored
    envelopes and only the surviving communities' vectors are loaded
    from disk — pairs the envelopes rule out are ranked at similarity 0
    from metadata alone, so a sweep over thousands of on-disk
    communities touches O(survivors) vector rows.  Communities are
    ranked under their catalog keys (keys are unique; stored display
    names may not be).  The returned ranking is identical to loading
    everything and calling this function with the in-memory list *in
    name order* (the catalog's key order).  Other input orders may rank
    differently: an equal-size pair keeps the orientation its input
    order gives it, and screen-score ties at the refinement-pool
    boundary are cut by ``(first, second)`` in that orientation.
    """
    if isinstance(communities, PersistentCatalog):
        validate_ranking(k, screen_margin)
        roster, records, live = _catalog_universe(
            communities, keys, epsilon, envelope_screen
        )
        names = list(records)
        sizes = [record.n_users for record in records.values()]
    else:
        if keys is not None:
            raise ConfigurationError(
                "keys= only applies when ranking from a PersistentCatalog"
            )
        _validate(communities, k, screen_margin)
        roster = communities
        names = [community.name for community in communities]
        sizes = [community.n_users for community in communities]
        live = [
            (names[i], names[j])
            for i, j in _candidate_indices(communities, epsilon, envelope_screen)
            if _ratio_ok(sizes[i], sizes[j])
        ]

    with BatchEngine(
        roster,
        n_jobs=n_jobs,
        screen=envelope_screen,
        cache=cache,
        metrics=metrics,
        fault_policy=fault_policy,
        checkpoint=checkpoint,
    ) as engine:

        def execute(pairs: list[Pair], method: str, results: bool) -> tuple[dict, list[Pair]]:
            outcomes = run_pairs(engine, pairs, method, epsilon, options)
            return {
                pair: outcome.result if results else outcome.similarity
                for pair, outcome in zip(pairs, outcomes)
            }, []

        ranking = rank_pairs(
            names,
            sizes,
            live,
            execute,
            epsilon=epsilon,
            k=k,
            screen_method=screen_method,
            refine_method=refine_method,
            screen_margin=screen_margin,
        )
        if telemetry is not None:
            telemetry.extend(engine.telemetry)
    return ranking.scores


def _candidate_indices(
    communities: list[Community], epsilon: int, envelope_screen: bool
) -> Iterable[tuple[int, int]]:
    """Index pairs ``i < j`` that may score above zero.

    With the screen on, the envelope sweep's survivors; with it off,
    every pair.
    """
    if not envelope_screen:
        return itertools.combinations(range(len(communities)), 2)
    if len(communities) < 2:
        return []
    dims = {community.n_dims for community in communities}
    if len(dims) > 1:
        raise DimensionMismatchError(min(dims), max(dims))
    mins, maxs = stack_envelopes([community_envelope(c) for c in communities])
    first, second = envelope_candidates(mins, maxs, epsilon)
    return zip(first.tolist(), second.tolist())


def _catalog_universe(
    catalog: PersistentCatalog,
    keys: list[str] | None,
    epsilon: int,
    envelope_screen: bool,
) -> tuple[list[Community], dict[str, CatalogRecord], list[tuple[str, str]]]:
    """Roster, metadata of the ranking universe (key order), live pairs.

    The candidate screen reads only metadata and envelope rows; the
    roster holds the survivors' vectors — the only vector loads of the
    whole ranking, one per survivor, renamed to their catalog keys.
    """
    records = catalog.records(keys)
    candidates: Iterable[tuple[str, str]] = (
        catalog.candidate_pairs(epsilon, keys=keys)
        if envelope_screen
        else itertools.combinations(records, 2)
    )
    live = [
        (first, second)
        for first, second in candidates
        if _ratio_ok(records[first].n_users, records[second].n_users)
    ]
    roster = []
    for key in sorted({key for pair in live for key in pair}):
        community = catalog.get(key)
        if community.name != key:
            community = dataclasses.replace(community, name=key)
        roster.append(community)
    return roster, records, live


def top_k_pairs_reference(
    communities: list[Community],
    *,
    epsilon: int,
    k: int,
    screen_method: str = "ap-minmax",
    refine_method: str = "ex-minmax",
    screen_margin: float = 0.8,
    **options: object,
) -> list[PairScore]:
    """Pre-engine serial implementation, kept as an oracle and baseline.

    Joins every pair in-process with no envelope screen and no cache
    (algorithm instances are still built once per phase).  The engine
    tests assert :func:`top_k_pairs` matches this ranking exactly, and
    ``benchmarks/bench_engine_batch.py`` measures the engine against it.
    """
    _validate(communities, k, screen_margin)
    screener = get_algorithm(screen_method, epsilon, **options)
    screened: list[tuple[float, Community, Community]] = []
    for first, second in itertools.combinations(communities, 2):
        if not _ratio_ok(len(first), len(second)):
            continue
        result = screener.join(first, second)
        screened.append((result.similarity, first, second))
    screened.sort(key=lambda entry: (-entry[0], entry[1].name, entry[2].name))

    refiner = get_algorithm(refine_method, epsilon, **options)
    refined: list[PairScore] = []
    for _, first, second in screened[: _pool_size(len(screened), k, screen_margin)]:
        result = refiner.join(first, second)
        oriented = (first, second) if not result.swapped else (second, first)
        refined.append(
            PairScore(
                name_b=oriented[0].name,
                name_a=oriented[1].name,
                similarity=result.similarity,
                result=result,
            )
        )
    refined.sort(key=lambda score: (-score.similarity, score.name_b, score.name_a))
    return refined[:k]
