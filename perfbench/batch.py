"""The three closed-loop batch workloads: sparse-, dense- and shard-fleet.

One caller runs one top-k query at a time.  Each run sets the workload
up, answers one untimed warm-up query so lazy state is built, then
queries back to back over a fixed epsilon cycle until the time is up.
A reference workload runs just before and just after every query;
``query_cost`` is the median over queries of query time / reference
time (see ``report.reference_seconds``).  More set-ups, spread over the
run between queries, are timed the same way and released at once;
``setup_s`` is their median cost scaled to seconds by
``report.normalised_setup_s``.  The plain median query time is printed
as well.  Every ranking, the warm-up's too, is compared after the timed
loop with an oracle computed on the same communities.

With tracing on, queries alternate untraced / traced on the same
epsilon, so one run yields both the per-layer numbers and the tracing
overhead.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs
import layers
from report import (
    Report,
    median,
    normalised_setup_s,
    peak_rss_mb,
    reference_seconds,
    timed_against_reference,
)
from spans import Tracer

from repro.apps import top_k_pairs, top_k_pairs_reference
from repro.catalog import PersistentCatalog
from repro.core.types import Community
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig
from repro.shard import ShardFleet, partition_catalog

#: Fewest timed queries per run (per kind, traced and untraced).
MIN_QUERIES = 10


@dataclass
class Query:
    epsilon: int
    seconds: float
    #: Mean reference-loop time around the query.
    reference: float
    start: float
    end: float
    traced: bool
    ranking: list | None
    error: str | None
    counts: Counter


def ranking_key(scores) -> list[tuple]:
    """What must match the oracle: pairs, orientation, order, values."""
    return [
        (score.name_b, score.name_a, repr(score.similarity), score.result.n_matched)
        for score in scores
    ]


class Workload:
    """Set-up, query and oracle of one batch workload.

    ``setup`` builds a ready state from the plain rows and returns it;
    queries run against ``state``, the first one built.  Later set-ups
    are timed and then released at once.
    """

    epsilons: tuple[int, ...] = inputs.SPARSE_EPSILONS
    #: Reference workload matching the dominant work (see report.py).
    reference = "python"
    #: Set-ups per run; cheap set-ups repeat more so their median holds.
    setup_repeats = 31
    state: object = None

    def __init__(self, seed: int, work_dir: Path, tracer: Tracer) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.raw = self.generate(seed)
        # Set-up starts from plain rows, as profiles parsed from a feed.
        self.rows = {name: vectors.tolist() for name, vectors in self.raw.items()}
        self.details: dict[str, object] = {}

    def generate(self, seed: int) -> dict:
        return inputs.sparse_fleet(seed)

    def communities(self) -> list[Community]:
        return [Community(name, rows) for name, rows in self.rows.items()]

    def setup(self, index: int) -> object:
        raise NotImplementedError

    def query(self, epsilon: int) -> list:
        raise NotImplementedError

    def oracle(self, epsilon: int) -> list:
        return top_k_pairs(self.communities(), epsilon=epsilon, k=inputs.TOP_K)

    def release(self, state: object) -> None:
        pass

    def close(self) -> None:
        if self.state is not None:
            self.release(self.state)
            self.state = None


class SparseFleet(Workload):
    """Catalog-backed ``top_k_pairs`` over 256 sum-balanced communities."""

    def setup(self, index: int) -> PersistentCatalog:
        catalog = PersistentCatalog(self.work_dir / f"sparse-{index}.db")
        catalog.register_many({c.name: c for c in self.communities()})
        return catalog

    def query(self, epsilon: int) -> list:
        with self.tracer.span("apps.topk"):
            return top_k_pairs(self.state, epsilon=epsilon, k=inputs.TOP_K)

    def release(self, catalog: PersistentCatalog) -> None:
        catalog.close()


class DenseFleet(Workload):
    """In-memory ``top_k_pairs`` at library defaults over 48 large communities."""

    epsilons = inputs.DENSE_EPSILONS
    # The joins interleave interpreted matching with small numpy kernels.
    reference = "mixed"
    setup_repeats = 41

    def generate(self, seed: int) -> dict:
        return inputs.dense_fleet(seed)

    def setup(self, index: int) -> list[Community]:
        return self.communities()

    def query(self, epsilon: int) -> list:
        with self.tracer.span("apps.topk"):
            return top_k_pairs(self.state, epsilon=epsilon, k=inputs.TOP_K)

    def oracle(self, epsilon: int) -> list:
        return top_k_pairs_reference(self.communities(), epsilon=epsilon, k=inputs.TOP_K)


@dataclass
class ShardState:
    fleet: ShardFleet
    registry: MetricsRegistry
    coordinator: object


class ShardFleetWorkload(Workload):
    """The sparse input split two ways, ranked through the coordinator."""

    setup_repeats = 11

    def setup(self, index: int) -> ShardState:
        plan_dir = self.work_dir / f"shards-{index}"
        with PersistentCatalog(self.work_dir / f"union-{index}.db") as catalog:
            catalog.register_many({c.name: c for c in self.communities()})
            started = time.perf_counter()
            # No candidate list is passed: the plan pays for its own scan.
            partition_catalog(
                catalog,
                plan_dir,
                inputs.SHARDS,
                epsilon=inputs.SHARD_PLAN_EPSILON,
            )
            self.details.setdefault("partition_s", []).append(
                time.perf_counter() - started
            )
        # No join cache on the shard servers: every query joins its
        # survivors, as the single-host workloads do.
        fleet = ShardFleet(plan_dir, config=ServeConfig(cache_entries=0))
        fleet.start()
        registry = MetricsRegistry()
        return ShardState(fleet, registry, fleet.coordinator(metrics=registry))

    def query(self, epsilon: int) -> list:
        coordinator, registry = self.state.coordinator, self.state.registry
        if not self.tracer.enabled:
            result = coordinator.top_k(epsilon=epsilon, k=inputs.TOP_K)
        else:
            names = ("pairs_deduped", "pairs_merged")
            before = [registry.counter(f"repro_shard_{n}_total") for n in names]
            result = coordinator.top_k(epsilon=epsilon, k=inputs.TOP_K)
            for name, value in zip(names, before):
                self.tracer.count(
                    f"shard.{name}",
                    registry.counter(f"repro_shard_{name}_total") - value,
                )
        if result.degraded:
            raise RuntimeError(f"degraded ranking: missing shards {result.missing}")
        return list(result.scores)

    def release(self, state: ShardState) -> None:
        state.coordinator.close()
        state.fleet.stop()


WORKLOADS: dict[str, type[Workload]] = {
    "sparse-fleet": SparseFleet,
    "dense-fleet": DenseFleet,
    "shard-fleet": ShardFleetWorkload,
}


def _timed_query(workload: Workload, epsilon: int, traced: bool) -> Query:
    tracer = workload.tracer
    before = Counter(tracer.counts)
    reference = reference_seconds(workload.reference)
    tracer.enabled = traced
    start = time.perf_counter()
    ranking, error = None, None
    try:
        ranking = workload.query(epsilon)
    except Exception as exc:  # a failed query is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    tracer.enabled = False
    reference = (reference + reference_seconds(workload.reference)) / 2
    counts = Counter(tracer.counts)
    counts.subtract(before)
    return Query(
        epsilon, end - start, reference, start, end, traced, ranking, error, counts
    )


def _timed_setup(workload: Workload, index: int) -> tuple[object, float, float]:
    return timed_against_reference(workload.reference, lambda: workload.setup(index))


def closed_loop(
    workload: Workload, seconds: float, trace: bool
) -> tuple[Query, list[Query], list[tuple[float, float]]]:
    """Set up, warm up once, then query back to back until ``seconds`` pass.

    The remaining ``setup_repeats - 1`` set-ups are spread evenly over
    the run, between queries, and released at once: the host changes
    speed from one stretch of seconds to the next, and set-ups taken
    all at one moment would share that moment's speed.  Returns the
    warm-up, the queries and every set-up's (wall, reference) seconds.
    """
    workload.state, *first = _timed_setup(workload, 0)
    setups = [tuple(first)]
    cycle = workload.epsilons
    warmup = _timed_query(workload, cycle[0], False)
    per_epsilon = 2 if trace else 1
    minimum = MIN_QUERIES * per_epsilon
    spares = workload.setup_repeats - 1

    def spare_setup() -> None:
        spare, *timing = _timed_setup(workload, len(setups))
        workload.release(spare)
        setups.append(tuple(timing))

    queries: list[Query] = []
    started = time.perf_counter()
    while len(queries) < minimum or time.perf_counter() - started < seconds:
        index = len(queries)
        epsilon = cycle[(index // per_epsilon) % len(cycle)]
        queries.append(_timed_query(workload, epsilon, trace and index % 2 == 1))
        elapsed = time.perf_counter() - started
        if len(setups) <= spares and elapsed >= (len(setups) - 1) * seconds / spares:
            spare_setup()
    while len(setups) <= spares:
        spare_setup()
    return warmup, queries, setups


def cost(queries: list[Query]) -> float:
    """Median query cost in reference units."""
    return median([query.seconds / query.reference for query in queries])


def check(workload: Workload, queries: list[Query], report: Report) -> None:
    """Compare every ranking with the oracle for its epsilon."""
    expected: dict[int, list] = {}
    for query in queries:
        report.attempted += 1
        if query.error is not None:
            report.fail(f"epsilon {query.epsilon}: {query.error}")
            continue
        if query.epsilon not in expected:
            expected[query.epsilon] = ranking_key(workload.oracle(query.epsilon))
        got, want = ranking_key(query.ranking), expected[query.epsilon]
        if got != want:
            rank = next(
                (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                min(len(got), len(want)),
            )
            report.fail(
                f"epsilon {query.epsilon}: rank {rank + 1} differs from the oracle "
                f"(got {got[rank:rank + 1]}, want {want[rank:rank + 1]})"
            )


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> Report:
    tracer = Tracer()
    if trace:
        layers.instrument(tracer)
    workload = WORKLOADS[name](seed, work_dir, tracer)
    report = Report()
    try:
        warmup, queries, setups = closed_loop(workload, seconds, trace)
        rss = peak_rss_mb()
    finally:
        workload.close()
        tracer.uninstall()
    check(workload, [warmup, *queries], report)
    untraced = [q for q in queries if not q.traced]
    report.details.update(
        setup_runs_s=[round(wall, 4) for wall, _ in setups],
        setup_references_s=[round(reference, 6) for _, reference in setups],
        warmup_query_s=round(warmup.seconds, 4),
        query_s=[round(q.seconds, 4) for q in queries],
        query_p50_s=round(median([q.seconds for q in untraced]), 4),
        reference_p50_s=round(median([q.reference for q in untraced]), 6),
        epsilons=list(workload.epsilons),
        communities=len(workload.raw),
    )
    if "partition_s" in workload.details:
        report.details["partition_s"] = [
            round(s, 4) for s in workload.details["partition_s"]
        ]
    if not trace:
        report.metrics.update(
            setup_s=normalised_setup_s(workload.reference, setups),
            query_cost=cost(untraced),
            peak_rss_mb=rss,
        )
        report.samples.update(
            setup_s=len(setups), query_cost=len(untraced), peak_rss_mb=1
        )
        return report
    traced = [q for q in queries if q.traced]
    report.metrics.update(_layer_metrics(workload, tracer, traced, untraced))
    report.samples.update(layers=len(traced))
    violations = tracer.nesting_violations()
    if violations:
        report.fail(f"{violations} spans whose children outlast them")
    tracer.dump(work_dir.parent / "traces" / f"{name}-seed{seed}.jsonl")
    return report


def _layer_metrics(
    workload: Workload, tracer: Tracer, traced: list[Query], untraced: list[Query]
) -> dict[str, float]:
    spans = [
        span for query in traced for span in tracer.window(query.start, query.end)
    ]
    metrics = layers.span_metrics(tracer, spans, len(traced))
    # Counts come from the first full epsilon cycle of traced queries,
    # so they do not depend on how many queries fit in the run.
    cycle = traced[: len(workload.epsilons)]
    counts: Counter = Counter()
    for query in cycle:
        counts.update(query.counts)
    metrics.update(layers.count_metrics(dict(counts), len(cycle)))
    if "partition_s" in workload.details:
        metrics["shard.partition_s"] = median(workload.details["partition_s"])
    metrics["bench.trace_overhead_pct"] = 100.0 * (cost(traced) / cost(untraced) - 1)
    return metrics
