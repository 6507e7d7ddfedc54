"""Parallel batch execution of community-pair joins.

:class:`BatchEngine` evaluates an arbitrary list of :class:`PairJob`
descriptions over a fixed community collection.  Each job passes three
gates, cheapest first:

1. **Envelope pre-screen** — if the pair's per-dimension envelopes are
   separated by more than the job's epsilon, the similarity is provably
   zero and the job resolves to a ``SCREENED`` outcome without running
   the join.
2. **Join-result cache** — a content-addressed LRU lookup keyed by the
   oriented pair's fingerprints plus ``(epsilon, method, options)``;
   hits resolve to ``CACHED`` outcomes.
3. **Execution** — survivors run the actual join: in-process when
   ``n_jobs == 1`` (the deterministic serial fallback), otherwise across
   a ``ProcessPoolExecutor`` whose workers read vectors from a
   shared-memory store instead of receiving pickled matrices.

Joins are deterministic, so serial and parallel execution produce
identical results; the tests assert this and the batch benchmarks rely
on it.  Algorithm instances are built once per ``(method, epsilon,
options)`` configuration — never per pair — both in the parent and in
each worker.
"""

from __future__ import annotations

import enum
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..algorithms import get_algorithm
from ..algorithms.registry import ALGORITHMS
from ..core.errors import ConfigurationError, UnknownAlgorithmError
from ..core.types import Community, CSJResult, EventCounts
from ..core.validation import validate_pair
from ..obs import JoinTelemetry, MetricsRegistry
from ..obs.timers import stage_timer
from .cache import JoinKey, JoinResultCache, canonical_options, decoded_options, join_key
from .checkpoint import CheckpointLog
from .envelope import Envelope, community_envelope, envelopes_separated, stack_envelopes
from .faults import (
    FaultPolicy,
    FaultSpec,
    JobSupervisor,
    SupervisedTask,
    maybe_inject,
)
from .fingerprint import community_fingerprint
from .shared import AttachedVectorStore, SharedVectorStore, StoreLayout

__all__ = ["Disposition", "PairJob", "PairOutcome", "BatchEngine", "zero_result"]

#: Label recorded in ``CSJResult.engine`` for screened-out pairs.
SCREEN_ENGINE = "envelope-screen"

#: Label recorded in ``CSJResult.engine`` for quarantined (failed) jobs.
QUARANTINE_ENGINE = "quarantined"

#: Job lists at least this long screen via one vectorised per-job
#: envelope gather instead of per-pair Python-level envelope tests.
VECTOR_SCREEN_MIN_JOBS = 16


def zero_result(
    method: str,
    epsilon: int,
    n_first: int,
    n_second: int,
    *,
    engine: str = SCREEN_ENGINE,
) -> CSJResult:
    """The similarity-0 result of a pair ``(first, second)`` no join ran on.

    Oriented like a join of those sizes and labelled with ``method``'s
    name and exactness: the one constructor of screened, quarantined
    and zero-ranked results, so they all compare equal.
    """
    algorithm_cls = ALGORITHMS.get(method.strip().lower())
    if algorithm_cls is None:
        raise UnknownAlgorithmError(method, tuple(ALGORITHMS))
    swapped = n_first > n_second
    size_b, size_a = (n_second, n_first) if swapped else (n_first, n_second)
    return CSJResult(
        method=algorithm_cls.name,
        exact=algorithm_cls.exact,
        size_b=size_b,
        size_a=size_a,
        epsilon=int(epsilon),
        pairs=[],
        events=EventCounts(),
        elapsed_seconds=0.0,
        engine=engine,
        swapped=swapped,
    )


class Disposition(enum.Enum):
    """How the engine resolved one job."""

    COMPUTED = "computed"  # the join actually ran
    SCREENED = "screened"  # envelopes proved similarity 0
    CACHED = "cached"  # served from the join-result cache
    FAILED = "failed"  # quarantined after exhausting its attempts


@dataclass(frozen=True)
class PairJob:
    """One community-pair join request.

    ``first``/``second`` index into the engine's community collection
    (order is preserved — orientation to the paper's ``(B, A)``
    convention happens inside the join exactly as in a direct call).
    ``options`` is a canonical tuple as produced by
    :func:`~repro.engine.cache.canonical_options`.
    """

    first: int
    second: int
    method: str
    epsilon: int
    options: tuple = ()

    @classmethod
    def build(
        cls,
        first: int,
        second: int,
        method: str,
        epsilon: int,
        options: Mapping[str, object] | None = None,
    ) -> "PairJob":
        """Convenience constructor canonicalising an options mapping."""
        return cls(
            first=first,
            second=second,
            method=method,
            epsilon=epsilon,
            options=canonical_options(options or {}),
        )


@dataclass
class PairOutcome:
    """The engine's answer to one :class:`PairJob`.

    ``error`` is ``None`` except for :attr:`Disposition.FAILED`
    outcomes, where it carries the quarantined job's last error.
    """

    job: PairJob
    disposition: Disposition
    result: CSJResult
    error: str | None = None

    @property
    def similarity(self) -> float:
        return self.result.similarity


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_STORE: AttachedVectorStore | None = None
_WORKER_ALGORITHMS: dict[tuple, object] = {}


def _init_worker(layout: StoreLayout) -> None:
    global _WORKER_STORE
    _WORKER_STORE = AttachedVectorStore(layout)
    _WORKER_ALGORITHMS.clear()


def _worker_algorithm(method: str, epsilon: int, options: tuple):
    key = (method, epsilon, options)
    algorithm = _WORKER_ALGORITHMS.get(key)
    if algorithm is None:
        algorithm = get_algorithm(method, epsilon, **decoded_options(options))
        _WORKER_ALGORITHMS[key] = algorithm
    return algorithm


def _run_chunk(
    chunk: list[tuple[int, int, int, str, int, tuple]],
    enforce_size_ratio: bool,
    collect_metrics: bool = False,
) -> tuple[list[tuple[int, dict]], dict | None]:
    """Execute a chunk of jobs against the attached store.

    Each entry is ``(position, first, second, method, epsilon, options)``;
    results travel back as ``CSJResult.to_dict`` payloads keyed by the
    caller's position so reassembly is order-independent.  With
    ``collect_metrics`` the chunk runs against a fresh worker-local
    :class:`MetricsRegistry` whose snapshot rides back alongside the
    results; the parent merges it, so parallel runs aggregate the same
    totals as serial ones.
    """
    assert _WORKER_STORE is not None, "worker initialised without a store"
    registry = MetricsRegistry() if collect_metrics else None
    out: list[tuple[int, dict]] = []
    for position, first, second, method, epsilon, options in chunk:
        algorithm = _worker_algorithm(method, epsilon, options)
        algorithm.metrics = registry
        result = algorithm.join(
            _WORKER_STORE.community(first),
            _WORKER_STORE.community(second),
            enforce_size_ratio=enforce_size_ratio,
        )
        out.append((position, result.to_dict()))
    return out, (registry.snapshot() if registry is not None else None)


def _run_supervised_job(
    position: int,
    first: int,
    second: int,
    method: str,
    epsilon: int,
    options: tuple,
    enforce_size_ratio: bool,
    collect_metrics: bool,
    attempt: int,
    fault: FaultSpec | None,
) -> tuple[dict, dict | None]:
    """Execute one supervised job against the attached store.

    Supervised execution ships jobs one per task (no chunking) so a
    crash, hang or timeout is attributable to exactly one job.  The
    worker-local metrics snapshot travels back *only* with a successful
    result, so retried attempts never double-count events.
    """
    assert _WORKER_STORE is not None, "worker initialised without a store"
    maybe_inject(fault, position, attempt, in_process=False)
    registry = MetricsRegistry() if collect_metrics else None
    algorithm = _worker_algorithm(method, epsilon, options)
    algorithm.metrics = registry
    result = algorithm.join(
        _WORKER_STORE.community(first),
        _WORKER_STORE.community(second),
        enforce_size_ratio=enforce_size_ratio,
    )
    return result.to_dict(), (registry.snapshot() if registry is not None else None)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class BatchEngine:
    """Batch executor over a fixed community collection.

    Parameters
    ----------
    communities:
        The collection jobs index into.  Envelopes and fingerprints are
        computed lazily, once per community, across all ``run`` calls.
    n_jobs:
        Worker processes.  ``1`` (default) runs everything in-process.
    screen:
        Enable the envelope pre-screen (sound: screened pairs have
        similarity exactly 0).
    cache:
        ``None`` disables caching; an ``int`` builds an LRU
        :class:`JoinResultCache` of that capacity; an existing cache
        instance is used as-is (and may be shared between engines).
    enforce_size_ratio:
        Forwarded to every join; jobs violating the CSJ size-ratio rule
        raise exactly as a direct ``join`` call would.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        given, the engine counts dispositions, times its phases, mirrors
        cache / envelope / event counters into the registry (merging
        worker-local registries after parallel fan-out) and emits one
        :class:`~repro.obs.JoinTelemetry` record per resolved job into
        :attr:`telemetry`.  ``None`` (default) keeps the whole pipeline
        on the uninstrumented fast path.
    fault_policy:
        Optional :class:`~repro.engine.faults.FaultPolicy`.  When given,
        execution runs under a :class:`~repro.engine.faults.JobSupervisor`:
        per-job timeouts, bounded retry with seeded backoff jitter,
        poison-job quarantine (``Disposition.FAILED`` outcomes instead
        of a crashed batch) and degradation to in-process serial
        execution when the worker pool keeps dying.  ``None`` (default)
        keeps the unsupervised fast paths byte-for-byte unchanged.
    checkpoint:
        Optional :class:`~repro.engine.checkpoint.CheckpointLog` (or a
        path to one).  Completed joins are durably appended; on
        construction the log is loaded into the join cache (created if
        necessary) so a resumed run recomputes no finished pair.
    fault_injector:
        Optional :class:`~repro.engine.faults.FaultSpec` — the
        deterministic test hook that kills / hangs / raises on the k-th
        executed job.  Production code never sets this.
    """

    def __init__(
        self,
        communities: Sequence[Community],
        *,
        n_jobs: int = 1,
        screen: bool = True,
        cache: JoinResultCache | int | None = None,
        enforce_size_ratio: bool = True,
        metrics: MetricsRegistry | None = None,
        fault_policy: FaultPolicy | None = None,
        checkpoint: CheckpointLog | str | Path | None = None,
        fault_injector: FaultSpec | None = None,
    ) -> None:
        if n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
        self.communities = list(communities)
        self.n_jobs = int(n_jobs)
        self.screen = bool(screen)
        if isinstance(cache, int):
            cache = JoinResultCache(max_entries=cache)
        self.cache = cache
        self.enforce_size_ratio = bool(enforce_size_ratio)
        self.metrics = metrics
        self.fault_policy = fault_policy
        self.fault_injector = fault_injector
        #: Per-job telemetry records, appended by every ``run`` call
        #: while a registry is attached (empty otherwise).
        self.telemetry: list[JoinTelemetry] = []
        self.screened_count = 0
        self.computed_count = 0
        self.cached_count = 0
        self.failed_count = 0
        #: Joins restored from the checkpoint log at construction.
        self.resumed_count = 0
        #: Quarantine records of every ``run`` call, in arrival order.
        self.quarantined: list = []
        self._envelopes: dict[int, Envelope] = {}
        self._fingerprints: dict[int, str] = {}
        self._algorithms: dict[tuple, object] = {}
        self._store: SharedVectorStore | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._supervisor: JobSupervisor | None = None
        if checkpoint is not None and not isinstance(checkpoint, CheckpointLog):
            checkpoint = CheckpointLog(checkpoint)
        self._checkpoint = checkpoint
        if checkpoint is not None:
            entries = checkpoint.load()
            if self.cache is None:
                self.cache = JoinResultCache(
                    max_entries=max(256, 2 * len(entries) + 1)
                )
            for key, payload in entries.items():
                self.cache.put(key, CSJResult.from_dict(payload))
            self.resumed_count = len(entries)
        if metrics is not None and self.cache is not None and self.cache.metrics is None:
            self.cache.metrics = metrics

    # -- bookkeeping ---------------------------------------------------
    def envelope(self, index: int) -> Envelope:
        envelope = self._envelopes.get(index)
        if envelope is None:
            envelope = community_envelope(self.communities[index])
            self._envelopes[index] = envelope
        return envelope

    def fingerprint(self, index: int) -> str:
        fingerprint = self._fingerprints.get(index)
        if fingerprint is None:
            fingerprint = community_fingerprint(self.communities[index])
            self._fingerprints[index] = fingerprint
        return fingerprint

    def _algorithm(self, job: PairJob):
        key = (job.method, job.epsilon, job.options)
        algorithm = self._algorithms.get(key)
        if algorithm is None:
            algorithm = get_algorithm(
                job.method, job.epsilon, **decoded_options(job.options)
            )
            self._algorithms[key] = algorithm
        return algorithm

    def _cache_key(self, job: PairJob) -> tuple[JoinKey, bool]:
        """Content key of the *oriented* pair plus the job's swap flag."""
        first = self.communities[job.first]
        second = self.communities[job.second]
        if first.n_users > second.n_users:
            oriented = (job.second, job.first)
            swapped = True
        else:
            oriented = (job.first, job.second)
            swapped = False
        key = join_key(
            self.fingerprint(oriented[0]),
            self.fingerprint(oriented[1]),
            job.epsilon,
            job.method,
            job.options,
        )
        return key, swapped

    def _screen_verdicts(self, jobs: list[PairJob]) -> list[bool] | None:
        """Vectorised envelope verdicts for long job lists, in job order.

        Gathers ``mins[first] - maxs[second]`` and the reverse per job —
        O(J·d), never a C x C square.  ``None`` means: use the scalar
        per-pair path (short list, screen off, or mixed dimensionalities,
        which the per-pair validation then rejects).  Verdicts are
        bit-identical to :func:`envelopes_separated` (the tests assert
        parity), and the caller bumps the same per-job counters.
        """
        if not self.screen or len(jobs) < VECTOR_SCREEN_MIN_JOBS:
            return None
        indices = sorted({index for job in jobs for index in (job.first, job.second)})
        envelopes = [self.envelope(index) for index in indices]
        if len({envelope.n_dims for envelope in envelopes}) != 1:
            return None
        mins, maxs = stack_envelopes(envelopes)
        rows = {index: row for row, index in enumerate(indices)}
        gather = np.array(
            [(rows[job.first], rows[job.second], job.epsilon) for job in jobs]
        )
        first, second, epsilon = gather[:, 0], gather[:, 1], gather[:, 2:]
        separated = ((mins[second] - maxs[first]) > epsilon).any(axis=1) | (
            (mins[first] - maxs[second]) > epsilon
        ).any(axis=1)
        return separated.tolist()

    def _zero_result(self, job: PairJob, engine: str = SCREEN_ENGINE) -> CSJResult:
        return zero_result(
            job.method,
            job.epsilon,
            self.communities[job.first].n_users,
            self.communities[job.second].n_users,
            engine=engine,
        )

    # -- execution -----------------------------------------------------
    def run(self, jobs: Iterable[PairJob]) -> list[PairOutcome]:
        """Resolve every job, preserving input order in the output."""
        jobs = list(jobs)
        outcomes: list[PairOutcome | None] = [None] * len(jobs)
        pending: list[tuple[int, PairJob, JoinKey | None]] = []
        with stage_timer(self.metrics, "batch.plan"):
            verdicts = self._screen_verdicts(jobs)
            for position, job in enumerate(jobs):
                first = self.communities[job.first]
                second = self.communities[job.second]
                # Raise dimension/size-ratio errors exactly like a direct join.
                _, _, swapped = validate_pair(
                    first, second, enforce_size_ratio=self.enforce_size_ratio
                )
                if job.method.strip().lower() not in ALGORITHMS:
                    raise UnknownAlgorithmError(job.method, tuple(ALGORITHMS))
                if self.screen:
                    if verdicts is not None:
                        separated = verdicts[position]
                        # Same counters the scalar path increments inside
                        # envelopes_separated — metric parity either way.
                        if self.metrics is not None:
                            self.metrics.inc("repro_engine_envelope_tests_total")
                            if separated:
                                self.metrics.inc(
                                    "repro_engine_envelope_separations_total"
                                )
                    else:
                        separated = envelopes_separated(
                            self.envelope(job.first),
                            self.envelope(job.second),
                            job.epsilon,
                            metrics=self.metrics,
                        )
                    if separated:
                        self.screened_count += 1
                        outcomes[position] = PairOutcome(
                            job,
                            Disposition.SCREENED,
                            self._zero_result(job),
                        )
                        continue
                key: JoinKey | None = None
                if self.cache is not None:
                    key, _ = self._cache_key(job)
                    cached = self.cache.get(key)
                    if cached is not None:
                        # The stored result is oriented; only the swap flag
                        # depends on the order this job named the pair in.
                        cached.swapped = swapped
                        self.cached_count += 1
                        outcomes[position] = PairOutcome(
                            job, Disposition.CACHED, cached
                        )
                        continue
                pending.append((position, job, key))

        if pending:
            with stage_timer(self.metrics, "batch.execute"):
                if self.fault_policy is not None:
                    computed = self._run_supervised(pending)
                elif self.n_jobs == 1 or len(pending) == 1:
                    computed = [(r, None) for r in self._run_serial(pending)]
                else:
                    computed = [(r, None) for r in self._run_parallel(pending)]
            for (position, job, key), (result, error) in zip(
                pending, computed
            ):
                if error is not None:
                    self.failed_count += 1
                    outcomes[position] = PairOutcome(
                        job,
                        Disposition.FAILED,
                        self._zero_result(job, QUARANTINE_ENGINE),
                        error=error,
                    )
                    continue
                self.computed_count += 1
                if self.cache is not None and key is not None:
                    self.cache.put(key, result)
                if self._checkpoint is not None and key is not None:
                    self._checkpoint.append(key, result)
                outcomes[position] = PairOutcome(job, Disposition.COMPUTED, result)
        assert all(outcome is not None for outcome in outcomes)
        if self.metrics is not None:
            for outcome in outcomes:
                self._observe(outcome)  # type: ignore[arg-type]
        return outcomes  # type: ignore[return-value]

    def _observe(self, outcome: PairOutcome) -> None:
        """Record one resolved job into the registry and telemetry log."""
        metrics = self.metrics
        assert metrics is not None
        job, result = outcome.job, outcome.result
        disposition = outcome.disposition.value
        metrics.inc("repro_engine_jobs_total", 1, disposition=disposition)
        self.telemetry.append(
            JoinTelemetry(
                first=job.first,
                second=job.second,
                method=job.method,
                epsilon=job.epsilon,
                disposition=disposition,
                similarity=result.similarity,
                n_matched=result.n_matched,
                size_b=result.size_b,
                size_a=result.size_a,
                swapped=result.swapped,
                screened=outcome.disposition is Disposition.SCREENED,
                cache_hit=outcome.disposition is Disposition.CACHED,
                events=result.events.as_dict(),
                pairs_examined=result.events.total,
                comparisons=result.events.comparisons,
                stage_seconds=dict(result.stage_seconds),
                elapsed_seconds=result.elapsed_seconds,
                engine=result.engine,
            )
        )

    def _run_serial(
        self, pending: list[tuple[int, PairJob, JoinKey | None]]
    ) -> list[CSJResult]:
        results = []
        for _, job, _ in pending:
            algorithm = self._algorithm(job)
            algorithm.metrics = self.metrics
            results.append(
                algorithm.join(
                    self.communities[job.first],
                    self.communities[job.second],
                    enforce_size_ratio=self.enforce_size_ratio,
                )
            )
        return results

    def _run_parallel(
        self, pending: list[tuple[int, PairJob, JoinKey | None]]
    ) -> list[CSJResult]:
        pool = self._ensure_pool()
        tasks = [
            (position, job.first, job.second, job.method, job.epsilon, job.options)
            for position, job, _ in pending
        ]
        workers = min(self.n_jobs, len(tasks))
        chunk_size = max(1, -(-len(tasks) // (workers * 4)))
        chunks = [
            tasks[start : start + chunk_size]
            for start in range(0, len(tasks), chunk_size)
        ]
        by_position: dict[int, CSJResult] = {}
        collect = self.metrics is not None
        futures = [
            pool.submit(_run_chunk, chunk, self.enforce_size_ratio, collect)
            for chunk in chunks
        ]
        for future in futures:
            entries, snapshot = future.result()
            for position, payload in entries:
                by_position[position] = CSJResult.from_dict(payload)
            if snapshot is not None:
                self.metrics.merge(snapshot)  # type: ignore[union-attr]
        return [by_position[position] for position, _, _ in pending]

    def _run_supervised(
        self, pending: list[tuple[int, PairJob, JoinKey | None]]
    ) -> list[tuple[CSJResult | None, str | None]]:
        """Execute ``pending`` under the job supervisor.

        Returns one ``(result, error)`` per pending entry: quarantined
        jobs come back as ``(None, message)``.  The supervisor instance
        is engine-scoped, so retry/timeout/quarantine counters and the
        degraded flag accumulate across ``run`` calls.

        Event-counter parity with a clean run is guaranteed on both
        paths: pool workers only ship their metrics snapshot alongside a
        *successful* result, and in-process attempts run against a
        scratch registry merged only on success — a failed attempt's
        partial MATCH/NO_MATCH events are discarded with it.
        """
        if self._supervisor is None:
            self._supervisor = JobSupervisor(self.fault_policy, metrics=self.metrics)
        supervisor = self._supervisor
        injector = self.fault_injector
        collect = self.metrics is not None
        tasks = [
            SupervisedTask(position=index, payload=job)
            for index, (_, job, _) in enumerate(pending)
        ]

        def run_inline(task: SupervisedTask, attempt: int) -> CSJResult:
            job = task.payload
            maybe_inject(injector, task.position, attempt, in_process=True)
            algorithm = self._algorithm(job)
            scratch = MetricsRegistry() if collect else None
            algorithm.metrics = scratch
            result = algorithm.join(
                self.communities[job.first],
                self.communities[job.second],
                enforce_size_ratio=self.enforce_size_ratio,
            )
            if scratch is not None:
                self.metrics.merge(scratch)  # type: ignore[union-attr]
            return result

        def submit(task: SupervisedTask, attempt: int) -> Future:
            job = task.payload
            pool = self._ensure_pool()
            return pool.submit(
                _run_supervised_job,
                task.position,
                job.first,
                job.second,
                job.method,
                job.epsilon,
                job.options,
                self.enforce_size_ratio,
                collect,
                attempt,
                injector,
            )

        report = supervisor.run(
            tasks,
            workers=min(self.n_jobs, len(tasks)),
            submit=None if self.n_jobs == 1 else submit,
            run_inline=run_inline,
            reset_pool=self._kill_pool,
        )
        self.quarantined.extend(report.quarantined)
        errors = {record.position: record.error for record in report.quarantined}
        out: list[tuple[CSJResult | None, str | None]] = []
        for index in range(len(pending)):
            if index in errors:
                out.append((None, errors[index]))
                continue
            value = report.results[index]
            if isinstance(value, CSJResult):
                out.append((value, None))
                continue
            payload, snapshot = value
            if snapshot is not None and self.metrics is not None:
                self.metrics.merge(snapshot)
            out.append((CSJResult.from_dict(payload), None))
        return out

    def _kill_pool(self) -> None:
        """Tear down the worker pool, terminating live workers.

        Used by the supervisor after a crash or hang: a hung worker
        never returns, so ``shutdown(wait=True)`` would deadlock — the
        processes are terminated first.  The shared store stays alive
        for the replacement pool.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                pass  # already dead or mid-teardown; nothing to reclaim
        pool.shutdown(wait=False, cancel_futures=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._store is None:
                self._store = SharedVectorStore(self.communities)
            methods = get_all_start_methods()
            context = get_context("fork" if "fork" in methods else "spawn")
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_jobs,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self._store.layout,),
            )
        return self._pool

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and release the shared store."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._checkpoint is not None:
            self._checkpoint.close()

    def stats(self) -> dict[str, object]:
        """Dispositions plus cache counters, for reports and logs."""
        stats: dict[str, object] = {
            "computed": self.computed_count,
            "screened": self.screened_count,
            "cached": self.cached_count,
            "failed": self.failed_count,
            "n_jobs": self.n_jobs,
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        if self._checkpoint is not None:
            stats["resumed"] = self.resumed_count
        if self._supervisor is not None:
            stats["faults"] = {
                "retries": self._supervisor.retries_total,
                "timeouts": self._supervisor.timeouts_total,
                "quarantined": self._supervisor.quarantined_total,
                "pool_resets": self._supervisor.pool_resets,
                "degraded": self._supervisor.degraded,
            }
        return stats

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        # Interpreter-teardown safety net: pool/shm may be half-dead and
        # raising from __del__ only prints noise.
        except Exception:  # repro-lint: disable=RL005
            pass
