"""Which public functions the traced run wraps, and the per-layer metrics.

Every wrapper sits on a public function of the program; counters come
from what the layers already expose: ``PersistentCatalog.io_stats()``
around catalog calls, ``BatchEngine.stats()`` around ``run``, the
events of each ``CSJResult`` a join returns, and the ``reconnects``
counter of ``ReconnectingClient``.  Shard coordinator counters are read
from the ``MetricsRegistry`` the benchmark passes as ``metrics=``, and
serve counters from the server's ``stats`` op (see ``serve_mixed``).
``apps.topk.pairs_ranked`` counts the calls of ``apps.topk._ratio_ok``,
the size-ratio test ``top_k_pairs`` makes once per pair of its C²
``joinable`` list.

The metric names and units are those of ``BENCHMARK.json``; ``run.py``
reads them from there.
"""

from __future__ import annotations

import statistics

from spans import Span, Tracer, covered_within, layer_self_times

#: Span name -> the per-layer self-time metric it feeds.
_SELF_TIME = {
    "apps.topk": "apps.topk.self_s",
    "catalog.candidate_pairs": "catalog.candidate_pairs_s",
    "catalog.window_candidates": "catalog.window_s",
    "catalog.metadata": "catalog.metadata_s",
    "catalog.get": "catalog.get_s",
    "engine.run": "engine.run_self_s",
    "algorithms.join": "algorithms.join_s",
    "core.delta.refresh": "core.delta.refresh_s",
    "serve.execute.join": "serve.execute_s",
    "serve.execute.update": "serve.execute_s",
    "serve.execute.topk": "serve.execute_s",
}

#: Counts that must repeat exactly for a given seed (checked by
#: ``check.py counts``).  Serve cache and delta counts depend on how the
#: two connections interleave, so only request counts qualify there.
DETERMINISTIC = {
    "batch": (
        "apps.topk.pairs_ranked",
        "catalog.rows_scanned",
        "catalog.survivors",
        "catalog.vector_loads",
        "engine.jobs",
        "engine.computed",
        "engine.screened",
        "engine.cached",
        "engine.failed",
        "algorithms.joins",
        "algorithms.events.min_prune",
        "algorithms.events.max_prune",
        "algorithms.events.no_overlap",
        "algorithms.events.no_match",
        "algorithms.events.match",
        "shard.rpcs",
        "shard.retries",
        "shard.pairs_deduped",
        "shard.pairs_merged",
    ),
    "serve": (
        "serve.admitted",
        "serve.shed",
        "serve.join_samples",
        "serve.update_samples",
        "serve.topk_samples",
    ),
}

_IO_KEYS = {
    "catalog.rows_scanned": "repro_catalog_rows_scanned_total",
    "catalog.survivors": "repro_catalog_survivors_total",
    "catalog.vector_loads": "repro_catalog_vector_loads_total",
}
_ENGINE_KEYS = ("computed", "screened", "cached", "failed")
_EVENTS = ("min_prune", "max_prune", "no_overlap", "no_match", "match")


def instrument(tracer: Tracer) -> None:
    """Wrap the public layer entry points the benchmark drives."""
    import repro.apps.topk as topk
    from repro.algorithms.base import CSJAlgorithm
    from repro.catalog import PersistentCatalog
    from repro.engine import BatchEngine
    from repro.serve import ReconnectingClient
    from repro.shard import ShardCoordinator

    def io_before(args: tuple) -> dict:
        return args[0].io_stats()

    def io_after(args: tuple, _result: object, before: dict) -> None:
        after = args[0].io_stats()
        for name, key in _IO_KEYS.items():
            tracer.count(name, after[key] - before[key])

    for method, span in (
        ("candidate_pairs", "catalog.candidate_pairs"),
        ("window_candidates", "catalog.window_candidates"),
        ("get", "catalog.get"),
    ):
        tracer.wrap(
            PersistentCatalog, method, span, before=io_before, after=io_after
        )
    tracer.wrap(PersistentCatalog, "metadata", "catalog.metadata")

    def engine_before(args: tuple) -> dict:
        return args[0].stats()

    def engine_after(args: tuple, outcomes: list, before: dict) -> None:
        after = args[0].stats()
        tracer.count("engine.jobs", len(outcomes))
        for key in _ENGINE_KEYS:
            tracer.count(f"engine.{key}", after[key] - before[key])

    tracer.wrap(
        BatchEngine, "run", "engine.run", before=engine_before, after=engine_after
    )

    def join_after(_args: tuple, result, _state: object) -> None:
        tracer.count("algorithms.joins")
        for event in _EVENTS:
            tracer.count(f"algorithms.events.{event}", getattr(result.events, event))

    tracer.wrap(CSJAlgorithm, "join", "algorithms.join", after=join_after)

    def rpc_before(args: tuple) -> int:
        return args[0].reconnects

    def rpc_after(args: tuple, _result: object, before: int) -> None:
        tracer.count("shard.rpcs")
        tracer.count("shard.retries", args[0].reconnects - before)

    tracer.wrap(
        ReconnectingClient,
        "request",
        lambda args: f"serve.rpc.{args[1]}",
        before=rpc_before,
        after=rpc_after,
    )
    tracer.wrap(ShardCoordinator, "top_k", "shard.top_k")
    # A private helper, so a later refactor may remove it; the count
    # then reads 0 rather than breaking the traced run.
    if hasattr(topk, "_ratio_ok"):
        tracer.wrap_counter(topk, "_ratio_ok", "apps.topk.pairs_ranked")


def instrument_server(tracer: Tracer) -> None:
    """Server-process wrappers: op execution, delta sync, joins, engine."""
    import repro.serve.handlers as handlers
    import repro.serve.server as server
    from repro.serve.store import DeltaJoinPool

    instrument(tracer)
    for op in ("join", "update", "topk"):
        tracer.wrap(server, f"execute_{op}_work", f"serve.execute.{op}")
    tracer.wrap(handlers, "top_k_pairs", "apps.topk")
    tracer.wrap(DeltaJoinPool, "refresh", "core.delta.refresh")


def span_metrics(tracer: Tracer, spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation self times and join latency over ``spans``."""
    metrics = dict.fromkeys(_SELF_TIME.values(), 0.0)
    ops = max(1, n_ops)
    for name, seconds in layer_self_times(tracer, spans).items():
        if name in _SELF_TIME:
            metrics[_SELF_TIME[name]] += seconds / ops
    joins = [span[3] - span[2] for span in spans if span[1] == "algorithms.join"]
    if joins:
        metrics["algorithms.join_p50_ms"] = 1000.0 * statistics.median(joins)
    rpc_seconds = {"candidates": 0.0, "join_batch": 0.0}
    for span in spans:
        op = span[1].removeprefix("serve.rpc.")
        if op in rpc_seconds:
            rpc_seconds[op] += span[3] - span[2]
    metrics["shard.rpc.candidates_s"] = rpc_seconds["candidates"] / ops
    metrics["shard.rpc.join_batch_s"] = rpc_seconds["join_batch"] / ops
    # The coordinator's own time: top_k minus the stretches in which an
    # RPC was in flight (those run on the coordinator's fan-out threads).
    rpc_names = {"serve.rpc.candidates", "serve.rpc.join_batch"}
    own = sum(
        (span[3] - span[2]) - covered_within(spans, rpc_names, span[2], span[3])
        for span in spans
        if span[1] == "shard.top_k"
    )
    metrics["shard.top_k_s"] = own / ops
    metrics["bench.traced_ops"] = float(n_ops)
    return metrics


def count_metrics(counts: dict[str, float], n_ops: int) -> dict[str, float]:
    """Per-operation work counts plus the ratios derived from them."""
    ops = max(1, n_ops)
    metrics = {name: value / ops for name, value in counts.items()}
    scanned = counts.get("catalog.rows_scanned", 0)
    jobs = counts.get("engine.jobs", 0)
    compared = counts.get("algorithms.events.match", 0) + counts.get(
        "algorithms.events.no_match", 0
    )
    metrics["catalog.survivor_yield"] = (
        counts.get("catalog.survivors", 0) / scanned if scanned else 0.0
    )
    metrics["engine.screen_ratio"] = (
        counts.get("engine.screened", 0) / jobs if jobs else 0.0
    )
    metrics["algorithms.match_yield"] = (
        counts.get("algorithms.events.match", 0) / compared if compared else 0.0
    )
    return metrics
