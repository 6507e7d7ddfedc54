"""serve-mixed: an open loop of join / update / topk requests to one server.

The server runs in its own process (2 executor threads, delta
maintenance on, a join cache smaller than the requested pair set).  This
process is the generator: requests are due at a fixed rate, two threads
each own one connection and send the next due request as soon as they
are free, and every latency is measured from the moment the request was
due, so a stall also delays the requests queued behind it.  Requests go
out in bursts of ``BURST``; between bursts, with no request in flight
and the server idle, the generator times the reference workload (see
``report.reference_seconds``), so the reference never competes with the
load it normalises.  Each request is charged the mean reference time of
the gaps before and after its burst.

``setup_s`` is server start plus registering the fleet over the wire,
in a server process that is already running: the interpreter's start
and imports are not part of it.  ``query_cost`` is the median over
``join`` requests of latency / reference time.  The raw latencies of
every op, medians and 95th percentiles, are printed with their sample
counts.

After the loop, served answers are recomputed locally: the generator
knows every mutation it sent and the store version each one produced,
so it can rebuild any community at the version a response names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import layers
from report import (
    Report,
    median,
    normalised_setup_s,
    peak_rss_mb,
    percentile,
    reference_seconds,
    timed_against_reference,
)
from spans import Tracer

from repro.algorithms import get_algorithm
from repro.algorithms.baseline import ExBaseline
from repro.apps import top_k_pairs
from repro.core.types import Community
from repro.serve import ServeClient, ServeError

SETUP_REPEATS = 21
#: Requests per open-loop burst (0.75 s at 40 requests/s), and reference
#: runs in each idle gap between bursts.
BURST = 30
REFERENCES_PER_GAP = 3
#: Fewest samples behind a reported 95th percentile.
P95_MIN_SAMPLES = 200
#: Responses recomputed locally per op (topk: all of them).
VERIFY_SAMPLE = 60
OPS = ("join", "update", "topk")


def serve_main(trace_path: str | None) -> None:
    """Server process body: serve until told to stop, then report.

    Commands arrive as JSON lines on stdin and every reply is one JSON
    line on stdout: ``start`` starts one more (empty) server and replies
    with its address, ``drop`` stops the server on a port, ``trace``
    switches recording and ``stop`` stops every server and ends the
    process.  With ``trace_path`` set, the layer
    wrappers are installed (recording only between the ``trace`` on/off
    commands) and the spans are written there at exit.
    """
    from repro.serve import ServeConfig, ServerThread

    def reply(value: object) -> None:
        print(json.dumps(value), flush=True)

    tracer = Tracer()
    if trace_path is not None:
        layers.instrument_server(tracer)
    config = ServeConfig(
        executor_threads=2,
        delta_maintenance=True,
        cache_entries=inputs.SERVE_CACHE_ENTRIES,
    )
    servers: dict[int, ServerThread] = {}
    try:
        reply("ready")
        while True:
            command, argument = json.loads(sys.stdin.readline())
            if command == "stop":
                break
            if command == "start":
                server = ServerThread(config)
                address = server.start()
                servers[address[1]] = server
                reply(address)
                continue
            if command == "drop":
                servers.pop(argument).stop()
            else:
                tracer.enabled = bool(argument)
            reply("ok")
    finally:
        for server in servers.values():
            server.stop()
        tracer.uninstall()
    metrics = layers.span_metrics(tracer, tracer.spans, int(argument))
    metrics.update(layers.count_metrics(dict(tracer.counts), 1))
    if trace_path is not None:
        tracer.dump(Path(trace_path))
    reply(
        {
            "peak_rss_mb": peak_rss_mb(),
            "layers": metrics,
            "violations": tracer.nesting_violations(),
        }
    )


class Server:
    """Handle on one server process, driven over its stdin / stdout."""

    def __init__(self, trace_path: Path | None) -> None:
        src = Path(__file__).resolve().parent.parent / "src"
        command = [sys.executable, __file__]
        if trace_path is not None:
            command.append(str(trace_path))
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            self._receive()
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def start(self) -> tuple[str, int]:
        """Start one more (empty) server in the process; returns its address."""
        return tuple(self.command("start", None))

    def drop(self, address: tuple[str, int]) -> None:
        """Stop the server at ``address``."""
        self.command("drop", address[1])

    def _receive(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server process exited unexpectedly")
        return json.loads(line)

    def command(self, name: str, argument: object):
        self.process.stdin.write(json.dumps([name, argument]) + "\n")
        self.process.stdin.flush()
        return self._receive()

    def stop(self, n_ops: int = 0) -> dict:
        """Stop the server and wait for its process; returns its report."""
        try:
            return self.command("stop", n_ops)
        finally:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()


def register_fleet(address: tuple[str, int], fleet: dict[str, np.ndarray]) -> None:
    with ServeClient(*address) as client:
        for name, vectors in fleet.items():
            client.register(name, vectors)


def open_loop(
    address: tuple[str, int],
    schedule: list[tuple[str, dict]],
    rate: float,
    in_gap=None,
) -> tuple[list[dict], list[float]]:
    """Send ``schedule`` at ``rate`` over two connections; time each request.

    The schedule goes out in bursts of ``BURST`` requests.  Before each
    burst and after the last, once every request sent so far has been
    answered, the reference workload runs ``REFERENCES_PER_GAP`` times
    and then ``in_gap(gap, gaps)`` is called, if given.  Each record's
    ``reference`` is the mean reference time of the gaps around its
    burst.  Returns the request records and every reference time.
    """
    records: list[dict] = [{} for _ in schedule]
    references: list[float] = []
    gap_references: list[float] = []
    starts = range(0, len(schedule), BURST)
    clients = [ServeClient(*address) for _ in range(2)]
    try:
        for gap in range(len(starts) + 1):
            timed = [reference_seconds("python") for _ in range(REFERENCES_PER_GAP)]
            references.extend(timed)
            gap_references.append(median(timed))
            if in_gap is not None:
                in_gap(gap, len(starts))
            if gap < len(starts):
                first = starts[gap]
                last = min(first + BURST, len(schedule))
                _burst(clients, schedule, records, first, last, rate)
    finally:
        for client in clients:
            client.close()
    for index, record in enumerate(records):
        burst = index // BURST
        record["reference"] = (gap_references[burst] + gap_references[burst + 1]) / 2
    return records, references


def join_cost(records: list[dict]) -> float:
    """Median over successful joins of latency in reference units."""
    return median(
        [
            r["latency"] / r["reference"]
            for r in records
            if r["op"] == "join" and r["error"] is None
        ]
    )


def _burst(
    clients: list[ServeClient],
    schedule: list[tuple[str, dict]],
    records: list[dict],
    first: int,
    last: int,
    rate: float,
) -> None:
    """Send ``schedule[first:last]`` open loop; return when all are answered."""
    lock = threading.Lock()
    cursor = iter(range(first, last))
    start = time.perf_counter() + 0.01

    def connection(client: ServeClient) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op, args = schedule[index]
            due = start + (index - first) / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            response, error = None, None
            try:
                response = client.request(op, args)
            except ServeError as exc:
                error = f"{exc.code}: {exc}"
            done = time.perf_counter()
            records[index] = {
                "op": op,
                "args": args,
                "latency": done - due,
                "lateness": sent - due,
                "response": response,
                "error": error,
            }

    threads = [threading.Thread(target=connection, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop threads did not finish within 120 s")


def latency_metrics(records: list[dict], report: Report) -> dict[str, float]:
    """Per-op p50 / p95 (ms) with sample counts; p95 only past 200 samples."""
    metrics: dict[str, float] = {}
    for op in OPS:
        values = [r["latency"] for r in records if r["op"] == op and r["error"] is None]
        report.samples[f"serve.{op}"] = len(values)
        metrics[f"serve.{op}_samples"] = float(len(values))
        metrics[f"serve.{op}_p50_ms"] = 1000.0 * median(values) if values else 0.0
        metrics[f"serve.{op}_p95_ms"] = (
            1000.0 * percentile(values, 0.95) if len(values) >= P95_MIN_SAMPLES else 0.0
        )
    return metrics


class History:
    """Rebuilds any community at any store version from sent mutations."""

    def __init__(self, fleet: dict[str, np.ndarray]) -> None:
        self.fleet = fleet
        self.mutations: dict[str, dict[int, dict]] = {name: {} for name in fleet}

    def record(self, records: list[dict]) -> None:
        for record in records:
            if record["op"] == "update" and record["response"] is not None:
                applied = record["response"]["mutation"]
                self.mutations[applied["name"]][applied["version"]] = record["args"][
                    "mutation"
                ]

    def community(self, name: str, version: int) -> Community | None:
        """The community as of ``version``; ``None`` if a mutation is unknown."""
        vectors = self.fleet[name].astype(np.int64).copy()
        log = self.mutations[name]
        for step in range(1, version + 1):
            mutation = log.get(step)
            if mutation is None:
                return None
            vectors[mutation["user_id"], mutation["dimension"]] += mutation["count"]
        return Community(name, vectors)


def verify(records: list[dict], history: History, seed: int, report: Report) -> None:
    """Recompute a seeded sample of served answers from the history."""
    rng = np.random.default_rng(seed + 2)
    joiner = get_algorithm("ex-minmax", inputs.SERVE_EPSILON)
    updater = ExBaseline(inputs.SERVE_EPSILON, matcher="hopcroft_karp")
    for op in OPS:
        done = [r for r in records if r["op"] == op and r["response"] is not None]
        if op != "topk" and len(done) > VERIFY_SAMPLE:
            done = [done[i] for i in sorted(rng.choice(len(done), VERIFY_SAMPLE, replace=False))]
        for record in done:
            problem = _check(op, record, history, joiner, updater)
            if problem is not None:
                report.fail(f"{op} {record['args']}: {problem}")


def _check(op, record, history, joiner, updater) -> str | None:
    response, args = record["response"], record["args"]
    if op == "topk":
        communities = [
            history.community(name, response["versions"][name]) for name in args["names"]
        ]
        if any(c is None for c in communities):
            return "a mutation behind this answer is unknown"
        expected = [
            (s.name_b, s.name_a, s.similarity, s.result.n_matched)
            for s in top_k_pairs(communities, epsilon=args["epsilon"], k=args["k"])
        ]
        got = [
            (e["name_b"], e["name_a"], e["similarity"], e["n_matched"])
            for e in response["ranking"]
        ]
        return None if got == expected else f"ranking {got} != {expected}"
    if op == "join":
        versions = {
            args["first"]: response["first"]["version"],
            args["second"]: response["second"]["version"],
        }
        served = response["result"]["similarity"]
        algorithm = joiner
    else:
        versions = response["versions"]
        served = response["similarity"]
        algorithm = updater
    first = history.community(args["first"], versions[args["first"]])
    second = history.community(args["second"], versions[args["second"]])
    if first is None or second is None:
        return "a mutation behind this answer is unknown"
    if op == "update":
        first, second = sorted((first, second), key=lambda c: c.name)
    expected = algorithm.join(first, second).similarity
    return None if served == expected else f"similarity {served!r} != {expected!r}"


def _stats(address: tuple[str, int]) -> dict:
    with ServeClient(*address) as client:
        return client.stats()


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "serve.admitted": after["admission"]["admitted_total"]
        - before["admission"]["admitted_total"],
        "serve.shed": after["admission"]["shed_total"] - before["admission"]["shed_total"],
        "serve.deadline_exceeded": after["deadline_exceeded_total"]
        - before["deadline_exceeded_total"],
        "serve.cache.hits": hits,
        "serve.cache.misses": misses,
        "serve.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.evictions": after["cache"]["evictions"]
        - before["cache"]["evictions"],
        "core.delta.updates": after["delta"]["updates"] - before["delta"]["updates"],
        "core.delta.rebuilds": after["delta"]["rebuilds"] - before["delta"]["rebuilds"],
    }


def run(seed: int, seconds: float, trace: bool, work_dir: Path) -> Report:
    report = Report()
    fleet = inputs.serve_fleet(seed)
    n_requests = int(round(inputs.SERVE_RATE * seconds))
    schedule = inputs.serve_schedule(seed, n_requests * (2 if trace else 1))
    trace_path = work_dir.parent / "traces" / f"serve-mixed-seed{seed}.jsonl"
    server = Server(trace_path if trace else None)
    try:

        def setup() -> tuple[str, int]:
            address = server.start()
            register_fleet(address, fleet)
            return address

        address, *first = timed_against_reference("python", setup)
        setups = [tuple(first)]

        def spare_setup(gap: int, gaps: int) -> None:
            # Spread the other set-ups evenly over the untraced phase.
            if len(setups) < SETUP_REPEATS and gap * (SETUP_REPEATS - 1) >= (
                len(setups) - 1
            ) * gaps:
                spare, *timing = timed_against_reference("python", setup)
                server.drop(spare)
                setups.append(tuple(timing))

        before = _stats(address)
        records, references = open_loop(
            address, schedule[:n_requests], inputs.SERVE_RATE, spare_setup
        )
        while len(setups) < SETUP_REPEATS:
            spare_setup(1, 1)
        phase_stats = _stats_delta(before, _stats(address))
        traced: list[dict] = []
        if trace:
            server.command("trace", True)
            before = _stats(address)
            traced, _ = open_loop(
                address, schedule[n_requests:], inputs.SERVE_RATE
            )
            phase_stats = _stats_delta(before, _stats(address))
            server.command("trace", False)
        final = server.stop(len(traced))
        server = None
    finally:
        if server is not None:
            server.stop()
    history = History(fleet)
    history.record(records + traced)
    for record in records + traced:
        report.attempted += 1
        if record["error"] is not None:
            report.fail(f"{record['op']} {record['args']}: {record['error']}")
    verify(records + traced, history, seed, report)
    untraced_metrics = latency_metrics(records, report)
    lateness = [r["lateness"] for r in records]
    report.details.update(
        setup_runs_s=[round(seconds, 4) for seconds, _ in setups],
        setup_references_s=[round(reference, 6) for _, reference in setups],
        requests=len(records),
        rate_per_s=inputs.SERVE_RATE,
        latency_ms={
            name: round(value, 3)
            for name, value in untraced_metrics.items()
            if not name.endswith("_samples")
        },
        lateness_p95_ms=round(1000.0 * percentile(lateness, 0.95), 3),
        reference_p50_s=round(median(references), 6),
        server_stats=phase_stats,
    )
    untraced_cost = join_cost(records)
    if not trace:
        report.metrics.update(
            setup_s=normalised_setup_s("python", setups),
            query_cost=untraced_cost,
            peak_rss_mb=final["peak_rss_mb"],
        )
        report.samples.update(setup_s=len(setups), peak_rss_mb=1)
        report.samples["query_cost"] = report.samples["serve.join"]
        return report
    metrics = dict(final["layers"])
    metrics.update(phase_stats)
    metrics.update(untraced_metrics)
    metrics["bench.lateness_p95_ms"] = 1000.0 * percentile(lateness, 0.95)
    metrics["bench.trace_overhead_pct"] = 100.0 * (join_cost(traced) / untraced_cost - 1)
    metrics["bench.traced_ops"] = float(len(traced))
    report.metrics.update(metrics)
    report.samples["layers"] = len(traced)
    if final["violations"]:
        report.fail(f"{final['violations']} server spans whose children outlast them")
    return report


if __name__ == "__main__":
    serve_main(sys.argv[1] if len(sys.argv) > 1 else None)
