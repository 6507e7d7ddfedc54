"""Acceptance checks over repeated benchmark runs.

``spread``: run every workload once per seed (tracing off) and report,
for each end-to-end metric, the median and the interquartile range as a
share of the median, against a third of the metric's bound from
``BENCHMARK.json``::

    python3 perfbench/check.py spread --seeds 1-10 --save set1.json

``compare``: compare the medians of two saved ``spread`` sets and
require each metric of the second not to be worse than the first by
more than the metric's bound::

    python3 perfbench/check.py compare set1.json set2.json

``counts``: run one workload twice with the same seed (tracing on) and
require the deterministic per-layer work counts to match exactly::

    python3 perfbench/check.py counts --workload sparse-fleet --seed 7

Each exits non-zero when its check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import DETERMINISTIC  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(args: argparse.Namespace) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seconds = args.seconds or config["run_seconds"]
    failed = False
    saved: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        values = saved.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()
            ), flush=True)
        for metric in config["end_to_end"]:
            series = values[metric["name"]]
            mid = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = mid
            share = (q3 - q1) / mid if mid else float("inf")
            limit = metric["bound"] / 3
            verdict = "ok" if share < limit else "WIDE"
            failed |= verdict != "ok"
            print(
                f"  {workload:14s} {metric['name']:14s} median={mid:.6g} "
                f"iqr/median={share:.4f} (< {limit:.4f}) {verdict}",
                flush=True,
            )
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 1 if failed else 0


def compare(args: argparse.Namespace) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = (json.loads(Path(path).read_text()) for path in args.sets)
    failed = False
    for workload in first:
        for metric in config["end_to_end"]:
            old = statistics.median(first[workload][metric["name"]])
            new = statistics.median(second[workload][metric["name"]])
            worse = (new - old) / old
            if metric["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            failed |= verdict != "ok"
            print(
                f"  {workload:14s} {metric['name']:14s} {old:.6g} -> {new:.6g} "
                f"worse by {worse:+.4f} (bound {metric['bound']}) {verdict}"
            )
    return 1 if failed else 0


def counts(args: argparse.Namespace) -> int:
    kind = "serve" if args.workload == "serve-mixed" else "batch"
    runs = [
        run_once(args.workload, args.seed, args.seconds, 1)["metrics"]
        for _ in range(2)
    ]
    mismatched = [
        name
        for name in DETERMINISTIC[kind]
        if runs[0][name]["value"] != runs[1][name]["value"]
    ]
    for name in DETERMINISTIC[kind]:
        print(f"  {name:32s} {runs[0][name]['value']:14.2f} {runs[1][name]['value']:14.2f}")
    print("counts identical" if not mismatched else f"counts differ: {mismatched}")
    return 1 if mismatched else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    spread_parser = commands.add_parser("spread")
    spread_parser.add_argument("--workload", action="append")
    spread_parser.add_argument("--seeds", default="1-10")
    spread_parser.add_argument("--seconds", type=float)
    spread_parser.add_argument("--save", help="write every value to this JSON file")
    compare_parser = commands.add_parser("compare")
    compare_parser.add_argument("sets", nargs=2)
    counts_parser = commands.add_parser("counts")
    counts_parser.add_argument("--workload", required=True)
    counts_parser.add_argument("--seed", type=int, default=7)
    counts_parser.add_argument("--seconds", type=float, default=6)
    args = parser.parse_args(argv)
    return {"spread": spread, "compare": compare, "counts": counts}[args.command](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
