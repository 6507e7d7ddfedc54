"""End-to-end and per-layer benchmark of the CSJ ranking system.

Usage, from the repository root::

    python3 perfbench/run.py --workload sparse-fleet --seed 1 --seconds 12 --trace 0

Workloads: ``sparse-fleet``, ``dense-fleet``, ``shard-fleet`` and
``serve-mixed`` (see ``perfbench/README.md``).  Inputs are generated
from ``--seed``; the program under test is imported from ``src/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``; names and units are read from there).  The lines
before it stamp the environment and list every metric with its unit
and sample count.  The exit code is 1 when any output was wrong or any
operation failed, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sparse-fleet", "dense-fleet", "shard-fleet", "serve-mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unavailable (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over ``src/`` Python files: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program not found: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            import serve_mixed

            report = serve_mixed.run(args.seed, args.seconds, bool(args.trace), work_dir)
        else:
            import batch

            report = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace), work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = config["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    unknown = set(report.metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        # A layer the workload does not use reports no metric: it reads 0.
        unused = sorted(set(units) - set(report.metrics))
        report.details["unused_layers"] = unused
        report.metrics.update(dict.fromkeys(unused, 0.0))
    else:
        # Constant 1.0 on any run that exits 0: a wrong or failed
        # operation already makes the run exit 1.
        report.metrics["success_rate"] = (report.attempted - report.failed) / max(
            1, report.attempted
        )
        report.samples["success_rate"] = report.attempted
        missing = set(units) - set(report.metrics)
        if missing:
            raise RuntimeError(f"workload did not report {sorted(missing)}")

    print("# env " + json.dumps(environment(args), sort_keys=True))
    print("# details " + json.dumps(report.details, sort_keys=True))
    print("# samples " + json.dumps(report.samples, sort_keys=True))
    for message in report.errors[:20]:
        print(f"# WRONG {message}")
    for name, unit in units.items():
        print(f"# {name:32s} {report.metrics[name]:14.6f} {unit}")
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": float(report.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
