"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Size of the two reference workloads (each a few milliseconds).
REFERENCE_ITERATIONS = 100_000
REFERENCE_ROUNDS = 2
_REFERENCE_ROWS = np.arange(160 * 8, dtype=np.int64).reshape(160, 8) % 50
#: Reference times of a calm host (2-core x86-64 VM, Python 3.11,
#: numpy 2.4): the scale that turns a set-up's cost in reference units
#: back into seconds for ``setup_s``.  Fixed, so it never moves a result.
NOMINAL_REFERENCE_S = {"python": 0.008, "numpy": 0.005, "mixed": 0.013}


@dataclass
class Report:
    """Outcome of one run: operations, wrong outputs, metrics, samples."""

    attempted: int = 0
    failed: int = 0
    #: One line per wrong or failed operation (printed, never timed).
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Sample count behind each metric that aggregates samples.
    samples: dict[str, int] = field(default_factory=dict)
    #: Extra human-readable facts printed before the result line.
    details: dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def reference_seconds(kind: str) -> float:
    """Wall time of a fixed reference workload: the host's current speed.

    The shared host this benchmark runs on changes speed by up to 2x
    within seconds, on either CPU, for minutes at a time.  Dividing a
    query's wall time by a reference workload's time, measured next to
    it, gives the query's cost in reference units, which moves far
    less with the host's speed.  The host slows interpreted code and
    numpy kernels differently, so ``kind`` picks the reference that
    matches the work that dominates a workload: ``"python"`` (an
    interpreted loop), ``"numpy"`` (a broadcast comparison like the
    join kernels') or ``"mixed"`` (both, back to back, for work that
    interleaves the two).
    """
    started = time.perf_counter()
    total = 0
    if kind in ("python", "mixed"):
        for value in range(REFERENCE_ITERATIONS):
            total += value * value
    if kind in ("numpy", "mixed"):
        for _ in range(REFERENCE_ROUNDS):
            gaps = np.abs(_REFERENCE_ROWS[:, None, :] - _REFERENCE_ROWS[None, :, :] - 1)
            total += int((gaps.max(axis=2) <= 1).sum())
    return time.perf_counter() - started


def timed_against_reference(kind: str, call) -> tuple[object, float, float]:
    """Run ``call()``; return its result, wall time and the reference time.

    The reference runs just before and just after the call, and the
    mean of the two is returned, so the pair gives the call's cost in
    reference units while the host runs at one speed.
    """
    before = reference_seconds(kind)
    started = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - started
    return result, seconds, (before + reference_seconds(kind)) / 2


def normalised_setup_s(kind: str, runs: list[tuple[float, float]]) -> float:
    """Median set-up time in seconds on a host at nominal reference speed.

    ``runs`` holds (wall seconds, reference seconds) per set-up.  Each
    set-up's cost in reference units is scaled by the reference's
    nominal time, so ``setup_s`` reads as seconds but moves with the
    program, not with the host's speed of the moment.
    """
    return NOMINAL_REFERENCE_S[kind] * median(
        [seconds / reference for seconds, reference in runs]
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
