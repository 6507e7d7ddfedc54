"""Seeded input generators: every workload's data comes from here.

The seed changes the noise in the data and the order of requests, never
the shape of the work: community counts, sizes and band structure are
fixed, so two seeds cost the same to rank and run-to-run spread
measures the host, not the inputs.
"""

from __future__ import annotations

import numpy as np

# -- sparse-fleet / shard-fleet ----------------------------------------
#: 64 groups of 4 communities, 8 users, 2 dims.  Group g sits at
#: [g*STEP, (GROUPS-1-g)*STEP] per user, a constant row sum, so the
#: catalog's (sum_min, sum_max) window prunes no pair and the candidate
#: scan reads every index row; the per-dimension check then keeps only
#: the 384 intra-group pairs, whose joins are tiny.
SPARSE_GROUPS = 64
SPARSE_PER_GROUP = 4
SPARSE_USERS = 8
SPARSE_STEP = 100
SPARSE_NOISE = 8
#: Query epsilons, cycled; both keep exactly the intra-group pairs and
#: stay within the shard plan's epsilon.
SPARSE_EPSILONS = (2, 4)
SHARD_PLAN_EPSILON = 4
SHARDS = 2

# -- dense-fleet ---------------------------------------------------------
#: 6 activity bands of 8 large communities.  Members of a band perturb
#: one archetype by -1/0/+1 per counter, so at epsilon 1 intra-band
#: pairs match for real; bands sit DENSE_GAP apart, so the envelope
#: screen proves the 960 inter-band pairs zero and joins dominate.
DENSE_BANDS = 6
DENSE_PER_BAND = 8
DENSE_USERS = 160
DENSE_DIMS = 8
DENSE_GAP = 500
DENSE_HIGH = 20
DENSE_EPSILONS = (1,)

#: Pairs returned by every top-k query.
TOP_K = 10


def sparse_fleet(seed: int) -> dict[str, np.ndarray]:
    """Constant-row-sum groups keyed by community name."""
    rng = np.random.default_rng(seed)
    fleet = {}
    for group in range(SPARSE_GROUPS):
        base = np.array(
            [group * SPARSE_STEP, (SPARSE_GROUPS - 1 - group) * SPARSE_STEP]
        )
        for member in range(SPARSE_PER_GROUP):
            noise = rng.integers(0, SPARSE_NOISE, size=(SPARSE_USERS, 2))
            fleet[f"g{group:04d}-m{member}"] = base + noise
    return fleet


def banded_fleet(
    seed: int, bands: int, per_band: int, users: int, dims: int
) -> dict[str, np.ndarray]:
    """Communities perturbing one archetype per well-separated band."""
    rng = np.random.default_rng(seed)
    fleet = {}
    for band in range(bands):
        base = rng.integers(0, DENSE_HIGH, size=(users, dims)) + DENSE_GAP * band
        for member in range(per_band):
            noise = rng.integers(-1, 2, size=(users, dims))
            fleet[f"b{band}m{member}"] = np.maximum(base + noise, 0)
    return fleet


def dense_fleet(seed: int) -> dict[str, np.ndarray]:
    return banded_fleet(seed, DENSE_BANDS, DENSE_PER_BAND, DENSE_USERS, DENSE_DIMS)

# -- serve-mixed -----------------------------------------------------------
#: 8 bands of 6 communities (120 users, 6 dims); only the 120 intra-band
#: pairs are requested, more than the server's join cache holds.
SERVE_BANDS = 8
SERVE_PER_BAND = 6
SERVE_USERS = 120
SERVE_DIMS = 6
SERVE_EPSILON = 1
SERVE_CACHE_ENTRIES = 48
#: Open-loop arrival rate (requests/second) and the request mix.
SERVE_RATE = 40.0
SERVE_MIX = (("join", 0.60), ("update", 0.35), ("topk", 0.05))
#: Zipf exponent of the pair-popularity skew.
SERVE_ZIPF = 1.1
SERVE_TOPK_NAMES = 3
SERVE_TOPK_K = 2


def serve_fleet(seed: int) -> dict[str, np.ndarray]:
    return banded_fleet(seed, SERVE_BANDS, SERVE_PER_BAND, SERVE_USERS, SERVE_DIMS)


def serve_schedule(seed: int, n_requests: int) -> list[tuple[str, dict]]:
    """The open loop's requests, in arrival order: ``(op, args)``."""
    rng = np.random.default_rng(seed + 1)
    names = [f"b{band}m{member}" for band in range(SERVE_BANDS) for member in range(SERVE_PER_BAND)]
    pairs = [
        (names[band * SERVE_PER_BAND + i], names[band * SERVE_PER_BAND + j])
        for band in range(SERVE_BANDS)
        for i in range(SERVE_PER_BAND)
        for j in range(i + 1, SERVE_PER_BAND)
    ]
    # Popularity rank of each pair is a seeded permutation.
    order = rng.permutation(len(pairs))
    weights = 1.0 / np.arange(1, len(pairs) + 1) ** SERVE_ZIPF
    weights /= weights.sum()
    ops = [op for op, _ in SERVE_MIX]
    shares = np.array([share for _, share in SERVE_MIX])
    schedule: list[tuple[str, dict]] = []
    for op in rng.choice(ops, size=n_requests, p=shares / shares.sum()):
        if op == "topk":
            band = int(rng.integers(SERVE_BANDS))
            members = rng.choice(SERVE_PER_BAND, size=SERVE_TOPK_NAMES, replace=False)
            schedule.append(
                (
                    "topk",
                    {
                        "epsilon": SERVE_EPSILON,
                        "k": SERVE_TOPK_K,
                        "names": sorted(f"b{band}m{int(m)}" for m in members),
                    },
                )
            )
            continue
        first, second = pairs[order[rng.choice(len(pairs), p=weights)]]
        args: dict = {"first": first, "second": second, "epsilon": SERVE_EPSILON}
        if op == "update":
            args["mutation"] = {
                "name": first if rng.random() < 0.5 else second,
                "action": "record_like",
                "user_id": int(rng.integers(SERVE_USERS)),
                "dimension": int(rng.integers(SERVE_DIMS)),
                "count": int(rng.integers(1, 4)),
            }
        schedule.append((str(op), args))
    return schedule
