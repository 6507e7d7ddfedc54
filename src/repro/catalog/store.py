"""SQLite-backed persistent community catalog with indexed screening.

A platform-scale CSJ deployment keeps thousands of communities on disk
and asks, over and over, one cheap question before any expensive join:
*which communities can have nonzero similarity with X at epsilon e?*
The in-memory engine answers it with the per-dimension min/max envelope
screen (:mod:`repro.engine.envelope`); this module pushes that screen
into a real index so it runs without touching any vectors.

Layout — three tables in one WAL-mode database:

* ``communities`` — one row per community: metadata, the dtype-aware
  content fingerprint, the per-dimension Min/Max envelope (two int64
  blobs of ``d`` values) and two *scalar* aggregates ``sum_min`` /
  ``sum_max`` (the envelope summed over dimensions) that make the
  screen indexable;
* ``vectors`` — the ``(n, d)`` counter matrix as a blob, in its own
  table so metadata/envelope reads never page vector data in.  Vectors
  load lazily, one community at a time, only when a join actually
  needs them;
* ``similarity_cache`` — join results keyed by ``(pair, method,
  epsilon, options, both content fingerprints)``, written
  transactionally so a crash mid-write can never corrupt the store
  (the WAL journal rolls the torn transaction back) and two handles on
  the same database never clobber each other's entries.

The single-probe window query (:meth:`PersistentCatalog.window_candidates`)
runs in two stages, both vector-free:

1. **Indexed range scan.**  Envelopes ``A`` and ``B`` survive the
   screen only if *every* dimension ``t`` satisfies
   ``min_A[t] - max_B[t] <= eps`` and ``min_B[t] - max_A[t] <= eps``.
   Summing each inequality over the ``d`` dimensions gives a necessary
   scalar condition::

       sum_min_A <= sum_max_B + eps * d
       sum_min_B <= sum_max_A + eps * d

   which SQLite evaluates as a range scan over the
   ``(sum_min, sum_max)`` index — candidate rows are located in the
   index without a full table walk.
2. **Exact refinement.**  The scalar condition is necessary but not
   sufficient, so the scanned rows' envelope blobs (``d`` integers
   each, still no vectors) are refined with the exact per-dimension
   test of :func:`~repro.engine.envelope.envelopes_separated`.  The
   surviving set is therefore *identical* to the in-memory envelope
   screen — the tests assert it pair for pair.

The all-pairs screen (:meth:`PersistentCatalog.candidate_pairs`) does
not use the window index: balanced row sums make the summed condition
prune nothing, so a self-join would return C^2 rows.  It reads the C
envelope rows once instead and runs the output-sensitive sweep of
:func:`~repro.engine.envelope.envelope_candidates`, whose cost follows
the survivors.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..algorithms import get_algorithm
from ..core.errors import ValidationError
from ..core.types import Community
from ..engine.cache import canonical_options
from ..engine.envelope import (
    Envelope,
    community_envelope,
    envelope_pairs,
    envelopes_separated,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.registry import MetricsRegistry

__all__ = [
    "CatalogRecord",
    "CatalogSimilarity",
    "PersistentCatalog",
    "CATALOG_COUNTERS",
    "init_catalog_metrics",
]

#: int64 little-endian — the on-disk encoding of envelopes and vectors.
_INT64 = np.dtype("<i8")

#: Characters rejected in catalog keys.  ``/`` and ``\`` for parity
#: with the filesystem shim, ``|`` because the shim's legacy cache keys
#: are pipe-joined and an embedded delimiter forges cache entries.
_FORBIDDEN_KEY_CHARS = "/\\|"

#: Counter family of the persistent catalog, zero-initialised at every
#: metrics init site so scrapes expose the series before the first use.
CATALOG_COUNTERS = (
    "repro_catalog_registrations_total",
    "repro_catalog_removals_total",
    "repro_catalog_window_queries_total",
    "repro_catalog_rows_scanned_total",
    "repro_catalog_survivors_total",
    "repro_catalog_vector_loads_total",
    "repro_catalog_cache_hits_total",
    "repro_catalog_cache_misses_total",
    "repro_catalog_cache_writes_total",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS communities (
    key         TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    category    TEXT NOT NULL DEFAULT '',
    page_id     INTEGER NOT NULL DEFAULT 0,
    n_users     INTEGER NOT NULL,
    n_dims      INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    env_min     BLOB NOT NULL,
    env_max     BLOB NOT NULL,
    sum_min     INTEGER NOT NULL,
    sum_max     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_communities_window
    ON communities(sum_min, sum_max);
CREATE TABLE IF NOT EXISTS vectors (
    key   TEXT PRIMARY KEY,
    dtype TEXT NOT NULL,
    n     INTEGER NOT NULL,
    d     INTEGER NOT NULL,
    data  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS similarity_cache (
    key_b         TEXT NOT NULL,
    key_a         TEXT NOT NULL,
    method        TEXT NOT NULL,
    epsilon       INTEGER NOT NULL,
    options       TEXT NOT NULL DEFAULT '()',
    fingerprint_b TEXT NOT NULL,
    fingerprint_a TEXT NOT NULL,
    similarity    REAL NOT NULL,
    n_matched     INTEGER NOT NULL,
    created_at    REAL NOT NULL,
    PRIMARY KEY (
        key_b, key_a, method, epsilon, options,
        fingerprint_b, fingerprint_a
    )
);
"""

#: Keys bound per ``IN (...)`` query, under SQLite's variable limit.
_KEY_BATCH = 500

#: ``communities`` columns behind one :class:`CatalogRecord`.
_RECORD_COLUMNS = "key, name, category, page_id, n_users, n_dims, fingerprint"

#: Stage-1 candidate query: the indexed range scan of the docstring.
#: ``?`` order: n_dims, probe sum_max + eps*d, probe sum_min - eps*d.
#: No ORDER BY — survivors are sorted in Python so the planner is free
#: to drive the scan from the (sum_min, sum_max) window index.
_WINDOW_SQL = (
    "SELECT key, env_min, env_max FROM communities "
    "WHERE n_dims = ? AND sum_min <= ? AND sum_max >= ?"
)


def init_catalog_metrics(metrics: "MetricsRegistry") -> None:
    """Create the ``repro_catalog_*`` family at zero in ``metrics``."""
    for name in CATALOG_COUNTERS:
        metrics.inc(name, 0)


@dataclass(frozen=True)
class CatalogRecord:
    """One community's metadata row — everything but the vectors."""

    key: str
    name: str
    category: str
    page_id: int
    n_users: int
    n_dims: int
    fingerprint: str


@dataclass(frozen=True)
class CatalogSimilarity:
    """One (possibly cached) join outcome, as the catalog reports it."""

    key_b: str
    key_a: str
    method: str
    epsilon: int
    similarity: float
    n_matched: int
    from_cache: bool


def _validate_key(key: str) -> str:
    if not isinstance(key, str) or not key:
        raise ValidationError("catalog key must be a non-empty string")
    if any(ch in key for ch in _FORBIDDEN_KEY_CHARS):
        raise ValidationError(f"invalid catalog key {key!r}")
    return key


def _encode_envelope(bounds: np.ndarray) -> bytes:
    return np.ascontiguousarray(bounds, dtype=_INT64).tobytes()


def _decode_envelope(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype=_INT64).astype(np.int64, copy=False)


def _record(row: tuple) -> CatalogRecord:
    """A :class:`CatalogRecord` from one ``_RECORD_COLUMNS`` row."""
    key, name, category, page_id, n_users, n_dims, fingerprint = row
    return CatalogRecord(
        key=key,
        name=name,
        category=category,
        page_id=int(page_id),
        n_users=int(n_users),
        n_dims=int(n_dims),
        fingerprint=fingerprint,
    )


class PersistentCatalog:
    """SQLite-backed store of communities, envelopes and join results.

    Parameters
    ----------
    path:
        Database file (created on demand); ``":memory:"`` is accepted
        for throwaway catalogs.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; every
        internal counter is mirrored into the ``repro_catalog_*``
        family.
    timeout:
        Seconds a writer waits on a locked database before giving up
        (two handles on one file coordinate through WAL + this).

    One handle owns one connection, serialised by an internal lock, so
    a handle may be shared between threads; separate handles (including
    ones in other processes) coordinate through SQLite itself.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        metrics: "MetricsRegistry | None" = None,
        timeout: float = 30.0,
    ) -> None:
        self.path = Path(path) if str(path) != ":memory:" else path
        self.metrics = metrics
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            str(path),
            timeout=timeout,
            check_same_thread=False,
            isolation_level=None,  # explicit BEGIN/COMMIT below
        )
        self._counters = dict.fromkeys(CATALOG_COUNTERS, 0)
        with self._lock:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.executescript(_SCHEMA)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "PersistentCatalog":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Bump a ``CATALOG_COUNTERS`` counter (mirrors ``MetricsRegistry.inc``).

        Callers hold ``self._lock``; ``MetricsRegistry`` is not
        thread-safe, so the mirror write happens under the same lock.
        """
        self._counters[name] += amount
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _write(self, statements: list[tuple[str, tuple]]) -> None:
        """Run statements as one immediate (write-locked) transaction."""
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                for sql, parameters in statements:
                    self._connection.execute(sql, parameters)
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            self._connection.execute("COMMIT")

    def _community_row(self, key: str, community: Community) -> tuple:
        from .fingerprint import content_fingerprint

        envelope = community_envelope(community)
        return (
            key,
            community.name or key,
            community.category,
            int(community.page_id),
            community.n_users,
            community.n_dims,
            content_fingerprint(community.vectors),
            _encode_envelope(envelope.mins),
            _encode_envelope(envelope.maxs),
            int(envelope.mins.sum()),
            int(envelope.maxs.sum()),
        )

    @staticmethod
    def _vector_row(key: str, community: Community) -> tuple:
        matrix = np.ascontiguousarray(community.vectors, dtype=_INT64)
        return (
            key,
            _INT64.str,
            community.n_users,
            community.n_dims,
            matrix.tobytes(),
        )

    def _registration_statements(
        self, key: str, community: Community
    ) -> list[tuple[str, tuple]]:
        return [
            (
                "INSERT OR REPLACE INTO communities "
                "(key, name, category, page_id, n_users, n_dims, "
                " fingerprint, env_min, env_max, sum_min, sum_max) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                self._community_row(key, community),
            ),
            (
                "INSERT OR REPLACE INTO vectors (key, dtype, n, d, data) "
                "VALUES (?, ?, ?, ?, ?)",
                self._vector_row(key, community),
            ),
            # Results computed from the replaced content are now
            # unreachable (the fingerprint changed); drop them so the
            # cache only ever holds entries its communities can serve.
            (
                "DELETE FROM similarity_cache WHERE key_b = ? OR key_a = ?",
                (key, key),
            ),
        ]

    # -- registration ----------------------------------------------------
    def register(self, key: str, community: Community) -> None:
        """Store (or replace) a community under ``key``."""
        _validate_key(key)
        self._write(self._registration_statements(key, community))
        with self._lock:
            self.inc("repro_catalog_registrations_total")

    def register_many(self, communities: Mapping[str, Community]) -> None:
        """Bulk-register in one transaction (import and bench path)."""
        statements: list[tuple[str, tuple]] = []
        for key, community in communities.items():
            _validate_key(key)
            statements.extend(self._registration_statements(key, community))
        self._write(statements)
        with self._lock:
            self.inc("repro_catalog_registrations_total", len(communities))

    def remove(self, key: str) -> None:
        """Delete a community, its vectors and every cache entry of it."""
        _validate_key(key)
        with self._lock:
            if key not in self:
                raise ValidationError(f"no community registered under {key!r}")
            self._write(
                [
                    ("DELETE FROM communities WHERE key = ?", (key,)),
                    ("DELETE FROM vectors WHERE key = ?", (key,)),
                    (
                        "DELETE FROM similarity_cache "
                        "WHERE key_b = ? OR key_a = ?",
                        (key, key),
                    ),
                ]
            )
            self.inc("repro_catalog_removals_total")

    # -- metadata reads (never touch vectors) ----------------------------
    def keys(self) -> list[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT key FROM communities ORDER BY key"
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM communities"
            ).fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM communities WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def metadata(self, key: str) -> CatalogRecord:
        """One community's metadata row; no vector bytes are read."""
        with self._lock:
            row = self._connection.execute(
                f"SELECT {_RECORD_COLUMNS} FROM communities WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            raise ValidationError(f"no community registered under {key!r}")
        return _record(row)

    def records(self, keys: Sequence[str] | None = None) -> dict[str, CatalogRecord]:
        """Metadata rows of ``keys`` (default: every community), in key order.

        One ``ORDER BY key`` pass (``IN``-batched for explicit keys)
        instead of one :meth:`metadata` query per key; no vector bytes
        are read.  A missing key raises ``ValidationError``.
        """
        records = {
            row[0]: _record(row) for row in self._keyed_rows(_RECORD_COLUMNS, keys)
        }
        if keys is not None:
            for key in sorted(set(keys)):
                if key not in records:
                    raise ValidationError(f"no community registered under {key!r}")
        return records

    def envelope(self, key: str) -> Envelope:
        """The stored per-dimension Min/Max envelope of one community."""
        with self._lock:
            row = self._connection.execute(
                "SELECT env_min, env_max FROM communities WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            raise ValidationError(f"no community registered under {key!r}")
        return Envelope(
            mins=_decode_envelope(row[0]), maxs=_decode_envelope(row[1])
        )

    # -- vector reads ----------------------------------------------------
    def get(self, key: str) -> Community:
        """Load one community's vectors (the only vector-touching read).

        One query reads the metadata row and its vectors together.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT c.name, c.category, c.page_id, v.dtype, v.n, v.d, v.data "
                "FROM communities AS c LEFT JOIN vectors AS v ON v.key = c.key "
                "WHERE c.key = ?",
                (key,),
            ).fetchone()
            if row is None:
                raise ValidationError(f"no community registered under {key!r}")
            name, category, page_id, dtype, n, d, data = row
            if data is None:
                raise ValidationError(f"no vectors stored under {key!r}")
            self.inc("repro_catalog_vector_loads_total")
        matrix = np.frombuffer(data, dtype=np.dtype(dtype)).reshape(
            int(n), int(d)
        )
        return Community(
            name=name, vectors=matrix, category=category, page_id=int(page_id)
        )

    # -- the candidate-window query --------------------------------------
    def _refine(
        self,
        probe_mins: np.ndarray,
        probe_maxs: np.ndarray,
        rows: list[tuple],
        epsilon: int,
    ) -> list[str]:
        """Stage 2: exact per-dimension screen over scanned index rows."""
        if not rows:
            return []
        keys = [row[0] for row in rows]
        mins = np.vstack([_decode_envelope(row[1]) for row in rows])
        maxs = np.vstack([_decode_envelope(row[2]) for row in rows])
        separated = ((mins - probe_maxs[None, :]) > epsilon).any(axis=1) | (
            (probe_mins[None, :] - maxs) > epsilon
        ).any(axis=1)
        return [key for key, out in zip(keys, separated) if not out]

    def window_candidates(
        self,
        envelope: Envelope,
        epsilon: int,
        *,
        exclude: str | None = None,
    ) -> list[str]:
        """Keys that survive the envelope screen against ``envelope``.

        Runs entirely on the ``communities`` table — metadata and
        envelope columns, never vectors.  The result is exactly
        ``{k : not envelopes_separated(envelope, envelope_of(k), eps)}``.
        """
        epsilon = int(epsilon)
        if epsilon < 0:
            raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
        d = envelope.n_dims
        slack = epsilon * d
        probe_sum_min = int(envelope.mins.sum())
        probe_sum_max = int(envelope.maxs.sum())
        with self._lock:
            rows = self._connection.execute(
                _WINDOW_SQL, (d, probe_sum_max + slack, probe_sum_min - slack)
            ).fetchall()
            self.inc("repro_catalog_window_queries_total")
            self.inc("repro_catalog_rows_scanned_total", len(rows))
            survivors = self._refine(
                envelope.mins, envelope.maxs, rows, epsilon
            )
            if exclude is not None:
                survivors = [key for key in survivors if key != exclude]
            self.inc("repro_catalog_survivors_total", len(survivors))
        return sorted(survivors)

    def candidate_keys(self, key: str, epsilon: int) -> list[str]:
        """Which communities can have nonzero similarity with ``key``?

        The probe's own envelope comes from its metadata row, so the
        whole query — probe included — loads no vectors.
        """
        return self.window_candidates(
            self.envelope(key), epsilon, exclude=key
        )

    def envelopes(self, keys: Sequence[str] | None = None) -> dict[str, Envelope]:
        """Stored envelopes of ``keys`` (default: every community).

        One pass over the ``communities`` rows — no vectors — counted
        into ``repro_catalog_rows_scanned_total`` (one per row read).
        """
        rows = self._keyed_rows("key, env_min, env_max", keys)
        with self._lock:
            self.inc("repro_catalog_rows_scanned_total", len(rows))
        return {
            key: Envelope(
                mins=_decode_envelope(env_min), maxs=_decode_envelope(env_max)
            )
            for key, env_min, env_max in rows
        }

    def _keyed_rows(
        self, columns: str, keys: Sequence[str] | None
    ) -> list[tuple]:
        """``columns`` of the ``communities`` rows of ``keys``, in key order.

        ``None`` reads every row in one pass; explicit keys are bound
        ``_KEY_BATCH`` at a time.  Missing keys are simply absent.
        """
        sql = f"SELECT {columns} FROM communities"
        if keys is None:
            queries: list[tuple[str, list[str]]] = [(f"{sql} ORDER BY key", [])]
        else:
            unique = sorted(set(keys))
            queries = []
            for start in range(0, len(unique), _KEY_BATCH):
                batch = unique[start : start + _KEY_BATCH]
                marks = ",".join("?" * len(batch))
                queries.append((f"{sql} WHERE key IN ({marks}) ORDER BY key", batch))
        rows: list[tuple] = []
        with self._lock:
            for query, parameters in queries:
                rows.extend(self._connection.execute(query, parameters).fetchall())
        return rows

    def candidate_pairs(
        self, epsilon: int, *, keys: Sequence[str] | None = None
    ) -> list[tuple[str, str]]:
        """All unordered pairs surviving the envelope screen, sorted.

        Reads the C envelope rows once (:meth:`envelopes`) and runs the
        output-sensitive sweep of
        :func:`~repro.engine.envelope.envelope_candidates` per
        dimensionality — O(C) rows scanned, never C^2.  ``keys``
        restricts the sweep to a subset; no vectors load.
        """
        epsilon = int(epsilon)
        if epsilon < 0:
            raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
        envelopes = self.envelopes(keys)
        pairs = envelope_pairs(envelopes, epsilon)
        with self._lock:
            self.inc("repro_catalog_window_queries_total")
            self.inc("repro_catalog_survivors_total", len(pairs))
        return pairs

    def pair_screened(self, key_b: str, key_a: str, epsilon: int) -> bool:
        """True when the stored envelopes prove zero similarity."""
        return envelopes_separated(
            self.envelope(key_b), self.envelope(key_a), int(epsilon)
        )

    def window_query_plan(self) -> str:
        """``EXPLAIN QUERY PLAN`` of the stage-1 scan (index audit)."""
        with self._lock:
            rows = self._connection.execute(
                "EXPLAIN QUERY PLAN " + _WINDOW_SQL, (0, 0, 0)
            ).fetchall()
        return "\n".join(str(row[-1]) for row in rows)

    # -- cached similarity -----------------------------------------------
    def similarity(
        self,
        key_b: str,
        key_a: str,
        *,
        epsilon: int,
        method: str = "ex-minmax",
        **options: object,
    ) -> CatalogSimilarity:
        """Join two registered communities, reusing cached results.

        The cache key embeds both content fingerprints, so replacing
        either community invalidates its entries; a hit is served from
        the metadata and cache tables alone — zero vector reads.
        """
        epsilon = int(epsilon)
        record_b = self.metadata(key_b)
        record_a = self.metadata(key_a)
        options_repr = repr(canonical_options(options))
        lookup = (
            key_b,
            key_a,
            method,
            epsilon,
            options_repr,
            record_b.fingerprint,
            record_a.fingerprint,
        )
        with self._lock:
            row = self._connection.execute(
                "SELECT similarity, n_matched FROM similarity_cache "
                "WHERE key_b = ? AND key_a = ? AND method = ? "
                "AND epsilon = ? AND options = ? "
                "AND fingerprint_b = ? AND fingerprint_a = ?",
                lookup,
            ).fetchone()
            if row is not None:
                self.inc("repro_catalog_cache_hits_total")
                return CatalogSimilarity(
                    key_b=key_b,
                    key_a=key_a,
                    method=method,
                    epsilon=epsilon,
                    similarity=float(row[0]),
                    n_matched=int(row[1]),
                    from_cache=True,
                )
            self.inc("repro_catalog_cache_misses_total")
        result = get_algorithm(method, epsilon, **options).join(
            self.get(key_b), self.get(key_a)
        )
        self._write(
            [
                (
                    "INSERT OR REPLACE INTO similarity_cache "
                    "(key_b, key_a, method, epsilon, options, "
                    " fingerprint_b, fingerprint_a, similarity, n_matched, "
                    " created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    lookup + (result.similarity, result.n_matched, time.time()),
                )
            ]
        )
        with self._lock:
            self.inc("repro_catalog_cache_writes_total")
        return CatalogSimilarity(
            key_b=key_b,
            key_a=key_a,
            method=method,
            epsilon=epsilon,
            similarity=result.similarity,
            n_matched=result.n_matched,
            from_cache=False,
        )

    def cache_size(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM similarity_cache"
            ).fetchone()
        return int(count)

    def clear_cache(self) -> None:
        self._write([("DELETE FROM similarity_cache", ())])

    # -- interop with the filesystem catalog ------------------------------
    def import_directory(self, root: str | Path) -> list[str]:
        """Import every community of a ``CommunityCatalog`` directory."""
        from ..datasets.catalog import CommunityCatalog

        legacy = CommunityCatalog(root)
        imported = {key: legacy.get(key) for key in legacy.keys()}
        if imported:
            self.register_many(imported)
        return sorted(imported)

    def export_directory(
        self, root: str | Path, *, keys: Iterable[str] | None = None
    ) -> list[str]:
        """Export communities into a ``CommunityCatalog`` directory."""
        from ..datasets.catalog import CommunityCatalog

        legacy = CommunityCatalog(root)
        exported = sorted(keys) if keys is not None else self.keys()
        for key in exported:
            legacy.register(key, self.get(key))
        return exported

    # -- accounting --------------------------------------------------------
    def io_stats(self) -> dict[str, int]:
        """Snapshot of the handle's IO/query counters (plain ints)."""
        with self._lock:
            return dict(self._counters)

    def storage_stats(self) -> dict[str, int]:
        """On-disk accounting: row counts and total vector bytes."""
        with self._lock:
            (communities,) = self._connection.execute(
                "SELECT COUNT(*) FROM communities"
            ).fetchone()
            (vector_bytes,) = self._connection.execute(
                "SELECT COALESCE(SUM(LENGTH(data)), 0) FROM vectors"
            ).fetchone()
            (cache_entries,) = self._connection.execute(
                "SELECT COUNT(*) FROM similarity_cache"
            ).fetchone()
        return {
            "communities": int(communities),
            "vector_bytes": int(vector_bytes),
            "cache_entries": int(cache_entries),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PersistentCatalog(path={str(self.path)!r}, communities={len(self)})"
