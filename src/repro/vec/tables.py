"""Array-shaped sampler tables for the vectorized backend.

The message kernel asks the samplers scalar questions (``is y in I(s, x)?``)
millions of times; the vectorized engine instead wants whole tables as
``(rows, d)`` integer matrices it can gather from.  :class:`VecSamplerTables`
provides them, bit-identical to the Python samplers, through two paths:

* **sampler path** (small ``n``): rows are copied straight out of the shared
  :class:`~repro.core.config.SamplerSuite`, so identity with the message
  backend is true by construction (and the suite's LRU tables stay warm for
  any message-backend run of the same config);
* **hash path** (large ``n``): rows come from
  :mod:`repro.vec.hashing`'s batched blake2b, which
  ``tests/test_vec_hashing.py`` pins bit-identical to the samplers' draws.

Storage is the ``n = 10⁶`` part of the story (ARCHITECTURE.md "vec memory
model"): member rows are held **bit-packed** at ``ceil(log2 n)`` bits per id
(:mod:`repro.vec.bitpack`), ~3× smaller than the int64 rows the engine used
to keep, and unpacked on demand into int32 gather rows.  A byte-budgeted LRU
caches fully unpacked tables for hot strings — at ``n = 10⁵`` the whole
``H`` table fits the default budget and gathers stay as fast as the old
materialised tables, while at ``n = 10⁶`` the same code streams chunked
unpacks instead of holding 160 MB per string.

Providers are cached per process (keyed by the sampler parameters) so bench
repetitions and sweep workers reuse the expensive full tables, mirroring
``AERConfig.shared_samplers``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AERConfig
from repro.samplers.tables import LRUCache
from repro.vec.bitpack import bits_for, pack_rows, packed_width, unpack_rows
# batch_digest_mod is bound here too: the benchmark's tracer (perfbench/layers.py)
# wraps both hashing entry points by their names in this module
from repro.vec.hashing import batch_digest_mod, encode_parts, first_distinct_rows

#: below this system size the exact Python samplers are cheaper than spinning
#: up the batched-hash machinery (both paths produce identical rows)
NUMPY_MIN_N = 1024

#: process-local provider cache (packed tables are ~100 MB per string at
#: ``n = 10⁶``; keeping a few providers warm is the point)
_PROVIDER_CACHE: LRUCache = LRUCache(4)

#: default byte budget of the unpacked-table LRU (the engine overrides it
#: from its per-run ``vec_memory_mb`` contract)
DEFAULT_UNPACKED_CACHE_BYTES = 64 << 20

#: table rows materialised per build/stream chunk — bounds the transient
#: int64 row block and uint8 bit planes of the batched-hash build to a few
#: tens of MB
_BUILD_CHUNK = 1 << 15


class _PackedFamilyTable:
    """Lazily row-materialised, bit-packed member matrix for ``(family, string)``."""

    __slots__ = ("packed", "built", "size", "bits")

    def __init__(self, n: int, size: int, bits: int) -> None:
        self.size = size
        self.bits = bits
        self.packed = np.zeros((n, packed_width(size, bits)), dtype=np.uint8)
        self.built = np.zeros(n, dtype=bool)


class VecSamplerTables:
    """Quorum/poll membership as integer matrices, shared across runs.

    ``family`` is ``"I"`` (push quorums) or ``"H"`` (pull quorums); poll
    rows (``J``) are keyed by ``(node, label)`` pairs.  All rows are sorted
    tuples of distinct members — the samplers' canonical representation.
    """

    def __init__(self, config: AERConfig, use_numpy: Optional[bool] = None) -> None:
        self.config = config
        self.n = config.n
        self.size = min(config.quorum_size, config.n)
        self.bits = bits_for(config.n)
        self.use_numpy = config.n >= NUMPY_MIN_N if use_numpy is None else use_numpy
        self._suite = config.shared_samplers()
        self._tables: Dict[Tuple[str, str], _PackedFamilyTable] = {}
        self._poll_rows: Dict[Tuple[int, int], np.ndarray] = {}
        #: byte-budgeted LRU of fully unpacked (family, string) tables
        self._unpacked: "OrderedDict[Tuple[str, str], np.ndarray]" = OrderedDict()
        self._unpacked_bytes = 0
        self.unpacked_budget = DEFAULT_UNPACKED_CACHE_BYTES

    # ------------------------------------------------------------------
    # unpacked-table LRU
    # ------------------------------------------------------------------
    def set_unpacked_budget(self, budget_bytes: int) -> None:
        """Re-bound the unpacked-table cache (the engine's memory contract)."""
        self.unpacked_budget = max(0, int(budget_bytes))
        self._evict_unpacked()

    def _evict_unpacked(self) -> None:
        while self._unpacked and self._unpacked_bytes > self.unpacked_budget:
            _, evicted = self._unpacked.popitem(last=False)
            self._unpacked_bytes -= evicted.nbytes

    def _cached_unpacked(self, key: Tuple[str, str]) -> Optional[np.ndarray]:
        cached = self._unpacked.get(key)
        if cached is not None:
            self._unpacked.move_to_end(key)
        return cached

    def _maybe_promote(self, key: Tuple[str, str], table: _PackedFamilyTable) -> Optional[np.ndarray]:
        """Unpack a fully built table into the LRU when it fits the budget."""
        full_bytes = self.n * self.size * 4
        if full_bytes > self.unpacked_budget or not table.built.all():
            return None
        full = unpack_rows(table.packed, self.size, self.bits)
        self._unpacked[key] = full
        self._unpacked_bytes += full.nbytes
        self._evict_unpacked()
        return full

    # ------------------------------------------------------------------
    # quorum families I and H
    # ------------------------------------------------------------------
    def _sampler(self, family: str):
        return self._suite.push if family == "I" else self._suite.pull

    def _table(self, family: str, s: str) -> _PackedFamilyTable:
        key = (family, s)
        table = self._tables.get(key)
        if table is None:
            table = _PackedFamilyTable(self.n, self.size, self.bits)
            self._tables[key] = table
        return table

    def _build_rows(self, family: str, s: str, xs: np.ndarray) -> np.ndarray:
        """Member rows for ``xs`` straight from the samplers/hash (unpacked)."""
        if self.use_numpy:
            prefix = encode_parts(self.config.sampler_seed, family, s)
            return first_distinct_rows(prefix, [xs], self.size, self.n, dtype=np.int32)
        quorum = self._sampler(family).table(s).quorum
        rows = np.empty((len(xs), self.size), dtype=np.int64)
        for i, x in enumerate(xs.tolist()):
            rows[i] = quorum(int(x))
        return rows

    def ensure_rows(self, family: str, s: str, xs: np.ndarray) -> None:
        """Materialise the quorum rows for the nodes in ``xs`` (idempotent)."""
        table = self._table(family, s)
        missing = np.asarray(xs, dtype=np.int64)
        missing = np.unique(missing[~table.built[missing]])
        if len(missing) == 0:
            return
        for lo in range(0, len(missing), _BUILD_CHUNK):
            chunk = missing[lo : lo + _BUILD_CHUNK]
            rows = self._build_rows(family, s, chunk)
            table.packed[chunk] = pack_rows(rows, self.bits)
        table.built[missing] = True

    def ensure_all(self, family: str, s: str) -> None:
        """Materialise every row of one ``(family, string)`` table."""
        table = self._table(family, s)
        if not table.built.all():
            self.ensure_rows(family, s, np.arange(self.n))

    def rows(self, family: str, s: str, xs: np.ndarray) -> np.ndarray:
        """Member rows for the nodes in ``xs`` as an ``(len(xs), d)`` matrix."""
        key = (family, s)
        idx = np.asarray(xs, dtype=np.int64)
        cached = self._cached_unpacked(key)
        if cached is not None:
            return cached[idx]
        self.ensure_rows(family, s, idx)
        table = self._tables[key]
        promoted = self._maybe_promote(key, table)
        if promoted is not None:
            return promoted[idx]
        return unpack_rows(table.packed[idx], self.size, self.bits)

    def iter_rows(
        self, family: str, s: str, chunk_rows: int
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Stream the complete table as ``(start, (k, d) rows)`` chunks.

        Builds every row first (packed), then unpacks ``chunk_rows`` at a
        time — the full unpacked matrix never exists unless it already sits
        in the LRU.
        """
        self.ensure_all(family, s)
        key = (family, s)
        cached = self._cached_unpacked(key)
        if cached is None:
            cached = self._maybe_promote(key, self._tables[key])
        step = max(1, int(chunk_rows))
        for start in range(0, self.n, step):
            stop = min(self.n, start + step)
            if cached is not None:
                yield start, cached[start:stop]
            else:
                packed = self._tables[key].packed[start:stop]
                yield start, unpack_rows(packed, self.size, self.bits)

    def full(self, family: str, s: str) -> np.ndarray:
        """The complete ``(n, d)`` member matrix for one string (unpacked)."""
        self.ensure_all(family, s)
        key = (family, s)
        cached = self._cached_unpacked(key)
        if cached is None:
            cached = self._maybe_promote(key, self._tables[key])
        if cached is not None:
            return cached
        return unpack_rows(self._tables[key].packed, self.size, self.bits)

    def packed_nbytes(self) -> int:
        """Resident bytes of the packed member tables (tests/instrumentation)."""
        return sum(table.packed.nbytes for table in self._tables.values())

    # ------------------------------------------------------------------
    # poll family J
    # ------------------------------------------------------------------
    def poll_rows(
        self, xs: Sequence[int], labels: Sequence[int], cache: bool = True
    ) -> np.ndarray:
        """Poll-list rows ``J(x, r)`` for the given pairs.

        ``cache=True`` memoises per ``(x, label)`` pair — right for the
        scalar adversary/dead-poll paths that revisit pairs.  The engine's
        bulk launches pass ``cache=False``: every pair is fresh there, and
        an unbounded per-pair dict would dominate memory at ``n = 10⁶``.
        """
        xs = np.asarray(xs, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if not cache:
            return self._poll_rows_raw(xs, labels).astype(np.int32, copy=False)
        out = np.empty((len(xs), self.size), dtype=np.int32)
        missing = []
        for i, (x, r) in enumerate(zip(xs.tolist(), labels.tolist())):
            row = self._poll_rows.get((x, r))
            if row is None:
                missing.append(i)
            else:
                out[i] = row
        if missing:
            idx = np.asarray(missing, dtype=np.int64)
            out[idx] = self._poll_rows_raw(xs[idx], labels[idx])
            for i in missing:
                self._poll_rows[(int(xs[i]), int(labels[i]))] = out[i].copy()
        return out

    def _poll_rows_raw(self, xs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        if self.use_numpy:
            prefix = encode_parts(self.config.sampler_seed, self._suite.poll.name)
            return first_distinct_rows(
                prefix, [xs, labels], self.size, self.n, dtype=np.int32
            )
        poll_list = self._suite.poll.poll_list
        rows = np.empty((len(xs), self.size), dtype=np.int64)
        for i in range(len(xs)):
            rows[i] = poll_list(int(xs[i]), int(labels[i]))
        return rows


def tables_for(config: AERConfig, use_numpy: Optional[bool] = None) -> VecSamplerTables:
    """The process-local cached table provider for ``config``.

    Mirrors :meth:`AERConfig.shared_samplers`: tables are pure functions of
    the sampler parameters, so reuse across runs is behaviour-neutral and
    buys warmth for benchmark repetitions and sweep workers.
    """
    key = (
        config.n,
        config.quorum_size,
        config.label_space,
        config.sampler_seed,
        use_numpy,
    )
    cached = _PROVIDER_CACHE.get(key)
    if cached is None:
        cached = VecSamplerTables(config, use_numpy=use_numpy)
        _PROVIDER_CACHE.put(key, cached)
    return cached


def prewarm_vec_tables(config: AERConfig) -> VecSamplerTables:
    """Instantiate (and cache) the vectorized table provider for ``config``.

    Sweep workers call this from their initializer, next to the existing
    :func:`repro.core.config.prewarm_samplers`, so that per-spec runs in the
    pool start from a warm provider.
    """
    return tables_for(config)
