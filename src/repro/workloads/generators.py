"""Synthetic workload generation.

The paper drives its evaluation with 100M-instruction SimPoints of SPEC
CPU2000.  Those traces are not redistributable, so this module provides
parametric generators whose knobs control exactly the behaviours the
paper's results depend on:

* temporal locality (a recency-weighted block-reuse pool) and spatial
  locality (sequential runs) -> L1/L2 miss rates,
* working-set size -> where capacity misses land in the hierarchy,
* store fraction and store re-write locality -> stores to dirty words
  (the CPPC read-before-write count) and dirty-data residency,
* instruction gaps between memory operations -> Tavg and CPI.

:mod:`repro.workloads.spec` instantiates fifteen named profiles standing
in for the paper's benchmarks.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from bisect import bisect
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..memsim.batch import BatchTrace
from ..memsim.types import AccessType
from ..util import Seed, make_rng
from .trace import TraceRecord

#: Access-size mix (bytes -> weight); dominated by 64-bit words with some
#: narrower accesses to exercise partial-store paths.
_SIZE_WEIGHTS = {8: 0.82, 4: 0.13, 1: 0.05}

_BLOCK_BYTES = 32  # paper Table 1 line size; spatial-locality granularity

#: References the generator emits per chunk; :meth:`SyntheticWorkload.records`
#: holds at most one chunk, however long the trace.
CHUNK_REFERENCES = 8192

#: Dtypes of the emitted ``(is_store, addr, size, gap, raw)`` columns.
_COLUMN_DTYPES = (bool, np.int64, np.int64, np.int64, np.uint64)


@dataclasses.dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of one synthetic benchmark.

    Attributes:
        name: benchmark label.
        working_set_bytes: span of the address region touched.
        hot_bytes: size of the frequently-targeted subset (controls where
            capacity misses land: a multi-MB hot set defeats the L2).
        p_hot: probability that a *fresh* access targets the hot subset.
        p_reuse: probability that a non-sequential access revisits a
            recently-used block (temporal locality; sets the miss rate).
        reuse_window_blocks: how far back the reuse pool reaches.
        seq_fraction: probability of extending the current sequential run
            (spatial locality).
        store_fraction: stores as a fraction of memory references.
        p_store_rewrite: probability a store revisits a recently-stored
            address (drives stores-to-dirty-words).
        rewrite_window: how many recent store addresses stay revisitable.
        store_region_bytes: width of the *sliding* window fresh stores
            target (stack frames / output buffers).  Keeps the resident
            dirty footprint bounded while the drift spreads write-backs
            over the whole working set.  0 disables the window (stores
            roam like loads).
        store_dwell: fresh stores per one-block advance of the sliding
            window (higher = dirtier lines linger longer).
        mean_gap: average non-memory instructions between references.
        base_address: start of the region (distinct per benchmark so
            multi-workload runs do not alias).
    """

    name: str
    working_set_bytes: int
    hot_bytes: int
    p_hot: float = 0.7
    p_reuse: float = 0.85
    reuse_window_blocks: int = 512
    seq_fraction: float = 0.3
    store_fraction: float = 0.35
    p_store_rewrite: float = 0.4
    rewrite_window: int = 256
    store_region_bytes: int = 0
    store_dwell: int = 8
    mean_gap: int = 2
    base_address: int = 0x1000_0000

    def __post_init__(self):
        if self.working_set_bytes < 2 * _BLOCK_BYTES:
            raise ConfigurationError("working set must span at least two blocks")
        if not 0 < self.hot_bytes <= self.working_set_bytes:
            raise ConfigurationError("hot set must fit inside the working set")
        for field in (
            "p_hot",
            "p_reuse",
            "seq_fraction",
            "store_fraction",
            "p_store_rewrite",
        ):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{field} must be in [0, 1], got {value}")
        if self.rewrite_window < 1 or self.reuse_window_blocks < 1:
            raise ConfigurationError("history windows must be >= 1")
        if self.store_region_bytes < 0 or self.store_dwell < 1:
            raise ConfigurationError(
                "store_region_bytes must be >= 0 and store_dwell >= 1"
            )
        if self.hot_bytes < 8 or 0 < self.store_region_bytes < 8:
            # Addresses are drawn as 8-byte words inside these regions.
            raise ConfigurationError(
                "hot set and store region must hold at least one 8-byte word"
            )
        if self.store_region_bytes > self.working_set_bytes:
            raise ConfigurationError("store region cannot exceed the working set")
        if self.mean_gap < 0:
            raise ConfigurationError("mean_gap must be >= 0")


class SyntheticWorkload:
    """Deterministic trace generator for one :class:`WorkloadProfile`.

    One decision loop (:meth:`_columns`) emits the trace as column
    chunks; :meth:`trace` packs them into a
    :class:`~repro.memsim.batch.BatchTrace` and :meth:`records` decodes
    them into :class:`~repro.workloads.trace.TraceRecord` objects, so
    both views are the same stream by construction.
    """

    def __init__(self, profile: WorkloadProfile, seed: Seed = 0):
        self.profile = profile
        self.seed = seed

    def trace(self, n_references: int) -> BatchTrace:
        """The first ``n_references`` references as one columnar trace."""
        columns = [[np.zeros(0, dtype)] for dtype in _COLUMN_DTYPES]
        for chunk in self._columns(n_references):
            for parts, values in zip(columns, chunk):
                parts.append(np.array(values, dtype=parts[0].dtype))
        is_store, addr, size, gap, raw = (np.concatenate(parts) for parts in columns)
        return BatchTrace.from_columns(addr, size, is_store, gap, raw)

    def records(self, n_references: int) -> Iterator[TraceRecord]:
        """Yield ``n_references`` trace records, one chunk at a time."""
        load, store = AccessType.LOAD, AccessType.STORE
        for columns in self._columns(n_references):
            for is_store, addr, size, gap, raw in zip(*columns):
                if is_store:
                    yield TraceRecord(store, addr, size, gap, raw.to_bytes(size, "big"))
                else:
                    yield TraceRecord(load, addr, size, gap)

    def _columns(self, n_references: int) -> Iterator[Tuple[list, ...]]:
        """The generator itself: ``(is_store, addr, size, gap, raw)`` chunks.

        Each chunk holds at most :data:`CHUNK_REFERENCES` references as
        parallel lists; ``raw`` is a store's value as a right-aligned
        big-endian integer (0 for loads).  The random-call sequence is a
        fixed part of every paper output, so it is spelled out call by
        call: ``_randbelow`` is what ``randrange(n)`` and ``choice`` draw
        through, the size pick is what ``choices(sizes, weights)``
        computes, and a store's value is ``size`` calls of
        ``getrandbits(8)``, most significant byte first (one
        ``getrandbits(8 * size)`` would draw differently).
        """
        p = self.profile
        rng = make_rng((self.seed, p.name))
        random = rng.random
        randbelow = rng._randbelow
        getrandbits = rng.getrandbits
        expovariate = rng.expovariate
        recent_blocks: collections.deque = collections.deque(
            maxlen=p.reuse_window_blocks
        )
        recent_stores: collections.deque = collections.deque(maxlen=p.rewrite_window)
        remember_block = recent_blocks.append
        remember_store = recent_stores.append
        seq_addr: Optional[int] = None
        sizes = list(_SIZE_WEIGHTS)
        cum_weights = list(itertools.accumulate(_SIZE_WEIGHTS.values()))
        total_weight = cum_weights[-1] + 0.0
        last_size = len(sizes) - 1
        base = p.base_address
        ws_bytes = p.working_set_bytes
        ws_end = base + ws_bytes
        ws_words = ws_bytes // 8
        hot_words = p.hot_bytes // 8
        store_words = p.store_region_bytes // 8
        store_fraction = p.store_fraction
        p_store_rewrite = p.p_store_rewrite
        seq_fraction = p.seq_fraction
        p_reuse = p.p_reuse
        p_hot = p.p_hot
        store_dwell = p.store_dwell
        block_mask = ~(_BLOCK_BYTES - 1)
        block_words = _BLOCK_BYTES // 8
        # Recency bias of reuse: mean rank is a quarter of the window.
        reuse_rate = 4.0 / p.reuse_window_blocks
        # Instruction gaps are geometric with the profile's mean
        # (support >= 0), capped at 50x the mean.
        mean_gap = p.mean_gap
        p_stop = 1.0 / (mean_gap + 1.0)
        gap_cap = 50 * mean_gap
        store_ptr = base
        fresh_stores = 0

        remaining = n_references
        while remaining > 0:
            n = min(CHUNK_REFERENCES, remaining)
            remaining -= n
            col_store: list = []
            col_addr: list = []
            col_size: list = []
            col_gap: list = []
            col_raw: list = []
            for _ in range(n):
                is_store = random() < store_fraction
                # Store-stream addresses deliberately stay out of the load
                # reuse pool: once the sliding store window moves on, its
                # dirty lines cool down, age out of the cache and get
                # written back — that is what feeds the L2's dirty-data
                # population.
                if is_store and recent_stores and random() < p_store_rewrite:
                    addr = recent_stores[randbelow(len(recent_stores))]
                elif is_store and store_words and random() < 0.95:
                    # Fresh store inside the sliding store window.
                    addr = store_ptr + randbelow(store_words) * 8
                    if addr >= ws_end:
                        addr -= ws_bytes
                    fresh_stores += 1
                    if fresh_stores % store_dwell == 0:
                        store_ptr += _BLOCK_BYTES
                        if store_ptr >= ws_end:
                            store_ptr = base
                elif seq_addr is not None and random() < seq_fraction:
                    seq_addr += 8
                    if seq_addr >= ws_end:
                        seq_addr = base
                    addr = seq_addr
                    remember_block(addr & block_mask)
                elif recent_blocks and random() < p_reuse:
                    depth = len(recent_blocks) - 1
                    rank = min(int(expovariate(reuse_rate)), depth)
                    block = recent_blocks[depth - rank]
                    addr = block + randbelow(block_words) * 8
                    remember_block(block)
                else:
                    words = hot_words if random() < p_hot else ws_words
                    addr = base + randbelow(words) * 8
                    seq_addr = addr
                    remember_block(addr & block_mask)
                size = sizes[bisect(cum_weights, random() * total_weight, 0, last_size)]
                # Natural alignment inside the chosen word.
                addr = (addr & ~7) + randbelow(8 // size) * size

                gap = 0
                if mean_gap:
                    while random() > p_stop and gap < gap_cap:
                        gap += 1
                col_store.append(is_store)
                col_addr.append(addr)
                col_size.append(size)
                col_gap.append(gap)
                if is_store:
                    remember_store(addr & ~7)
                    raw = 0
                    for _ in range(size):
                        raw = raw << 8 | getrandbits(8)
                    col_raw.append(raw)
                else:
                    col_raw.append(0)
            yield col_store, col_addr, col_size, col_gap, col_raw
