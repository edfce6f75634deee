"""Warm-once campaign state: build one snapshot, fork it per trial.

Under ``CampaignConfig.shared_warmup`` every trial of a campaign replays
the *same* fault-free warmup prefix.  :func:`build_warm_state` simulates
that prefix exactly once and captures everything a trial needs:

* a :class:`~repro.memsim.snapshot.HierarchySnapshot` of the warmed-up
  caches, protection state and main memory,
* the golden memory image after the prefix's stores,
* the materialized post-warmup suffix records, and
* the cycle clock at the fork point.

:meth:`WarmState.fork` then rebuilds a live hierarchy in milliseconds —
restore into a freshly constructed hierarchy is far cheaper than
re-simulating thousands of references — and the forked trial is
bit-identical to a legacy warm-every-trial one (same resident units in
the same iteration order, so the per-trial injection RNG sees the same
sample space; same statistics baselines; same cycle clock).

Where the L1 scheme is batch-compatible (CPPC over 64-bit units under
LRU — the configuration :mod:`repro.memsim.batch` vectorizes), the
warmup itself runs through the :class:`~repro.memsim.batch.BatchReplayEngine`:
the engine produces the final L1 state directly, and the next-level
traffic it captures (:class:`~repro.memsim.batch.ReplayCapture`) is
replayed through the scalar L2 in original access order to warm the rest
of the hierarchy.  Everything else falls back to a scalar warmup.

:func:`warm_state_for` memoizes warm states in a bounded module-level
:class:`~repro.memsim.snapshot.SnapshotCache`, keyed by everything the
warm image depends on — scheme factory, benchmark, prefix length, trace
length and workload seed stream.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Dict, List, Tuple

import numpy as np

from ..cppc.protection import CppcProtection
from ..memsim.batch import BatchReplayEngine, BatchTrace, ReplayCapture
from ..memsim.hierarchy import MemoryHierarchy
from ..memsim.replacement import LRUPolicy
from ..memsim.snapshot import (
    HierarchySnapshot,
    SnapshotCache,
    restore_hierarchy,
    snapshot_hierarchy,
)
from ..workloads.replay import GoldenMemory, TraceReplayer
from ..workloads.store import cached_trace
from ..workloads.trace import TraceRecord
from .campaign import CampaignConfig


@dataclasses.dataclass
class WarmState:
    """One warmed-up campaign image, ready to fork per trial.

    Attributes:
        key: the :func:`warm_key` this state was built for.
        config: the campaign configuration (supplies the scheme factory
            for forked hierarchies).
        snapshot: the post-warmup hierarchy state.
        golden_image: golden memory bytes after the warmup stores, in
            store order (dict order matters for bit-identical SDC
            details).
        suffix_records: the post-warmup trace suffix, shared read-only
            across trials.
        start_cycle: cycle clock at the fork point.
        warm_engine: how the prefix was simulated — ``"batch"``,
            ``"scalar"`` or ``"pristine"`` (zero-length warmup).
        size_bytes: pickled size (cache accounting and lane shipping).
    """

    key: tuple
    config: CampaignConfig
    snapshot: HierarchySnapshot
    golden_image: Dict[int, int]
    suffix_records: List[TraceRecord]
    start_cycle: int
    warm_engine: str
    size_bytes: int = 0

    def fork(self) -> Tuple[MemoryHierarchy, GoldenMemory, TraceReplayer]:
        """A fresh live ``(hierarchy, golden, replayer)`` at the fork point."""
        hierarchy = MemoryHierarchy(protection_factory=self.config.scheme_factory)
        restore_hierarchy(self.snapshot, hierarchy)
        golden = GoldenMemory()
        golden.restore(self.golden_image)
        replayer = TraceReplayer(
            hierarchy,
            golden=golden,
            check_loads=True,
            start_cycle=self.start_cycle,
        )
        return hierarchy, golden, replayer


def warm_key(config: CampaignConfig) -> tuple:
    """Everything the warm image depends on (the memoization key).

    ``post_fault_references`` is included because the workload generator
    is seeded once for the whole trace — the suffix records depend on the
    total length requested, not only on the prefix.
    """
    return (
        repr(config.scheme_factory),
        config.benchmark,
        config.warmup_references,
        config.post_fault_references,
        repr(config.workload_seed(0)),
    )


def _batch_compatible(l1) -> bool:
    """Whether the batch engine models this L1 exactly."""
    prot = l1.protection
    return (
        isinstance(prot, CppcProtection)
        and l1.unit_bytes == 8
        and prot.code.ways == 8
        and isinstance(l1.policy, LRUPolicy)
        and not l1.write_through
        and l1.allocate_on_write
        and l1.tag_protection is None
    )


def _words_to_bytes(words: List[int]) -> bytes:
    return b"".join(int(w).to_bytes(8, "big") for w in words)


def _golden_image(trace: BatchTrace) -> Dict[int, int]:
    """Golden memory bytes after ``trace``'s stores, in store order.

    The image :meth:`GoldenMemory.store` builds store by store: each
    store writes its bytes most significant first from its address, and
    a rewritten byte takes the new value but keeps its first position.
    """
    rows = np.flatnonzero(trace.is_store)
    sizes = trace.size[rows]
    row = np.repeat(rows, sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    addr = trace.addr[row] + (np.arange(len(row)) - first)
    # Byte lane ``addr mod 8`` of the big-endian unit holding the store.
    shift = (8 * (7 - (addr & 7))).astype(np.uint64)
    value = (trace.value_word[row] >> shift) & np.uint64(0xFF)
    return dict(zip(addr.tolist(), value.tolist()))


def _batch_warm(hierarchy: MemoryHierarchy, warm: BatchTrace) -> None:
    """Warm ``hierarchy`` through the batch engine (L1) plus event replay.

    The engine resolves the whole L1 access stream vectorized and
    captures its next-level block traffic; replaying those events
    through the scalar L2 in original access order reproduces exactly
    the L2/memory state of a scalar warmup, because the scalar L1 would
    have issued exactly these reads and write-backs at these cycles.
    """
    l1 = hierarchy.l1d
    prot = l1.protection
    engine = BatchReplayEngine(
        l1.size_bytes,
        l1.ways,
        l1.block_bytes,
        num_pairs=prot.registers.num_pairs,
        byte_shifting=prot.rotation.enabled,
        num_classes=prot.registers.num_classes,
    )
    capture = ReplayCapture()
    result = engine.replay(warm, capture=capture)

    for _index, kind, slot, now, words in capture.events:
        addr = capture.slot_addr[slot]
        if kind == 0:
            hierarchy.l2.read_block(addr, cycle=now)
        else:
            hierarchy.l2.write_block(addr, _words_to_bytes(words), cycle=now)

    for (set_index, way), state in result.lines.items():
        ln = l1.line(set_index, way)
        ln.valid = True
        ln.tag = state.tag
        ln.data[:] = state.data
        ln.dirty = list(state.dirty)
        ln.check = list(state.check)
        ln.last_dirty_access = list(capture.line_last[set_index][way])
    for set_index, order in capture.lru.items():
        l1.policy._order[set_index] = list(order)
    stats = result.stats
    # The scalar cache keeps integer cycle stamps; normalize the one
    # float the reducer produces so snapshots compare field-for-field.
    stats._last_event_cycle = int(stats._last_event_cycle)
    l1.stats = stats
    l1._access_counter = capture.final_cycle
    for pair, src in zip(prot.registers.pairs, result.registers.pairs):
        pair.r1 = src.r1
        pair.r2 = src.r2
        pair.r1_parity = src.r1_parity
        pair.r2_parity = src.r2_parity


def build_warm_state(config: CampaignConfig) -> WarmState:
    """Simulate the shared warmup prefix once and package the result."""
    # cached_trace goes through the columnar trace store when
    # REPRO_TRACE_CACHE is set, so campaigns sharing a workload load one
    # on-disk trace instead of regenerating it per process.
    trace = cached_trace(
        config.benchmark,
        config.workload_seed(0),
        config.warmup_references + config.post_fault_references,
    )
    warm = trace.slice(0, config.warmup_references)

    hierarchy = MemoryHierarchy(protection_factory=config.scheme_factory)
    if not len(warm):
        warm_engine = "pristine"
    elif _batch_compatible(hierarchy.l1d):
        _batch_warm(hierarchy, warm)
        warm_engine = "batch"
    else:
        TraceReplayer(hierarchy).run(warm.to_records())
        warm_engine = "scalar"

    state = WarmState(
        key=warm_key(config),
        config=config,
        snapshot=snapshot_hierarchy(hierarchy),
        golden_image=_golden_image(warm),
        suffix_records=trace.slice(len(warm), len(trace)).to_records(),
        start_cycle=warm.instructions,
        warm_engine=warm_engine,
    )
    state.size_bytes = len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    return state


#: Campaign-side warm-state memo, bounded so sweeps over many
#: configurations cannot grow without bound.
_WARM_CACHE = SnapshotCache(max_entries=8, max_bytes=1 << 30)


def warm_cache() -> SnapshotCache:
    """The module-level warm-state cache (metrics export, tests)."""
    return _WARM_CACHE


def clear_warm_cache() -> None:
    """Drop every memoized warm state (benchmarks and tests)."""
    _WARM_CACHE.clear()


def warm_state_for(config: CampaignConfig) -> WarmState:
    """The memoized warm state for ``config`` (built on first use)."""
    key = warm_key(config)
    state = _WARM_CACHE.get(key)
    if state is None:
        state = build_warm_state(config)
        _WARM_CACHE.put(key, state, state.size_bytes)
    return state
