"""Trace-driven CPI model with cache-port contention (paper Section 6.1).

Figure 10 compares CPIs of processors whose L1 caches differ only in
protection scheme; functional behaviour (hits/misses) is identical, so
the CPI gap comes from *read-port contention*: a CPPC store to a dirty
word must steal an idle read-port cycle for its read-before-write, while
a two-dimensional-parity cache needs one for every store plus a whole
line read on every miss.

The model follows the paper's microarchitecture (Table 1): 4-wide issue,
a bounded store buffer whose pending read-before-write work drains into
idle read-port cycles (the cycle-stealing coordination of Section 3.1),
and stalls only when the buffer backs up.  Miss penalties are charged
with a fixed overlap factor standing in for the 64-entry RUU's latency
hiding.

Because every scheme sees the same functional access stream, the model is
split in two: :func:`collect_events` replays the trace once against a
hierarchy and captures the per-access facts timing needs (store-to-dirty,
miss level), and :func:`time_events` prices that stream under any scheme's
port policy — the paper's simulate-once / account-per-scheme methodology.
Both are the scalar reference oracles of :mod:`repro.timing.fast`, the
engine behind :func:`repro.harness.run_benchmark` and ``figure10``.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, List, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError
from ..memsim.hierarchy import PAPER_CONFIG, HierarchyConfig, MemoryHierarchy
from ..memsim.types import AccessType
from ..workloads.trace import TraceRecord


class AccessEvent(NamedTuple):
    """Timing-relevant facts about one functional access.

    ``miss_level``: 0 = L1 hit, 1 = L1 miss/L2 hit, 2 = miss to memory.
    """

    is_load: bool
    instructions: int
    was_dirty: bool
    miss_level: int


@dataclasses.dataclass(frozen=True)
class TimingConfig:
    """Core and hierarchy timing parameters (paper Table 1)."""

    issue_width: int = 4
    l1_hit_latency: int = 2
    l2_hit_latency: int = 8
    memory_latency: int = 200
    store_buffer_capacity: int = 2
    #: Fraction of a miss penalty hidden by out-of-order execution.
    miss_overlap: float = 0.4

    def __post_init__(self):
        if self.issue_width < 1:
            raise ConfigurationError("issue width must be >= 1")
        if not 0.0 <= self.miss_overlap < 1.0:
            raise ConfigurationError("miss_overlap must be in [0, 1)")
        if self.store_buffer_capacity < 1:
            raise ConfigurationError("store buffer must hold >= 1 entry")


class SchemeTimingPolicy:
    """Read-port demand of one protection scheme's extra operations."""

    #: Scheme label for reports.
    name = "parity"

    def store_demand(self, was_dirty: bool) -> int:
        """Read-port cycles one store owes (read-before-write)."""
        return 0

    def miss_demand(self, units_per_block: int) -> int:
        """Read-port cycles one miss owes (victim-line reads)."""
        return 0


class ParityTiming(SchemeTimingPolicy):
    """1-D parity: no extra array reads in the common case."""

    name = "parity"


class SecdedTiming(SchemeTimingPolicy):
    """SECDED checked off the critical path — same port profile as parity
    (the paper gives both a 2-cycle access and backgrounds the decode)."""

    name = "secded"


class CppcTiming(SchemeTimingPolicy):
    """CPPC: read-before-write only on stores to already-dirty words."""

    name = "cppc"

    def store_demand(self, was_dirty: bool) -> int:
        return 1 if was_dirty else 0


class TwoDParityTiming(SchemeTimingPolicy):
    """2-D parity: read-before-write on every store, line read per miss.

    The victim-line read is one *wide* array access (the physical row is
    the line), so it costs one read-port cycle regardless of how many
    words it spans; its energy is charged per bit by the energy model.
    """

    name = "2d-parity"

    def store_demand(self, was_dirty: bool) -> int:
        return 1

    def miss_demand(self, units_per_block: int) -> int:
        # Read the victim line (one wide access) plus the bus-turnaround
        # slot before the fill can write: two read-port cycles per miss.
        return 2


TIMING_POLICIES = {
    "parity": ParityTiming,
    "secded": SecdedTiming,
    "cppc": CppcTiming,
    "2d-parity": TwoDParityTiming,
}


def timing_policy(name: str) -> SchemeTimingPolicy:
    """Policy instance by scheme name."""
    try:
        return TIMING_POLICIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown timing policy {name!r}; choose from {sorted(TIMING_POLICIES)}"
        ) from None


@dataclasses.dataclass
class TimingResult:
    """Cycle accounting of one run."""

    instructions: int = 0
    cycles: float = 0.0
    issue_cycles: float = 0.0
    miss_stall_cycles: float = 0.0
    port_stall_cycles: float = 0.0
    references: int = 0
    loads: int = 0
    stores: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0


def collect_events(
    records: Iterable[TraceRecord], hierarchy: MemoryHierarchy
) -> List[AccessEvent]:
    """Replay ``records`` on ``hierarchy``, capturing per-access facts.

    The hierarchy should be fresh; its protection scheme is irrelevant to
    the captured events (use the cheap default).
    """
    events: List[AccessEvent] = []
    l1, l2 = hierarchy.l1d, hierarchy.l2
    for record in records:
        l1_misses = l1.stats.misses
        l2_misses = l2.stats.misses
        was_dirty = False
        if record.op is AccessType.LOAD:
            hierarchy.load(record.addr, record.size)
            is_load = True
        else:
            dirty_before = l1.stats.stores_to_dirty_units
            hierarchy.store(record.addr, record.value)
            was_dirty = l1.stats.stores_to_dirty_units > dirty_before
            is_load = False
        if l1.stats.misses == l1_misses:
            miss_level = 0
        elif l2.stats.misses == l2_misses:
            miss_level = 1
        else:
            miss_level = 2
        events.append(
            AccessEvent(is_load, record.instructions, was_dirty, miss_level)
        )
    return events


def collect_run(
    records: Iterable[TraceRecord],
    config: HierarchyConfig = PAPER_CONFIG,
    *,
    warmup: int = 0,
) -> Tuple[List[AccessEvent], MemoryHierarchy]:
    """Scalar oracle of :func:`repro.timing.fast.collect_run_fast`.

    Replays ``records`` through a fresh hierarchy.  The first ``warmup``
    references fill the caches and are excluded from the returned events
    and from the hierarchy's statistics.
    """
    hierarchy = MemoryHierarchy(config)
    records = iter(records)
    if warmup:
        collect_events(itertools.islice(records, warmup), hierarchy)
        hierarchy.l1d.reset_stats()
        hierarchy.l2.reset_stats()
    return collect_events(records, hierarchy), hierarchy


def time_events(
    events: Iterable[AccessEvent],
    policy: SchemeTimingPolicy,
    config: Optional[TimingConfig] = None,
    *,
    units_per_block: int = 4,
) -> TimingResult:
    """Price an event stream under one scheme's port policy."""
    cfg = config or TimingConfig()
    result = TimingResult()
    backlog = 0.0  # read-port cycles owed by the store buffer

    for event in events:
        result.references += 1
        result.instructions += event.instructions
        # Front-end issue time for the gap plus the reference itself.
        issue = event.instructions / cfg.issue_width
        result.issue_cycles += issue
        result.cycles += issue

        # Idle read-port cycles in the gap drain pending RBW work; a
        # load's own cycle is reserved for the load.
        supply = issue - (1.0 if event.is_load else 0.0)
        if supply > 0 and backlog > 0:
            backlog = max(0.0, backlog - supply)

        if event.is_load:
            result.loads += 1
        else:
            result.stores += 1
            backlog += policy.store_demand(event.was_dirty)

        if event.miss_level:
            penalty = (
                cfg.memory_latency if event.miss_level == 2 else cfg.l2_hit_latency
            )
            stall = penalty * (1.0 - cfg.miss_overlap)
            result.miss_stall_cycles += stall
            result.cycles += stall
            backlog += policy.miss_demand(units_per_block)
            # While the fill is in flight the read port is idle part of the
            # time (the array is busy filling), so pending RBW work
            # partially drains under the miss shadow.
            backlog = max(0.0, backlog - 0.25 * stall)

        # A full store buffer stalls the pipeline until the backlog
        # drains back under capacity (one read-port cycle each).
        if backlog > cfg.store_buffer_capacity:
            stall = backlog - cfg.store_buffer_capacity
            result.port_stall_cycles += stall
            result.cycles += stall
            backlog = float(cfg.store_buffer_capacity)

    return result
