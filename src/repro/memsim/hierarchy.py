"""Multi-level cache hierarchy assembly.

:func:`build_hierarchy` wires L1D -> L2 -> main memory with the paper's
Table 1 parameters by default (32KB/2-way/32B L1 data cache, 1MB/4-way/32B
unified L2) and returns a :class:`MemoryHierarchy` facade used by trace
replay, fault campaigns and the experiment harness.

Protection granularities follow paper Section 3.5 / 6: the L1 unit is a
64-bit word; the L2 unit is an L1 block (32 bytes here), since that is the
granularity at which data is written from L1 to L2.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..errors import ConfigurationError
from ..util import KB, MB
from .cache import Cache
from .mainmem import MainMemory
from .protection import CacheProtection, NoProtection
from .types import AccessResult


@dataclasses.dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level."""

    size_bytes: int
    ways: int
    block_bytes: int
    unit_bytes: int
    latency_cycles: int

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_bytes)

    @property
    def total_units(self) -> int:
        return self.size_bytes // self.unit_bytes

    @property
    def units_per_block(self) -> int:
        return self.block_bytes // self.unit_bytes


@dataclasses.dataclass(frozen=True)
class HierarchyConfig:
    """Paper Table 1 cache and memory hierarchy parameters.

    ``l3`` is optional: the paper's Section 7 expects an L3 CPPC to be
    even more energy-efficient than the L2 one, and a three-level
    hierarchy lets that claim be measured (`bench_l3_cppc.py`).
    """

    l1d: CacheGeometry = CacheGeometry(
        size_bytes=32 * KB, ways=2, block_bytes=32, unit_bytes=8, latency_cycles=2
    )
    l2: CacheGeometry = CacheGeometry(
        size_bytes=1 * MB, ways=4, block_bytes=32, unit_bytes=32, latency_cycles=8
    )
    l3: Optional[CacheGeometry] = None
    memory_latency_cycles: int = 200
    frequency_hz: float = 3.0e9

    def check(self) -> None:
        """Raise :class:`ConfigurationError` for a geometry the simulator
        cannot run.

        Each lower level moves whole upper-level blocks, so its block
        and its protection unit must both equal the upper level's block
        (paper Section 3.5: the L2 unit is an L1 block).
        """
        levels = [("L1D", self.l1d), ("L2", self.l2)]
        if self.l3 is not None:
            levels.append(("L3", self.l3))
        for (upper_name, upper), (name, lower) in zip(levels, levels[1:]):
            if not lower.block_bytes == lower.unit_bytes == upper.block_bytes:
                raise ConfigurationError(
                    f"{name} block and protection unit must both equal the "
                    f"{upper_name} block size (paper Section 3.5): block "
                    f"{lower.block_bytes}B, unit {lower.unit_bytes}B vs "
                    f"{upper.block_bytes}B"
                )


PAPER_CONFIG = HierarchyConfig()

#: The paper's configuration extended with a 4MB/8-way L3 whose protection
#: unit is an L2 block (the write granularity from L2 to L3).
PAPER_CONFIG_WITH_L3 = HierarchyConfig(
    l3=CacheGeometry(
        size_bytes=4 * MB, ways=8, block_bytes=32, unit_bytes=32,
        latency_cycles=24,
    )
)

#: Factory signature for per-level protection schemes.  Called with the
#: level name ("L1D" or "L2") and the unit width in bits.
ProtectionFactory = Callable[[str, int], CacheProtection]


def _no_protection(_level: str, _unit_bits: int) -> CacheProtection:
    return NoProtection()


class MemoryHierarchy:
    """L1D + unified L2 + main memory behind a load/store facade."""

    def __init__(
        self,
        config: HierarchyConfig = PAPER_CONFIG,
        *,
        protection_factory: ProtectionFactory = _no_protection,
        policy: str = "lru",
    ):
        config.check()
        self.config = config
        self.memory = MainMemory(block_bytes=config.l2.block_bytes)
        self.l3: Optional[Cache] = None
        l2_backing = self.memory
        if config.l3 is not None:
            self.l3 = Cache(
                "L3",
                config.l3.size_bytes,
                config.l3.ways,
                config.l3.block_bytes,
                unit_bytes=config.l3.unit_bytes,
                protection=protection_factory("L3", config.l3.unit_bytes * 8),
                next_level=self.memory,
                policy=policy,
            )
            l2_backing = self.l3
        self.l2 = Cache(
            "L2",
            config.l2.size_bytes,
            config.l2.ways,
            config.l2.block_bytes,
            unit_bytes=config.l2.unit_bytes,
            protection=protection_factory("L2", config.l2.unit_bytes * 8),
            next_level=l2_backing,
            policy=policy,
        )
        self.l1d = Cache(
            "L1D",
            config.l1d.size_bytes,
            config.l1d.ways,
            config.l1d.block_bytes,
            unit_bytes=config.l1d.unit_bytes,
            protection=protection_factory("L1D", config.l1d.unit_bytes * 8),
            next_level=self.l2,
            policy=policy,
        )

    def set_observer(self, sink) -> None:
        """Attach a :class:`repro.obs.TraceSink` to every level."""
        for cache in self.levels():
            cache.set_observer(sink)

    def levels(self):
        """All cache levels, innermost first."""
        return [self.l1d, self.l2] + ([self.l3] if self.l3 else [])

    def load(self, addr: int, size: int = 8, cycle: Optional[float] = None) -> AccessResult:
        """Processor load (routed to L1D)."""
        return self.l1d.load(addr, size, cycle=cycle)

    def store(self, addr: int, data: bytes, cycle: Optional[float] = None) -> AccessResult:
        """Processor store (routed to L1D)."""
        return self.l1d.store(addr, data, cycle=cycle)

    def flush(self) -> None:
        """Drain all dirty data to main memory."""
        self.l1d.flush()
        self.l2.flush()
        if self.l3 is not None:
            self.l3.flush()

    def architectural_read(self, addr: int, size: int) -> bytes:
        """Bytes the hierarchy *currently* holds at ``addr`` (L1 over L2
        over memory), without performing an access or updating any state.

        After fault injection this view may be corrupted; fault campaigns
        compare it against an independent golden model to detect silent
        data corruption.
        """
        out = bytearray(size)
        for i in range(size):
            a = addr + i
            out[i] = self._resident_byte(a)
        return bytes(out)

    def _resident_byte(self, addr: int) -> int:
        levels = [self.l1d, self.l2] + ([self.l3] if self.l3 else [])
        for cache in levels:
            loc = cache.locate(addr)
            if loc is not None:
                ln = cache.line(loc.set_index, loc.way)
                return ln.data[cache.mapper.block_offset(addr)]
        return self.memory.peek(addr, 1)[0]
