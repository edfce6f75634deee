"""Tests for the two-level hierarchy."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.memsim import (
    CacheGeometry,
    HierarchyConfig,
    MemoryHierarchy,
    PAPER_CONFIG,
)

from conftest import TINY_CONFIG


class TestPaperConfig:
    def test_table1_parameters(self):
        assert PAPER_CONFIG.l1d.size_bytes == 32 * 1024
        assert PAPER_CONFIG.l1d.ways == 2
        assert PAPER_CONFIG.l1d.block_bytes == 32
        assert PAPER_CONFIG.l1d.latency_cycles == 2
        assert PAPER_CONFIG.l2.size_bytes == 1024 * 1024
        assert PAPER_CONFIG.l2.ways == 4
        assert PAPER_CONFIG.l2.latency_cycles == 8
        assert PAPER_CONFIG.frequency_hz == 3.0e9

    def test_l2_unit_is_l1_block(self):
        """Paper Section 3.5: L2 tracks dirty data at L1-block granularity."""
        assert PAPER_CONFIG.l2.unit_bytes == PAPER_CONFIG.l1d.block_bytes

    def test_mismatched_units_rejected(self):
        bad_configs = [
            HierarchyConfig(
                l2=CacheGeometry(
                    size_bytes=8192, ways=4, block_bytes=32, unit_bytes=8,
                    latency_cycles=8,
                )
            ),
            # A 64B-block L2 under 32B L1 blocks: the L1's block-aligned
            # refills would be misaligned at L2.
            HierarchyConfig(
                l2=CacheGeometry(
                    size_bytes=1024 * 1024, ways=4, block_bytes=64,
                    unit_bytes=32, latency_cycles=8,
                )
            ),
            # The same mismatch one level down: a 64B-block L3.
            HierarchyConfig(
                l3=CacheGeometry(
                    size_bytes=4 * 1024 * 1024, ways=8, block_bytes=64,
                    unit_bytes=32, latency_cycles=24,
                )
            ),
        ]
        for bad in bad_configs:
            with pytest.raises(ConfigurationError):
                MemoryHierarchy(bad)
            with pytest.raises(ConfigurationError):
                bad.check()

    def test_geometry_helpers(self):
        g = PAPER_CONFIG.l1d
        assert g.num_sets == 512
        assert g.total_units == 4096
        assert g.units_per_block == 4


class TestDataFlow:
    def test_l1_miss_allocates_in_l2(self, tiny_hierarchy):
        tiny_hierarchy.load(0, 8)
        assert tiny_hierarchy.l2.locate(0) is not None

    def test_writeback_lands_in_l2_dirty(self, tiny_hierarchy):
        h = tiny_hierarchy
        h.store(0, b"\x42" * 8)
        # Evict the L1 line: two more blocks in the same L1 set.
        l1_sets = h.l1d.num_sets
        h.load(l1_sets * 32, 8)
        h.load(2 * l1_sets * 32, 8)
        loc = h.l2.locate(0)
        assert loc is not None
        assert h.l2.peek_unit(loc)[2] is True  # dirty in L2

    def test_flush_reaches_memory(self, tiny_hierarchy):
        h = tiny_hierarchy
        h.store(128, b"\x99" * 8)
        h.flush()
        assert h.memory.peek(128, 8) == b"\x99" * 8
        assert h.l1d.dirty_unit_count() == 0
        assert h.l2.dirty_unit_count() == 0

    def test_random_stream_end_state_matches_golden(self, tiny_hierarchy):
        h = tiny_hierarchy
        rng = random.Random(7)
        golden = {}
        for _ in range(800):
            addr = rng.randrange(0, 1 << 16) & ~7
            if rng.random() < 0.5:
                data = rng.getrandbits(64).to_bytes(8, "big")
                h.store(addr, data)
                golden[addr] = data
            else:
                got = h.load(addr, 8).data
                assert got == golden.get(addr, bytes(8))
        h.flush()
        for addr, value in golden.items():
            assert h.memory.peek(addr, 8) == value


class TestArchitecturalRead:
    def test_prefers_l1_over_l2(self, tiny_hierarchy):
        h = tiny_hierarchy
        h.store(0, b"\x01" * 8)
        # Corrupt only L1's copy and confirm the resident view shows it.
        loc = h.l1d.locate(0)
        h.l1d.corrupt_data(loc, 0xFF)
        view = h.architectural_read(0, 8)
        assert view != b"\x01" * 8

    def test_falls_back_to_memory(self, tiny_hierarchy):
        h = tiny_hierarchy
        h.memory.poke(0x8000, b"\xAA" * 8)
        assert h.architectural_read(0x8000, 8) == b"\xAA" * 8


class TestProtectionFactoryWiring:
    def test_factory_receives_levels_and_widths(self):
        calls = []

        def factory(level, unit_bits):
            from repro.memsim import NoProtection

            calls.append((level, unit_bits))
            return NoProtection()

        MemoryHierarchy(TINY_CONFIG, protection_factory=factory)
        assert ("L2", 256) in calls
        assert ("L1D", 64) in calls

    def test_distinct_scheme_instances_per_level(self):
        from repro.cppc import CppcProtection

        h = MemoryHierarchy(
            TINY_CONFIG,
            protection_factory=lambda lvl, u: CppcProtection(data_bits=u),
        )
        assert h.l1d.protection is not h.l2.protection
