"""CPPC: Correctable Parity Protected Cache — a full reproduction.

Reproduces Manoochehri, Annavaram and Dubois, *CPPC: Correctable Parity
Protected Cache*, ISCA 2011: a write-back cache that adds error
*correction* to cheap parity *detection* with two XOR registers, and
extends to spatial multi-bit errors with byte shifting and interleaved
parity.

Package map:

* :mod:`repro.coding` — parity, SECDED, 2-D parity codes
* :mod:`repro.memsim` — set-associative cache simulator and hierarchy
* :mod:`repro.cppc` — the CPPC mechanism (registers, shifting, recovery)
* :mod:`repro.faults` — fault models, injection, Monte-Carlo campaigns
* :mod:`repro.runtime` — crash-safe trial execution (workers, timeouts,
  retries, resumable checkpoints)
* :mod:`repro.energy` — CACTI-style energy/area models
* :mod:`repro.timing` — CPI model with cache-port contention
* :mod:`repro.reliability` — analytical MTTF models
* :mod:`repro.workloads` — synthetic SPEC2000-like trace generators
* :mod:`repro.equivalence` — when each fast path checks itself against
  its scalar oracle
* :mod:`repro.harness` — one experiment runner per paper table/figure

Quick start::

    from repro import build_cppc_hierarchy
    hierarchy = build_cppc_hierarchy()
    hierarchy.store(0x1000, b"\\x12" * 8)
    value = hierarchy.load(0x1000, 8).data
"""

from __future__ import annotations

from .cppc import CppcProtection, l1_cppc, l2_cppc
from .errors import (
    AlignmentError,
    CampaignRuntimeError,
    CheckpointCorruptError,
    ConfigurationError,
    FaultLocatorError,
    ReproError,
    SimulationError,
    TraceFormatError,
    TrialCrashError,
    TrialTimeoutError,
    UncorrectableError,
)
from .memsim import (
    PAPER_CONFIG,
    Cache,
    HierarchyConfig,
    MemoryHierarchy,
    NoProtection,
    ParityProtection,
    SecdedProtection,
    TwoDParityProtection,
)

__version__ = "1.0.0"


def build_cppc_hierarchy(
    config: HierarchyConfig = PAPER_CONFIG,
    *,
    num_pairs: int = 1,
    byte_shifting: bool = True,
) -> MemoryHierarchy:
    """The paper's evaluated system: CPPC at both L1 and L2.

    Args:
        config: cache geometry (defaults to paper Table 1).
        num_pairs: (R1, R2) register pairs per cache.
        byte_shifting: enable the barrel-shifter rotation (Section 4.3).
    """

    def factory(level: str, unit_bits: int) -> CppcProtection:
        if level == "L1D":
            return l1_cppc(num_pairs=num_pairs, byte_shifting=byte_shifting)
        return l2_cppc(
            l1_block_bytes=config.l1d.block_bytes,
            num_pairs=num_pairs,
            byte_shifting=byte_shifting,
        )

    return MemoryHierarchy(config, protection_factory=factory)


__all__ = [
    "__version__",
    "build_cppc_hierarchy",
    "CppcProtection",
    "l1_cppc",
    "l2_cppc",
    "AlignmentError",
    "CampaignRuntimeError",
    "CheckpointCorruptError",
    "ConfigurationError",
    "FaultLocatorError",
    "ReproError",
    "SimulationError",
    "TraceFormatError",
    "TrialCrashError",
    "TrialTimeoutError",
    "UncorrectableError",
    "PAPER_CONFIG",
    "Cache",
    "HierarchyConfig",
    "MemoryHierarchy",
    "NoProtection",
    "ParityProtection",
    "SecdedProtection",
    "TwoDParityProtection",
]
