"""Scenario grammar for the differential fuzzer.

A :class:`Scenario` is one self-contained differential test case: enough
to rebuild the system under test (cache geometry, protection scheme,
replacement policy), drive it (an explicit trace or a campaign/sampling
recipe) and perturb it (a fault plan).  Scenarios serialize to plain
JSON, so a shrunk failure becomes a reproducer file under
``tests/corpus/`` that replays anywhere without the generator.

Six scenario kinds, one per differential oracle
(:mod:`repro.crosscheck.oracles`):

* ``replay`` — a trace replayed through the scalar :class:`Cache` and
  the NumPy :class:`~repro.memsim.batch.BatchReplayEngine`.
* ``recovery`` — a trace plus a fault plan driven through a scalar CPPC
  cache; the live recovery passes are replayed offline from the audit
  trail.
* ``campaign`` — one fault-injection campaign run through both the
  legacy warm-every-trial loop and the snapshot-fork fast path.
* ``doublefault`` — a Monte-Carlo double-fault measurement compared to
  the ``1/(p*w)`` analytical collision probability.
* ``chaos`` — one campaign run chaos-free in process and again through
  the crash-safe runtime under a survivable
  :class:`~repro.runtime.ChaosPlan`; recovery must be bit-invisible.
* ``timing`` — the scalar Figure-10 pipeline (``collect_events`` +
  ``time_events`` per scheme) against the columnar fast path
  (:mod:`repro.timing.fast`); events, cache statistics and every
  scheme's :class:`TimingResult` must match bit for bit.

:class:`ScenarioGenerator` samples scenarios from a weighted grammar,
deterministically per ``(seed, index)``: regenerating scenario ``i`` of
seed ``s`` always yields the same case, which is what lets a nightly
fuzz failure be reproduced locally from two integers before the shrunk
reproducer is even downloaded.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..memsim.types import AccessType
from ..util.rng import make_rng, weighted_choice
from ..workloads.store import cached_trace
from ..workloads.trace import TraceRecord

#: Serialization format version stamped into every scenario/reproducer.
FORMAT_VERSION = 1

SCENARIO_KINDS = (
    "replay",
    "recovery",
    "campaign",
    "doublefault",
    "chaos",
    "timing",
)

#: Default sampling weight of each scenario kind.  Replay, recovery and
#: timing scenarios are cheap (hundreds of scalar accesses) and carry
#: most of the word-for-word coverage; campaign and double-fault
#: scenarios cost more per case, so they run less often but still every
#: few seconds.  Chaos scenarios spawn worker subprocesses and
#: deliberately kill them, so they are the rarest (and smallest) kind.
DEFAULT_KIND_WEIGHTS: Dict[str, float] = {
    "replay": 0.33,
    "recovery": 0.27,
    "campaign": 0.18,
    "doublefault": 0.09,
    "chaos": 0.05,
    "timing": 0.08,
}

#: Benchmarks with small working sets — fuzz traces are only a few
#: hundred references, so multi-megabyte profiles would never revisit
#: (or evict) anything interesting inside one scenario.
_FUZZ_BENCHMARKS = ("gzip", "crafty", "eon", "twolf", "perlbmk", "gcc")


@dataclasses.dataclass(frozen=True)
class FaultOp:
    """One step of a scenario's fault plan.

    Attributes:
        at: reference index after which the fault is applied (0 means
            before the first reference).
        kind: ``"temporal"`` (one data bit), ``"check"`` (one stored
            check bit) or ``"spatial"`` (an N x M strike rectangle).
        target: rank into the deterministic candidate list (resident
            units, or dirty units under ``dirty_only``); taken modulo
            the list length, so shrunk traces keep the op meaningful.
        bit: bit index within the unit (temporal) or the check word
            (check), taken modulo the width.
        dirty_only: restrict temporal/check targeting to dirty units.
        way / top_row / left_col / height / width: spatial rectangle
            (way and rows are clamped to the target cache's geometry).
    """

    at: int
    kind: str = "temporal"
    target: int = 0
    bit: int = 0
    dirty_only: bool = False
    way: int = 0
    top_row: int = 0
    left_col: int = 0
    height: int = 2
    width: int = 2

    def __post_init__(self):
        if self.kind not in ("temporal", "check", "spatial"):
            raise ConfigurationError(f"unknown fault op kind {self.kind!r}")
        if self.at < 0:
            raise ConfigurationError("fault op index must be >= 0")
        if self.height < 1 or self.width < 1:
            raise ConfigurationError("strike extents must be positive")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One differential test case (see module docstring for the kinds).

    Only the fields relevant to ``kind`` matter; the rest keep their
    defaults so a single flat record serializes cleanly.
    """

    kind: str
    seed: int = 0
    # --- cache geometry (replay / recovery) ---------------------------
    size_bytes: int = 2048
    ways: int = 2
    block_bytes: int = 32
    # --- protection scheme --------------------------------------------
    scheme: str = "cppc"
    num_pairs: int = 1
    byte_shifting: bool = True
    num_classes: int = 8
    policy: str = "lru"
    # --- explicit trace (replay / recovery) ---------------------------
    records: List[TraceRecord] = dataclasses.field(default_factory=list)
    faults: List[FaultOp] = dataclasses.field(default_factory=list)
    # --- campaign recipe ----------------------------------------------
    benchmark: str = "gzip"
    trials: int = 4
    warmup_references: int = 400
    post_fault_references: int = 200
    fault_kind: str = "temporal"
    spatial_shape: tuple = (4, 4)
    dirty_only: bool = False
    target_level: str = "L1D"
    # --- double-fault recipe ------------------------------------------
    samples: int = 48
    parity_ways: int = 8
    # --- chaos recipe -------------------------------------------------
    chaos_rate: float = 0.5
    chaos_kinds: tuple = ("kill", "delay")
    # --- timing recipe ------------------------------------------------
    issue_width: int = 4
    store_buffer: int = 2

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; "
                f"expected one of {SCENARIO_KINDS}"
            )

    # ------------------------------------------------------------------
    # JSON (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-safe dict (records encoded as compact arrays)."""
        out = dataclasses.asdict(self)
        out["spatial_shape"] = list(self.spatial_shape)
        out["chaos_kinds"] = list(self.chaos_kinds)
        out["records"] = [_record_to_json(r) for r in self.records]
        out["faults"] = [dataclasses.asdict(op) for op in self.faults]
        out["version"] = FORMAT_VERSION
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        data = dict(data)
        version = data.pop("version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ConfigurationError(f"unsupported scenario format version {version!r}")
        data["records"] = [_record_from_json(r) for r in data.get("records", [])]
        data["faults"] = [FaultOp(**op) for op in data.get("faults", [])]
        data["spatial_shape"] = tuple(data.get("spatial_shape", (4, 4)))
        data["chaos_kinds"] = tuple(data.get("chaos_kinds", ("kill", "delay")))
        return cls(**data)

    def canonical_json(self) -> str:
        """Stable text form (digest / dedup key of this scenario)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _record_to_json(record: TraceRecord) -> list:
    op = "S" if record.op is AccessType.STORE else "L"
    out = [op, record.addr, record.size, record.gap]
    if record.op is AccessType.STORE:
        out.append(record.value.hex())
    return out


def _record_from_json(fields: list) -> TraceRecord:
    op = AccessType.STORE if fields[0] == "S" else AccessType.LOAD
    value = bytes.fromhex(fields[4]) if op is AccessType.STORE else b""
    return TraceRecord(op, fields[1], fields[2], fields[3], value)


class ScenarioGenerator:
    """Samples scenarios from the weighted grammar.

    Args:
        seed: base seed; scenario ``i`` derives its stream from
            ``(seed, "scenario", i)`` only, so any index regenerates
            identically in any order or process.
        kind_weights: sampling weight per scenario kind (defaults to
            :data:`DEFAULT_KIND_WEIGHTS`).
        round_robin: cycle through the kinds deterministically instead
            of sampling them — the self-test mode uses this so every
            oracle is exercised within a handful of scenarios.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        kind_weights: Optional[Dict[str, float]] = None,
        round_robin: bool = False,
    ):
        self.seed = seed
        self.kind_weights = dict(kind_weights or DEFAULT_KIND_WEIGHTS)
        self.round_robin = round_robin
        for kind in self.kind_weights:
            if kind not in SCENARIO_KINDS:
                raise ConfigurationError(f"unknown scenario kind {kind!r}")

    def generate(self, index: int) -> Scenario:
        """Scenario ``index`` of this generator's stream."""
        rng = make_rng((self.seed, "scenario", index))
        if self.round_robin:
            kinds = sorted(self.kind_weights)
            kind = kinds[index % len(kinds)]
        else:
            kind = weighted_choice(rng, self.kind_weights)
        build = getattr(self, f"_gen_{kind}")
        return build(rng, index)

    # ------------------------------------------------------------------
    # Per-kind grammars
    # ------------------------------------------------------------------
    def _geometry(self, rng) -> dict:
        """A small power-of-two geometry the batch engine also accepts."""
        ways = rng.choice((1, 2, 2, 4))
        block = rng.choice((16, 32, 32, 64))
        sets = rng.choice((8, 16, 16, 32, 64))
        return {"size_bytes": sets * ways * block, "ways": ways, "block_bytes": block}

    def _trace(self, rng, length: int) -> List[TraceRecord]:
        benchmark = rng.choice(_FUZZ_BENCHMARKS)
        # Via the columnar trace store when REPRO_TRACE_CACHE is set, so
        # repeated fuzz runs over the same seed reuse on-disk traces.
        seed = (self.seed, "trace", rng.getrandbits(32))
        return cached_trace(benchmark, seed, length).to_records()

    def _cppc_params(self, rng) -> dict:
        num_pairs = rng.choice((1, 1, 2, 4, 8))
        byte_shifting = True if num_pairs < 8 else rng.random() < 0.5
        return {
            "scheme": "cppc",
            "num_pairs": num_pairs,
            "byte_shifting": byte_shifting,
            "num_classes": 8,
        }

    def _gen_replay(self, rng, index: int) -> Scenario:
        # The batch engine models CPPC over 64-bit units under LRU; the
        # grammar stays inside that envelope and varies everything else.
        return Scenario(
            kind="replay",
            seed=index,
            records=self._trace(rng, rng.randrange(120, 360)),
            **self._geometry(rng),
            **self._cppc_params(rng),
        )

    def _gen_recovery(self, rng, index: int) -> Scenario:
        length = rng.randrange(100, 280)
        records = self._trace(rng, length)
        faults: List[FaultOp] = []
        for _ in range(rng.choice((1, 1, 1, 2))):
            # Leave a tail of references after the last fault so the
            # corruption is actually read back (recovery needs a trigger).
            at = rng.randrange(length // 4, length - length // 4)
            kind = weighted_choice(
                rng, {"temporal": 0.55, "check": 0.2, "spatial": 0.25}
            )
            faults.append(
                FaultOp(
                    at=at,
                    kind=kind,
                    target=rng.getrandbits(16),
                    bit=rng.randrange(64),
                    dirty_only=kind != "spatial" and rng.random() < 0.7,
                    way=rng.randrange(4),
                    top_row=rng.getrandbits(8),
                    left_col=rng.randrange(56),
                    height=rng.randrange(1, 9),
                    width=rng.randrange(1, 9),
                )
            )
        faults.sort(key=lambda op: op.at)
        return Scenario(
            kind="recovery",
            seed=index,
            records=records,
            faults=faults,
            policy=rng.choice(("lru", "lru", "fifo", "random")),
            **self._geometry(rng),
            **self._cppc_params(rng),
        )

    def _gen_campaign(self, rng, index: int) -> Scenario:
        fault_kind = rng.choice(("temporal", "spatial"))
        return Scenario(
            kind="campaign",
            seed=rng.getrandbits(32),
            scheme=weighted_choice(
                rng,
                {
                    "cppc": 0.5,
                    "parity": 0.2,
                    "secded": 0.15,
                    "twod": 0.1,
                    "none": 0.05,
                },
            ),
            benchmark=rng.choice(_FUZZ_BENCHMARKS),
            trials=rng.randrange(3, 7),
            warmup_references=rng.randrange(200, 700),
            post_fault_references=rng.randrange(150, 400),
            fault_kind=fault_kind,
            spatial_shape=(rng.randrange(2, 9), rng.randrange(2, 9)),
            dirty_only=fault_kind == "temporal" and rng.random() < 0.4,
            target_level=rng.choice(("L1D", "L1D", "L2")),
        )

    def _gen_chaos(self, rng, index: int) -> Scenario:
        # Small campaigns only: every chaos trial may cost a worker
        # respawn, so the grammar trades trace length for fault variety.
        # Kinds are any non-empty subset of the survivable worker faults
        # plus the checkpoint I/O faults the appender self-heals.
        survivable = ("kill", "delay", "enospc")
        kinds = tuple(k for k in survivable if rng.random() < 0.5)
        if not kinds:
            kinds = (rng.choice(survivable),)
        return Scenario(
            kind="chaos",
            seed=rng.getrandbits(32),
            scheme=rng.choice(("cppc", "parity", "secded", "none")),
            benchmark=rng.choice(_FUZZ_BENCHMARKS),
            trials=rng.randrange(2, 5),
            warmup_references=rng.randrange(100, 400),
            post_fault_references=rng.randrange(80, 250),
            fault_kind=rng.choice(("temporal", "spatial")),
            spatial_shape=(rng.randrange(2, 9), rng.randrange(2, 9)),
            target_level="L1D",
            chaos_rate=rng.choice((0.5, 1.0)),
            chaos_kinds=kinds,
        )

    def _gen_timing(self, rng, index: int) -> Scenario:
        # The timing collector rides on the batch engine (64-bit L1
        # units, LRU); the grammar varies geometry, trace and the core
        # parameters the backlog recurrence is most sensitive to.
        return Scenario(
            kind="timing",
            seed=index,
            records=self._trace(rng, rng.randrange(120, 360)),
            issue_width=rng.choice((1, 2, 3, 4, 4, 7)),
            store_buffer=rng.choice((1, 2, 2, 3, 8)),
            **self._geometry(rng),
        )

    def _gen_doublefault(self, rng, index: int) -> Scenario:
        return Scenario(
            kind="doublefault",
            seed=rng.getrandbits(32),
            samples=rng.randrange(40, 90),
            num_pairs=rng.choice((1, 1, 1, 2, 4)),
            parity_ways=8,
            size_bytes=rng.choice((2048, 4096)),
        )
