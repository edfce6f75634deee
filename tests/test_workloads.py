"""Tests for trace format, generators and the SPEC-like profiles."""

import hashlib
import io

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.memsim import AccessType
from repro.memsim.batch import BatchTrace
from repro.util import KB
from repro.workloads import (
    BENCHMARKS,
    SyntheticWorkload,
    TraceRecord,
    WorkloadProfile,
    benchmark_names,
    get_profile,
    load_trace,
    make_workload,
    materialize,
    save_trace,
    trace_stats,
)
from repro.workloads.generators import CHUNK_REFERENCES


class TestTraceRecord:
    def test_store_needs_matching_value(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.STORE, 0, 8, 0, b"ab")

    def test_load_carries_no_value(self):
        r = TraceRecord(AccessType.LOAD, 8, 4, 2)
        assert r.instructions == 3

    def test_negative_fields_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.LOAD, -1, 8, 0)
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.LOAD, 0, 0, 0)
        with pytest.raises(TraceFormatError):
            TraceRecord(AccessType.LOAD, 0, 8, -2)


class TestTraceSerialization:
    def test_roundtrip(self):
        records = [
            TraceRecord(AccessType.LOAD, 0x1000, 8, 3),
            TraceRecord(AccessType.STORE, 0x2000, 4, 0, b"\x01\x02\x03\x04"),
            TraceRecord(AccessType.STORE, 0x3008, 1, 7, b"\xff"),
        ]
        buffer = io.StringIO()
        assert save_trace(records, buffer) == 3
        buffer.seek(0)
        assert list(load_trace(buffer)) == records

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\nL 10 8 0\n"
        records = list(load_trace(io.StringIO(text)))
        assert len(records) == 1
        assert records[0].addr == 0x10

    def test_bad_op_rejected(self):
        with pytest.raises(TraceFormatError):
            list(load_trace(io.StringIO("X 10 8 0\n")))

    def test_truncated_line_rejected(self):
        with pytest.raises(TraceFormatError):
            list(load_trace(io.StringIO("L 10\n")))

    def test_trace_stats(self):
        records = [
            TraceRecord(AccessType.LOAD, 0, 8, 3),
            TraceRecord(AccessType.STORE, 8, 8, 1, b"\x00" * 8),
        ]
        stats, back = trace_stats(records)
        assert stats == {
            "loads": 1,
            "stores": 1,
            "references": 2,
            "instructions": 6,
        }
        assert back is records  # sequences pass through untouched

    def test_trace_stats_preserves_generator_traces(self):
        # Statting a one-shot iterator used to silently consume it, so a
        # caller who then replayed the "trace" replayed nothing.  The
        # returned records must survive a second pass.
        def gen():
            yield TraceRecord(AccessType.LOAD, 0, 8, 3)
            yield TraceRecord(AccessType.STORE, 8, 8, 1, b"\xab" * 8)

        stats, records = trace_stats(gen())
        assert stats["references"] == 2
        assert len(list(records)) == 2
        assert len(list(records)) == 2  # still re-iterable


class TestProfileValidation:
    def test_hot_must_fit(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", working_set_bytes=1024, hot_bytes=2048)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", working_set_bytes=1024, hot_bytes=512, p_hot=1.5)

    def test_regions_must_hold_a_word(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(name="x", working_set_bytes=1024, hot_bytes=4)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="x", working_set_bytes=1024, hot_bytes=512, store_region_bytes=4
            )

    def test_store_region_must_fit(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile(
                name="x",
                working_set_bytes=1024,
                hot_bytes=512,
                store_region_bytes=4096,
            )


class TestGenerator:
    def test_deterministic_under_seed(self):
        w1 = make_workload("gzip", seed=5)
        w2 = make_workload("gzip", seed=5)
        assert materialize(w1.records(200)) == materialize(w2.records(200))

    def test_different_seeds_differ(self):
        a = materialize(make_workload("gzip", seed=1).records(200))
        b = materialize(make_workload("gzip", seed=2).records(200))
        assert a != b

    def test_record_count(self):
        assert len(materialize(make_workload("gcc").records(321))) == 321

    def test_addresses_inside_working_set(self):
        profile = get_profile("gzip")
        end = profile.base_address + profile.working_set_bytes
        for r in make_workload("gzip").records(500):
            assert profile.base_address <= r.addr < end

    def test_accesses_naturally_aligned(self):
        for r in make_workload("vortex").records(500):
            assert r.addr % r.size == 0

    def test_store_fraction_approximate(self):
        profile = get_profile("gcc")
        records = materialize(make_workload("gcc").records(4000))
        stores = sum(1 for r in records if r.op is AccessType.STORE)
        assert abs(stores / 4000 - profile.store_fraction) < 0.05

    def test_mean_gap_approximate(self):
        records = materialize(make_workload("gzip").records(4000))
        mean = sum(r.gap for r in records) / len(records)
        assert abs(mean - get_profile("gzip").mean_gap) < 0.5


#: Two hand-built profiles covering the branches no SPEC-like profile
#: takes: a zero mean gap (no gap draws at all) and free-roaming stores
#: (no sliding store window).
HAND_PROFILES = (
    WorkloadProfile(
        name="no-gap",
        working_set_bytes=64 * KB,
        hot_bytes=16 * KB,
        store_region_bytes=4 * KB,
        mean_gap=0,
    ),
    WorkloadProfile(
        name="roaming",
        working_set_bytes=256 * KB,
        hot_bytes=32 * KB,
        store_region_bytes=0,
        mean_gap=5,
    ),
)

PINNED_REFS = 5000

#: Workload seed -> profile -> SHA-256 of the packed (addr, size,
#: is_store, gap, raw value) columns of its first ``PINNED_REFS``
#: references.  Any change to the generator's random-call sequence
#: moves these.
PINNED_DIGESTS = {
    0: {
        "gzip": "56fec1ecd6f293455cab6bb3147e5f79e15e97196aaf65aae3b2293353dbaf88",
        "vpr": "2d213a99385507c294ef8853b122b05d1dc1a3a382c0db7ef89dca41e549ea5f",
        "gcc": "4a53f840484263a0691d899ad3bcd7c281c27faed2cb08ed46f242b27f1a5bb1",
        "mcf": "c94f183aa6f3daa6bcbaaee42a1f836d61101a9cc7d0dcd14caee39d2ca71881",
        "crafty": "1acf583ecbeacec82788075fe9430e0611de5b670fbff9fb734d26de8730aa20",
        "parser": "1dea6afb9adc5fc12e9342f9f4dbe6d0394d8031259449b180157e1774f5624c",
        "eon": "fc4d708df9c5cf9428cbb549e8810efcc603b3ea43170abe6293f5f66a0644a6",
        "perlbmk": "88840b73113b2d977920483b5c7e219ce58d7759bc07f90c0997291d0ef00b4b",
        "gap": "eb5d608f7139ea023989d072a7c95aab5ea94a8628bc1cc7c521737979a4d651",
        "vortex": "db02ffcdbc9c18842e82c2e11278f4334b1af2b4b42fa348f27c661e8ce57669",
        "bzip2": "5622f55e54d99517cf4c92e15b86e1e5ae75e4f00efa38989d9c5ee3a8e8a73a",
        "twolf": "a0e2e7103d9bb45ef950f11c2e1c8d5fe3e357ccdb6cd01af95e495e679562c6",
        "swim": "70b1614df27024b943791472be5d240992e677a2e4658f9a246bef79f29a20ca",
        "art": "ed854f57d827244f123fb939442d0d9970feb6f6383e372aaf1ced1c03d212ef",
        "equake": "4a4a25f4e4d3bdc8089ef4ec332f5f7d04ad5b0786f98a3f1db7684bca0bad72",
        "no-gap": "2a6b3567e726259b7d73cb7dae8e437d2bffe98ef03784a41bff2645f5276fea",
        "roaming": "89cf06c421ffc7c73e49fbc1027e9f04383d3d47d518f71bebf8d97c038c83af",
    },
    (7, 0): {
        "gzip": "f5a0fae5e5fc097d7793cf5a21471f5c2e3fd991bb5dfbf07b40c9755707d948",
        "vpr": "0d30fe66fe809bc6da2d321405d523e30122e84f376052045ad6506833407202",
        "gcc": "4c588ee672917600b86d3ec8ff3796bd2463770cd8e7e879f74faf8654b66fc3",
        "mcf": "28cd376cc0470213bae2f86a321ead802d21615dd5f10fe0017426ca649b8c77",
        "crafty": "e7c5330b6f80f912832bcb5fd07d68e4b4f06138c761290f223df78964ea3d29",
        "parser": "ed2414df4cf3d9ac65607e0761209016e7bac8748cef562a0ba0d8e647fb35ba",
        "eon": "80d18d5620cd1ea49ed4ccd313f57979ca95612709a82805dd61ced9a1508bff",
        "perlbmk": "be9906e16d503f520c32c5d03805b0db3ab23624e9c3552e9959135d62642df3",
        "gap": "b112d2343e450e160b822e10634a9663a8688ffb9bf99b6d613478648b13bbed",
        "vortex": "23553ab67d7eacdec58b82f9039922c30bdc8a4dc12dc24cd147701cbb66903d",
        "bzip2": "ef2c62d4487a5e9734bd1e6df2682041fa9b6e43d3619cced55119fd25bf7361",
        "twolf": "49cdbaf5c1a6d8c52a5b7ddb78f4d942706dbaf579b3ba1034f8c2f05041cc7f",
        "swim": "90a87ce685b371e1b068b0b17c627faca04730dda757a60800605513c54af557",
        "art": "2ca631e991c70e37bedff2441d8555c5a588ba5665d44037d691d52944a057ef",
        "equake": "9dace2eeadff0842bd3a43abe9ec13d6e98496c8134054950d8fb14ae8d9dd71",
        "no-gap": "98e1b939c2780bda9ecc21184e9fcce357bdd2a16d1330f527cad9799a199ac8",
        "roaming": "1ece6dc3d3ef414a0642670022001aa1e1f27db25512540af49e96886a2c0d3c",
    },
}

#: Longer traces, spanning several generator chunks.
MULTI_CHUNK_REFS = 20_000
MULTI_CHUNK_DIGESTS = {
    ("gcc", 0): "828d7c5558b34f477e5d5231dd47e0a919c432d423940be20983dbe901d9e524",
    ("mcf", (7, 0)): "ba58cc3893dd6f9b434e453228dea31840d915f34bd871cba164677332cb4b96",
}


def _profile(name):
    for profile in HAND_PROFILES:
        if profile.name == name:
            return profile
    return get_profile(name)


def column_digest(trace: BatchTrace) -> str:
    """SHA-256 over a trace's columns, store values right-aligned."""
    shift = (8 * (8 - (trace.addr & 7) - trace.size)).astype(np.uint64)
    raw = np.where(trace.is_store, trace.value_word >> shift, np.uint64(0))
    digest = hashlib.sha256()
    for column, dtype in (
        (trace.addr, "<i8"),
        (trace.size, "<i8"),
        (trace.is_store, "u1"),
        (trace.gap, "<i8"),
        (raw, "<u8"),
    ):
        digest.update(column.astype(dtype).tobytes())
    return digest.hexdigest()


class TestPinnedTraces:
    @pytest.mark.parametrize(
        "seed", list(PINNED_DIGESTS), ids=lambda seed: f"seed{seed}".replace(" ", "")
    )
    @pytest.mark.parametrize("name", [*BENCHMARKS, *(p.name for p in HAND_PROFILES)])
    def test_records_match_pinned_digest(self, name, seed):
        workload = SyntheticWorkload(_profile(name), seed=seed)
        trace = BatchTrace.from_records(workload.records(PINNED_REFS))
        assert column_digest(trace) == PINNED_DIGESTS[seed][name]

    @pytest.mark.parametrize(
        "seed", list(PINNED_DIGESTS), ids=lambda seed: f"seed{seed}".replace(" ", "")
    )
    @pytest.mark.parametrize("name", [*BENCHMARKS, *(p.name for p in HAND_PROFILES)])
    def test_trace_matches_pinned_digest(self, name, seed):
        workload = SyntheticWorkload(_profile(name), seed=seed)
        trace = workload.trace(PINNED_REFS)
        assert column_digest(trace) == PINNED_DIGESTS[seed][name]

    @pytest.mark.parametrize("name, seed", list(MULTI_CHUNK_DIGESTS))
    def test_multi_chunk_traces_match_pinned_digest(self, name, seed):
        workload = make_workload(name, seed=seed)
        digest = MULTI_CHUNK_DIGESTS[name, seed]
        assert column_digest(workload.trace(MULTI_CHUNK_REFS)) == digest
        records = BatchTrace.from_records(workload.records(MULTI_CHUNK_REFS))
        assert column_digest(records) == digest


class TestColumnarEmitter:
    def test_records_decode_the_trace_across_a_chunk_boundary(self):
        workload = make_workload("vortex", seed=4)
        n = CHUNK_REFERENCES + 37
        assert list(workload.records(n)) == workload.trace(n).to_records()

    def test_records_yield_after_generating_one_chunk(self, monkeypatch):
        produced = []
        real = SyntheticWorkload._columns

        def counting(self, n_references, *args):
            for chunk in real(self, n_references, *args):
                produced.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(SyntheticWorkload, "_columns", counting)
        records = make_workload("gcc").records(10 * CHUNK_REFERENCES)
        next(records)
        assert produced == [CHUNK_REFERENCES]

    def test_empty_trace(self):
        workload = make_workload("gzip")
        assert len(workload.trace(0)) == 0
        assert list(workload.records(0)) == []


class TestSpecProfiles:
    def test_fifteen_benchmarks(self):
        assert len(BENCHMARKS) == 15
        assert benchmark_names() == BENCHMARKS

    def test_all_profiles_instantiable(self):
        for name in BENCHMARKS:
            workload = make_workload(name)
            assert materialize(workload.records(10))

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            get_profile("linpack")

    def test_address_spaces_disjoint(self):
        spans = []
        for name in BENCHMARKS:
            p = get_profile(name)
            spans.append((p.base_address, p.base_address + p.working_set_bytes))
        spans.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_mcf_is_the_big_one(self):
        mcf = get_profile("mcf")
        assert all(
            mcf.working_set_bytes >= get_profile(n).working_set_bytes
            for n in BENCHMARKS
        )


class TestLocalityKnobs:
    def test_higher_reuse_lowers_miss_rate(self):
        """The generator's p_reuse knob must actually control locality."""
        from repro.memsim import MemoryHierarchy
        from repro.timing import collect_events
        from conftest import TINY_CONFIG
        import dataclasses

        base = get_profile("gzip")
        rates = {}
        for p_reuse in (0.3, 0.95):
            profile = dataclasses.replace(base, p_reuse=p_reuse)
            hierarchy = MemoryHierarchy(TINY_CONFIG)
            workload = SyntheticWorkload(profile, seed=0)
            collect_events(workload.records(3000), hierarchy)
            rates[p_reuse] = hierarchy.l1d.stats.miss_rate
        assert rates[0.95] < rates[0.3]

    def test_store_region_bounds_dirty_footprint(self):
        """A small sliding store window keeps fewer L1 words dirty than
        free-roaming stores."""
        from repro.memsim import MemoryHierarchy
        from repro.timing import collect_events
        from conftest import TINY_CONFIG
        import dataclasses

        base = get_profile("vpr")
        fractions = {}
        for region in (0, 2048):
            profile = dataclasses.replace(base, store_region_bytes=region)
            hierarchy = MemoryHierarchy(TINY_CONFIG)
            workload = SyntheticWorkload(profile, seed=0)
            collect_events(workload.records(4000), hierarchy)
            fractions[region] = hierarchy.l1d.stats.dirty_fraction
        assert fractions[2048] < fractions[0]

    def test_mcf_misses_most(self):
        """The profile family must order by design: mcf defeats the L1."""
        from repro.memsim import MemoryHierarchy
        from repro.timing import collect_events
        from conftest import TINY_CONFIG

        rates = {}
        for name in ("mcf", "eon"):
            hierarchy = MemoryHierarchy(TINY_CONFIG)
            collect_events(make_workload(name).records(3000), hierarchy)
            rates[name] = hierarchy.l1d.stats.miss_rate
        assert rates["mcf"] > rates["eon"]
