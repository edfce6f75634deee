"""Tests for the columnar on-disk trace store (repro.workloads.store)."""

import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.memsim.batch import BatchReplayEngine, BatchTrace, ReplayCapture
from repro.memsim.types import AccessType
from repro.workloads import (
    BENCHMARKS,
    ColumnarTraceReader,
    ColumnarTraceWriter,
    FastReplay,
    TraceCache,
    TraceRecord,
    cached_trace,
    load_batch_trace,
    load_trace,
    make_workload,
    save_trace,
    trace_stats,
    write_trace,
)
from repro.workloads.store import CACHE_ENV, _heap_to_raw

COLUMNS = ("addr", "size", "is_store", "gap", "value_word", "value_mask")


def assert_traces_equal(a: BatchTrace, b: BatchTrace) -> None:
    for field in COLUMNS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# A record strategy matching what the columnar store accepts: sizes up
# to one 64-bit protection unit, naturally aligned addresses.
_sizes = st.sampled_from((1, 2, 4, 8))


@st.composite
def records_strategy(draw):
    size = draw(_sizes)
    addr = draw(st.integers(min_value=0, max_value=1 << 30)) * size
    gap = draw(st.integers(min_value=0, max_value=50))
    if draw(st.booleans()):
        value = draw(st.binary(min_size=size, max_size=size))
        return TraceRecord(AccessType.STORE, addr, size, gap, value)
    return TraceRecord(AccessType.LOAD, addr, size, gap)


class TestRoundTrip:
    @pytest.mark.parametrize("profile", BENCHMARKS)
    def test_all_profiles_round_trip(self, tmp_path, profile):
        records = list(make_workload(profile, seed=11).records(600))
        path = tmp_path / "t.coltrace"
        assert write_trace(records, path, chunk_records=128) == 600
        with ColumnarTraceReader(path) as reader:
            assert list(reader.records()) == records
            assert_traces_equal(
                reader.batch_trace(), BatchTrace.from_records(records)
            )

    @pytest.mark.parametrize("profile", ["gcc", "swim"])
    def test_text_columnar_records_identical(self, tmp_path, profile):
        """text -> records -> columnar -> records is the identity."""
        records = list(make_workload(profile, seed=3).records(400))
        text = io.StringIO()
        save_trace(records, text)
        text.seek(0)
        parsed = list(load_trace(text))
        path = tmp_path / "t.coltrace"
        write_trace(parsed, path, chunk_records=64)
        with ColumnarTraceReader(path) as reader:
            assert list(reader.records()) == records

    @settings(max_examples=30, deadline=None)
    @given(st.lists(records_strategy(), max_size=120))
    def test_property_round_trip(self, records):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.coltrace")
            write_trace(records, path, chunk_records=17)
            with ColumnarTraceReader(path, use_mmap=False) as reader:
                assert list(reader.records()) == records
                assert reader.stats() == trace_stats(records)[0]

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.coltrace"
        write_trace([], path)
        with ColumnarTraceReader(path) as reader:
            assert len(reader) == 0
            assert list(reader.records()) == []
            assert len(reader.batch_trace()) == 0

    def test_footer_stats_match_trace_stats(self, tmp_path):
        records = list(make_workload("mcf", seed=5).records(300))
        path = tmp_path / "t.coltrace"
        write_trace(records, path, chunk_records=100)
        with ColumnarTraceReader(path) as reader:
            assert reader.stats() == trace_stats(records)[0]

    def test_load_batch_trace_survives_close(self, tmp_path):
        records = list(make_workload("gcc", seed=2).records(200))
        path = tmp_path / "t.coltrace"
        write_trace(records, path)
        trace = load_batch_trace(path)
        assert_traces_equal(trace, BatchTrace.from_records(records))

    def test_batch_trace_limit(self, tmp_path):
        records = list(make_workload("gcc", seed=2).records(500))
        path = tmp_path / "t.coltrace"
        write_trace(records, path, chunk_records=128)
        with ColumnarTraceReader(path) as reader:
            got = reader.batch_trace(limit=300)
        assert_traces_equal(got, BatchTrace.from_records(records[:300]))


class TestWriter:
    def test_streaming_is_bounded(self, tmp_path):
        """The writer never buffers more than one chunk of records."""
        path = tmp_path / "t.coltrace"
        with ColumnarTraceWriter(path, chunk_records=64) as writer:
            writer.extend(make_workload("gzip", seed=1).records(5000))
        assert writer.records_written == 5000
        assert writer.peak_buffered <= 64

    def test_oversized_store_rejected(self, tmp_path):
        with ColumnarTraceWriter(tmp_path / "t.coltrace") as writer:
            with pytest.raises(TraceFormatError, match="size-16"):
                writer.append(
                    TraceRecord(AccessType.STORE, 0, 16, 0, b"\x00" * 16)
                )

    def test_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "t.coltrace"
        try:
            with ColumnarTraceWriter(path) as writer:
                writer.append(TraceRecord(AccessType.LOAD, 0, 8, 0))
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # tmp file cleaned up too


class TestCorruption:
    def _write(self, tmp_path, n=400):
        records = list(make_workload("gcc", seed=9).records(n))
        path = tmp_path / "t.coltrace"
        write_trace(records, path, chunk_records=128)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self._write(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-30])
        with pytest.raises(TraceFormatError, match="end marker|footer"):
            ColumnarTraceReader(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="magic"):
            ColumnarTraceReader(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # the u32 version field follows the 8-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="version"):
            ColumnarTraceReader(path)

    def test_corrupted_chunk_rejected_not_decoded(self, tmp_path):
        path = self._write(tmp_path)
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the first chunk's payload (well past the
        # header+meta, well before the footer).
        blob[200] ^= 0x40
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="CRC"):
            with ColumnarTraceReader(path) as reader:
                reader.batch_trace()

    def test_verify_false_skips_crc(self, tmp_path):
        path = self._write(tmp_path)
        with ColumnarTraceReader(path, verify=False) as reader:
            assert len(reader.batch_trace()) == 400


class TestReplayEquivalence:
    def test_columnar_replay_equals_in_memory_twin(self, tmp_path):
        """FastReplay(equivalence='always') on a columnar-loaded trace:
        the chunked batch replay, its record decode, and the scalar
        cache all agree word-for-word."""
        records = list(make_workload("gcc", seed=21).records(1200))
        path = tmp_path / "t.coltrace"
        write_trace(records, path, chunk_records=256)
        with ColumnarTraceReader(path) as reader:
            from_disk = FastReplay(equivalence="always").run(reader)
        in_memory = FastReplay(equivalence="always").run(records)
        assert from_disk.checked and in_memory.checked
        assert (
            from_disk.stats.snapshot() == in_memory.stats.snapshot()
        )
        assert from_disk.batch.lines == in_memory.batch.lines
        assert from_disk.batch.memory == in_memory.batch.memory

    def test_replay_chunks_matches_one_shot(self, tmp_path):
        records = list(make_workload("vortex", seed=8).records(2000))
        path = tmp_path / "t.coltrace"
        write_trace(records, path, chunk_records=333)
        engine = BatchReplayEngine(2048, 2, 32)
        cap_chunked, cap_once = ReplayCapture(), ReplayCapture()
        with ColumnarTraceReader(path) as reader:
            chunked = engine.replay_chunks(
                reader.iter_chunks(), capture=cap_chunked
            )
        once = engine.replay(
            BatchTrace.from_records(records), capture=cap_once
        )
        assert chunked.stats.snapshot() == once.stats.snapshot()
        assert chunked.lines == once.lines
        assert chunked.memory == once.memory
        assert [(p.r1, p.r2) for p in chunked.registers.pairs] == [
            (p.r1, p.r2) for p in once.registers.pairs
        ]
        assert cap_chunked.lru == cap_once.lru
        # Memory-slot numbering is a per-run permutation; compare the
        # next-level event streams address-to-address.
        def translated(cap):
            return [
                (i, kind, cap.slot_addr[slot], cycle, words)
                for (i, kind, slot, cycle, words) in cap.events
            ]

        assert translated(cap_chunked) == translated(cap_once)

    def test_fast_replay_accepts_batch_trace(self):
        records = list(make_workload("gcc", seed=4).records(500))
        trace = BatchTrace.from_records(records)
        direct = FastReplay(equivalence="always").run(trace)
        from_records = FastReplay(equivalence="always").run(records)
        assert direct.stats.snapshot() == from_records.stats.snapshot()


class TestHeapDecode:
    def test_heap_to_raw_mixed_sizes(self):
        heap = np.frombuffer(b"\xaa\x01\x02\x03\x04\x05\x06\x07\x08\xff\xee", np.uint8)
        sizes = np.array([1, 8, 2], dtype=np.int64)
        raw = _heap_to_raw(heap, sizes)
        assert raw.tolist() == [0xAA, 0x0102030405060708, 0xFFEE]

    def test_heap_length_mismatch_rejected(self):
        with pytest.raises(TraceFormatError, match="heap"):
            _heap_to_raw(np.zeros(3, np.uint8), np.array([8], np.int64))


class TestTraceCache:
    def test_hit_does_not_regenerate(self, tmp_path, monkeypatch):
        import repro.workloads.store as store_mod

        calls = []
        real = store_mod.make_workload

        def counting(name, seed=0):
            calls.append(name)
            return real(name, seed=seed)

        monkeypatch.setattr(store_mod, "make_workload", counting)
        cache = TraceCache(tmp_path / "cache")
        p1 = cache.get_or_create("gcc", 7, 250)
        p2 = cache.get_or_create("gcc", 7, 250)
        assert p1 == p2
        assert calls == ["gcc"]  # second request decoded, not regenerated

    def test_key_separates_parameters(self, tmp_path):
        cache = TraceCache(tmp_path)
        paths = {
            cache.path_for("gcc", 7, 100),
            cache.path_for("gcc", 8, 100),
            cache.path_for("gcc", 7, 101),
            cache.path_for("swim", 7, 100),
        }
        assert len(paths) == 4

    def test_cached_trace_matches_direct_generation(self, tmp_path, monkeypatch):
        direct = list(make_workload("twolf", seed=13).records(300))
        expected = BatchTrace.from_records(direct)
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert_traces_equal(cached_trace("twolf", 13, 300), expected)
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        assert_traces_equal(cached_trace("twolf", 13, 300), expected)
        from_disk = cached_trace("twolf", 13, 300)
        assert_traces_equal(from_disk, expected)
        assert from_disk.to_records() == direct

    def test_cache_hit_decodes_no_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        expected = cached_trace("gcc", 3, 400)

        def no_decode(self):
            raise AssertionError("a cache hit decoded records")

        monkeypatch.setattr(ColumnarTraceReader, "records", no_decode)
        assert_traces_equal(cached_trace("gcc", 3, 400), expected)

    def test_tuple_seeds_supported(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
        seed = (42, "trace", 7)
        direct = list(make_workload("art", seed=seed).records(150))
        assert cached_trace("art", seed, 150).to_records() == direct
