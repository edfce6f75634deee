"""Columnar on-disk trace store: streaming writer, mmap reader, cache.

The text format of :mod:`repro.workloads.trace` is human-auditable but
parses one Python object per line — at millions of references the parse
dominates every replay.  This module stores a trace as *columns* in a
chunked binary file, so loading is a handful of ``np.frombuffer`` views
(plus a CRC pass) straight into :class:`~repro.memsim.batch.BatchTrace`
columns, bypassing ``BatchTrace.from_records`` entirely.

File layout (all integers little-endian)::

    [ 8s magic ][ u32 format version ][ u32 meta_len ][ meta JSON ]
    chunk*:
        [ u32 records ][ u64 heap_len ][ u32 crc32(payload) ]
        payload = op u8[n] | addr i64[n] | size i64[n] | gap i64[n] | heap
    [ footer JSON ][ u64 footer_len ][ u64 records ][ 8s end magic ]

* ``op`` is 1 for a store, 0 for a load; the *heap* is the stores'
  value bytes packed back-to-back in record order (a store of ``size``
  bytes owns the next ``size`` heap bytes).
* Every chunk carries a CRC32 of its payload, so torn writes and bit
  rot raise :class:`~repro.errors.TraceFormatError` instead of decoding
  into garbage records.
* The footer holds the chunk directory (offsets) plus aggregate counts,
  and the trailing end-magic makes truncation detectable before any
  chunk is trusted.

Durability follows :mod:`repro.util.jsonio`: the writer appends to a
``*.tmp`` sibling with a flush+fsync per chunk and atomically
``os.replace``\\ s it into place on close, so a crash can never leave a
half-written file under the real name.

:class:`TraceCache` adds a content-addressed cache of *generated*
traces keyed by ``(benchmark profile, seed, n_references)``: benches,
campaigns and fuzz runs that request the same synthetic trace reuse one
on-disk columnar file across processes instead of regenerating it.
:func:`cached_trace` is the drop-in helper — it honours the
``REPRO_TRACE_CACHE`` environment variable and falls back to plain
in-memory generation when no cache is configured.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..errors import ConfigurationError, TraceFormatError
from ..memsim.batch import BatchTrace
from ..memsim.types import AccessType
from ..util import WORD_BYTES
from ..util.jsonio import canonical_json
from .spec import make_workload
from .trace import TraceRecord

#: Identifies a columnar trace file (first eight bytes).
MAGIC = b"CPPCCOL\x00"
#: Last eight bytes of a *complete* file; absent on truncation.
END_MAGIC = b"CPPCEND\x00"
#: Bumped on any incompatible layout change.
FORMAT_VERSION = 1
#: Records buffered (and column bytes written) per chunk.
DEFAULT_CHUNK_RECORDS = 65536

_HEADER = struct.Struct("<8sII")
_CHUNK = struct.Struct("<IQI")
_TRAILER = struct.Struct("<QQ8s")
#: Fixed column bytes per record: op u8 + addr i64 + size i64 + gap i64.
_ROW_BYTES = 1 + 8 + 8 + 8


def _corrupt(path, detail: str) -> TraceFormatError:
    return TraceFormatError(f"{path}: {detail}")


class ColumnarTraceWriter:
    """Streaming columnar trace writer (bounded memory, crash-safe).

    Records are buffered until ``chunk_records`` accumulate, then packed
    into NumPy column bytes and appended as one CRC-protected chunk —
    the writer never holds more than one chunk of records, so a
    generator trace of any length streams to disk in constant memory
    (``peak_buffered`` records the high-water mark; tests assert it).

    Args:
        path: destination file (written via a ``*.tmp`` sibling and an
            atomic rename on :meth:`close`).
        chunk_records: records per chunk.
        meta: JSON-safe metadata stored in the header (e.g. benchmark
            profile, seed, requested length).
    """

    def __init__(
        self,
        path,
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        meta: Optional[dict] = None,
    ):
        if chunk_records < 1:
            raise ConfigurationError(
                f"chunk_records must be positive, got {chunk_records}"
            )
        self.path = Path(path)
        self.chunk_records = chunk_records
        self.meta = dict(meta or {})
        self.records_written = 0
        self.peak_buffered = 0
        self.loads = 0
        self.stores = 0
        self.instructions = 0
        self._chunks: List[dict] = []
        self._op: List[int] = []
        self._addr: List[int] = []
        self._size: List[int] = []
        self._gap: List[int] = []
        self._heap = bytearray()
        self._tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        self._fh = open(self._tmp, "wb")
        meta_blob = canonical_json(self.meta).encode("utf-8")
        self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(meta_blob)))
        self._fh.write(meta_blob)

    # ------------------------------------------------------------------
    def append(self, record: TraceRecord) -> None:
        """Buffer one record; flush a chunk when the buffer fills."""
        if record.size > WORD_BYTES:
            raise TraceFormatError(
                f"the columnar store packs values into {WORD_BYTES}-byte "
                f"units; got a size-{record.size} record"
            )
        is_store = record.op is AccessType.STORE
        self._op.append(1 if is_store else 0)
        self._addr.append(record.addr)
        self._size.append(record.size)
        self._gap.append(record.gap)
        if is_store:
            self._heap += record.value
            self.stores += 1
        else:
            self.loads += 1
        self.instructions += record.instructions
        if len(self._op) > self.peak_buffered:
            self.peak_buffered = len(self._op)
        if len(self._op) >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records: Iterable[TraceRecord]) -> int:
        """Stream ``records`` through :meth:`append`; returns the count."""
        before = self.records_written + len(self._op)
        for record in records:
            self.append(record)
        return self.records_written + len(self._op) - before

    def _flush_chunk(self) -> None:
        n = len(self._op)
        if not n:
            return
        payload = b"".join(
            (
                np.array(self._op, dtype=np.uint8).tobytes(),
                np.array(self._addr, dtype=np.int64).tobytes(),
                np.array(self._size, dtype=np.int64).tobytes(),
                np.array(self._gap, dtype=np.int64).tobytes(),
                bytes(self._heap),
            )
        )
        self._chunks.append(
            {
                "offset": self._fh.tell(),
                "records": n,
                "heap": len(self._heap),
            }
        )
        self._fh.write(_CHUNK.pack(n, len(self._heap), zlib.crc32(payload)))
        self._fh.write(payload)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records_written += n
        self._op.clear()
        self._addr.clear()
        self._size.clear()
        self._gap.clear()
        self._heap.clear()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, write the footer, fsync and atomically publish."""
        if self._fh is None:
            return
        self._flush_chunk()
        footer = canonical_json(
            {
                "chunks": self._chunks,
                "records": self.records_written,
                "loads": self.loads,
                "stores": self.stores,
                "references": self.records_written,
                "instructions": self.instructions,
            }
        ).encode("utf-8")
        self._fh.write(footer)
        self._fh.write(_TRAILER.pack(len(footer), self.records_written, END_MAGIC))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        os.replace(self._tmp, self.path)

    def abort(self) -> None:
        """Discard the partial file (nothing appears under ``path``)."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()
            try:
                os.unlink(self._tmp)
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_trace(records: Iterable[TraceRecord], path, **kwargs) -> int:
    """Stream ``records`` into a columnar file; returns the count."""
    with ColumnarTraceWriter(path, **kwargs) as writer:
        return writer.extend(records)


def _heap_to_raw(heap: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Decode the packed value heap into right-aligned ``uint64`` values.

    ``sizes`` are the store records' value lengths in heap order.  Each
    distinct size is gathered with one fancy index and folded big-endian
    — at most a few iterations, never a per-record Python loop.
    """
    n = len(sizes)
    raw = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return raw
    ends = np.cumsum(sizes)
    if int(ends[-1]) != len(heap):
        raise TraceFormatError(
            f"value heap holds {len(heap)} bytes but store sizes sum to "
            f"{int(ends[-1])}"
        )
    starts = ends - sizes
    for s in np.unique(sizes).tolist():
        sel = np.nonzero(sizes == s)[0]
        grp = heap[starts[sel][:, None] + np.arange(s)].astype(np.uint64)
        value = np.zeros(len(sel), dtype=np.uint64)
        for b in range(s):
            value = (value << np.uint64(8)) | grp[:, b]
        raw[sel] = value
    return raw


class ColumnarTraceReader:
    """Reader for the format written by :class:`ColumnarTraceWriter`.

    By default the file is ``mmap``-ed and the fixed-width columns are
    exposed as zero-copy ``np.frombuffer`` views — only the store
    values' unit positioning (``value_word`` / ``value_mask``) is
    computed, with the same vectorized shifts ``from_records`` uses.
    Every chunk's CRC is verified before its columns are trusted
    (``verify=False`` skips the pass for hot in-process pipelines).

    Args:
        path: columnar trace file.
        use_mmap: map the file instead of reading it into memory.
            Arrays returned from a mapped reader are views into the map
            — keep the reader open while they are in use.
        verify: check each chunk's CRC32 on first access.
    """

    def __init__(self, path, *, use_mmap: bool = True, verify: bool = True):
        self.path = Path(path)
        self.verify = verify
        self._mm = None
        self._fh = open(self.path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            if size < _HEADER.size + _TRAILER.size:
                raise _corrupt(self.path, "file too short to be a columnar trace")
            magic, version, meta_len = _HEADER.unpack(self._fh.read(_HEADER.size))
            if magic != MAGIC:
                raise _corrupt(self.path, f"bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise _corrupt(
                    self.path,
                    f"format version {version} not supported "
                    f"(expected {FORMAT_VERSION})",
                )
            meta_end = _HEADER.size + meta_len
            if meta_end + _TRAILER.size > size:
                raise _corrupt(self.path, "truncated header metadata")
            try:
                self.meta: dict = json.loads(self._fh.read(meta_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _corrupt(self.path, f"unreadable metadata: {exc}")
            self._fh.seek(size - _TRAILER.size)
            footer_len, n_records, end_magic = _TRAILER.unpack(
                self._fh.read(_TRAILER.size)
            )
            if end_magic != END_MAGIC:
                raise _corrupt(self.path, "missing end marker (truncated file?)")
            footer_off = size - _TRAILER.size - footer_len
            if footer_off < meta_end:
                raise _corrupt(self.path, "footer overlaps the header")
            self._fh.seek(footer_off)
            try:
                footer = json.loads(self._fh.read(footer_len).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _corrupt(self.path, f"unreadable footer: {exc}")
            self._footer = footer
            self._chunks = footer.get("chunks", [])
            self._payload_end = footer_off
            if (
                footer.get("records") != n_records
                or sum(c["records"] for c in self._chunks) != n_records
            ):
                raise _corrupt(self.path, "record counts disagree")
            self.n_records = int(n_records)
            if use_mmap and size:
                self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
                self._buf = self._mm
            else:
                self._fh.seek(0)
                self._buf = self._fh.read()
            self._verified = [not verify] * len(self._chunks)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_records

    @property
    def n_chunks(self) -> int:
        """Number of chunks in the file."""
        return len(self._chunks)

    def stats(self) -> Dict[str, int]:
        """Aggregate counts recorded in the footer (no decode needed)."""
        return {
            key: int(self._footer[key])
            for key in ("loads", "stores", "references", "instructions")
        }

    def _chunk_columns(self, index: int):
        """``(op, addr, size, gap, heap)`` views of one chunk."""
        entry = self._chunks[index]
        offset, n, heap_len = entry["offset"], entry["records"], entry["heap"]
        payload_off = offset + _CHUNK.size
        payload_len = n * _ROW_BYTES + heap_len
        if payload_off + payload_len > self._payload_end:
            raise _corrupt(self.path, f"chunk {index} overruns the footer")
        head_n, head_heap, crc = _CHUNK.unpack_from(self._buf, offset)
        if head_n != n or head_heap != heap_len:
            raise _corrupt(
                self.path, f"chunk {index} header disagrees with the directory"
            )
        if not self._verified[index]:
            view = memoryview(self._buf)[payload_off : payload_off + payload_len]
            if zlib.crc32(view) != crc:
                raise _corrupt(self.path, f"chunk {index} CRC mismatch")
            self._verified[index] = True
        op = np.frombuffer(self._buf, dtype=np.uint8, count=n, offset=payload_off)
        addr = np.frombuffer(self._buf, dtype=np.int64, count=n, offset=payload_off + n)
        size = np.frombuffer(
            self._buf, dtype=np.int64, count=n, offset=payload_off + 9 * n
        )
        gap = np.frombuffer(
            self._buf, dtype=np.int64, count=n, offset=payload_off + 17 * n
        )
        heap = np.frombuffer(
            self._buf,
            dtype=np.uint8,
            count=heap_len,
            offset=payload_off + _ROW_BYTES * n,
        )
        if int(op.max(initial=0)) > 1:
            raise _corrupt(self.path, f"chunk {index} has an op byte > 1")
        return op, addr, size, gap, heap

    def chunk_batch(self, index: int) -> BatchTrace:
        """One chunk as a :class:`BatchTrace` (columns are file views)."""
        op, addr, size, gap, heap = self._chunk_columns(index)
        is_store = op.view(np.bool_)
        raw = np.zeros(len(op), dtype=np.uint64)
        raw[is_store] = _heap_to_raw(heap, size[is_store])
        return BatchTrace.from_columns(addr, size, is_store, gap, raw)

    def iter_chunks(self) -> Iterator[BatchTrace]:
        """Yield each chunk as a :class:`BatchTrace`, in trace order."""
        for index in range(len(self._chunks)):
            yield self.chunk_batch(index)

    def batch_trace(self, limit: Optional[int] = None) -> BatchTrace:
        """The whole trace (or its first ``limit`` rows) as one batch.

        A single-chunk file is returned zero-copy; multi-chunk files
        concatenate their column views once (still no record objects).
        """
        if limit is None and len(self._chunks) == 1:
            return self.chunk_batch(0)
        parts: List[BatchTrace] = []
        have = 0
        for chunk in self.iter_chunks():
            parts.append(chunk)
            have += len(chunk)
            if limit is not None and have >= limit:
                break
        if not parts:
            return BatchTrace.from_records([])
        merged = BatchTrace(
            addr=np.concatenate([p.addr for p in parts]),
            size=np.concatenate([p.size for p in parts]),
            is_store=np.concatenate([p.is_store for p in parts]),
            gap=np.concatenate([p.gap for p in parts]),
            value_word=np.concatenate([p.value_word for p in parts]),
            value_mask=np.concatenate([p.value_mask for p in parts]),
        )
        if limit is not None and len(merged) > limit:
            merged = merged.slice(0, limit)
        return merged

    def records(self) -> Iterator[TraceRecord]:
        """Decode back into :class:`TraceRecord` objects, lazily."""
        for index in range(len(self._chunks)):
            op, addr, size, gap, heap = self._chunk_columns(index)
            heap_bytes = heap.tobytes()
            pos = 0
            for o, a, s, g in zip(
                op.tolist(), addr.tolist(), size.tolist(), gap.tolist()
            ):
                if o:
                    value = heap_bytes[pos : pos + s]
                    pos += s
                    yield TraceRecord(AccessType.STORE, a, s, g, value)
                else:
                    yield TraceRecord(AccessType.LOAD, a, s, g)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the map and handle.

        Live column views keep an mmap exporting buffers; in that case
        the map stays open until the arrays are garbage collected.
        """
        mm, self._mm = self._mm, None
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                pass
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def __enter__(self) -> "ColumnarTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_batch_trace(path, *, verify: bool = True) -> BatchTrace:
    """Load a columnar file into a self-contained :class:`BatchTrace`.

    Reads the file into memory (no mmap) so the returned arrays stay
    valid after the reader is gone.
    """
    with ColumnarTraceReader(path, use_mmap=False, verify=verify) as reader:
        return reader.batch_trace()


# ----------------------------------------------------------------------
# Content-addressed cache of generated traces
# ----------------------------------------------------------------------
#: Environment variable naming the shared cache directory.
CACHE_ENV = "REPRO_TRACE_CACHE"


class TraceCache:
    """Cross-process cache of generated synthetic traces.

    Keyed by everything the generated stream depends on — benchmark
    profile, workload seed and requested reference count (plus the
    format version, so incompatible files never collide).  Creation is
    atomic (writer tmp file + rename), so concurrent processes racing
    on the same key simply publish identical files.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def key(self, benchmark: str, seed, n_references: int) -> str:
        """Content hash of everything the generated trace depends on."""
        digest = hashlib.sha256(
            canonical_json(
                {
                    "benchmark": benchmark,
                    "seed": repr(seed),
                    "n_references": n_references,
                    "format_version": FORMAT_VERSION,
                }
            ).encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def path_for(self, benchmark: str, seed, n_references: int) -> Path:
        """Cache file path for the key (may not exist yet)."""
        key = self.key(benchmark, seed, n_references)
        return self.root / f"trace-{benchmark}-{n_references}-{key}.coltrace"

    def get_or_create(
        self,
        benchmark: str,
        seed,
        n_references: int,
        *,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ) -> Path:
        """The cached columnar file, generating it on first use."""
        path = self.path_for(benchmark, seed, n_references)
        if not path.exists():
            workload = make_workload(benchmark, seed=seed)
            write_trace(
                workload.records(n_references),
                path,
                chunk_records=chunk_records,
                meta={
                    "benchmark": benchmark,
                    "seed": repr(seed),
                    "n_references": n_references,
                },
            )
        return path


def default_trace_cache() -> Optional[TraceCache]:
    """The cache named by ``REPRO_TRACE_CACHE``, or None when unset."""
    root = os.environ.get(CACHE_ENV)
    return TraceCache(root) if root else None


def cached_trace(benchmark: str, seed, n_references: int) -> BatchTrace:
    """A synthetic trace as columns, via the cache if one is set.

    With ``REPRO_TRACE_CACHE`` configured the trace is generated once
    per ``(benchmark, seed, n_references)`` across all processes and
    loaded from the columnar file with no record decode (bit-identical
    to fresh generation — tested); otherwise the columnar emitter
    generates it in memory.
    """
    cache = default_trace_cache()
    if cache is None:
        return make_workload(benchmark, seed=seed).trace(n_references)
    return load_batch_trace(cache.get_or_create(benchmark, seed, n_references))
