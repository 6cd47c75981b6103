"""Binary index file format (.fmi).

Little-endian throughout, CRC32 of everything before the trailer:

    magic        4s   "FMPM"
    version      u16  2
    flags        u16  0 (reserved; any other value is rejected)
    n            u64  reference length
    bucket_size  u32  128 (layout witness, fixed in version 2)
    sa_stride    u32  32  (layout witness, fixed in version 2)
    sentinel_row u64
    c            5*u64
    bucket_count u64
    buckets      bucket_count * 32 bytes packed chars
    sample_count u64
    sa_samples   sample_count * u64
    record_count u32
    records      record_count * (u32 name_len + name utf-8 + u64 start + u64 length)
    crc32        u32  over all preceding bytes

The bucket bases are not stored: the index derives them from the blocks,
and the C table in the header witnesses the blocks' totals.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO

import numpy as np

from .index import FmIndex, RecordSpan, SA_STRIDE, check_index
from .kernels import BUCKET_BYTES, BUCKET_CHARS

MAGIC = b"FMPM"
VERSION = 2

# suffix-array samples as the file stores them (u64, never above n)
SAMPLE_DTYPE = np.dtype("<i8")

# Largest single read.  A corrupt count in a short stream then fails as
# truncated instead of asking for one huge buffer.
_READ_CHUNK = 1 << 24


class IndexFormatError(Exception):
    """Base class for malformed index streams."""


class BadMagicError(IndexFormatError):
    pass


class VersionMismatchError(IndexFormatError):
    pass


class TruncatedStreamError(IndexFormatError):
    pass


class ChecksumError(IndexFormatError):
    pass


class _CrcWriter:
    def __init__(self, sink: BinaryIO):
        self._sink = sink
        self.crc = 0
        self.written = 0

    def write(self, data: bytes | np.ndarray) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self._sink.write(data)
        self.written += memoryview(data).nbytes  # len() of an array counts its rows


class _CrcReader:
    def __init__(self, source: BinaryIO):
        self._source = source
        self.crc = 0

    def read(self, size: int, what: str) -> bytes:
        parts = []
        left = size
        while left:
            part = self._source.read(min(left, _READ_CHUNK))
            if not part:
                break
            parts.append(part)
            left -= len(part)
        data = b"".join(parts)  # one part is returned as it is, not copied
        if len(data) != size:
            raise TruncatedStreamError(
                f"stream ended inside {what}: wanted {size} bytes, got {len(data)}"
            )
        self.crc = zlib.crc32(data, self.crc)
        return data


def serialize_index(index: FmIndex, sink: BinaryIO) -> int:
    """Write the index to a binary stream; returns the byte count."""
    w = _CrcWriter(sink)
    w.write(MAGIC)
    w.write(struct.pack("<HH", VERSION, 0))
    w.write(struct.pack("<QIIQ", index.n, BUCKET_CHARS, SA_STRIDE, index.sentinel_row))
    w.write(struct.pack("<5Q", *index.c))
    w.write(struct.pack("<Q", index.bucket_count))
    w.write(index.blocks)
    w.write(struct.pack("<Q", len(index.samples)))
    w.write(index.samples.astype(SAMPLE_DTYPE, copy=False).view(np.uint8))
    w.write(struct.pack("<I", len(index.records)))
    for record in index.records:
        name = record.name.encode("utf-8")
        w.write(struct.pack("<I", len(name)))
        w.write(name)
        w.write(struct.pack("<QQ", record.start, record.length))
    trailer = struct.pack("<I", w.crc)
    sink.write(trailer)
    return w.written + len(trailer)


def deserialize_index(source: BinaryIO) -> FmIndex:
    """Read an index written by serialize_index, verifying the checksum and `check_index`."""
    r = _CrcReader(source)
    magic = r.read(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}; not an index file")
    version, flags = struct.unpack("<HH", r.read(4, "header"))
    if version != VERSION:
        raise VersionMismatchError(
            f"unsupported version {version}; expected {VERSION}; "
            "rebuild the index with `fmpm index`"
        )
    if flags:
        raise IndexFormatError(f"unknown flags {flags:#06x}; version {VERSION} reserves them as 0")
    n, bucket_size, sa_stride, sentinel_row = struct.unpack("<QIIQ", r.read(24, "header"))
    if bucket_size != BUCKET_CHARS or sa_stride != SA_STRIDE:
        raise IndexFormatError(
            f"unsupported layout: bucket_size={bucket_size}, sa_stride={sa_stride}"
        )
    c = struct.unpack("<5Q", r.read(40, "C table"))
    (bucket_count,) = struct.unpack("<Q", r.read(8, "bucket count"))
    expected_buckets = (n + 1 + BUCKET_CHARS - 1) // BUCKET_CHARS
    if bucket_count != expected_buckets:
        raise IndexFormatError(
            f"bucket count {bucket_count} does not match n={n} (expected {expected_buckets})"
        )
    section = r.read(bucket_count * BUCKET_BYTES, "buckets")
    (sample_count,) = struct.unpack("<Q", r.read(8, "sample count"))
    if sample_count != n // SA_STRIDE + 1:
        raise IndexFormatError(f"sample count {sample_count} does not match n={n}")
    samples = r.read(sample_count * SAMPLE_DTYPE.itemsize, "samples")
    (record_count,) = struct.unpack("<I", r.read(4, "record count"))
    records = []
    for _ in range(record_count):
        (name_len,) = struct.unpack("<I", r.read(4, "record name length"))
        raw_name = r.read(name_len, "record name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"record name is not UTF-8: {exc}") from None
        start, length = struct.unpack("<QQ", r.read(16, "record span"))
        records.append(RecordSpan(name=name, start=start, length=length))
    computed = r.crc
    trailer = source.read(4)
    if len(trailer) != 4:
        raise TruncatedStreamError("stream ended inside checksum trailer")
    (stored,) = struct.unpack("<I", trailer)
    if stored != computed:
        raise ChecksumError(f"checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
    index = FmIndex(
        n=n,
        c=c,
        blocks=np.frombuffer(section, dtype=np.uint8).reshape(bucket_count, BUCKET_BYTES),
        sentinel_row=sentinel_row,
        samples=np.frombuffer(samples, dtype=SAMPLE_DTYPE),
        records=tuple(records),
    )
    try:
        check_index(index)
    except ValueError as exc:
        raise IndexFormatError(str(exc)) from None
    return index
