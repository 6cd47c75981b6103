"""Binary index file format (.fmi).

Little-endian throughout, CRC32 of everything before the trailer.  The
writer joins the sections into one buffer, takes one CRC32 of it, and
writes the buffer and then the trailer:

    magic        4s   "FMPM"
    version      u16  5
    flags        u16  0 (reserved; any other value is rejected)
    n            u64  reference length
    bucket_size  u32  128 (layout witness, fixed since version 2)
    sa_stride    u32  32  (layout witness, fixed since version 2)
    sentinel_row u64
    c            5*u64
    bucket_count u64
    deflated     u64  size of the zlib stream that follows
    buckets      one zlib stream of the bucket_count * 32 bytes of packed chars
    sample_count u64
    sa_samples   ceil(sample_count * w / 8) bytes, w = max(1, n.bit_length())
    record_count u32
    lengths      record_count * u64 (records tile [0, n) in order; no start is stored)
    names_size   u64
    names        the one-word record names in UTF-8, joined by "\n"
    crc32        u32  over all preceding bytes

The bucket bases are not stored: the index derives them and C from the
blocks, and the reader requires the header's C table, the blocks' witness,
to equal the derived one.  The packed blocks are deflated, since the
transform of a repetitive reference forms runs; the reader inflates them
into exactly bucket_count * 32 bytes.

The suffix-array samples, all within [0, n], form one little-endian bit
stream of w-bit fields: sample j is bits j*w to j*w + w - 1, counting bit
b of byte i as stream bit 8*i + b.  The bits past the last field are 0.
The reader derives w from n, so no field stores it.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO

import numpy as np

from .index import FmIndex, SA_STRIDE
from .kernels import BUCKET_BYTES, BUCKET_CHARS

MAGIC = b"FMPM"
VERSION = 5

# First read of a section; each further read asks for as much as the
# stream has given so far.  A corrupt count in a short stream then fails
# as truncated instead of asking for one huge buffer.
_FIRST_READ = 1 << 16


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


class _CrcReader:
    def __init__(self, source: BinaryIO):
        self._source = source
        self.crc = 0

    def read(self, size: int, what: str) -> bytes:
        parts = []
        left = size
        while left:
            part = self._source.read(min(left, max(_FIRST_READ, size - left)))
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


def _inflate(deflated: bytes, size: int) -> bytes:
    """The `size` bytes of the one zlib stream that is all of `deflated`.

    Inflates at most size + 1 bytes, so no stream asks for more memory
    than the section it claims to be.
    """
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(deflated, size + 1)
    except zlib.error as exc:
        raise IndexFormatError(f"bucket section is not a valid zlib stream: {exc}") from None
    if len(data) != size or not inflater.eof or inflater.unused_data:
        raise IndexFormatError(
            f"bucket section does not inflate to exactly {size} bytes in one whole zlib stream"
        )
    return data


def _sample_width(n: int) -> int:
    """Bits per stored suffix-array sample: enough for every value in [0, n]."""
    return max(1, n.bit_length())


def _pack_samples(samples: np.ndarray, width: int) -> np.ndarray:
    """The samples as one little-endian bit stream of `width`-bit fields."""
    # row j holds sample j's low `width` bits, lowest first, one bit a byte,
    # so the row-major matrix is the stream itself
    octets = np.ascontiguousarray(samples, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, count=width, bitorder="little")
    return np.packbits(bits, axis=None, bitorder="little")


def _unpack_samples(packed: bytes, count: int, width: int) -> np.ndarray:
    """Decode `count` fields of `width` bits from the stream `_pack_samples` writes.

    Word shifts, not the `np.unpackbits`/`np.packbits` pair of the writer:
    at 4M characters on a 2-vCPU Xeon guest the numpy forms took 1.7-1.8 ms
    and 5.5-10.3 MiB, against 0.80 ms and 4.1 MiB for these shifts.
    """
    spare = 8 * len(packed) - count * width
    if spare and packed[-1] >> (8 - spare):
        raise IndexFormatError("the bits past the last suffix-array sample are not zero")
    # u64 words, with a zero word past the stream so that every field has a second word
    words = np.zeros(len(packed) // 8 + 2, dtype="<u8")
    words.view(np.uint8)[: len(packed)] = np.frombuffer(packed, dtype=np.uint8)
    first = np.arange(count, dtype=np.int64)
    first *= width  # each field's first bit
    word = first >> 6
    shift = np.bitwise_and(first, 63, out=first).view(np.uint64)  # in first's buffer
    # field = words[q] >> r | words[q + 1] << (64 - r), masked; the second
    # shift is split as << 1 << (63 - r), since a shift by 64 is undefined
    samples = words[word]
    samples >>= shift
    word += 1
    high = words[word]
    del word
    high <<= 1
    shift ^= 63
    high <<= shift
    samples |= high
    samples &= np.uint64((1 << width) - 1)
    return samples.view(np.int64)


def serialize_index(index: FmIndex, sink: BinaryIO) -> int:
    """Write the index to a binary stream; returns the byte count.

    Raises nothing: every FmIndex passed `check_index` when it was made,
    so each of its values fits its field.
    """
    names = "\n".join(index.names).encode("utf-8")
    deflated = zlib.compress(index.blocks)
    parts = [
        MAGIC,
        struct.pack("<HHQIIQ", VERSION, 0, index.n, BUCKET_CHARS, SA_STRIDE, index.sentinel_row),
        struct.pack("<5QQQ", *index.c, index.bucket_count, len(deflated)),
        deflated,
        struct.pack("<Q", len(index.samples)),
        _pack_samples(index.samples, _sample_width(index.n)),
        struct.pack("<I", len(index.names)),
        index.lengths.astype("<u8"),
        struct.pack("<Q", len(names)),
        names,
    ]
    body = b"".join(parts)
    sink.write(body)
    sink.write(struct.pack("<I", zlib.crc32(body)))
    return len(body) + 4


def deserialize_index(source: BinaryIO) -> FmIndex:
    """Read an index written by serialize_index, verifying the checksum.

    Raises IndexFormatError, also for an index that `check_index` refuses
    or whose derived C table is not the header's.
    """
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
    (deflated_size,) = struct.unpack("<Q", r.read(8, "bucket section size"))
    deflated = r.read(deflated_size, "buckets")
    (sample_count,) = struct.unpack("<Q", r.read(8, "sample count"))
    if sample_count != n // SA_STRIDE + 1:
        raise IndexFormatError(f"sample count {sample_count} does not match n={n}")
    width = _sample_width(n)
    packed = r.read((sample_count * width + 7) // 8, "samples")
    (record_count,) = struct.unpack("<I", r.read(4, "record count"))
    lengths = np.frombuffer(r.read(8 * record_count, "record lengths"), dtype="<u8")
    (names_size,) = struct.unpack("<Q", r.read(8, "record names size"))
    names = r.read(names_size, "record names")
    computed = r.crc
    trailer = source.read(4)
    if len(trailer) != 4:
        raise TruncatedStreamError("stream ended inside checksum trailer")
    (stored,) = struct.unpack("<I", trailer)
    if stored != computed:
        raise ChecksumError(f"checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
    # inflated only once the whole file is read: the raw sample section is
    # about w/64 of the blocks' size, so the stream cannot inflate to more
    # than about 64/w times the file it came in
    section = _inflate(deflated, bucket_count * BUCKET_BYTES)
    blocks = np.frombuffer(section, dtype=np.uint8).reshape(bucket_count, BUCKET_BYTES)
    samples = _unpack_samples(packed, sample_count, width)
    big = np.flatnonzero(lengths > np.iinfo(np.int64).max)
    if len(big):
        raise IndexFormatError(f"record {big[0]}'s length {lengths[big[0]]} is 2**63 or more")
    try:
        names = names.decode("utf-8")
    except UnicodeDecodeError as exc:
        j = names.count(b"\n", 0, exc.start)
        raise IndexFormatError(f"record {j}'s name is not UTF-8: {exc}") from None
    try:  # making the index runs `check_index`
        index = FmIndex(n, blocks, sentinel_row, samples, names.split("\n"), lengths)
    except ValueError as exc:
        raise IndexFormatError(str(exc)) from None
    if c != index.c:
        raise IndexFormatError(f"C table {c} does not match the bucket totals ({index.c})")
    return index
