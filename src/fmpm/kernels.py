"""Occurrence-counting kernels over one 128-character packed bucket.

A bucket stores 128 two-bit symbols in 32 bytes.  Every kernel answers the
same question: how many times does a symbol occur among the first
`prefix_len` characters of the bucket?  Each of the four kernels has one
counting body:

* scalar    - per-character unpacking, one symbol or all four; the
              ground-truth oracle.
* bytelut   - table lookups that pack a byte's four counts into 8-bit
              lanes: 256 entries per byte for one bucket, and over a batch
              65,536 entries per 16-bit word, derived from the byte table;
              a one-symbol count reads one lane of the packed sum.
* nibble    - three-phase half-byte pipeline (lookup, extraction,
              aggregation) run on plain 64-bit integers, one 8-byte group
              at a time, mirroring in-register lane arithmetic: each group
              is looked up once, then extracted and summed once per
              requested symbol.
* simd      - the same pipeline vectorized with numpy uint8/uint64 lanes
              over a batch of buckets (`count_blocks_simd`), shifting each
              row once for its own symbol or four times for all four; a
              one-bucket count is its one-row case.

`count_bucket_all4` (one bucket) and `count_blocks` (a batch; `bytelut`
runs its word table over all rows at once) are the two functions that
take a kernel by name.  `count_bucket_<kernel>` counts one symbol in one bucket.

The nibble pipeline works on complemented low-nibble counts so that a
sum-of-absolute-differences against the high-nibble counts folds both
halves into one reduction: each looked-up low byte holds 255 - c_lo and
each high byte holds c_hi, so |lo - hi| = 255 - (c_lo + c_hi), giving
2040 - group_count per 8-byte group and 8160 - bucket_count overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .alphabet import A

BUCKET_CHARS = 128
BUCKET_BYTES = 32

_GROUP_BYTES = 8
_LOW2_MASK = 0x0303030303030303
_HIGH6_FILL = 0xFCFCFCFCFCFCFCFC
# 32 bytes * 255: the SAD value of an all-zero count
_BUCKET_SAD_CEILING = 8160


class OccCounts(NamedTuple):
    """Per-symbol counts in A, C, G, T order (indexable by symbol code)."""

    a: int
    c: int
    g: int
    t: int


class NibbleTables(NamedTuple):
    """16-entry lookup tables indexed by a half-byte (two packed symbols).

    hi[v] packs the counts of each symbol s among the two 2-bit fields of v
    into bits [2s, 2s+1].  lo[v] is the bitwise complement of the same
    packed byte, pre-complemented so the extraction phase can produce
    255 - count without extra work.
    """

    lo: bytes
    hi: bytes

    @staticmethod
    def build() -> "NibbleTables":
        hi = bytearray(16)
        for v in range(16):
            packed = 0
            for code in (v & 3, (v >> 2) & 3):
                packed += 1 << (code << 1)
            hi[v] = packed
        lo = bytes(~b & 0xFF for b in hi)
        return NibbleTables(lo=lo, hi=bytes(hi))


TABLES = NibbleTables.build()


# _BYTE_COUNTS_PACKED[b]: occurrences of each symbol s among the 4 fields of
# byte b, in bits [8s, 8s + 8)
_BYTE_COUNTS_PACKED = [
    sum(1 << (((b >> shift) & 3) << 3) for shift in (0, 2, 4, 6)) for b in range(256)
]
_ALL_SYMBOLS = (0, 1, 2, 3)

_NP_LO = np.frombuffer(TABLES.lo, dtype=np.uint8)
_NP_HI = np.frombuffer(TABLES.hi, dtype=np.uint8)
_NP_FILL = np.uint64(_HIGH6_FILL)
_NP_KEEP = np.uint64(_LOW2_MASK)


@dataclass
class KernelTrace:
    """Intermediate values of one nibble-kernel invocation, for tests.

    Filled only when passed explicitly; production calls skip all of it.
    Words are little-endian 64-bit views of each 8-byte group.
    """

    masked_words: list[int] = field(default_factory=list)
    lookup_lo_words: list[int] = field(default_factory=list)
    lookup_hi_words: list[int] = field(default_factory=list)
    group_sads: list[int] = field(default_factory=list)
    sad_total: int = 0
    raw_count: int = 0
    count: int = 0


def _check_bucket(block: bytes, prefix_len: int) -> None:
    if len(block) != BUCKET_BYTES:
        raise ValueError(f"bucket block must be {BUCKET_BYTES} bytes, got {len(block)}")
    if not 0 <= prefix_len <= BUCKET_CHARS:
        raise ValueError(f"prefix_len {prefix_len} outside [0, {BUCKET_CHARS}]")


def mask_bucket(block: bytes, prefix_len: int) -> bytes:
    """Zero every 2-bit field at positions >= prefix_len (symbol A)."""
    if prefix_len >= BUCKET_CHARS:
        return bytes(block)
    full, rem = divmod(prefix_len, 4)
    out = bytearray(BUCKET_BYTES)
    out[:full] = block[:full]
    if rem:
        out[full] = block[full] & ((1 << (rem << 1)) - 1)
    return bytes(out)


def count_bucket_scalar(block: bytes, prefix_len: int, symbol: int) -> int:
    """Reference count: unpack and compare one character at a time."""
    _check_bucket(block, prefix_len)
    return _count_scalar(block, prefix_len, symbol)


def _count_scalar(block: bytes, prefix_len: int, symbol: int) -> int:
    count = 0
    for j in range(prefix_len):
        if (block[j >> 2] >> ((j & 3) << 1)) & 3 == symbol:
            count += 1
    return count


def _all4_scalar(block: bytes, prefix_len: int) -> OccCounts:
    counts = [0, 0, 0, 0]
    for j in range(prefix_len):
        counts[(block[j >> 2] >> ((j & 3) << 1)) & 3] += 1
    return OccCounts(*counts)


def count_bucket_bytelut(block: bytes, prefix_len: int, symbol: int) -> int:
    """One symbol's lane of the packed byte-table count."""
    _check_bucket(block, prefix_len)
    return _all4_bytelut(block, prefix_len)[symbol]


def _all4_bytelut(block: bytes, prefix_len: int) -> OccCounts:
    full, rem = divmod(prefix_len, 4)
    # one byte per symbol lane; 32 bytes * count<=4 stays below 256
    packed = sum(map(_BYTE_COUNTS_PACKED.__getitem__, block[:full]))
    counts = [(packed >> (s << 3)) & 0xFF for s in range(4)]
    if rem:
        b = block[full]
        for f in range(rem):
            counts[(b >> (f << 1)) & 3] += 1
    return OccCounts(*counts)


def count_bucket_nibble(
    block: bytes,
    prefix_len: int,
    symbol: int,
    trace: KernelTrace | None = None,
) -> int:
    """The nibble pipeline for one symbol; `trace` records its intermediate values."""
    _check_bucket(block, prefix_len)
    return _nibble(block, prefix_len, (symbol,), trace)[0]


def _nibble(
    block: bytes, prefix_len: int, symbols: tuple[int, ...], trace: KernelTrace | None = None
) -> list[int]:
    """Three-phase half-byte counts of each of `symbols` over four 8-byte groups.

    Phase 1 (lookup): each byte's low nibble indexes the complemented
    count table and its high nibble the plain one, yielding two 64-bit
    words per group, once for all symbols.  Phase 2 (extraction): per
    symbol, both words shift right by 2*symbol so the wanted count lands
    in bits [0,1] of every byte; the complemented word is topped up with
    ones, the plain word masked to its low two bits.  Phase 3
    (aggregation): a per-group SAD equals 2040 - group_count, so the
    bucket count is 8160 minus the SAD total.  Positions masked off as
    padding decode as symbol A and are subtracted again at the end.
    `trace` records the SADs of the last symbol, so pass it with one.
    """
    masked = mask_bucket(block, prefix_len)
    lo_t, hi_t = TABLES
    sads = [0] * len(symbols)
    for g in range(0, BUCKET_BYTES, _GROUP_BYTES):
        lo_w = 0
        hi_w = 0
        for i in range(_GROUP_BYTES):
            b = masked[g + i]
            off = i << 3
            lo_w |= lo_t[b & 0x0F] << off
            hi_w |= hi_t[b >> 4] << off
        for j, symbol in enumerate(symbols):
            shift = symbol << 1
            # 64-bit-wide shifts; bits bleeding across byte lanes are wiped
            # by the fill/mask step, which only keeps bits [0,1] meaningful.
            shifted_lo = (lo_w >> shift) | _HIGH6_FILL
            shifted_hi = (hi_w >> shift) & _LOW2_MASK
            sad = 0
            for off in range(0, 64, 8):
                sad += abs(((shifted_lo >> off) & 0xFF) - ((shifted_hi >> off) & 0xFF))
            sads[j] += sad
        if trace is not None:
            trace.masked_words.append(int.from_bytes(masked[g : g + _GROUP_BYTES], "little"))
            trace.lookup_lo_words.append(lo_w)
            trace.lookup_hi_words.append(hi_w)
            trace.group_sads.append(sad)
    padding = BUCKET_CHARS - prefix_len
    counts = [
        _BUCKET_SAD_CEILING - sad - (padding if s == A else 0) for sad, s in zip(sads, symbols)
    ]
    if trace is not None:
        trace.sad_total = sads[-1]
        trace.raw_count = _BUCKET_SAD_CEILING - sads[-1]
        trace.count = counts[-1]
    return counts


def count_bucket_simd(block: bytes, prefix_len: int, symbol: int) -> int:
    """One symbol of the nibble pipeline vectorized over numpy lanes."""
    _check_bucket(block, prefix_len)
    row = np.frombuffer(block, dtype=np.uint8)[np.newaxis]
    return int(count_blocks(row, np.array([prefix_len]), Kernel.SIMD, np.array([symbol]))[0])


# _PREFIX_MASKS[r] keeps the first r two-bit fields of a block and zeroes the rest
_PREFIX_MASKS = np.array(
    [
        np.frombuffer(mask_bucket(b"\xff" * BUCKET_BYTES, r), dtype=np.uint8)
        for r in range(BUCKET_CHARS + 1)
    ]
)
_NP_BYTE_COUNTS_PACKED = np.array(_BYTE_COUNTS_PACKED, dtype=np.uint32)
# _NP_WORD_COUNTS_PACKED[w]: the packed counts of both bytes of 16-bit word w,
# entry (w >> 8) * 256 + (w & 0xFF) of the byte table's outer sum (256 KB)
_NP_WORD_COUNTS_PACKED = (_NP_BYTE_COUNTS_PACKED[:, np.newaxis] + _NP_BYTE_COUNTS_PACKED).ravel()
# one entry per symbol on a leading axis, so the extraction runs for all four at once
_SYMBOL_SHIFTS = np.arange(0, 8, 2, dtype=np.uint64)[:, np.newaxis, np.newaxis]


def mask_blocks(blocks: np.ndarray, prefix_lens: np.ndarray) -> np.ndarray:
    """mask_bucket over a batch: row i of `blocks` keeps prefix_lens[i] fields."""
    masked = np.take(_PREFIX_MASKS, prefix_lens, axis=0)
    masked &= blocks
    return masked


def count_blocks_bytelut(masked: np.ndarray, symbol: np.ndarray | None = None) -> np.ndarray:
    """Symbol counts over all 128 fields of each masked block, by 16-bit word table.

    Each block is read as 16 little-endian words, and each word's table
    entry packs its four counts into 8-bit lanes of one uint32; a lane sums
    to at most 128 over 16 words, so lanes never carry.  Without `symbol`,
    all four lanes, shape (m, 4); with it, lane symbol[i] of row i, shape (m,).
    """
    # einsum sums each row several times faster than .sum(axis=1) on 16 columns
    packed = np.einsum("ij->i", np.take(_NP_WORD_COUNTS_PACKED, masked.view("<u2")))
    if symbol is None:
        # lane s is byte s of the little-endian word
        return packed.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4).astype(np.int64)
    return ((packed >> (symbol.astype(np.uint32) << 3)) & 0xFF).astype(np.int64)


def count_blocks_simd(masked: np.ndarray, symbol: np.ndarray | None = None) -> np.ndarray:
    """The nibble pipeline over a batch of masked blocks, all four symbols or symbol[i].

    Phase 1 looks up both half-bytes of every byte once; phase 2 shifts
    the wanted symbol's field into bits [0, 1] of every byte lane, on a
    leading axis once per symbol without `symbol` and once per row with
    it; phase 3 takes the per-block sum of absolute differences (max - min
    on unsigned lanes, as psadbw does), giving 8160 - count.  Every field
    is counted, so zeroed padding shows up in the A count.
    """
    lo = np.take(_NP_LO, masked & 0x0F).view("<u8")
    hi = np.take(_NP_HI, masked >> 4).view("<u8")
    if symbol is None:
        shifts = _SYMBOL_SHIFTS
    else:
        shifts = (symbol << 1).astype(np.uint64)[:, np.newaxis]
    lo_lanes = ((lo >> shifts) | _NP_FILL).view(np.uint8)
    hi_lanes = ((hi >> shifts) & _NP_KEEP).view(np.uint8)
    diffs = np.maximum(lo_lanes, hi_lanes) - np.minimum(lo_lanes, hi_lanes)
    return (_BUCKET_SAD_CEILING - np.einsum("...j->...", diffs, dtype=np.int64)).T


class Kernel(str, Enum):
    SCALAR = "scalar"
    BYTELUT = "bytelut"
    NIBBLE = "nibble"
    SIMD = "simd"


def resolve_kernel(kernel: Kernel | str | None = None) -> Kernel:
    """The kernel a name or member selects; None selects the byte-table kernel.

    `bytelut` is the default because it is the fastest here.  On one
    32-byte bucket numpy's per-call dispatch makes the lane kernel several
    times slower than table lookups.  Over a batch of buckets
    (`count_blocks`) the lanes pay that cost once per call, yet still take
    about 4x as long per row as the packed 16-bit word table for one symbol
    and about 10x for all four.
    """
    if kernel is None:
        return Kernel.BYTELUT
    try:
        return Kernel(kernel)
    except ValueError:
        names = ", ".join(k.value for k in Kernel)
        raise ValueError(f"unknown kernel {kernel!r}; expected one of: {names}") from None


def count_bucket_all4(
    block: bytes, prefix_len: int, kernel: Kernel | str | None = None
) -> OccCounts:
    """All four symbol counts for one bucket prefix in a single pass."""
    _check_bucket(block, prefix_len)
    kernel = resolve_kernel(kernel)
    if kernel is Kernel.SCALAR:
        return _all4_scalar(block, prefix_len)
    if kernel is Kernel.BYTELUT:
        return _all4_bytelut(block, prefix_len)
    if kernel is Kernel.NIBBLE:
        return OccCounts(*_nibble(block, prefix_len, _ALL_SYMBOLS))
    row = np.frombuffer(block, dtype=np.uint8)[np.newaxis]
    return OccCounts(*count_blocks(row, np.array([prefix_len]), kernel)[0].tolist())


def count_blocks(
    blocks: np.ndarray,
    prefix_lens: np.ndarray,
    kernel: Kernel | str | None = None,
    symbol: np.ndarray | None = None,
) -> np.ndarray:
    """Counts among the first prefix_lens[i] fields of each of m blocks.

    Without `symbol`, all four counts, shape (m, 4); with it, the count of
    symbol[i] in block i, shape (m,).  `bytelut` and `simd` count whole
    masked blocks in one numpy pass; `scalar` and `nibble` stay one-bucket
    kernels run row by row.  With `symbol`, every kernel counts that symbol
    only.
    """
    kernel = resolve_kernel(kernel)
    if kernel is Kernel.BYTELUT or kernel is Kernel.SIMD:
        batched = count_blocks_bytelut if kernel is Kernel.BYTELUT else count_blocks_simd
        counts = batched(mask_blocks(blocks, prefix_lens), symbol)
        padding = BUCKET_CHARS - prefix_lens  # masked-off fields decode as A
        if symbol is None:
            counts[:, A] -= padding
        else:
            counts -= (symbol == A) * padding
        return counts
    rows = [row.tobytes() for row in blocks]
    prefixes = prefix_lens.tolist()
    if symbol is None:
        if kernel is Kernel.SCALAR:
            counts = list(map(_all4_scalar, rows, prefixes))
        else:
            counts = [_nibble(row, prefix, _ALL_SYMBOLS) for row, prefix in zip(rows, prefixes)]
        return np.array(counts, dtype=np.int64).reshape(len(rows), 4)
    if kernel is Kernel.SCALAR:
        counts = list(map(_count_scalar, rows, prefixes, symbol.tolist()))
    else:
        counts = [
            _nibble(row, prefix, (s,))[0] for row, prefix, s in zip(rows, prefixes, symbol.tolist())
        ]
    return np.array(counts, dtype=np.int64)
