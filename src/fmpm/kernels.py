"""Occurrence-counting kernels over one 128-character packed bucket.

A bucket stores 128 two-bit symbols in 32 bytes.  Every kernel answers the
same question: how many times does a symbol occur among the first
`prefix_len` characters of the bucket?  Each of the four kernels has one
counting body:

* scalar    - per-character unpacking, one symbol or all four; the
              ground-truth oracle.
* bytelut   - one lookup per 16-bit word in a 65,536-entry table that
              packs the word's four counts into 8-bit lanes
              (`count_blocks_bytelut`); a one-symbol count reads one lane
              of the packed sum.
* nibble    - three-phase half-byte pipeline (lookup, extraction,
              aggregation) run on plain 64-bit integers, one 8-byte group
              at a time, mirroring in-register lane arithmetic: each group
              is looked up once, then extracted and summed once per
              requested symbol.
* simd      - the same pipeline vectorized with numpy uint8/uint64 lanes
              over a batch of buckets (`count_blocks_simd`), shifting each
              row once for its own symbol or four times for all four.

`count_blocks` is the one function that takes a kernel by name, and the
one place a prefix is cut from a bucket: it zeroes every field past each
row's prefix once (`mask_blocks`), `bytelut`, `nibble` and `simd` count
all 128 fields of the masked rows, and it takes the zeroed fields, which
decode as A, off the A count.  `scalar` stops at the prefix itself.  Each
`count_bucket_<kernel>` name, and `count_bucket_all4`, is its one-row case.

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

_ALL_SYMBOLS = (0, 1, 2, 3)

_NP_LO = np.frombuffer(TABLES.lo, dtype=np.uint8)
_NP_HI = np.frombuffer(TABLES.hi, dtype=np.uint8)
_NP_FILL = np.uint64(_HIGH6_FILL)
_NP_KEEP = np.uint64(_LOW2_MASK)
# the bit offset of each of a byte's four fields, and of each symbol's count in
# a nibble-table entry
_FIELD_SHIFTS = np.arange(0, 8, 2, dtype=np.uint32)

# _PREFIX_MASKS[r] keeps the first r two-bit fields of a block and zeroes the rest
_PREFIX_MASKS = np.packbits(
    np.arange(2 * BUCKET_CHARS) >> 1 < np.arange(BUCKET_CHARS + 1)[:, np.newaxis],
    axis=1,
    bitorder="little",
)
# _NP_BYTE_COUNTS_PACKED[b]: occurrences of each symbol s among the 4 fields of
# byte b, in bits [8s, 8s + 8)
_NP_BYTE_COUNTS_PACKED = (
    np.uint32(1) << (((np.arange(256, dtype=np.uint32)[:, np.newaxis] >> _FIELD_SHIFTS) & 3) << 3)
).sum(axis=1, dtype=np.uint32)
# _NP_WORD_COUNTS_PACKED[w]: the packed counts of both bytes of 16-bit word w,
# entry (w >> 8) * 256 + (w & 0xFF) of the byte table's outer sum (256 KB)
_NP_WORD_COUNTS_PACKED = (_NP_BYTE_COUNTS_PACKED[:, np.newaxis] + _NP_BYTE_COUNTS_PACKED).ravel()
# one entry per symbol on a leading axis, so the extraction runs for all four at once
_SYMBOL_SHIFTS = _FIELD_SHIFTS.astype(np.uint64)[:, np.newaxis, np.newaxis]


@dataclass
class KernelTrace:
    """Intermediate values of one nibble-kernel invocation, for tests.

    Filled only when passed explicitly; production calls skip all of it.
    Words are little-endian 64-bit views of each 8-byte group of the
    masked block.  `raw_count` counts all 128 fields, so the masked-off
    ones count as A; `count` is the prefix's count.
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


def _count_bucket(
    block: bytes, prefix_len: int, kernel: Kernel | str | None, symbol: int | None = None
) -> np.ndarray:
    """`count_blocks` on one bucket: its four counts, or `symbol`'s count."""
    _check_bucket(block, prefix_len)
    row = np.frombuffer(block, dtype=np.uint8)[np.newaxis]
    symbols = None if symbol is None else np.array([symbol])
    return count_blocks(row, np.array([prefix_len]), kernel, symbols)[0]


def count_bucket_scalar(block: bytes, prefix_len: int, symbol: int) -> int:
    """Reference count: unpack and compare one character at a time."""
    return int(_count_bucket(block, prefix_len, Kernel.SCALAR, symbol))


def count_bucket_bytelut(block: bytes, prefix_len: int, symbol: int) -> int:
    """One symbol's lane of the packed word-table count."""
    return int(_count_bucket(block, prefix_len, Kernel.BYTELUT, symbol))


def count_bucket_nibble(
    block: bytes, prefix_len: int, symbol: int, trace: KernelTrace | None = None
) -> int:
    """The nibble pipeline for one symbol; `trace` records its intermediate values."""
    count = int(_count_bucket(block, prefix_len, Kernel.NIBBLE, symbol))
    if trace is not None:
        row = np.frombuffer(block, dtype=np.uint8)[np.newaxis]
        _nibble(mask_blocks(row, np.array([prefix_len]))[0].tobytes(), (symbol,), trace)
        trace.count = count
    return count


def count_bucket_simd(block: bytes, prefix_len: int, symbol: int) -> int:
    """One symbol of the nibble pipeline vectorized over numpy lanes."""
    return int(_count_bucket(block, prefix_len, Kernel.SIMD, symbol))


def count_bucket_all4(
    block: bytes, prefix_len: int, kernel: Kernel | str | None = None
) -> OccCounts:
    """All four symbol counts for one bucket prefix in a single pass."""
    return OccCounts(*_count_bucket(block, prefix_len, kernel).tolist())


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


def _nibble(
    masked: bytes, symbols: tuple[int, ...], trace: KernelTrace | None = None
) -> list[int]:
    """Three-phase half-byte counts of each of `symbols` over all 128 fields of a block.

    Phase 1 (lookup): each byte's low nibble indexes the complemented
    count table and its high nibble the plain one, yielding two 64-bit
    words per group, once for all symbols.  Phase 2 (extraction): per
    symbol, both words shift right by 2*symbol so the wanted count lands
    in bits [0,1] of every byte; the complemented word is topped up with
    ones, the plain word masked to its low two bits.  Phase 3
    (aggregation): a per-group SAD equals 2040 - group_count, so the
    block count is 8160 minus the SAD total.  Every field is counted, so
    fields masked off as padding show up in the A count.  `trace` records
    the SADs of the last symbol, so pass it with one.
    """
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
    counts = [_BUCKET_SAD_CEILING - sad for sad in sads]
    if trace is not None:
        trace.sad_total = sads[-1]
        trace.raw_count = counts[-1]
    return counts


def mask_blocks(blocks: np.ndarray, prefix_lens: np.ndarray) -> np.ndarray:
    """A copy of `blocks` in which row i keeps its first prefix_lens[i] fields, the rest 0."""
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


def _count_blocks_nibble(masked: np.ndarray, symbol: np.ndarray | None = None) -> np.ndarray:
    """`_nibble` over each masked block in turn, all four symbols or symbol[i]."""
    rows = [row.tobytes() for row in masked]
    if symbol is None:
        return np.array([_nibble(row, _ALL_SYMBOLS) for row in rows], dtype=np.int64).reshape(-1, 4)
    counts = [_nibble(row, (s,))[0] for row, s in zip(rows, symbol.tolist())]
    return np.array(counts, dtype=np.int64)


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

    `bytelut` is the default because it is the fastest here.  Over a batch
    of buckets (`count_blocks`) the lanes of `simd` pay numpy's per-call
    cost once per call, yet still take about 4x as long per row as the
    packed 16-bit word table for one symbol and about 10x for all four.
    """
    if kernel is None:
        return Kernel.BYTELUT
    try:
        return Kernel(kernel)
    except ValueError:
        names = ", ".join(k.value for k in Kernel)
        raise ValueError(f"unknown kernel {kernel!r}; expected one of: {names}") from None


def count_blocks(
    blocks: np.ndarray,
    prefix_lens: np.ndarray,
    kernel: Kernel | str | None = None,
    symbol: np.ndarray | None = None,
) -> np.ndarray:
    """Counts among the first prefix_lens[i] fields of each of m blocks.

    Without `symbol`, all four counts, shape (m, 4); with it, the count of
    symbol[i] in block i, shape (m,), and every kernel counts that symbol
    only.  `scalar` reads each row's prefix field by field.  The others
    count every field of the masked rows, `bytelut` and `simd` in one
    numpy pass and `nibble` row by row, and the masked-off fields, which
    decode as A, come off the A count here.
    """
    kernel = resolve_kernel(kernel)
    if kernel is Kernel.SCALAR:
        rows = [row.tobytes() for row in blocks]
        if symbol is None:
            counts = list(map(_all4_scalar, rows, prefix_lens.tolist()))
            return np.array(counts, dtype=np.int64).reshape(-1, 4)
        counts = list(map(_count_scalar, rows, prefix_lens.tolist(), symbol.tolist()))
        return np.array(counts, dtype=np.int64)
    masked = mask_blocks(blocks, prefix_lens)
    if kernel is Kernel.BYTELUT:
        counts = count_blocks_bytelut(masked, symbol)
    elif kernel is Kernel.SIMD:
        counts = count_blocks_simd(masked, symbol)
    else:
        counts = _count_blocks_nibble(masked, symbol)
    padding = BUCKET_CHARS - prefix_lens
    if symbol is None:
        counts[:, A] -= padding
    else:
        counts -= (symbol == A) * padding
    return counts
