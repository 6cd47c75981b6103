"""FM-index construction: C table, occurrence buckets, sampled suffix entries."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .alphabet import CHARS_PER_BYTE, encode_array
from .kernels import BUCKET_BYTES, BUCKET_CHARS, Kernel, count_blocks, count_blocks_bytelut
from .suffix import bwt_codes, suffix_array

SA_STRIDE = 32


@dataclass(frozen=True)
class RecordSpan:
    """One named stretch of the concatenated reference."""

    name: str
    start: int
    length: int


# read only by perfbench/traced.py's `kernel_layer`, through `FmIndex.buckets`;
# both go once it times `count_blocks` on `blocks` itself
@dataclass(frozen=True)
class OccBucket:
    """Counter block covering 128 transform characters.

    base[s] holds the number of occurrences of symbol s strictly before
    this bucket, counted over the raw packed transform (the terminator is
    packed as code 0 and therefore included in the A lane; queries correct
    for it).  chars is the 32-byte packed block, zero-padded past the end
    of the transform.
    """

    base: tuple[int, int, int, int]
    chars: bytes


@dataclass(frozen=True, eq=False)
class FmIndex:
    """Succinct FM-index over a concatenated DNA reference.

    All fields are immutable (the arrays are read-only views); instances
    are safe to share across threads.  c[s] counts reference characters
    lexicographically below symbol s (c[4] == n), and sentinel_row is the
    transform row holding the terminator.  `blocks` (n_buckets x 32 uint8)
    holds each bucket's packed transform and `samples` (int64) every 32nd
    suffix-array entry.  `bases` (n_buckets x 4 int64), the counts before
    each bucket, is not a field one passes: it is derived from `blocks`
    whenever an index is made, so the two cannot disagree.  All three are
    C-contiguous arrays.  The query engine (`fmpm.batch`) reads them
    directly; `fmpm.serialize` alone knows how the file lays them out.
    Making an index, by a build, a load or `dataclasses.replace`, runs
    `check_index` and raises its ValueError, so every FmIndex that exists
    writes a file that loads back equal.
    """

    n: int
    c: tuple[int, int, int, int, int]
    blocks: np.ndarray = field(repr=False)
    sentinel_row: int
    samples: np.ndarray = field(repr=False)
    records: tuple[RecordSpan, ...]
    bases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # store read-only views, so a caller's own array keeps its write flag
        for name, dtype in (("blocks", np.uint8), ("samples", np.int64)):
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # every block but the last is full, and the bases are the exclusive
        # running sum of their counts; the terminator counts in the A lane
        bases = np.zeros((len(self.blocks), 4), dtype=np.int64)
        np.cumsum(count_blocks_bytelut(self.blocks[:-1]), axis=0, out=bases[1:])
        bases.flags.writeable = False
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "c", tuple(self.c))
        object.__setattr__(self, "records", tuple(self.records))
        check_index(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FmIndex):
            return NotImplemented
        return (
            (self.n, self.c, self.sentinel_row, self.records)
            == (other.n, other.c, other.sentinel_row, other.records)
            and np.array_equal(self.blocks, other.blocks)
            and np.array_equal(self.samples, other.samples)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.c, self.sentinel_row, self.records))

    @property
    def bucket_count(self) -> int:
        return len(self.blocks)

    @cached_property
    def starts(self) -> np.ndarray:
        """int64 start of each record."""
        return np.array([r.start for r in self.records], dtype=np.int64)

    @cached_property
    def lengths(self) -> np.ndarray:
        """int64 length of each record."""
        return np.array([r.length for r in self.records], dtype=np.int64)

    # one bucket at a time, for perfbench/traced.py's `kernel_layer`, its only caller
    @cached_property
    def buckets(self) -> tuple[OccBucket, ...]:
        blocks = self.blocks.tobytes()
        return tuple(
            OccBucket(base=tuple(base), chars=blocks[j * BUCKET_BYTES : (j + 1) * BUCKET_BYTES])
            for j, base in enumerate(self.bases.tolist())
        )


def build_c_table(totals: Sequence[int]) -> tuple[int, int, int, int, int]:
    """Exclusive prefix sums of the four symbol totals."""
    if len(totals) != 4 or any(t < 0 for t in totals):
        raise ValueError("expected four non-negative symbol totals")
    c = [0]
    for t in totals:
        c.append(c[-1] + t)
    return tuple(c)


def build_index(
    reference: str, records: Sequence[tuple[str, int, int]] | None = None
) -> FmIndex:
    """Build the full index for a reference string.

    `records` names stretches of the reference as (name, start, length)
    triples; they must tile [0, n) contiguously under distinct one-word
    names, which is checked before the suffix sort.  Omitted, the whole
    reference becomes a single record called "ref".
    """
    codes = encode_array(reference)
    n = len(codes)
    spans = _normalize_records(records, n)
    c = build_c_table([int(np.count_nonzero(codes == s)) for s in range(4)])
    sa = suffix_array(codes)
    bwt, sentinel_row = bwt_codes(codes, sa)
    del codes
    n_buckets = n // BUCKET_CHARS + 1

    # the terminator is coded as A; padding past the transform packs as 0
    lanes = np.zeros(n_buckets * BUCKET_CHARS, dtype=np.uint8)
    lanes[: n + 1] = bwt
    del bwt
    quads = lanes.reshape(-1, CHARS_PER_BYTE)
    blocks = (quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6).reshape(
        n_buckets, BUCKET_BYTES
    )
    del lanes, quads
    return FmIndex(
        n=n,
        c=c,
        blocks=blocks,
        sentinel_row=sentinel_row,
        samples=sa[::SA_STRIDE],
        records=spans,
    )


def _normalize_records(
    records: Sequence[tuple[str, int, int]] | None, n: int
) -> tuple[RecordSpan, ...]:
    if records is None:
        return (RecordSpan(name="ref", start=0, length=n),)
    spans = []
    names = set()
    expected_start = 0
    for name, start, length in records:
        if name.split() != [name]:  # what a FASTA header's first word can be
            raise ValueError(f"record name {name!r} is empty or holds whitespace")
        if any("\ud800" <= ch <= "\udfff" for ch in name):  # lone surrogates; UTF-8 has none
            raise ValueError(f"record name {name!r} does not encode as UTF-8")
        if name in names:
            raise ValueError(f"record name {name!r} is used twice")
        names.add(name)
        if start != expected_start or length <= 0:
            raise ValueError(
                f"record {name!r} (start={start}, length={length}) does not tile the reference"
            )
        spans.append(RecordSpan(name=name, start=start, length=length))
        expected_start = start + length
    if expected_start != n:
        raise ValueError(f"records cover {expected_start} of {n} characters")
    return tuple(spans)


def check_index(index: FmIndex) -> None:
    """Validate structural invariants; raises ValueError on any violation.

    `FmIndex` runs it whenever an index is made, so a caller need not.

    Checks the shapes of the blocks and samples; zero padding past the
    transform; the C table against the transform's totals, which are the
    last block's base (derived when the index was made) plus that block's
    own counts, so only the last block is counted here; an A field (the
    terminator) at the sentinel row; samples within [0, n], sample 0 being
    n (row 0 is the terminator suffix); and records tiling [0, n) under
    distinct one-word names.  The header fields (n, c, sentinel_row,
    record spans) are compared as Python ints, so an oversized one fails a
    check here instead of overflowing a fixed-width array.

    Without walking the transform it cannot see a change that keeps the
    transform's totals, such as two fields swapped inside one block or
    compensating changes in two blocks, a sample rewritten to another
    value within [0, n], or the sentinel row moved to another row that
    holds an A field.  Such a transform can send a predecessor walk round
    a cycle; `fmpm.batch.locate_rows` raises for that, whether the walk
    never reaches a stop row or walks meet each other in a cycle.
    """
    n = index.n
    if n <= 0:
        raise ValueError("index covers an empty reference")
    n_buckets = n // BUCKET_CHARS + 1
    if index.blocks.shape != (n_buckets, BUCKET_BYTES):
        raise ValueError(f"expected {n_buckets} buckets for n={n}, found {index.blocks.shape}")
    if index.samples.shape != (n // SA_STRIDE + 1,):
        raise ValueError(f"expected {n // SA_STRIDE + 1} samples, found {index.samples.shape}")
    if not 0 <= index.sentinel_row <= n:
        raise ValueError(f"sentinel row {index.sentinel_row} outside [0, {n}]")

    last = n + 1 - (n_buckets - 1) * BUCKET_CHARS  # fields of the transform in the last block
    # field r of a block is bits 2r and 2r + 1 of its little-endian bytes
    if int.from_bytes(index.blocks[-1].tobytes(), "little") >> (2 * last):
        raise ValueError(f"bucket {n_buckets - 1} padding fields are not zero")
    totals = index.bases[-1] + count_blocks(index.blocks[-1:], np.array([last]), Kernel.BYTELUT)[0]
    totals[0] -= 1  # the terminator, packed as A
    c = build_c_table(totals.tolist())
    if index.c != c:
        raise ValueError(f"C table {index.c} does not match the bucket totals ({c})")
    row = index.sentinel_row
    if index.blocks[row // BUCKET_CHARS, row % BUCKET_CHARS >> 2] >> 2 * (row & 3) & 3:
        raise ValueError(f"sentinel row {row} does not hold the terminator's A field")
    bad = np.flatnonzero((index.samples < 0) | (index.samples > n))
    if len(bad):
        j = bad[0]
        raise ValueError(
            f"suffix-array sample {j} out of range: {index.samples[j]} outside [0, {n}]"
        )
    if index.samples[0] != n:
        raise ValueError(f"suffix-array sample 0 is {index.samples[0]}, not n={n}")

    _normalize_records([(r.name, r.start, r.length) for r in index.records], n)
