"""FM-index construction: `build_index` packs the transform, and `bwt_symbols` reads it."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .alphabet import CHARS_PER_BYTE, encode_array
from .kernels import BUCKET_BYTES, BUCKET_CHARS, Kernel, count_blocks, count_blocks_bytelut

SA_STRIDE = 32


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
    C-contiguous arrays.  Records tile [0, n) in order: their `names` and
    int64 `lengths` are stored, and their int64 `starts` derived like
    `bases`.  The query engine (`fmpm.batch`) reads the arrays directly,
    a field through `bwt_symbols`; `fmpm.serialize` alone knows the file.
    Making an index, by a build, a load or `dataclasses.replace`, runs
    `check_index` and raises its ValueError, so every FmIndex that exists
    writes a file that loads back equal.
    """

    n: int
    c: tuple[int, int, int, int, int]
    blocks: np.ndarray = field(repr=False)
    sentinel_row: int
    samples: np.ndarray = field(repr=False)
    names: tuple[str, ...]
    lengths: np.ndarray = field(repr=False)
    bases: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # store read-only views, so a caller's own array keeps its write flag
        for name, dtype in (("blocks", np.uint8), ("samples", np.int64), ("lengths", np.int64)):
            try:
                array = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            except OverflowError:
                raise ValueError(f"a value of {name} does not fit in {np.dtype(dtype)}") from None
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # every block but the last is full, and the bases are the exclusive
        # running sum of their counts; the terminator counts in the A lane
        bases = np.zeros((len(self.blocks), 4), dtype=np.int64)
        np.cumsum(count_blocks_bytelut(self.blocks[:-1]), axis=0, out=bases[1:])
        bases.flags.writeable = False
        object.__setattr__(self, "bases", bases)
        starts = np.cumsum(self.lengths, axis=0) - self.lengths
        starts.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "c", tuple(self.c))
        object.__setattr__(self, "names", tuple(self.names))
        check_index(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FmIndex):
            return NotImplemented
        return (
            (self.n, self.c, self.sentinel_row, self.names)
            == (other.n, other.c, other.sentinel_row, other.names)
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.blocks, other.blocks)
            and np.array_equal(self.samples, other.samples)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.c, self.sentinel_row, self.names))

    @property
    def bucket_count(self) -> int:
        return len(self.blocks)

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
    from .suffix import bwt_codes, suffix_array  # build-only, so `fmpm match` never loads it
    codes = encode_array(reference)
    n = len(codes)
    if records is None:
        records = [("ref", 0, n)]
    names = tuple(name for name, _, _ in records)
    try:
        starts, lengths = np.array([r[1:] for r in records], dtype=np.int64).reshape(-1, 2).T
    except OverflowError:
        raise ValueError("a record start or length does not fit in int64") from None
    _check_records(names, starts, lengths, n)
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
        names=names,
        lengths=lengths,
    )


def bwt_symbols(index: FmIndex, rows: np.ndarray) -> np.ndarray:
    """Packed transform symbol at each row; the sentinel row reads as A, padding as 0."""
    rows = np.asarray(rows, dtype=np.int64)
    # a block packs 128 rows into 32 bytes, so row r sits in byte r >> 2 of all blocks
    return (index.blocks.reshape(-1)[rows >> 2] >> ((rows & 3) << 1)) & 3


def _check_records(names: tuple[str, ...], starts: np.ndarray, lengths: np.ndarray, n: int):
    """Records tile [0, n) under distinct one-word names, in whole-table passes."""
    if lengths.shape != (len(names),):
        raise ValueError(f"{len(names)} record names for record lengths of shape {lengths.shape}")
    bad = np.flatnonzero((lengths < 1) | (lengths > n) | (starts != np.cumsum(lengths) - lengths))
    if len(bad):
        j = bad[0]
        span = f"start={starts[j]}, length={lengths[j]}"
        raise ValueError(f"record {names[j]!r} ({span}) does not tile the reference")
    covered = int(lengths.sum())
    if covered != n:
        raise ValueError(f"records cover {covered} of {n} characters")
    # what a FASTA header's first word can be: split() drops an empty name, cuts a spaced one
    if " ".join(names).split() != list(names):
        name = next(name for name in names if name.split() != [name])
        raise ValueError(f"record name {name!r} is empty or holds whitespace")
    joined = "\n".join(names)
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError as exc:  # lone surrogates; UTF-8 has none
        name = names[joined.count("\n", 0, exc.start)]
        raise ValueError(f"record name {name!r} does not encode as UTF-8") from None
    if len(set(names)) != len(names):
        name = next(name for name, count in Counter(names).items() if count > 1)
        raise ValueError(f"record name {name!r} is used twice")


def check_index(index: FmIndex) -> None:
    """Validate structural invariants; raises ValueError on any violation.

    `FmIndex` runs it whenever an index is made, so a caller need not.

    Checks the shapes of the blocks and samples; zero padding past the
    transform; the C table against the transform's totals, which are the
    last block's base (derived when the index was made) plus that block's
    own counts, so only the last block is counted here; an A field (the
    terminator) at the sentinel row; samples within [0, n], sample 0 being
    n (row 0 is the terminator suffix); and records tiling [0, n) under
    distinct one-word names.  The header fields (n, c, sentinel_row) are
    compared as Python ints, so an oversized one fails a check here
    instead of overflowing a fixed-width array.

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
    if bwt_symbols(index, np.arange(n + 1, n_buckets * BUCKET_CHARS)).any():
        raise ValueError(f"bucket {n_buckets - 1} padding fields are not zero")
    totals = index.bases[-1] + count_blocks(index.blocks[-1:], np.array([last]), Kernel.BYTELUT)[0]
    totals[0] -= 1  # the terminator, packed as A
    c = build_c_table(totals.tolist())
    if index.c != c:
        raise ValueError(f"C table {index.c} does not match the bucket totals ({c})")
    row = index.sentinel_row
    if bwt_symbols(index, [row])[0]:
        raise ValueError(f"sentinel row {row} does not hold the terminator's A field")
    bad = np.flatnonzero((index.samples < 0) | (index.samples > n))
    if len(bad):
        j = bad[0]
        raise ValueError(
            f"suffix-array sample {j} out of range: {index.samples[j]} outside [0, {n}]"
        )
    if index.samples[0] != n:
        raise ValueError(f"suffix-array sample 0 is {index.samples[0]}, not n={n}")

    _check_records(index.names, index.starts, index.lengths, n)
