"""FM-index construction: `build_index` packs the transform, `FmIndex` derives
its bases and C table from it, and `bwt_symbols` reads it."""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .alphabet import CHARS_PER_BYTE, encode_array
from .kernels import BUCKET_BYTES, BUCKET_CHARS, count_blocks_bytelut

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

    All fields are immutable (the arrays are read-only, C-contiguous
    views); instances are safe to share across threads.  sentinel_row is
    the transform row holding the terminator, `blocks` (n_buckets x 32
    uint8) holds each bucket's packed transform and `samples` (int64)
    every 32nd suffix-array entry.  `bases` (n_buckets x 4 int64), the
    counts before each bucket, and the C table `c`, where c[s] counts
    reference characters lexicographically below symbol s (c[4] == n),
    are not fields one passes: one count of `blocks` derives both when an
    index is made, so neither can disagree with it.  Records tile [0, n)
    in order: their `names` and int64 `lengths` are stored, and their
    int64 `starts` derived.  The query engine (`fmpm.batch`) reads the
    arrays directly, a field through `bwt_symbols`; `fmpm.serialize`
    alone knows the file.  Making an index, by a build, a load or
    `dataclasses.replace`, runs `check_index` before it derives anything
    from the blocks, and raises its ValueError, so every FmIndex that
    exists writes a file that loads back equal.  It also raises one for
    an n or sentinel_row that is not an integer, which it stores as an
    int, and for an array of non-integers.
    """

    n: int
    c: tuple[int, int, int, int, int] = field(init=False)
    blocks: np.ndarray = field(repr=False)
    sentinel_row: int
    samples: np.ndarray = field(repr=False)
    names: tuple[str, ...]
    lengths: np.ndarray = field(repr=False)
    bases: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n", "sentinel_row"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, int(operator.index(value)))
            except TypeError:
                raise ValueError(f"{name} is {value!r}, not an integer") from None
        # store read-only views, so a caller's own array keeps its write flag
        for name, dtype in (("blocks", np.uint8), ("samples", np.int64), ("lengths", np.int64)):
            value = getattr(self, name)
            try:
                array = np.ascontiguousarray(value, dtype=dtype).view()
            except OverflowError:
                raise ValueError(f"a value of {name} does not fit in {np.dtype(dtype)}") from None
            given = np.asarray(value)  # an empty list reads as float64
            if given.size and given.dtype.kind not in "iu":
                raise ValueError(f"{name} holds {given.dtype} values, not integers")
            if given.dtype != array.dtype and not np.array_equal(array, given):  # the cast wrapped
                raise ValueError(f"a value of {name} does not fit in {np.dtype(dtype)}")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "names", tuple(self.names))
        starts = np.cumsum(self.lengths, axis=0) - self.lengths
        starts.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        check_index(self)
        # the bases are the exclusive running sum of the blocks' counts, and C
        # that of their totals, less the padding and terminator packed as A
        counts = count_blocks_bytelut(self.blocks)
        bases = np.cumsum(counts, axis=0)
        padding = len(self.blocks) * BUCKET_CHARS - self.n
        object.__setattr__(self, "c", (0, *(np.cumsum(bases[-1]) - padding).tolist()))
        bases -= counts
        bases.flags.writeable = False
        object.__setattr__(self, "bases", bases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FmIndex):
            return NotImplemented
        return (
            (self.n, self.sentinel_row, self.names) == (other.n, other.sentinel_row, other.names)
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.blocks, other.blocks)
            and np.array_equal(self.samples, other.samples)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.sentinel_row, self.names))

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
    try:
        words = " ".join(names).split()
    except TypeError:
        name = next(name for name in names if not isinstance(name, str))
        raise ValueError(f"record name {name!r} is not a str") from None
    # what a FASTA header's first word can be: split() drops an empty name, cuts a spaced one
    if words != list(names):
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

    Checks n > 0 and the shapes of the blocks and samples, from which the
    index then derives its bases and C table; zero padding past the
    transform; an A field (the terminator) at the sentinel row; samples
    within [0, n], sample 0 being n (row 0 is the terminator suffix); and
    records tiling [0, n) under distinct one-word names.  The reader,
    `deserialize_index`, compares a file's header C table with the index's.

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
    if bwt_symbols(index, np.arange(n + 1, n_buckets * BUCKET_CHARS)).any():
        raise ValueError(f"bucket {n_buckets - 1} padding fields are not zero")
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
