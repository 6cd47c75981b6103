"""Batched queries: backward search and locate for many patterns at once.

The per-query functions in `fmpm.search` stay the public API and the
reference the tests compare against.  Here each backward-search step of
every pattern still in play, and each predecessor step of every row still
being located, is one call of `rank_all4_many`: the buckets of all
positions are gathered, masked to their prefixes and counted by the
selected kernel in one numpy pass.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .alphabet import A, encode_array, is_dna
from .index import FmIndex, SA_STRIDE
from .kernels import BUCKET_CHARS, Kernel, count_blocks, mask_blocks, resolve_kernel
from .search import inexact_search


class IndexView(NamedTuple):
    """The arrays of one FmIndex that batched queries read."""

    n: int
    sentinel_row: int
    c: np.ndarray  # (5,) int64
    blocks: np.ndarray  # (n_buckets, 32) uint8 packed transform
    bases: np.ndarray  # (n_buckets, 4) int64 counts before each bucket
    samples: np.ndarray  # int64 suffix-array entries of rows 0, 32, 64, ...
    starts: np.ndarray  # int64 record starts
    lengths: np.ndarray  # int64 record lengths


class BatchHits(NamedTuple):
    """Hits of a batch of patterns, sorted by (pattern, position).

    The first four arrays run over hits; `truncated` and `degenerate` run
    over patterns.  `record` indexes `FmIndex.records`.
    """

    pattern: np.ndarray
    record: np.ndarray
    offset: np.ndarray
    diffs: np.ndarray
    truncated: np.ndarray
    degenerate: np.ndarray


def index_view(index: FmIndex) -> IndexView:
    """Copy the buckets, samples and record spans of `index` into arrays."""
    chars = b"".join(bucket.chars for bucket in index.buckets)
    return IndexView(
        n=index.n,
        sentinel_row=index.sentinel_row,
        c=np.array(index.c, dtype=np.int64),
        blocks=np.frombuffer(chars, dtype=np.uint8).reshape(len(index.buckets), -1),
        bases=np.array([bucket.base for bucket in index.buckets], dtype=np.int64),
        samples=np.array(index.sa_samples, dtype=np.int64),
        starts=np.array([r.start for r in index.records], dtype=np.int64),
        lengths=np.array([r.length for r in index.records], dtype=np.int64),
    )


def rank_all4_many(
    view: IndexView, pos: np.ndarray, kernel: Kernel | str | None = None
) -> np.ndarray:
    """Occurrences of each symbol in rows 0..pos[i], shape (len(pos), 4).

    The batched form of `occ_all`: entries must lie in [-1, n], and -1
    gives zeros.
    """
    pos = np.asarray(pos, dtype=np.int64)
    bucket = np.maximum(pos, 0) // BUCKET_CHARS
    prefix = pos + 1 - bucket * BUCKET_CHARS  # 0 only at pos == -1
    counts = count_blocks(mask_blocks(view.blocks[bucket], prefix), kernel)
    counts[:, A] -= BUCKET_CHARS - prefix  # masked-off fields decode as A
    counts += view.bases[bucket]
    counts[:, A] -= pos >= view.sentinel_row  # the terminator is packed as A
    return counts


def exact_search_many(
    view: IndexView, patterns: Sequence[str], kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Intervals (k, l) of ACGT patterns, like `exact_search` run on each.

    Patterns are walked right to left in lockstep.  Step t ranks k - 1 and
    l of every pattern longer than t whose interval is still non-empty.
    An empty result has k > l, though not the bounds exact_search reports.
    """
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)
    codes = encode_array("".join(patterns)).astype(np.int64)
    last = np.cumsum(lengths) - 1
    symbol = codes[last]
    k = view.c[symbol] + 1
    l = view.c[symbol + 1]
    for t in range(1, int(lengths.max(initial=0))):
        live = np.flatnonzero((lengths > t) & (k <= l))
        if not len(live):
            break
        symbol = codes[last[live] - t]
        counts = rank_all4_many(view, np.concatenate([k[live] - 1, l[live]]), kernel)
        at = np.arange(len(live))
        base = view.c[symbol]
        k[live] = base + counts[at, symbol] + 1
        l[live] = base + counts[at + len(live), symbol]
    return k, l


def locate_rows(
    view: IndexView, rows: np.ndarray, kernel: Kernel | str | None = None
) -> np.ndarray:
    """Text position of every row, like `locate_row` run on each.

    All rows step to their predecessors together; a row leaves the walk at
    the sentinel row or at a sampled row, after the same number of steps
    as every other row leaving then.
    """
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty(len(rows), dtype=np.int64)
    todo = np.arange(len(rows))
    steps = 0
    while True:
        at_sentinel = rows == view.sentinel_row
        sampled = (rows % SA_STRIDE == 0) & ~at_sentinel
        out[todo[at_sentinel]] = steps
        out[todo[sampled]] = view.samples[rows[sampled] // SA_STRIDE] + steps
        walking = ~(at_sentinel | sampled)
        todo, rows = todo[walking], rows[walking]
        if not len(rows):
            return out
        r = rows % BUCKET_CHARS
        symbol = (view.blocks[rows // BUCKET_CHARS, r >> 2] >> ((r & 3) << 1)) & 3
        rank = rank_all4_many(view, rows, kernel)[np.arange(len(rows)), symbol]
        rows = view.c[symbol] + rank
        steps += 1
        if steps > view.n + 1:
            raise RuntimeError("predecessor walk did not terminate; index is corrupt")


def locate_hits(
    view: IndexView,
    pattern: np.ndarray,
    k: np.ndarray,
    l: np.ndarray,
    diffs: np.ndarray,
    pattern_lengths: np.ndarray,
    kernel: Kernel | str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Locate every row of non-empty intervals tagged (pattern, diffs).

    Applies what `collect_hits` applies per pattern: rows past the end or
    whose pattern_length - diffs characters cross a record boundary are
    dropped, and of the hits at one position of one pattern the one with
    the fewest diffs is kept.  Returns (pattern, record, offset, diffs),
    sorted by pattern and position.
    """
    widths = l - k + 1
    first = np.cumsum(widths) - widths
    rows = np.arange(int(widths.sum())) + np.repeat(k - first, widths)
    pattern = np.repeat(pattern, widths)
    diffs = np.repeat(diffs, widths)
    pos = locate_rows(view, rows, kernel)
    record = np.searchsorted(view.starts, pos, side="right") - 1
    offset = pos - view.starts[record]
    min_span = np.maximum(pattern_lengths[pattern] - diffs, 0)
    kept = np.flatnonzero((pos < view.n) & (offset + min_span <= view.lengths[record]))
    kept = kept[np.lexsort((diffs[kept], pos[kept], pattern[kept]))]
    by_pattern, by_pos = pattern[kept], pos[kept]
    fewest = np.ones(len(kept), dtype=bool)
    fewest[1:] = (by_pattern[1:] != by_pattern[:-1]) | (by_pos[1:] != by_pos[:-1])
    picked = kept[fewest]
    return pattern[picked], record[picked], offset[picked], diffs[picked]


def match_many(
    index: FmIndex,
    patterns: Sequence[str],
    max_diff: int,
    kernel: Kernel | str | None = None,
    max_hits: int | None = None,
) -> BatchHits:
    """Hits of every pattern: what `collect_hits` gives for each, in one pass.

    Exact search (max_diff 0) is batched; a positive budget runs
    `inexact_search` per pattern.  Locate is batched either way.  Patterns
    with characters outside ACGT are flagged degenerate and get no hits.
    """
    kernel = resolve_kernel(kernel)
    view = index_view(index)
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)
    degenerate = np.array([not is_dna(p) for p in patterns], dtype=bool)
    dna = np.flatnonzero(~degenerate)
    if max_diff == 0:
        k, l = exact_search_many(view, [patterns[i] for i in dna], kernel)
        found = k <= l
        intervals = [dna[found], k[found], l[found], np.zeros(int(found.sum()), np.int64)]
    else:
        rows = [
            (pid, m.interval.k, m.interval.l, m.diffs_used)
            for pid in dna.tolist()
            for m in inexact_search(index, patterns[pid], max_diff, kernel)
        ]
        intervals = list(np.array(rows, dtype=np.int64).reshape(-1, 4).T)
    pattern, record, offset, diffs = locate_hits(view, *intervals, lengths, kernel)

    truncated = np.zeros(len(patterns), dtype=bool)
    if max_hits is not None:
        per_pattern = np.bincount(pattern, minlength=len(patterns))
        truncated = per_pattern > max_hits
        rank = np.arange(len(pattern)) - (np.cumsum(per_pattern) - per_pattern)[pattern]
        kept = rank < max_hits
        pattern, record, offset, diffs = pattern[kept], record[kept], offset[kept], diffs[kept]
    return BatchHits(pattern, record, offset, diffs, truncated, degenerate)
