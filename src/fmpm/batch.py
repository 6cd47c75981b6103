"""The query engine: backward search and locate for many patterns at once.

`fmpm match` runs `match_many`, and every per-item function of
`fmpm.search` is a thin wrapper over one call of a function here.  Each
backward-search step of every pattern still in play, each round of one
pattern's bounded-difference frontier, and each predecessor step of every
row still being located is one call of `rank_many`: the buckets of all
positions are gathered and the selected kernel counts their prefixes, in
one numpy pass for `bytelut` and `simd`.  Locate asks for each row's own
symbol only.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .alphabet import A, encode_array, is_dna_many
from .index import FmIndex, IndexView, SA_STRIDE
from .kernels import BUCKET_CHARS, Kernel, count_blocks, resolve_kernel


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


def _first_per_key(keys: Sequence[np.ndarray], tiebreak: np.ndarray) -> np.ndarray:
    """Index of the smallest-`tiebreak` entry of each distinct key tuple.

    The indices come sorted by key, `keys[0]` the most significant.
    """
    order = np.lexsort((tiebreak, *reversed(keys)))
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any([key[order[1:]] != key[order[:-1]] for key in keys], axis=0)
    return order[first]


def rank_many(
    view: IndexView,
    pos: np.ndarray,
    symbol: np.ndarray | None = None,
    kernel: Kernel | str | None = None,
) -> np.ndarray:
    """Occurrences in rows 0..pos[i] of symbol[i], or of each symbol if None.

    The batched form of `occ` (shape (len(pos),)) and of `occ_all` (shape
    (len(pos), 4)): entries of `pos` must lie in [-1, n], and -1 gives
    zeros; nothing here checks that.  With `symbol`, the per-bucket
    kernels count that symbol only.  This is the one place the terminator,
    packed as A, is taken back off the A count.
    """
    pos = np.asarray(pos, dtype=np.int64)
    if symbol is not None:
        symbol = np.asarray(symbol, dtype=np.int64)
    bucket = np.maximum(pos, 0) // BUCKET_CHARS
    prefix = pos + 1 - bucket * BUCKET_CHARS  # 0 only at pos == -1
    counts = count_blocks(view.blocks[bucket], prefix, kernel, symbol)
    after_terminator = pos >= view.sentinel_row  # the terminator is packed as A
    if symbol is None:
        counts[:, A] -= after_terminator
        return counts + view.bases[bucket]
    return counts - (symbol == A) * after_terminator + view.bases[bucket, symbol]


def exact_search_many(
    view: IndexView, patterns: Sequence[str], kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Intervals (k, l) of non-empty ACGT patterns, as `exact_search` gives them.

    Patterns are walked right to left in lockstep.  Step t ranks k - 1 and
    l of every pattern longer than t whose interval is still non-empty.
    A pattern stops at the step its interval empties, so an empty result
    has k > l with the bounds of that step.
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
        counts = rank_many(view, np.concatenate([k[live] - 1, l[live]]), None, kernel)
        at = np.arange(len(live))
        base = view.c[symbol]
        k[live] = base + counts[at, symbol] + 1
        l[live] = base + counts[at + len(live), symbol]
    return k, l


def inexact_search_frontier(
    view: IndexView, codes: np.ndarray, max_diff: int, kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals within `max_diff` edits of one ACGT pattern, like `inexact_search`.

    Returns (k, l, used) arrays, one entry per interval with its fewest
    differences, sorted by (k, l).  The search runs in rounds over the
    whole frontier of live states (i, budget, k, l): one rank call on k - 1
    and l of every state gives all eight Occ values each needs, and the
    skip, insert, match and mismatch children are built from them at once,
    with empty intervals pruned.  Children that agree on (i, k, l) are
    merged into the one with the largest budget, which reaches every
    interval the others reach with no more differences.
    """
    codes = np.asarray(codes, dtype=np.int64)
    # the full row range [0, n] makes the first extension the initial interval
    start = (len(codes) - 1, max_diff, 0, view.n)
    i, budget, k, l = (np.array([v], dtype=np.int64) for v in start)
    done = []
    while len(i):
        counts = rank_many(view, np.concatenate([k - 1, l]), None, kernel)
        k2 = view.c[:4] + counts[: len(i)] + 1
        l2 = view.c[:4] + counts[len(i) :]
        spend = budget > 0
        miss = np.arange(4) != codes[i, None]
        # insert: extend by a reference character, keep the pattern position;
        # match and mismatch: extend and consume the pattern character
        nonempty = k2 <= l2
        insert = nonempty & spend[:, None]
        step = nonempty & (spend[:, None] | ~miss)
        row_i, sym_i = np.nonzero(insert)
        row_s, sym_s = np.nonzero(step)
        # skip: consume the pattern character without extending
        skip = np.flatnonzero(spend)
        i = np.concatenate([i[row_i], i[row_s] - 1, i[skip] - 1])
        budget = np.concatenate(
            [budget[row_i] - 1, budget[row_s] - miss[row_s, sym_s], budget[skip] - 1]
        )
        k = np.concatenate([k2[row_i, sym_i], k2[row_s, sym_s], k[skip]])
        l = np.concatenate([l2[row_i, sym_i], l2[row_s, sym_s], l[skip]])
        finished = i < 0
        done.append((k[finished], l[finished], max_diff - budget[finished]))
        i, budget, k, l = i[~finished], budget[~finished], k[~finished], l[~finished]
        kept = _first_per_key([i, k, l], -budget)
        i, budget, k, l = i[kept], budget[kept], k[kept], l[kept]
    k, l, used = (np.concatenate(parts) for parts in zip(*done))
    kept = _first_per_key([k, l], used)
    return k[kept], l[kept], used[kept]


def bwt_symbols(view: IndexView, rows: np.ndarray) -> np.ndarray:
    """Packed transform symbol at each row; the sentinel row reads as A."""
    rows = np.asarray(rows, dtype=np.int64)
    r = rows % BUCKET_CHARS
    return (view.blocks[rows // BUCKET_CHARS, r >> 2] >> ((r & 3) << 1)) & 3


def lf_step(
    view: IndexView, rows: np.ndarray, kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(symbol at each row, row of the suffix one text position earlier).

    No row may be the sentinel row, whose suffix has no predecessor.
    """
    symbol = bwt_symbols(view, rows)
    return symbol, view.c[symbol] + rank_many(view, rows, symbol, kernel)


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
        rows = lf_step(view, rows, kernel)[1]
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
    picked = kept[_first_per_key([pattern[kept], pos[kept]], diffs[kept])]
    return pattern[picked], record[picked], offset[picked], diffs[picked]


def match_many(
    index: FmIndex,
    patterns: Sequence[str],
    max_diff: int,
    kernel: Kernel | str | None = None,
    max_hits: int | None = None,
) -> BatchHits:
    """Hits of every pattern: what `collect_hits` gives for each, in one pass.

    Exact search (max_diff 0) walks all patterns in lockstep; a positive
    budget walks one pattern's edit frontier at a time with
    `inexact_search_frontier`.  Locate is batched either way.  Patterns
    with characters outside ACGT are flagged degenerate and get no hits.
    """
    kernel = resolve_kernel(kernel)
    view = index.view
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)
    degenerate = ~is_dna_many(patterns)
    dna = np.flatnonzero(~degenerate)
    if max_diff == 0:
        k, l = exact_search_many(view, [patterns[i] for i in dna], kernel)
        found = k <= l
        intervals = [dna[found], k[found], l[found], np.zeros(int(found.sum()), np.int64)]
    else:
        found = [np.zeros((4, 0), dtype=np.int64)]
        for pid in dna.tolist():
            codes = encode_array(patterns[pid])
            k, l, used = inexact_search_frontier(view, codes, max_diff, kernel)
            found.append(np.stack([np.full_like(k, pid), k, l, used]))
        intervals = list(np.concatenate(found, axis=1))
    pattern, record, offset, diffs = locate_hits(view, *intervals, lengths, kernel)

    truncated = np.zeros(len(patterns), dtype=bool)
    if max_hits is not None:
        per_pattern = np.bincount(pattern, minlength=len(patterns))
        truncated = per_pattern > max_hits
        rank = np.arange(len(pattern)) - (np.cumsum(per_pattern) - per_pattern)[pattern]
        kept = rank < max_hits
        pattern, record, offset, diffs = pattern[kept], record[kept], offset[kept], diffs[kept]
    return BatchHits(pattern, record, offset, diffs, truncated, degenerate)
