"""The query engine: backward search and locate for many patterns at once.

`fmpm match` runs `match_many`, and each function of `fmpm.search` is a
thin wrapper over the functions here.  `rank_many`, `lf_step`
and `locate_rows` are the one form of the occurrence count, the LF step
and locate, and take one position or row as well as many.  Each
backward-search step of every pattern still in play, each round of the
one bounded-difference frontier of all patterns, and each predecessor
step of every row still being located is one call of `rank_many`: the
buckets of all positions are gathered and the selected kernel counts
their prefixes, in one numpy pass for `bytelut` and `simd`.  Backward
search and locate ask for one symbol per position; only the frontier asks
for all four.  Locate walks each distinct row once, and a walk ends at
another row being located as well as at a sample, so overlapping hits
share their walks.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .alphabet import A, encode_array, is_dna_many
from .index import FmIndex, SA_STRIDE
from .kernels import BUCKET_CHARS, Kernel, count_blocks, resolve_kernel
from .serialize import IndexFormatError


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
    index: FmIndex,
    pos: np.ndarray,
    symbol: np.ndarray | None = None,
    kernel: Kernel | str | None = None,
) -> np.ndarray:
    """Occurrences in rows 0..pos[i] of symbol[i], or of each symbol if None.

    Shape (len(pos),) with `symbol` and (len(pos), 4) without: entries of
    `pos` must lie in [-1, n], and -1 gives zeros, and those of `symbol`
    in [0, 3]; nothing here checks either, as the engine takes its
    symbols from codes.  With `symbol`, the kernels count that symbol only.
    This is the one place the terminator, packed as A, is taken back off
    the A count.
    """
    pos = np.asarray(pos, dtype=np.int64)
    if symbol is not None:
        symbol = np.asarray(symbol, dtype=np.int64)
    bucket = np.maximum(pos, 0) // BUCKET_CHARS
    prefix = pos + 1 - bucket * BUCKET_CHARS  # 0 only at pos == -1
    counts = count_blocks(np.take(index.blocks, bucket, axis=0), prefix, kernel, symbol)
    after_terminator = pos >= index.sentinel_row  # the terminator is packed as A
    if symbol is None:
        counts[:, A] -= after_terminator
        return counts + np.take(index.bases, bucket, axis=0)
    base = index.bases.reshape(-1)[bucket * 4 + symbol]
    return counts - (symbol == A) * after_terminator + base


def _walk_back(
    index: FmIndex,
    codes: np.ndarray,
    last: np.ndarray,
    lengths: np.ndarray,
    kernel: Kernel | str | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward search of the lengths[j] codes ending at codes[last[j]], all j in lockstep.

    Step t ranks k - 1 and l, for the step's own symbol only, of every walk
    longer than t whose interval is still non-empty; a walk stops at the
    step its interval empties, so an empty result has k > l with the bounds
    of that step.  Returns (k, l, width), width the number of codes each
    walk consumed.
    """
    c = np.asarray(index.c)
    symbol = codes[last]
    k = c[symbol] + 1
    l = c[symbol + 1]
    width = np.ones_like(last)
    for t in range(1, int(lengths.max(initial=0))):
        live = np.flatnonzero((lengths > t) & (k <= l))
        if not len(live):
            break
        symbol = codes[last[live] - t]
        counts = rank_many(
            index, np.concatenate([k[live] - 1, l[live]]), np.concatenate([symbol, symbol]), kernel
        )
        base = c[symbol]
        k[live] = base + counts[: len(live)] + 1
        l[live] = base + counts[len(live) :]
        width[live] = t + 1
    return k, l, width


def _encode(patterns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(codes of all patterns end to end, length of each)."""
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)
    return encode_array("".join(patterns)).astype(np.int64), lengths


def exact_search_many(
    index: FmIndex, patterns: Sequence[str], kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Intervals (k, l) of non-empty ACGT patterns, as `exact_search` gives them.

    Patterns are walked right to left in lockstep, each stopping at the
    step its interval empties.
    """
    codes, lengths = _encode(patterns)
    k, l, _ = _walk_back(index, codes, np.cumsum(lengths) - 1, lengths, kernel)
    return k, l


def difference_bounds(
    index: FmIndex, codes: np.ndarray, lengths: np.ndarray, kernel: Kernel | str | None = None
) -> np.ndarray:
    """D(i) of every prefix W[0..i] of patterns given end to end, laid out like `codes`.

    D(i) counts disjoint pieces of W[0..i] absent from the text, taken
    greedily right to left: W[s..i] is the shortest absent suffix and
    D(i) = 1 + D(s - 1), or 0 if W[0..i] occurs.  An alignment of W[0..i]
    to any substring of the text edits every absent piece at least once,
    so D(i) never exceeds the fewest differences it needs (BWA's bound, Li
    and Durbin 2009, from backward search alone).  The walks of all prefix
    ends run in lockstep, in at most max(lengths) rank rounds.
    """
    ends = np.arange(len(codes))
    starts = np.cumsum(lengths) - lengths
    offset = ends - np.repeat(starts, lengths)
    k, l, width = _walk_back(index, codes, ends, offset + 1, kernel)
    # the slot past the end holds D(-1) = 0
    before = np.where(width <= offset, ends - width, len(codes))
    bound = np.zeros(len(codes) + 1, dtype=np.int64)
    for i in range(int(lengths.max(initial=0))):
        at = starts[lengths > i] + i
        bound[at] = np.where(k[at] > l[at], 1 + bound[before[at]], 0)
    return bound[:-1]


def inexact_search_many(
    index: FmIndex,
    patterns: Sequence[str],
    max_diff: int,
    kernel: Kernel | str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intervals within `max_diff` edits of non-empty ACGT patterns, like `inexact_search`.

    Returns (pattern, k, l, used) arrays, one entry per interval of a
    pattern with its fewest differences, sorted by (pattern, k, l).  The
    search runs in rounds over one frontier of live states (pattern, i,
    budget, k, l) of all patterns, admitting one more pattern per round so
    that only a few patterns' widest rounds are live at once.  One rank
    call on k - 1 and l of every state gives all eight Occ values each
    needs, and the skip, insert, match and mismatch children are built from
    them at once.  A child is pruned when its interval is empty or its
    budget is below `difference_bounds` of what is left of its pattern.
    Children that agree on (pattern, i, k, l) are merged into the one with
    the largest budget, which reaches every interval the others reach with
    no more differences.
    """
    codes, lengths = _encode(patterns)
    starts = np.cumsum(lengths) - lengths
    c = np.asarray(index.c)
    bound = difference_bounds(index, codes, lengths, kernel)
    slots = int(lengths.max(initial=0)) + 1
    children = np.zeros((5, 0), dtype=np.int64)  # rows: pattern, i, budget, k, l
    done = [np.zeros((4, 0), dtype=np.int64)]
    admitted = 0
    while True:
        if admitted < len(patterns):
            # the full row range [0, n] makes the first extension the initial interval
            start = [[admitted], [lengths[admitted] - 1], [max_diff], [0], [index.n]]
            children = np.concatenate([children, start], axis=1)
            admitted += 1
        pattern, i, budget, k, l = children
        finished = i < 0
        done.append(np.stack([pattern, k, l, max_diff - budget])[:, finished])
        live = np.flatnonzero(~finished)
        live = live[budget[live] >= bound[starts[pattern[live]] + i[live]]]
        # one key per (pattern, i) and one per (k, l): (n + 1)**2 fits in
        # int64, since the suffix sort refuses longer references
        place, interval = pattern[live] * slots + i[live], k[live] * (index.n + 1) + l[live]
        live = live[_first_per_key([place, interval], -budget[live])]
        children = children[:, live]
        pattern, i, budget, k, l = children
        if not len(i):
            if admitted == len(patterns):
                break
            continue
        # about half the positions of a round repeat; each is ranked once
        pos, back = np.unique(np.concatenate([k - 1, l]), return_inverse=True)
        counts = rank_many(index, pos, None, kernel)[back]
        k2 = c[:4] + counts[: len(i)] + 1
        l2 = c[:4] + counts[len(i) :]
        spend = budget > 0
        miss = np.arange(4) != codes[starts[pattern] + i, None]
        # insert: extend by a reference character, keep the pattern position;
        # match and mismatch: extend and consume the pattern character
        nonempty = k2 <= l2
        row_i, sym_i = np.nonzero(nonempty & spend[:, None])
        row_s, sym_s = np.nonzero(nonempty & (spend[:, None] | ~miss))
        # skip: consume the pattern character without extending
        skip = np.flatnonzero(spend)
        children = np.concatenate(
            [
                [pattern[row_i], i[row_i], budget[row_i] - 1, k2[row_i, sym_i], l2[row_i, sym_i]],
                [
                    pattern[row_s],
                    i[row_s] - 1,
                    budget[row_s] - miss[row_s, sym_s],
                    k2[row_s, sym_s],
                    l2[row_s, sym_s],
                ],
                [pattern[skip], i[skip] - 1, budget[skip] - 1, k[skip], l[skip]],
            ],
            axis=1,
        )
    pattern, k, l, used = np.concatenate(done, axis=1)
    kept = _first_per_key([pattern, k, l], used)
    return pattern[kept], k[kept], l[kept], used[kept]


def bwt_symbols(index: FmIndex, rows: np.ndarray) -> np.ndarray:
    """Packed transform symbol at each row; the sentinel row reads as A."""
    rows = np.asarray(rows, dtype=np.int64)
    # a block packs 128 rows into 32 bytes, so row r sits in byte r >> 2 of all blocks
    return (index.blocks.reshape(-1)[rows >> 2] >> ((rows & 3) << 1)) & 3


def lf_step(
    index: FmIndex, rows: np.ndarray, kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(symbol at each row, row of the suffix one text position earlier).

    No row may be the sentinel row, whose suffix has no predecessor.  The
    symbol is one byte of the flat blocks; `rank_many` gathers each row's
    block once and counts that symbol only.
    """
    symbol = bwt_symbols(index, rows)
    return symbol, np.asarray(index.c)[symbol] + rank_many(index, rows, symbol, kernel)


def _check_rows(index: FmIndex, rows: np.ndarray) -> None:
    """Raise ValueError naming the first row outside [0, n]."""
    outside = (rows < 0) | (rows > index.n)
    if outside.any():
        raise ValueError(f"row {rows[outside.argmax()]} outside [0, {index.n}]")


def locate_rows(
    index: FmIndex, rows: np.ndarray, kernel: Kernel | str | None = None
) -> np.ndarray:
    """Text position of every row.

    Each distinct row is located once, and all walks step to their
    predecessors together.  A walk ends at the first stop row it reaches:
    a sampled row, the sentinel row, or another row of this call.  A walk
    from row b that meets row a after t steps gives SA[b] = SA[a] + t, so
    overlapping hits share the rest of one walk; those positions are
    resolved after the walks, along chains of such meetings, by pointer
    jumping.  Raises ValueError naming the first row outside [0, n], and
    IndexFormatError, as a load does for a bad file, when a position falls
    outside [0, n] or a walk does not terminate (no stop row within n + 1
    steps, or meetings that form a cycle): only a corrupt sample or
    transform does that.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    _check_rows(index, rows)
    # the sentinel row is located too, at position 0, and never walks
    rows, inverse = np.unique(np.append(rows, index.sentinel_row), return_inverse=True)
    pos = np.zeros(len(rows), dtype=np.int64)
    target = np.full(len(rows), -1, dtype=np.int64)  # the row a walk met, or -1
    # one flag per row: every sampled row and every row located here stops a walk
    stop = np.zeros(index.n + 1, dtype=bool)
    stop[::SA_STRIDE] = True
    stop[rows] = True
    walking = np.flatnonzero(rows != index.sentinel_row)
    at = rows[walking]
    ended = at % SA_STRIDE == 0  # a row is not its own meeting
    walks, stops = [], []  # per round: the walks that ended, at which stop rows
    while True:
        walks.append(walking[ended])
        stops.append(at[ended])
        walking, at = walking[~ended], at[~ended]
        if not len(at):
            break
        if len(walks) > index.n + 1:
            raise IndexFormatError("predecessor walk did not terminate; index is corrupt")
        at = lf_step(index, at, kernel)[1]
        ended = stop[at]
    walk, row = np.concatenate(walks), np.concatenate(stops)
    pos[walk] = np.repeat(np.arange(len(walks)), [len(w) for w in walks])  # steps taken
    sampled = (row % SA_STRIDE == 0) & (row != index.sentinel_row)
    pos[walk[sampled]] += np.take(index.samples, row[sampled] // SA_STRIDE)
    target[walk[~sampled]] = np.searchsorted(rows, row[~sampled])
    # pos[i] of a walk that met row target[i] is its distance from there;
    # each pass moves every unresolved walk on to its target's target, which
    # resolves it when that target is resolved and halves every chain
    pending = np.flatnonzero(target >= 0)
    while len(pending):
        via = target[pending]
        pos[pending] += pos[via]
        target[pending] = target[via]
        left = pending[target[pending] >= 0]
        if len(left) == len(pending):  # no chain ends: the rows meet in a cycle
            raise IndexFormatError("predecessor walk did not terminate; rows meet in a cycle")
        pending = left
    if not 0 <= pos.min() <= pos.max() <= index.n:
        raise IndexFormatError(f"a sampled position lies outside [0, {index.n}]")
    return pos[inverse[:-1]]


def locate_hits(
    index: FmIndex,
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
    sorted by pattern and position.  k and l are checked before any row is listed.
    """
    _check_rows(index, np.stack([k, l], axis=1).reshape(-1))
    widths = l - k + 1
    first = np.cumsum(widths) - widths
    rows = np.arange(int(widths.sum())) + np.repeat(k - first, widths)
    pattern = np.repeat(pattern, widths)
    diffs = np.repeat(diffs, widths)
    pos = locate_rows(index, rows, kernel)
    record = np.searchsorted(index.starts, pos, side="right") - 1
    offset = pos - index.starts[record]
    min_span = np.maximum(pattern_lengths[pattern] - diffs, 0)
    kept = np.flatnonzero((pos < index.n) & (offset + min_span <= index.lengths[record]))
    picked = kept[_first_per_key([pattern[kept], pos[kept]], diffs[kept])]
    return pattern[picked], record[picked], offset[picked], diffs[picked]


def check_batch(
    patterns: Sequence[str], max_diff: int, max_hits: int | None, kernel: Kernel | str | None
) -> tuple[Kernel, np.ndarray, np.ndarray]:
    """(kernel, pattern lengths, non-ACGT flags) of a batch, or ValueError.

    Refuses an unknown kernel, a negative budget or `max_hits`, and the first
    pattern no longer than `max_diff`, which would match at every position.
    """
    kernel = resolve_kernel(kernel)
    if max_diff < 0:
        raise ValueError(f"difference budget {max_diff} is negative")
    if max_hits is not None and max_hits < 0:
        raise ValueError(f"hit limit {max_hits} is negative")
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)
    short = np.flatnonzero(lengths <= max_diff)
    if len(short):
        pid, m = int(short[0]), int(lengths[short[0]])
        raise ValueError(
            f"pattern {pid} is empty"
            if not m
            else f"pattern {pid} has {m} character(s); -z must be below that"
        )
    return kernel, lengths, ~is_dna_many(patterns)


def cut_hits(
    pattern: np.ndarray, count: int, max_hits: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the first `max_hits` hits of each of `count` patterns, which lost any)."""
    limit = len(pattern) if max_hits is None else max_hits
    per_pattern = np.bincount(pattern, minlength=count)
    rank = np.arange(len(pattern)) - (np.cumsum(per_pattern) - per_pattern)[pattern]
    return rank < limit, per_pattern > limit


def match_many(
    index: FmIndex,
    patterns: Sequence[str],
    max_diff: int,
    kernel: Kernel | str | None = None,
    max_hits: int | None = None,
) -> BatchHits:
    """Hits of every pattern: what `collect_hits` gives for each, in one pass.

    Exact search (max_diff 0) walks all patterns in lockstep; a positive
    budget runs all patterns' edit frontiers as one with
    `inexact_search_many`.  Locate is batched either way.  `check_batch`
    judges the arguments, and patterns with characters outside ACGT get no
    hits.
    """
    kernel, lengths, degenerate = check_batch(patterns, max_diff, max_hits, kernel)
    dna = np.flatnonzero(~degenerate)
    if max_diff == 0:
        k, l = exact_search_many(index, [patterns[i] for i in dna], kernel)
        found = k <= l
        intervals = [dna[found], k[found], l[found], np.zeros(int(found.sum()), np.int64)]
    else:
        pattern, k, l, used = inexact_search_many(index, [patterns[i] for i in dna], max_diff, kernel)
        intervals = [dna[pattern], k, l, used]
    pattern, record, offset, diffs = locate_hits(index, *intervals, lengths, kernel)
    kept, truncated = cut_hits(pattern, len(patterns), max_hits)
    return BatchHits(pattern[kept], record[kept], offset[kept], diffs[kept], truncated, degenerate)
