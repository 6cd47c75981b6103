"""The query engine: backward search and locate for many patterns at once.

`fmpm match` runs `match_many`, and each function of `fmpm.search` is a
thin wrapper over the functions here.  `check_batch` encodes each batch
once, and below it the engine sees only its uint8 codes and lengths:
each bounded-difference state is a position in that code array.
`rank_many`, `lf_step` and `locate_rows` are the one form of the
occurrence count, the LF step and locate, and take one position or row as
well as many.  Each backward-search step of every pattern still in play,
each round of the one bounded-difference frontier of all patterns, and
each predecessor step of every row still being located is one call of
`rank_many`: the buckets of all positions are gathered and the selected
kernel counts their prefixes, in one numpy pass for `bytelut` and `simd`.
Backward search and locate ask for one symbol per position; only the
frontier asks for all four.  Locate walks each distinct row once, and a
walk ends at another row being located as well as at a sample, so
overlapping hits share their walks.  The engine decodes no packed field
itself: `lf_step` reads symbols with `fmpm.index.bwt_symbols`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .alphabet import A, encode_batch
from .index import FmIndex, SA_STRIDE, bwt_symbols
from .kernels import BUCKET_CHARS, Kernel, count_blocks, resolve_kernel
from .serialize import IndexFormatError


class BatchHits(NamedTuple):
    """Hits of a batch of patterns, sorted by (pattern, position).

    The first four arrays run over hits; `truncated` and `degenerate` run
    over patterns.  `record` indexes `FmIndex.names`.
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


def exact_search_many(
    index: FmIndex, codes: np.ndarray, lengths: np.ndarray, kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Intervals (k, l) of non-empty patterns given as codes end to end, like `exact_search`.

    Patterns are walked right to left in lockstep, each stopping at the
    step its interval empties.
    """
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
    codes: np.ndarray,
    lengths: np.ndarray,
    max_diff: int,
    kernel: Kernel | str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intervals within `max_diff` edits of non-empty patterns, like `inexact_search`.

    Returns (pattern, k, l, used, span) arrays, one entry per text string
    a pattern reaches, with its fewest differences, sorted by (pattern, k,
    l, span): `span` is the number of text characters the string has, and
    (k, l, span) names one string, since an interval stands for strings of
    several lengths.  The search runs in rounds over one frontier of live
    states (at, budget, k, l, span) of all patterns, `at` being the
    position in `codes` of the next code to consume, and admits one more
    pattern per round so that only a few patterns' widest rounds are live
    at once.  One rank call on k - 1 and l of every state gives all eight
    Occ values each needs, and the skip, insert, match and mismatch
    children are built from them at once; all but a skip consume one text
    character, and a child that consumes its pattern's first code is done.
    A child is pruned when its interval is empty or its budget is below
    `difference_bounds` at `at`.  Children that agree on (at, k, l, span)
    are merged into the one with the largest budget, which reaches every
    string the others reach with no more differences.
    """
    ends = np.cumsum(lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)  # the pattern of each code
    first = np.diff(owner, prepend=-1) > 0  # whether each code is its pattern's first
    c = np.asarray(index.c)
    bound = difference_bounds(index, codes, lengths, kernel)
    states = np.zeros((5, 0), dtype=np.int64)  # rows: at, budget, k, l, span
    done = [states]  # states that consumed their pattern's first code
    admitted = 0
    while True:
        if admitted < len(lengths):
            # the full row range [0, n] makes the first extension the initial interval
            start = [[ends[admitted] - 1], [max_diff], [0], [index.n], [0]]
            states = np.concatenate([states, start], axis=1)
            admitted += 1
        at, budget, k, l, span = states
        live = np.flatnonzero(budget >= bound[at])
        # (n + 1)**2 fits in int64, since the suffix sort refuses longer references
        interval = k[live] * (index.n + 1) + l[live]
        keys = [at[live], interval, span[live]]
        states = states[:, live[_first_per_key(keys, -budget[live])]]
        at, budget, k, l, span = states
        if not len(at):
            if admitted == len(lengths):
                break
            continue
        # about half the positions of a round repeat; each is ranked once
        pos, back = np.unique(np.concatenate([k - 1, l]), return_inverse=True)
        counts = rank_many(index, pos, None, kernel)[back]
        k2 = c[:4] + counts[: len(at)] + 1
        l2 = c[:4] + counts[len(at) :]
        spend = budget > 0
        miss = np.arange(4) != codes[at, None]
        # insert: extend by a reference character, keep the pattern position;
        # match and mismatch: extend and consume the pattern character
        nonempty = k2 <= l2
        row_i, sym_i = np.nonzero(nonempty & spend[:, None])
        row_s, sym_s = np.nonzero(nonempty & (spend[:, None] | ~miss))
        # skip: consume the pattern character without extending
        skip = np.flatnonzero(spend)

        def extend(row, sym, spent):
            # the child's interval spans one more text character
            return [at[row], budget[row] - spent, k2[row, sym], l2[row, sym], span[row] + 1]

        consumed = np.concatenate(
            [
                extend(row_s, sym_s, miss[row_s, sym_s]),
                [at[skip], budget[skip] - 1, k[skip], l[skip], span[skip]],
            ],
            axis=1,
        )
        ended = first[consumed[0]]
        done.append(consumed[:, ended])
        consumed = consumed[:, ~ended]
        consumed[0] -= 1
        states = np.concatenate([extend(row_i, sym_i, 1), consumed], axis=1)
    at, budget, k, l, span = np.concatenate(done, axis=1)
    pattern, used = owner[at], max_diff - budget
    kept = _first_per_key([pattern, k, l, span], used)
    return pattern[kept], k[kept], l[kept], used[kept], span[kept]


def lf_step(
    index: FmIndex, rows: np.ndarray, kernel: Kernel | str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(symbol at each row, row of the suffix one text position earlier).

    No row may be the sentinel row, whose suffix has no predecessor.  The
    symbol is read by `bwt_symbols`; `rank_many` gathers each row's block
    once and counts that symbol only.
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
    outside [0, n] or meetings form a cycle: only a corrupt sample or
    transform does that.  LF maps the rows other than the sentinel's
    one-to-one onto rows 1..n, so every walk is back at its own row, a
    stop row, within n + 1 steps; the IndexFormatError for a walk longer
    than that catches an engine fault, which would otherwise loop forever.
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
    spans: np.ndarray,
    kernel: Kernel | str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Locate every row of non-empty intervals tagged (pattern, diffs, span).

    Applies what `collect_hits` applies per pattern: a row whose `span`
    text characters cross a record's end is dropped (the terminator's row,
    at position n, among them), and of the hits at one position of one
    pattern the one with the fewest diffs is kept.  Returns (pattern,
    record, offset, diffs), sorted by pattern and position.  k and l are
    checked before any row is listed.
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
    kept = np.flatnonzero(offset + np.repeat(spans, widths) <= index.lengths[record])
    picked = kept[_first_per_key([pattern[kept], pos[kept]], diffs[kept])]
    return pattern[picked], record[picked], offset[picked], diffs[picked]


def check_batch(
    patterns: Sequence[str], max_diff: int, max_hits: int | None, kernel: Kernel | str | None
) -> tuple[Kernel, np.ndarray, np.ndarray, np.ndarray]:
    """(kernel, *encode_batch(patterns)): the batch's one encoding, or ValueError.

    Refuses an unknown kernel, a negative budget or `max_hits`, and the first
    pattern no longer than `max_diff`, which would match at every position.
    """
    kernel = resolve_kernel(kernel)
    if max_diff < 0:
        raise ValueError(f"difference budget {max_diff} is negative")
    if max_hits is not None and max_hits < 0:
        raise ValueError(f"hit limit {max_hits} is negative")
    codes, lengths, dna = encode_batch(patterns)
    short = np.flatnonzero(lengths <= max_diff)
    if len(short):
        pid, m = int(short[0]), int(lengths[short[0]])
        raise ValueError(
            f"pattern {pid} is empty"
            if not m
            else f"pattern {pid} has {m} character(s); -z must be below that"
        )
    return kernel, codes, lengths, dna


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
    kernel, codes, lengths, dna = check_batch(patterns, max_diff, max_hits, kernel)
    searched = np.flatnonzero(dna)
    if max_diff == 0:
        k, l = exact_search_many(index, codes, lengths[dna], kernel)
        found = k <= l
        pattern = searched[found]
        # an exact match spans its pattern's length
        intervals = [pattern, k[found], l[found], np.zeros_like(pattern), lengths[pattern]]
    else:
        pattern, k, l, used, span = inexact_search_many(
            index, codes, lengths[dna], max_diff, kernel
        )
        intervals = [searched[pattern], k, l, used, span]
    pattern, record, offset, diffs = locate_hits(index, *intervals, kernel)
    kept, truncated = cut_hits(pattern, len(patterns), max_hits)
    return BatchHits(pattern[kept], record[kept], offset[kept], diffs[kept], truncated, ~dna)
