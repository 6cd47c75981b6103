"""Occurrence counts, backward search, bounded-difference search, and locate.

One item at a time, as thin wrappers over the batch engine in
`fmpm.batch`: each function checks its arguments, raising ValueError on
any the engine would misread, and makes one call into the engine.  Every
call pays numpy's per-call overhead, so callers with many patterns, rows
or positions should hand them to `fmpm.batch` at once (`match_many` for
whole queries).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .alphabet import SYMBOLS, is_dna
from .batch import (
    bwt_symbols,
    exact_search_many,
    inexact_search_many,
    lf_step,
    locate_hits,
    locate_rows,
    rank_many,
)
from .index import FmIndex
from .kernels import Kernel, OccCounts, resolve_kernel

_SYMBOL_BYTES = np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)


class OccPair(NamedTuple):
    """Occurrence counts at the two positions an interval update needs."""

    at_low: OccCounts
    at_high: OccCounts


class BwmInterval(NamedTuple):
    """Inclusive row range [k, l] of the sorted rotation matrix.

    Empty when k > l.  `degenerate` marks the empty result returned for
    patterns containing characters outside ACGT.
    """

    k: int
    l: int
    degenerate: bool = False

    @property
    def is_empty(self) -> bool:
        return self.k > self.l

    @property
    def width(self) -> int:
        return 0 if self.k > self.l else self.l - self.k + 1


class MatchResult(NamedTuple):
    """One surviving interval of the bounded-difference search."""

    interval: BwmInterval
    diffs_used: int


class Hit(NamedTuple):
    """A located occurrence, mapped to its record."""

    record: str
    offset: int
    global_pos: int
    diffs: int


def _check_symbol(symbol: int) -> None:
    if not 0 <= symbol < 4:
        raise ValueError(f"symbol code {symbol} outside [0, 4)")


def _check_position(index: FmIndex, k: int) -> None:
    """Occurrence counts are defined at positions -1 (none counted) to n."""
    if not -1 <= k <= index.n:
        raise ValueError(f"position {k} outside [-1, {index.n}]")


def _check_row(index: FmIndex, i: int) -> None:
    if not 0 <= i <= index.n:
        raise ValueError(f"row {i} outside [0, {index.n}]")


def occ(index: FmIndex, symbol: int, k: int, kernel: Kernel | str | None = None) -> int:
    """Occurrences of `symbol` in transform rows 0..k, inclusive.

    k == -1 is the defined empty-prefix base case and returns 0.  The
    terminator is packed as code 0 and not counted as an A.
    """
    kernel = resolve_kernel(kernel)
    _check_symbol(symbol)
    _check_position(index, k)
    return int(rank_many(index, [k], [symbol], kernel)[0])


def occ_all(index: FmIndex, k: int, kernel: Kernel | str | None = None) -> OccCounts:
    """All four occurrence counts at position k (k == -1 gives zeros)."""
    kernel = resolve_kernel(kernel)
    _check_position(index, k)
    return OccCounts(*rank_many(index, [k], None, kernel)[0].tolist())


def occ_pair_all(
    index: FmIndex, low: int, high: int, kernel: Kernel | str | None = None
) -> OccPair:
    """Counts for all symbols at two positions, low <= high.

    What an interval update needs: Occ at k-1 and l for every candidate
    symbol, from one rank call.
    """
    kernel = resolve_kernel(kernel)
    if low > high:
        raise ValueError(f"pair positions out of order: {low} > {high}")
    _check_position(index, low)
    _check_position(index, high)
    at_low, at_high = rank_many(index, [low, high], None, kernel).tolist()
    return OccPair(at_low=OccCounts(*at_low), at_high=OccCounts(*at_high))


def bwt_char_at(index: FmIndex, i: int) -> int | None:
    """Symbol code stored at transform row i, or None at the sentinel row."""
    _check_row(index, i)
    if i == index.sentinel_row:
        return None
    return int(bwt_symbols(index, [i])[0])


def init_interval(index: FmIndex, symbol: int) -> BwmInterval:
    """Row range of rotations starting with `symbol`: [c[s]+1, c[s+1]].

    The +1 skips the terminator row, which sorts before everything.
    """
    _check_symbol(symbol)
    return BwmInterval(k=index.c[symbol] + 1, l=index.c[symbol + 1])


def extend_backward(
    index: FmIndex,
    interval: BwmInterval,
    symbol: int,
    kernel: Kernel | str | None = None,
) -> BwmInterval:
    """Narrow an interval to rotations prefixed by one more symbol."""
    kernel = resolve_kernel(kernel)
    if interval.is_empty:
        raise ValueError("cannot extend an empty interval")
    _check_symbol(symbol)
    _check_position(index, interval.k - 1)
    _check_position(index, interval.l)
    low, high = rank_many(index, [interval.k - 1, interval.l], [symbol] * 2, kernel).tolist()
    c = index.c[symbol]
    return BwmInterval(k=c + low + 1, l=c + high)


def exact_search(
    index: FmIndex, pattern: str, kernel: Kernel | str | None = None
) -> BwmInterval:
    """Interval of rows whose rotations start with `pattern`.

    Runs right to left, one interval update per character, stopping as
    soon as the interval empties.  A pattern with characters outside ACGT
    yields an empty interval flagged degenerate rather than an error.
    """
    kernel = resolve_kernel(kernel)
    if not pattern:
        raise ValueError("pattern is empty")
    if not is_dna(pattern):
        return BwmInterval(k=1, l=0, degenerate=True)
    k, l = exact_search_many(index, [pattern], kernel)
    return BwmInterval(k=int(k[0]), l=int(l[0]))


def inexact_search(
    index: FmIndex,
    pattern: str,
    max_diff: int,
    kernel: Kernel | str | None = None,
) -> list[MatchResult]:
    """All intervals reachable within `max_diff` edits of `pattern`.

    The edit branches are: skip a pattern character, insert a reference
    character, match, mismatch; every branch spends one unit of budget
    except a match, and empty intervals are pruned.  One result per
    interval, with its fewest differences, sorted by interval.
    """
    kernel = resolve_kernel(kernel)
    if max_diff < 0:
        raise ValueError(f"difference budget {max_diff} is negative")
    if not pattern:
        raise ValueError("pattern is empty")
    if not is_dna(pattern):
        return []
    _, *found = inexact_search_many(index, [pattern], max_diff, kernel)
    return [
        MatchResult(interval=BwmInterval(k=k, l=l), diffs_used=used)
        for k, l, used in zip(*(column.tolist() for column in found))
    ]


def psi_inverse(index: FmIndex, i: int, kernel: Kernel | str | None = None) -> int | None:
    """Row of the suffix one position earlier in the text, None at the sentinel.

    The sentinel row corresponds to suffix-array value 0, which has no
    predecessor; callers see None instead of an exception.
    """
    stepped = psi_inverse_fused(index, i, kernel)
    return None if stepped is None else stepped[1]


def psi_inverse_fused(
    index: FmIndex, i: int, kernel: Kernel | str | None = None
) -> tuple[int, int] | None:
    """(symbol at row i, predecessor row), or None at the sentinel row."""
    kernel = resolve_kernel(kernel)
    _check_row(index, i)
    if i == index.sentinel_row:
        return None
    symbol, row = lf_step(index, [i], kernel)
    return int(symbol[0]), int(row[0])


def locate_row(index: FmIndex, i: int, kernel: Kernel | str | None = None) -> int:
    """Text position of row i, walking predecessors to the nearest sampled row.

    The walk ends at a row whose suffix-array entry is stored (every 32nd
    row) or at the sentinel row (position 0); the steps taken are added back.
    """
    kernel = resolve_kernel(kernel)
    _check_row(index, i)
    return int(locate_rows(index, [i], kernel)[0])


def locate_all(
    index: FmIndex,
    interval: BwmInterval,
    diffs: int,
    pattern_len: int,
    kernel: Kernel | str | None = None,
) -> list[Hit]:
    """Record-relative hits of every row of one interval, as `collect_hits` keeps them."""
    return collect_hits(index, [MatchResult(interval, diffs)], pattern_len, kernel)[0]


def collect_hits(
    index: FmIndex,
    matches: Iterable[MatchResult],
    pattern_len: int,
    kernel: Kernel | str | None = None,
    max_hits: int | None = None,
) -> tuple[list[Hit], bool]:
    """Hits of every row of the matches' intervals, fewest diffs per position.

    Hits whose span cannot fit inside a single record are dropped: a
    match using d differences covers at least pattern_len - d reference
    characters, so anything forced across a record boundary (or past the
    end of the reference) is an artifact of concatenation.  Returns the
    hits sorted by position and whether `max_hits` truncated them.
    """
    kernel = resolve_kernel(kernel)
    found = [(m.interval.k, m.interval.l, m.diffs_used) for m in matches if not m.interval.is_empty]
    for k, l, _ in found:
        _check_row(index, k)
        _check_row(index, l)
    k, l, diffs = np.array(found, dtype=np.int64).reshape(-1, 3).T
    _, record, offset, diffs = locate_hits(
        index, np.zeros_like(k), k, l, diffs, np.array([pattern_len]), kernel
    )
    hits = []
    for r, o, d in zip(record.tolist(), offset.tolist(), diffs.tolist()):
        span = index.records[r]
        hits.append(Hit(record=span.name, offset=o, global_pos=span.start + o, diffs=d))
    truncated = max_hits is not None and len(hits) > max_hits
    if truncated:
        hits = hits[:max_hits]
    return hits, truncated


def reconstruct_reference(index: FmIndex, kernel: Kernel | str | None = None) -> str:
    """Rebuild the reference from one locate of every row.

    The transform symbol of a row is the text character just before that
    row's suffix, so it goes to position SA[row] - 1; the sentinel row's
    (the terminator, before the whole text) goes nowhere.
    """
    kernel = resolve_kernel(kernel)
    rows = np.delete(np.arange(index.n + 1), index.sentinel_row)
    text = np.zeros(index.n, dtype=np.uint8)
    text[locate_rows(index, rows, kernel) - 1] = bwt_symbols(index, rows)
    return _SYMBOL_BYTES[text].tobytes().decode("ascii")
