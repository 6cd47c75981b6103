"""Backward search, bounded-difference search and locate, one pattern at a time.

Thin wrappers over the batch engine in `fmpm.batch`, with no checks of
their own: each refuses, with the same ValueError, what `match_many`
refuses for a batch of one pattern and `locate_rows` for a row outside
[0, n].  Every call pays numpy's per-call overhead, so callers with many
patterns should hand them to `match_many` at once.  Occurrence counts,
LF steps and the positions of single rows come from the engine directly:
`rank_many`, `lf_step` and `locate_rows` take any number of positions or
rows.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .batch import check_batch, cut_hits, exact_search_many, inexact_search_many, locate_hits
from .index import FmIndex
from .kernels import Kernel


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
    """One text string within the difference budget: its interval, diffs and length.

    `span` is the number of text characters the string has; one interval
    stands for strings of several lengths.  None means the pattern's
    length, the span of an exact match.
    """

    interval: BwmInterval
    diffs_used: int
    span: int | None = None


class Hit(NamedTuple):
    """A located occurrence, mapped to its record."""

    record: str
    offset: int
    global_pos: int
    diffs: int


def exact_search(
    index: FmIndex, pattern: str, kernel: Kernel | str | None = None
) -> BwmInterval:
    """Interval of rows whose rotations start with `pattern`.

    Runs right to left, one interval update per character, stopping as
    soon as the interval empties.  A pattern with characters outside ACGT
    yields an empty interval flagged degenerate rather than an error.
    """
    kernel, codes, lengths, dna = check_batch([pattern], 0, None, kernel)
    if not dna[0]:
        return BwmInterval(k=1, l=0, degenerate=True)
    k, l = exact_search_many(index, codes, lengths, kernel)
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
    (interval, span), with its fewest differences, sorted by (k, l, span).
    """
    kernel, codes, lengths, dna = check_batch([pattern], max_diff, None, kernel)
    if not dna[0]:
        return []
    _, k, l, used, span = inexact_search_many(index, codes, lengths, max_diff, kernel)
    found = zip(k.tolist(), l.tolist(), used.tolist(), span.tolist())
    return [MatchResult(BwmInterval(k, l), used, span) for k, l, used, span in found]


def collect_hits(
    index: FmIndex,
    matches: Iterable[MatchResult],
    pattern_len: int,
    kernel: Kernel | str | None = None,
    max_hits: int | None = None,
) -> tuple[list[Hit], bool]:
    """Hits of every row of the matches' intervals, fewest diffs per position.

    A hit is dropped when the `span` text characters of its match (the
    pattern's length when None) run past its record's end: such a string
    exists only in the concatenation of the records.  A span below 1, which
    no string has, raises ValueError.  Returns the hits sorted by position
    and whether `max_hits` truncated them.
    """
    kernel = check_batch([], 0, max_hits, kernel)[0]
    found = [
        (m.interval.k, m.interval.l, m.diffs_used, pattern_len if m.span is None else m.span)
        for m in matches
        if not m.interval.is_empty
    ]
    k, l, diffs, spans = np.array(found, dtype=np.int64).reshape(-1, 4).T
    if (spans < 1).any():
        raise ValueError(f"span {spans[spans < 1][0]} is below 1")
    pattern, record, offset, diffs = locate_hits(
        index, np.zeros_like(k), k, l, diffs, spans, kernel
    )
    kept, truncated = cut_hits(pattern, 1, max_hits)
    record, offset, diffs = record[kept], offset[kept], diffs[kept]
    pos = index.starts[record] + offset
    located = zip(record.tolist(), offset.tolist(), pos.tolist(), diffs.tolist())
    return [Hit(index.names[r], o, p, d) for r, o, p, d in located], bool(truncated[0])
