"""Rank, LF and locate (`rank_many`, `lf_step` and `locate_rows` of
`fmpm.batch`, and `fmpm.index.bwt_symbols`) and the one-pattern functions
of `fmpm.search`, under every kernel, against oracles that read the text:
the naive suffix array and transform, direct scans, and edit distances by
dynamic programming, record by record for hits.  The batch engine under
them, the bounded-difference frontier included, is checked in
`test_batch.py`.

Each `fmpm.search` function is a wrapper over the batch engine with no
checks of its own, so it also refuses what `match_many` refuses.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpm.search
import oracles
from fmpm.batch import bwt_symbols, lf_step, locate_rows, match_many, rank_many
from fmpm.index import build_index
from fmpm.kernels import Kernel
from fmpm.search import (
    BwmInterval,
    Hit,
    MatchResult,
    collect_hits,
    exact_search,
    inexact_search,
)

from oracles import EDGE_SIZES, PERIODIC_TEXTS, edge_text, random_dna

SCALAR = Kernel.SCALAR
TEXTS = [edge_text(n) for n in EDGE_SIZES] + PERIODIC_TEXTS
IDS = [f"n{n}" for n in EDGE_SIZES] + [f"periodic{j}" for j in range(len(PERIODIC_TEXTS))]
# distances from the lower to the upper position of an occurrence pair:
# the same position, the same bucket, and one or two buckets apart
PAIR_GAPS = (0, 1, 5, 127, 128, 200)


def _records(text):
    """`text` cut into up to three records, so locate drops hits."""
    n = len(text)
    bounds = sorted({0, n // 3, 2 * n // 3, n})
    return [(f"r{i}", a, b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def _indexed(text):
    return build_index(text, _records(text))


def _patterns(text, count, rng):
    """Substrings (some mutated, some lowercase) and random patterns of `text`."""
    out = []
    for _ in range(count):
        m = rng.randint(1, 9)
        start = rng.randrange(max(1, len(text) - m + 1))
        pattern = text[start : start + m] if rng.random() < 0.6 else random_dna(rng, m)
        if rng.random() < 0.3:
            j = rng.randrange(len(pattern))
            pattern = pattern[:j] + rng.choice("ACGT") + pattern[j + 1 :]
        out.append(pattern.lower() if rng.random() < 0.3 else pattern)
    return out


def _want_hits(text, pattern, max_diff, max_hits):
    """(record, offset, diffs) of each hit and the truncated flag, from the per-record DP."""
    dna = oracles.is_dna(pattern)
    hits = oracles.edit_hits(text, _records(text), pattern, max_diff) if dna else []
    cut = len(hits) if max_hits is None else max_hits
    return hits[:cut], len(hits) > cut


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_occ_wrappers_equal_oracles(text):
    index = _indexed(text)
    n = index.n
    bwt = oracles.naive_bwt(text)
    positions = np.arange(-1, n + 1)
    counts = oracles.bwt_prefix_counts
    want_all = [[counts(bwt, ch, k) for ch in "ACGT"] for k in positions.tolist()]
    symbol = positions % 4
    want_one = [row[s] for row, s in zip(want_all, symbol.tolist())]
    highs = np.minimum(n, positions + np.take(PAIR_GAPS, positions % len(PAIR_GAPS)))
    want_pairs = [[want_all[k + 1], want_all[high + 1]] for k, high in zip(positions, highs)]
    for kernel in Kernel:
        assert rank_many(index, positions, None, kernel).tolist() == want_all, kernel
        assert rank_many(index, positions, symbol, kernel).tolist() == want_one, kernel
        pairs = rank_many(index, np.concatenate([positions, highs]), None, kernel)
        assert np.stack(np.split(pairs, 2), axis=1).tolist() == want_pairs, kernel
    every = np.repeat(positions, 4)
    assert rank_many(index, every, np.tile(np.arange(4), n + 2)).tolist() == [
        count for row in want_all for count in row
    ]


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_bwt_char_and_psi_inverse_equal_oracle(text):
    # row i holds the character before suffix SA[i], and steps to that suffix's row
    index = _indexed(text)
    sa, bwt = oracles.suffix_array_naive(text), oracles.naive_bwt(text)
    rows = np.delete(np.arange(index.n + 1), index.sentinel_row)
    want_symbol = ["ACGT".index(bwt[i]) for i in rows]
    want_row = np.argsort(sa)[np.take(sa, rows) - 1].tolist()
    # the sentinel row reads as A, the code the terminator is packed as
    assert sa[index.sentinel_row] == 0
    assert bwt_symbols(index, [index.sentinel_row]).tolist() == [0]
    assert bwt_symbols(index, rows).tolist() == want_symbol
    for kernel in Kernel:
        symbol, row = lf_step(index, rows, kernel)
        assert (symbol.tolist(), row.tolist()) == (want_symbol, want_row), kernel


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_exact_search_equals_oracle(text):
    index = _indexed(text)
    patterns = _patterns(text, 16, random.Random(len(text))) + ["ANG", "n", "acgT"]
    for pattern in patterns:
        dna = oracles.is_dna(pattern)
        want = BwmInterval(*oracles.sa_interval(text, pattern)) if dna else BwmInterval(1, 0, True)
        # the rows of the oracle's interval, none when it is empty
        rows = max(0, want.l - want.k + 1)
        for kernel in Kernel:
            # empty results included: the same (k, l) bounds and degenerate flag
            got = exact_search(index, pattern, kernel)
            assert tuple(got) == tuple(want), (pattern, kernel)
            assert (got.width, got.is_empty) == (rows, not rows), (pattern, kernel)
    # one interval update: rank k - 1 and l for the new symbol
    symbols = np.tile(np.arange(4), 2)
    c = np.asarray(index.c[:4])
    for first in "ACGT":
        interval = BwmInterval(*oracles.sa_interval(text, first))
        if interval.is_empty:
            continue
        want = [oracles.sa_interval(text, s + first) for s in "ACGT"]
        pos = np.repeat([interval.k - 1, interval.l], 4)
        for kernel in Kernel:
            low, high = np.split(rank_many(index, pos, symbols, kernel), 2)
            got = [(int(k), int(l)) for k, l in zip(c + low + 1, c + high)]
            assert got == want, (first, kernel)


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_inexact_search_and_collect_hits_equal_oracles(text):
    index = _indexed(text)
    rng = random.Random(len(text) + 1)
    start = rng.randrange(len(text))
    pattern = text[start : start + 6]
    # a budget of the pattern's length or more is refused, as in match_many
    for max_diff in range(min(4, len(pattern))):
        want = inexact_search(index, pattern, max_diff, SCALAR)
        found = [(m.interval.k, m.interval.l, m.diffs_used, m.span) for m in want]
        oracles.check_edit_intervals(text, pattern, max_diff, found)
        for kernel in Kernel:
            assert inexact_search(index, pattern, max_diff, kernel) == want, (max_diff, kernel)
    assert inexact_search(index, "ANG", 1) == []
    # intervals overlap, and one position can be reached with 0 or 1 differences
    # (a one-character pattern, cut from a text that short, has no budget)
    max_diff = min(1, len(pattern) - 1)
    matches = inexact_search(index, pattern, max_diff, SCALAR)
    for max_hits in (None, 0, 1):
        hits, truncated = _want_hits(text, pattern, max_diff, max_hits)
        for kernel in Kernel:
            got, cut = collect_hits(index, matches, len(pattern), kernel, max_hits)
            assert ([(h.record, h.offset, h.diffs) for h in got], cut) == (hits, truncated), kernel
    assert collect_hits(index, [], 3) == ([], False)


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_locate_and_reconstruct_equal_oracles(text):
    index = _indexed(text)
    n = index.n
    sa = oracles.suffix_array_naive(text)
    rows = sorted({*range(0, n + 1, 37), index.sentinel_row, n})
    # every row but the sentinel's holds the character before its suffix
    others = np.delete(np.arange(n + 1), index.sentinel_row)
    for kernel in Kernel:
        assert locate_rows(index, rows, kernel).tolist() == [sa[i] for i in rows], kernel
        codes = np.zeros(n, dtype=np.uint8)
        codes[locate_rows(index, others, kernel) - 1] = bwt_symbols(index, others)
        assert "".join("ACGT"[c] for c in codes.tolist()) == text.upper(), kernel
    rng = random.Random(len(text) + 2)
    # row 0 is the terminator's suffix, at position n, which is never a hit
    intervals = [BwmInterval(0, min(n, 40)), BwmInterval(3, 2)]
    intervals += [BwmInterval(*oracles.sa_interval(text, p)) for p in _patterns(text, 4, rng)]
    for j, interval in enumerate(intervals):
        # a hit must fit its span, the pattern length 4 when None, inside its record
        diffs, span = j % 3, (None, 1, 3)[j % 3]
        want = []
        for p in sorted(sa[interval.k : interval.l + 1]):
            name, start, length = [r for r in _records(text) if r[1] <= p][-1]
            if p - start + (span or 4) <= length:
                want.append(Hit(name, p - start, p, diffs))
        for kernel in Kernel:
            got, _ = collect_hits(index, [MatchResult(interval, diffs, span)], 4, kernel)
            assert got == want, (interval, kernel)


def _engine_refused(*args, **kwargs):
    raise AssertionError("the engine ran on arguments the wrapper should have refused")


def test_bad_arguments_raise_before_the_engine(monkeypatch):
    index = build_index(random_dna(random.Random(9), 130))
    for name in ("exact_search_many", "inexact_search_many", "locate_hits"):
        monkeypatch.setattr(fmpm.search, name, _engine_refused)
    calls = [
        lambda: exact_search(index, ""),
        lambda: inexact_search(index, "ACG", -1),
        lambda: inexact_search(index, "", 1),
        lambda: inexact_search(index, "ACG", 3),
        lambda: collect_hits(index, [], 1, None, -1),
        # a string has at least one character; row 0 is the terminator's
        lambda: collect_hits(index, [MatchResult(BwmInterval(0, 2), 0, 0)], 3),
        lambda: collect_hits(index, [MatchResult(BwmInterval(0, 2), 0)], 0),
        lambda: collect_hits(index, [MatchResult(BwmInterval(0, 2), 0, -3)], 3),
    ]
    bad_kernel = "no-such-kernel"
    calls += [
        lambda: exact_search(index, "A", bad_kernel),
        lambda: inexact_search(index, "AC", 1, bad_kernel),
        lambda: collect_hits(index, [MatchResult(BwmInterval(0, 0), 0)], 1, bad_kernel),
        lambda: collect_hits(index, [], 1, bad_kernel),
    ]
    for j, call in enumerate(calls):
        try:
            call()
        except ValueError:
            continue
        pytest.fail(f"call {j} raised no ValueError")


@pytest.mark.parametrize(
    "intervals, first",
    [
        ([(-1, 3)], -1),
        ([(0, 131)], 131),
        ([(3, 140)], 140),
        ([(0, 5), (7, 6), (-2, 1)], -2),
        ([(3, 140), (-2, 1)], 140),
        ([(0, 10**12)], 10**12),  # refused before any row is listed
    ],
    ids=["below", "above", "upper-bound", "second-interval", "interval-order", "huge"],
)
def test_collect_hits_names_the_first_row_outside_the_index(intervals, first):
    # the engine's row check, the one locate_rows makes, k before l
    index = build_index(random_dna(random.Random(9), 130))
    matches = [MatchResult(BwmInterval(k, l), 0) for k, l in intervals]
    for kernel in Kernel:
        with pytest.raises(ValueError) as refused:
            collect_hits(index, matches, 2, kernel)
        assert str(refused.value) == f"row {first} outside [0, 130]", kernel


def _per_pattern(index, pattern, max_diff, kernel, max_hits):
    """(record, offset, diffs) of each hit and the truncated flag, one call at a time."""
    if max_diff:
        matches = inexact_search(index, pattern, max_diff, kernel)
    else:
        interval = exact_search(index, pattern, kernel)
        matches = [] if interval.is_empty else [MatchResult(interval, 0)]
    hits, truncated = collect_hits(index, matches, len(pattern), kernel, max_hits)
    return [(h.record, h.offset, h.diffs) for h in hits], truncated


@st.composite
def single_queries(draw):
    """A text, a budget and a hit limit, and a pattern that may be empty,
    lowercase, hold an N, or be about as long as the budget."""
    text = draw(st.sampled_from(TEXTS))
    max_diff = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=0, max_value=max_diff + 2) | st.integers(0, 12))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=max(0, len(text) - m)))
        pattern = text[start : start + m]
    else:
        pattern = draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
    if pattern and draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=len(pattern) - 1))
        pattern = pattern[:j] + "N" + pattern[j + 1 :]
    pattern = pattern.lower() if draw(st.booleans()) else pattern.upper()
    return text, pattern, max_diff, draw(st.sampled_from([None, 0, 1, 2]))


@settings(max_examples=150, deadline=None)
@given(single_queries())
def test_per_pattern_calls_equal_match_many(query):
    # both equal the per-record DP, or refuse the query with one message
    text, pattern, max_diff, max_hits = query
    index = _indexed(text)
    names = index.names
    want = None if len(pattern) <= max_diff else _want_hits(text, pattern, max_diff, max_hits)
    for kernel in Kernel:
        try:
            hits = match_many(index, [pattern], max_diff, kernel, max_hits)
        except ValueError as refused:
            assert want is None
            with pytest.raises(ValueError) as also:
                _per_pattern(index, pattern, max_diff, kernel, max_hits)
            assert str(also.value) == str(refused), kernel
            continue
        found = zip(hits.record.tolist(), hits.offset.tolist(), hits.diffs.tolist())
        assert ([(names[r], o, d) for r, o, d in found], bool(hits.truncated[0])) == want, kernel
        assert _per_pattern(index, pattern, max_diff, kernel, max_hits) == want, kernel
