"""The library functions of `fmpm.search`, and the rank, LF-step and locate
functions of `fmpm.batch`, against the per-item oracles under every
kernel, and against `match_many`, whose checks they share.

Each `fmpm.search` function is a wrapper over the batch engine with no
checks of its own; the oracles in `oracles.py` read the index one bucket
at a time with the scalar kernel and share no code with that engine.
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


def _indexed(text):
    """The index of `text` cut into up to three records, so locate drops hits."""
    n = len(text)
    bounds = sorted({0, n // 3, 2 * n // 3, n})
    records = [(f"r{i}", a, b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return build_index(text, records)


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


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_occ_wrappers_equal_oracles(text):
    index = _indexed(text)
    n = index.n
    positions = np.arange(-1, n + 1)
    want_all = [list(oracles.occ_all(index, int(k), SCALAR)) for k in positions]
    symbol = positions % 4
    want_one = [row[s] for row, s in zip(want_all, symbol.tolist())]
    highs = np.minimum(n, positions + np.take(PAIR_GAPS, positions % len(PAIR_GAPS)))
    want_pairs = []
    for k, high in zip(positions.tolist(), highs.tolist()):
        pair = oracles.occ_pair_all(index, k, high, SCALAR)
        want_pairs.append([list(pair.at_low), list(pair.at_high)])
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
    index = _indexed(text)
    stepped = [oracles.psi_inverse_fused(index, i, SCALAR) for i in range(index.n + 1)]
    assert stepped[index.sentinel_row] is None
    rows = np.delete(np.arange(index.n + 1), index.sentinel_row)
    want_symbol, want_row = (list(column) for column in zip(*(stepped[i] for i in rows)))
    # the sentinel row reads as A, the code the terminator is packed as
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
        want = oracles.exact_search(index, pattern, SCALAR)
        for kernel in Kernel:
            # empty results included: the same (k, l) bounds and degenerate flag
            assert tuple(exact_search(index, pattern, kernel)) == tuple(want), (pattern, kernel)
    # one interval update: rank k - 1 and l for the new symbol
    symbols = np.tile(np.arange(4), 2)
    c = np.asarray(index.c[:4])
    for first in range(4):
        interval = oracles.init_interval(index, first)
        if interval.is_empty:
            continue
        want = [oracles.extend_backward(index, interval, s, SCALAR) for s in range(4)]
        pos = np.repeat([interval.k - 1, interval.l], 4)
        for kernel in Kernel:
            low, high = np.split(rank_many(index, pos, symbols, kernel), 2)
            got = [BwmInterval(int(k), int(l)) for k, l in zip(c + low + 1, c + high)]
            assert got == want, (first, kernel)


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_inexact_search_and_collect_hits_equal_oracles(text):
    index = _indexed(text)
    rng = random.Random(len(text) + 1)
    start = rng.randrange(len(text))
    pattern = text[start : start + 6]
    # a budget of the pattern's length or more is refused, as in match_many
    for max_diff in range(min(4, len(pattern))):
        want = oracles.inexact_search(index, pattern, max_diff, SCALAR)
        for kernel in Kernel:
            assert inexact_search(index, pattern, max_diff, kernel) == want, (max_diff, kernel)
    assert inexact_search(index, "ANG", 1) == oracles.inexact_search(index, "ANG", 1) == []
    # intervals overlap, and one position can be reached with 0 or 1 differences
    matches = oracles.inexact_search(index, pattern, 1, SCALAR)
    for max_hits in (None, 0, 1):
        want = oracles.collect_hits(index, matches, len(pattern), SCALAR, max_hits)
        for kernel in Kernel:
            got = collect_hits(index, matches, len(pattern), kernel, max_hits)
            assert got == want, (max_hits, kernel)
    assert collect_hits(index, [], 3) == ([], False)


@pytest.mark.parametrize("text", TEXTS, ids=IDS)
def test_locate_and_reconstruct_equal_oracles(text):
    index = _indexed(text)
    n = index.n
    rows = sorted({*range(0, n + 1, 37), index.sentinel_row, n})
    want = [oracles.locate_row(index, i, SCALAR) for i in rows]
    # every row but the sentinel's holds the character before its suffix
    others = np.delete(np.arange(n + 1), index.sentinel_row)
    for kernel in Kernel:
        assert locate_rows(index, rows, kernel).tolist() == want, kernel
        codes = np.zeros(n, dtype=np.uint8)
        codes[locate_rows(index, others, kernel) - 1] = bwt_symbols(index, others)
        assert "".join("ACGT"[c] for c in codes.tolist()) == text.upper(), kernel
    rng = random.Random(len(text) + 2)
    # row 0 is the terminator's suffix, at position n, which is never a hit
    intervals = [BwmInterval(0, min(n, 40)), BwmInterval(3, 2)]
    intervals += [oracles.exact_search(index, p, SCALAR) for p in _patterns(text, 4, rng)]
    for j, interval in enumerate(intervals):
        diffs = j % 3  # a hit must fit 4 - diffs characters inside its record
        want = oracles.locate_all(index, interval, diffs, 4, SCALAR)
        for kernel in Kernel:
            got, _ = collect_hits(index, [MatchResult(interval, diffs)], 4, kernel)
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
    text, pattern, max_diff, max_hits = query
    index = _indexed(text)
    names = index.names
    for kernel in Kernel:
        try:
            hits = match_many(index, [pattern], max_diff, kernel, max_hits)
        except ValueError as refused:
            with pytest.raises(ValueError) as also:
                _per_pattern(index, pattern, max_diff, kernel, max_hits)
            assert str(also.value) == str(refused), kernel
            continue
        found = zip(hits.record.tolist(), hits.offset.tolist(), hits.diffs.tolist())
        want = ([(names[r], o, d) for r, o, d in found], bool(hits.truncated[0]))
        assert _per_pattern(index, pattern, max_diff, kernel, max_hits) == want, kernel
