import random

import numpy as np
import pytest

from fmpm.alphabet import A, C, G, T, SYMBOLS, TERMINATOR
from fmpm.batch import bwt_symbols, rank_many
from fmpm.index import build_index
from fmpm.kernels import Kernel

from oracles import EDGE_SIZES, PERIODIC_TEXTS, bwt_prefix_counts, edge_text, naive_bwt, random_dna

# occurrence table of the worked 4-character example, rows 0..4
ACAG_OCC = [
    (0, 0, 1, 0),
    (0, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 1, 0),
    (2, 1, 1, 0),
]


@pytest.fixture(scope="module")
def acag():
    return build_index("ACAG")


def _occ(index, symbol, k, kernel=None):
    return int(rank_many(index, [k], [symbol], kernel)[0])


def test_occ_known_cells(acag):
    for k, row in enumerate(ACAG_OCC):
        for symbol in range(4):
            assert _occ(acag, symbol, k) == row[symbol], (symbol, k)


def test_occ_empty_prefix(acag):
    for symbol in range(4):
        assert _occ(acag, symbol, -1) == 0


def test_occ_spot_values(acag):
    assert _occ(acag, A, 3) == 1
    assert _occ(acag, A, 4) == 2
    assert _occ(acag, C, 2) == 1
    assert _occ(acag, G, 0) == 1
    assert _occ(acag, T, 4) == 0


def test_occ_bounds(acag):
    # the two ends of the defined range [-1, n]: nothing counted, and each
    # symbol's total, which the C table holds as c[s + 1] - c[s]
    totals = [acag.c[s + 1] - acag.c[s] for s in range(4)]
    assert rank_many(acag, [-1, acag.n]).tolist() == [[0, 0, 0, 0], totals]
    assert rank_many(acag, [acag.n] * 4, range(4)).tolist() == totals


def test_occ_matches_direct_bwt_scan():
    rng = random.Random(41)
    for n in (100, 700, 5000):
        text = random_dna(rng, n)
        index = build_index(text)
        bwt = naive_bwt(text)
        for _ in range(200):
            k = rng.randint(-1, n)
            symbol = rng.randrange(4)
            want = 0 if k < 0 else bwt_prefix_counts(bwt, SYMBOLS[symbol], k)
            assert _occ(index, symbol, k) == want


def test_occ_kernels_agree_at_index_level():
    text = random_dna(random.Random(42), 400)
    index = build_index(text)
    rng = random.Random(43)
    for _ in range(60):
        k = rng.randint(-1, 400)
        symbol = rng.randrange(4)
        values = {kern: _occ(index, symbol, k, kern) for kern in Kernel}
        assert len(set(values.values())) == 1, values


def test_occ_all_matches_singles(acag):
    for k in range(-1, 5):
        counts = rank_many(acag, [k])[0].tolist()
        assert counts == [_occ(acag, s, k) for s in range(4)]


def test_occ_pair_known(acag):
    at_low, at_high = rank_many(acag, [2, 4]).tolist()
    assert at_low == [0, 1, 1, 0]
    assert at_high == [2, 1, 1, 0]


def test_occ_pair_edge_cases(acag):
    at_low, at_high = rank_many(acag, [-1, 4]).tolist()
    assert at_low == [0, 0, 0, 0]
    assert at_high == [2, 1, 1, 0]
    at_low, at_high = rank_many(acag, [3, 3]).tolist()
    assert at_low == at_high


def test_occ_pair_matches_eight_queries():
    text = random_dna(random.Random(44), 900)
    index = build_index(text)
    rng = random.Random(45)
    for _ in range(150):
        low = rng.randint(-1, 900)
        high = rng.randint(low if low >= 0 else 0, 900)
        at_low, at_high = rank_many(index, [low, high]).tolist()
        for symbol in range(4):
            assert at_low[symbol] == _occ(index, symbol, low)
            assert at_high[symbol] == _occ(index, symbol, high)


def test_row_sum_and_monotonicity():
    text = random_dna(random.Random(46), 600)
    index = build_index(text)
    prev = [0, 0, 0, 0]
    for k, counts in enumerate(rank_many(index, np.arange(601)).tolist()):
        expected = k + 1 - (1 if index.sentinel_row <= k else 0)
        assert sum(counts) == expected
        steps = [counts[s] - prev[s] for s in range(4)]
        assert all(step in (0, 1) for step in steps)
        # exactly one symbol advances, except at the sentinel row
        assert sum(steps) == (0 if k == index.sentinel_row else 1)
        prev = counts


def test_bwt_char_at(acag):
    # transform of the example reads G $ C A A; the terminator is packed as A
    assert acag.sentinel_row == 1
    assert bwt_symbols(acag, range(5)).tolist() == [G, A, C, A, A]


def test_bwt_char_at_matches_construction():
    # every bucket boundary, lowercase text and periodic text; naive_bwt uppercases
    texts = [random_dna(random.Random(47), 500)] + [edge_text(n) for n in EDGE_SIZES]
    for text in texts + PERIODIC_TEXTS:
        index = build_index(text)
        bwt = naive_bwt(text)
        assert bwt[index.sentinel_row] == TERMINATOR
        got = bwt_symbols(index, np.arange(len(bwt))).tolist()
        for i, ch in enumerate(bwt):
            assert SYMBOLS[got[i]] == ("A" if i == index.sentinel_row else ch), (text, i)
        assert not bwt_symbols(index, np.arange(len(bwt), index.bucket_count * 128)).any()
