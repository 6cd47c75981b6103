import random

import pytest

from fmpm.alphabet import A, C, G, T, SYMBOLS, TERMINATOR
from fmpm.index import build_index
from fmpm.kernels import Kernel, OccCounts
from fmpm.search import bwt_char_at, occ, occ_all, occ_pair_all
from fmpm.suffix import build_suffix_array, bwt_from_sa

from oracles import bwt_prefix_counts, random_dna

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


def test_occ_known_cells(acag):
    for k, row in enumerate(ACAG_OCC):
        for symbol in range(4):
            assert occ(acag, symbol, k) == row[symbol], (symbol, k)


def test_occ_empty_prefix(acag):
    for symbol in range(4):
        assert occ(acag, symbol, -1) == 0


def test_occ_spot_values(acag):
    assert occ(acag, A, 3) == 1
    assert occ(acag, A, 4) == 2
    assert occ(acag, C, 2) == 1
    assert occ(acag, G, 0) == 1
    assert occ(acag, T, 4) == 0


def test_occ_bounds(acag):
    with pytest.raises(ValueError):
        occ(acag, A, 5)
    with pytest.raises(ValueError):
        occ(acag, A, -2)
    with pytest.raises(ValueError):
        occ(acag, 4, 0)


def test_occ_matches_direct_bwt_scan():
    rng = random.Random(41)
    for n in (100, 700, 5000):
        text = random_dna(rng, n)
        index = build_index(text)
        bwt, _ = bwt_from_sa(text, build_suffix_array(text))
        for _ in range(200):
            k = rng.randint(-1, n)
            symbol = rng.randrange(4)
            want = 0 if k < 0 else bwt_prefix_counts(bwt, SYMBOLS[symbol], k)
            assert occ(index, symbol, k) == want


def test_occ_kernels_agree_at_index_level():
    text = random_dna(random.Random(42), 400)
    index = build_index(text)
    rng = random.Random(43)
    for _ in range(60):
        k = rng.randint(-1, 400)
        symbol = rng.randrange(4)
        values = {kern: occ(index, symbol, k, kern) for kern in Kernel}
        assert len(set(values.values())) == 1, values


def test_occ_all_matches_singles(acag):
    for k in range(-1, 5):
        counts = occ_all(acag, k)
        assert counts == OccCounts(*(occ(acag, s, k) for s in range(4)))


def test_occ_pair_known(acag):
    pair = occ_pair_all(acag, 2, 4)
    assert tuple(pair.at_low) == (0, 1, 1, 0)
    assert tuple(pair.at_high) == (2, 1, 1, 0)


def test_occ_pair_edge_cases(acag):
    pair = occ_pair_all(acag, -1, 4)
    assert tuple(pair.at_low) == (0, 0, 0, 0)
    assert tuple(pair.at_high) == (2, 1, 1, 0)
    pair = occ_pair_all(acag, 3, 3)
    assert pair.at_low == pair.at_high
    with pytest.raises(ValueError):
        occ_pair_all(acag, 3, 2)


def test_occ_pair_matches_eight_queries():
    text = random_dna(random.Random(44), 900)
    index = build_index(text)
    rng = random.Random(45)
    for _ in range(150):
        low = rng.randint(-1, 900)
        high = rng.randint(low if low >= 0 else 0, 900)
        pair = occ_pair_all(index, low, high)
        for symbol in range(4):
            assert pair.at_low[symbol] == occ(index, symbol, low)
            assert pair.at_high[symbol] == occ(index, symbol, high)


def test_row_sum_and_monotonicity():
    text = random_dna(random.Random(46), 600)
    index = build_index(text)
    prev = OccCounts(0, 0, 0, 0)
    for k in range(601):
        counts = occ_all(index, k)
        expected = k + 1 - (1 if index.sentinel_row <= k else 0)
        assert sum(counts) == expected
        steps = [counts[s] - prev[s] for s in range(4)]
        assert all(step in (0, 1) for step in steps)
        # exactly one symbol advances, except at the sentinel row
        assert sum(steps) == (0 if k == index.sentinel_row else 1)
        prev = counts


def test_bwt_char_at(acag):
    # transform of the example reads G $ C A A
    assert bwt_char_at(acag, 0) == G
    assert bwt_char_at(acag, 1) is None
    assert bwt_char_at(acag, 2) == C
    assert bwt_char_at(acag, 3) == A
    assert bwt_char_at(acag, 4) == A
    with pytest.raises(ValueError):
        bwt_char_at(acag, 5)


def test_bwt_char_at_matches_construction():
    text = random_dna(random.Random(47), 500)
    index = build_index(text)
    bwt, sentinel_row = bwt_from_sa(text, build_suffix_array(text))
    for i, ch in enumerate(bwt):
        if i == sentinel_row:
            assert bwt_char_at(index, i) is None
            assert ch == TERMINATOR
        else:
            assert SYMBOLS[bwt_char_at(index, i)] == ch
