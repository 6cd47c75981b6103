import random

import numpy as np
import pytest

from fmpm.alphabet import A, C, G, T, encode_array
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
from fmpm.suffix import suffix_array

from oracles import hamming_positions, min_anchored_edit_distance, random_dna, scan_positions


@pytest.fixture(scope="module")
def acag():
    return build_index("ACAG")


def _extend(index, interval, symbol):
    """One interval update: rank k - 1 and l for `symbol`."""
    low, high = rank_many(index, [interval.k - 1, interval.l], [symbol] * 2).tolist()
    return BwmInterval(index.c[symbol] + low + 1, index.c[symbol] + high)


def test_init_interval_examples(acag):
    # rows starting with s are [c[s] + 1, c[s + 1]]; the +1 skips the terminator row
    initial = [BwmInterval(acag.c[s] + 1, acag.c[s + 1]) for s in range(4)]
    assert initial[A] == BwmInterval(1, 2)
    assert initial[G] == BwmInterval(4, 4)
    assert initial == [exact_search(acag, ch) for ch in "ACGT"]
    empty = initial[T]
    assert empty == BwmInterval(5, 4)
    assert empty.is_empty and empty.width == 0


def test_extend_backward_examples(acag):
    assert _extend(acag, BwmInterval(1, 2), C) == BwmInterval(3, 3)
    assert _extend(acag, BwmInterval(4, 4), A) == BwmInterval(2, 2)


def test_exact_search_examples(acag):
    assert exact_search(acag, "CA") == BwmInterval(3, 3)
    assert exact_search(acag, "A") == BwmInterval(1, 2)
    assert exact_search(acag, "ACAG") == BwmInterval(1, 1)
    assert exact_search(acag, "T").is_empty
    assert exact_search(acag, "GG").is_empty


def test_exact_search_degenerate(acag):
    result = exact_search(acag, "ANG")
    assert result.is_empty
    assert result.degenerate
    assert not exact_search(acag, "AG").degenerate
    with pytest.raises(ValueError):
        exact_search(acag, "")


def test_interval_width_equals_occurrences():
    rng = random.Random(51)
    text = random_dna(rng, 800)
    index = build_index(text)
    for _ in range(150):
        m = rng.randint(1, 12)
        if rng.random() < 0.7:
            start = rng.randint(0, len(text) - m)
            pattern = text[start : start + m]
        else:
            pattern = random_dna(rng, m)
        interval = exact_search(index, pattern)
        assert interval.width == len(scan_positions(text, pattern))


def test_exact_positions_match_scan():
    rng = random.Random(52)
    for _ in range(25):
        text = random_dna(rng, rng.randint(30, 400))
        index = build_index(text)
        for _ in range(8):
            m = rng.randint(1, 10)
            start = rng.randint(0, len(text) - m)
            pattern = text[start : start + m]
            interval = exact_search(index, pattern)
            hits, _ = collect_hits(index, [MatchResult(interval, 0)], m)
            assert [h.global_pos for h in hits] == scan_positions(text, pattern)


def test_exact_search_kernels_identical():
    text = random_dna(random.Random(53), 600)
    index = build_index(text)
    rng = random.Random(54)
    for _ in range(40):
        pattern = random_dna(rng, rng.randint(1, 8))
        intervals = {exact_search(index, pattern, kern) for kern in Kernel}
        assert len(intervals) == 1


def test_inexact_zero_budget_equals_exact(acag):
    matches = inexact_search(acag, "AG", 0)
    assert matches == [MatchResult(BwmInterval(2, 2), 0)]
    assert inexact_search(acag, "T", 0) == []


def test_inexact_examples(acag):
    hits, _ = collect_hits(acag, inexact_search(acag, "AT", 1), 2)
    assert [(h.global_pos, h.diffs) for h in hits] == [(0, 1), (2, 1)]


def test_inexact_rejects_negative_budget(acag):
    with pytest.raises(ValueError):
        inexact_search(acag, "A", -1)


def test_inexact_degenerate_pattern(acag):
    assert inexact_search(acag, "AN", 1) == []


def test_inexact_zero_reduction_randomized():
    rng = random.Random(55)
    for _ in range(20):
        text = random_dna(rng, rng.randint(20, 300))
        index = build_index(text)
        for _ in range(6):
            m = rng.randint(1, 10)
            start = rng.randint(0, len(text) - m)
            pattern = text[start : start + m] if rng.random() < 0.7 else random_dna(rng, m)
            exact = exact_search(index, pattern)
            matches = inexact_search(index, pattern, 0)
            if exact.is_empty:
                assert matches == []
            else:
                assert matches == [MatchResult(BwmInterval(exact.k, exact.l), 0)]


def test_inexact_soundness_randomized():
    rng = random.Random(56)
    for _ in range(15):
        text = random_dna(rng, rng.randint(50, 300))
        index = build_index(text)
        for z in (1, 2):
            m = rng.randint(6, 12)
            start = rng.randint(0, len(text) - m)
            pattern = text[start : start + m] if rng.random() < 0.5 else random_dna(rng, m)
            matches = inexact_search(index, pattern, z)
            hits, _ = collect_hits(index, matches, m)
            for hit in hits:
                window = text[hit.global_pos : hit.global_pos + m + z]
                dist = min_anchored_edit_distance(pattern, window, z)
                assert dist <= z, (pattern, hit, window)
                assert hit.diffs <= z


def test_inexact_hamming_complete_randomized():
    rng = random.Random(57)
    for _ in range(10):
        text = random_dna(rng, rng.randint(60, 250))
        index = build_index(text)
        for z in (1, 2):
            m = rng.randint(6, 12)
            start = rng.randint(0, len(text) - m)
            pattern = list(text[start : start + m])
            for pos in rng.sample(range(m), z):
                pattern[pos] = rng.choice("ACGT".replace(pattern[pos], ""))
            pattern = "".join(pattern)
            matches = inexact_search(index, pattern, z)
            hits, _ = collect_hits(index, matches, m)
            reported = {h.global_pos for h in hits}
            for pos in hamming_positions(text, pattern, z):
                assert pos in reported, (pattern, pos, z)


def test_inexact_budget_is_monotone():
    rng = random.Random(58)
    text = random_dna(rng, 200)
    index = build_index(text)
    for _ in range(10):
        m = rng.randint(4, 10)
        start = rng.randint(0, len(text) - m)
        pattern = text[start : start + m]
        seen = set()
        for z in (0, 1, 2):
            hits, _ = collect_hits(index, inexact_search(index, pattern, z), m)
            positions = {h.global_pos for h in hits}
            assert seen <= positions
            seen = positions


def test_psi_inverse_examples(acag):
    # rows 2, 4 and 0 step to 3, 2 and 4; row 1 is the sentinel row
    symbol, row = lf_step(acag, [2, 4, 0])
    assert row.tolist() == [3, 2, 4]
    assert symbol.tolist() == [C, A, G]
    assert acag.sentinel_row == 1


def test_psi_inverse_steps_suffix_array():
    text = random_dna(random.Random(59), 400)
    index = build_index(text)
    sa = suffix_array(encode_array(text))
    rows = np.flatnonzero(sa != 0)
    assert index.sentinel_row == int(np.flatnonzero(sa == 0)[0])
    assert (sa[lf_step(index, rows)[1]] == sa[rows] - 1).all()


def test_fused_equals_composed():
    text = random_dna(random.Random(60), 350)
    index = build_index(text)
    rows = np.delete(np.arange(351), index.sentinel_row)
    symbol, row = lf_step(index, rows)
    assert (symbol == bwt_symbols(index, rows)).all()
    assert (row == np.asarray(index.c)[symbol] + rank_many(index, rows, symbol)).all()


def test_locate_row_examples(acag):
    assert locate_rows(acag, [0, 3, 1]).tolist() == [4, 1, 0]
    assert locate_rows(acag, np.arange(5)).tolist() == [4, 0, 2, 1, 3]


def test_locate_row_recovers_full_suffix_array():
    rng = random.Random(61)
    for n in (31, 32, 33, 300):
        text = random_dna(rng, n)
        index = build_index(text)
        sa = suffix_array(encode_array(text))
        assert locate_rows(index, np.arange(n + 1)).tolist() == sa.tolist()


def test_collect_hits_empty_interval(acag):
    assert collect_hits(acag, [MatchResult(BwmInterval(5, 4), 0)], 1) == ([], False)


def test_collect_hits_maps_records():
    index = build_index("AAACCC" + "GGGTTT", [("r1", 0, 6), ("r2", 6, 6)])
    interval = exact_search(index, "CCC")
    hits = collect_hits(index, [MatchResult(interval, 0)], 3)
    assert hits == ([Hit(record="r1", offset=3, global_pos=3, diffs=0)], False)
    # a pattern spanning the junction exists in the concatenation only
    interval = exact_search(index, "CCGG")
    assert not interval.is_empty
    assert collect_hits(index, [MatchResult(interval, 0)], 4) == ([], False)


def test_collect_hits_truncation():
    text = "AC" * 50
    index = build_index(text)
    interval = exact_search(index, "AC")
    hits, truncated = collect_hits(index, [MatchResult(interval, 0)], 2, max_hits=10)
    assert truncated and len(hits) == 10
    hits, truncated = collect_hits(index, [MatchResult(interval, 0)], 2)
    assert not truncated and len(hits) == 50


@pytest.mark.parametrize(
    "call",
    [
        lambda index: match_many(index, ["ACG"], -1),
        lambda index: match_many(index, ["ACG"], 0, max_hits=-1),
        lambda index: match_many(index, ["ACG"], 1, max_hits=-1),
        lambda index: collect_hits(index, [MatchResult(exact_search(index, "ACG"), 0)], 3, None, -1),
    ],
    ids=["match_many-budget", "match_many-hits-z0", "match_many-hits-z1", "collect_hits-hits"],
)
def test_negative_limits_raise(call):
    # a negative hit limit would slice off the last hits and report truncation
    index = build_index("ACGTACGTACGTTTGACA" * 5)
    with pytest.raises(ValueError, match="negative"):
        call(index)


def test_collect_hits_keeps_min_diffs():
    text = "ACGTACGTAC"
    index = build_index(text)
    matches = inexact_search(index, "ACGT", 1)
    hits, _ = collect_hits(index, matches, 4)
    by_pos = {h.global_pos: h.diffs for h in hits}
    assert by_pos[0] == 0
    assert by_pos[4] == 0

