import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpm.suffix
from fmpm.alphabet import SYMBOLS, AlphabetError, TERMINATOR, encode_array
from fmpm.suffix import _seed_width, bwt_codes, suffix_array

from oracles import encode, random_dna, suffix_array_naive


# sizes at and either side of the SA sample stride, the bucket width, and
# a seed width of 24 characters and its first doublings
EDGE_SIZES = sorted(
    {m + d for m in (32, 64, 96, 128, 256, 24, 48, 96) for d in (-1, 0, 1)}
)

# reference lengths 2**k - 1 and 2**k: where the position bits below each
# seed grow by one, and so where the seed width can shrink
POSITION_BIT_SIZES = [size for k in range(1, 13) for size in (2**k - 1, 2**k)]


def _sa_of(text):
    return suffix_array(encode_array(text)).tolist()


def _bwt_of(text):
    """The transform of text + terminator as a string, with its terminator row."""
    codes, sentinel_row = bwt_codes(encode_array(text), suffix_array(encode_array(text)))
    chars = [SYMBOLS[c] for c in codes.tolist()]
    chars[sentinel_row] = TERMINATOR
    return "".join(chars), sentinel_row


def test_known_suffix_arrays():
    assert _sa_of("ACAG") == [4, 0, 2, 1, 3]
    assert _sa_of("A") == [1, 0]
    assert _sa_of("AAAA") == [4, 3, 2, 1, 0]


def test_empty_and_invalid_reference():
    with pytest.raises(ValueError):
        _sa_of("")
    with pytest.raises(AlphabetError):
        _sa_of("ACXG")
    with pytest.raises(ValueError):
        suffix_array_naive("")


def test_lowercase_accepted():
    assert _sa_of("acag") == [4, 0, 2, 1, 3]


def test_seed_width_fits_int64_above_the_positions():
    assert [_seed_width(n + 1) for n in (100_000, 400_000, 4_000_000)] == [19, 18, 17]
    for n in range(2, 5000):
        width, bits = _seed_width(n), (n - 1).bit_length()
        assert ((5**width - 1) << bits | (n - 1)) < 2**63 <= (5 ** (width + 1) - 1) << bits


def test_matches_naive_oracle_where_the_seed_width_changes():
    assert len({_seed_width(n + 1) for n in POSITION_BIT_SIZES}) > 5
    rng = random.Random(8)
    for n in POSITION_BIT_SIZES:
        for text in (random_dna(rng, n), ("AACAG" * n)[:n]):
            assert _sa_of(text) == suffix_array_naive(text), (n, text[:40])


def test_matches_naive_oracle_on_repeats_longer_than_the_seed():
    # every repeat here spans many seeds, so rounds of rank doubling run
    # after the first sort until the tied prefix outgrows the repeat
    rng = random.Random(9)
    for unit in ("A", "AC", "ACGT", "ACGTA", random_dna(rng, 30), random_dna(rng, 100)):
        for n in (300, 1000, 3000):
            assert 4 * _seed_width(n + 1) < n
            text = (unit * n)[:n]
            assert _sa_of(text) == suffix_array_naive(text), (unit, n)
            mutated = text[: n // 2] + "ACGT".replace(text[n // 2], "")[0] + text[n // 2 + 1 :]
            assert _sa_of(mutated) == suffix_array_naive(mutated), (unit, n)


def test_matches_naive_oracle():
    rng = random.Random(5)
    cases = [random_dna(rng, rng.randint(1, 64)) for _ in range(150)]
    cases += [random_dna(rng, rng.randint(500, 2000)) for _ in range(4)]
    cases += ["A" * 700, "ACGT" * 250, "AC" * 500 + "G"]
    cases += [(unit * n)[:n] for n in EDGE_SIZES for unit in ("A", "AC", "ACG", "AACAG")]
    for text in cases:
        assert _sa_of(text) == suffix_array_naive(text), text[:40]


@st.composite
def periodic_dna(draw):
    """Low-entropy text: one short unit repeated, optionally one base changed."""
    unit = draw(st.text(alphabet="ACGT", min_size=1, max_size=5))
    n = draw(st.integers(min_value=1, max_value=300))
    text = (unit * (n // len(unit) + 1))[:n]
    at = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    if at is not None:
        text = text[:at] + draw(st.sampled_from("ACGT")) + text[at + 1 :]
    return text


dna_texts = st.one_of(
    st.text(alphabet="ACGTacgt", min_size=1, max_size=300),
    st.sampled_from(EDGE_SIZES).flatmap(
        lambda n: st.text(alphabet="ACGTacgt", min_size=n, max_size=n)
    ),
    periodic_dna(),
)


@settings(max_examples=400, deadline=None)
@given(dna_texts)
def test_matches_naive_oracle_property(text):
    assert _sa_of(text) == suffix_array_naive(text)


def test_rank_overflow_rejected(monkeypatch):
    # rank-pair keys reach n * n - 1, n counting the terminator
    monkeypatch.setattr(fmpm.suffix, "_INT64_MAX", 11 * 11)
    assert _sa_of("A" * 10) == suffix_array_naive("A" * 10)
    with pytest.raises(ValueError, match="too long"):
        _sa_of("A" * 11)


def test_invalid_character_position_matches_encode():
    for text in ("ACXG", "acgtN", "AC\u00e9G", "ACGT\U0001F600A"):
        with pytest.raises(AlphabetError) as raised:
            _sa_of(text)
        with pytest.raises(AlphabetError) as expected:
            encode(text)
        assert str(raised.value) == str(expected.value)


def test_is_permutation_and_sorted():
    rng = random.Random(6)
    for _ in range(30):
        text = random_dna(rng, rng.randint(1, 300))
        sa = _sa_of(text)
        assert sorted(sa) == list(range(len(text) + 1))
        full = text + TERMINATOR
        for a, b in zip(sa, sa[1:]):
            assert full[a:] < full[b:]


def test_bwt_of_known_reference():
    bwt, sentinel_row = _bwt_of("ACAG")
    assert bwt == "G$CAA"
    assert sentinel_row == 1


def test_bwt_is_permutation_of_text_plus_terminator():
    rng = random.Random(7)
    for _ in range(30):
        text = random_dna(rng, rng.randint(1, 200))
        bwt, sentinel_row = _bwt_of(text)
        assert sorted(bwt) == sorted(text + TERMINATOR)
        assert bwt[sentinel_row] == TERMINATOR


def test_bwt_rejects_wrong_sa_length():
    with pytest.raises(ValueError):
        bwt_codes(encode_array("ACAG"), np.array([0, 1, 2]))


def test_bwt_codes_hold_the_terminator_as_a():
    codes = encode_array("ACAG")
    sa = suffix_array(codes)
    assert sa.dtype == np.int32
    bwt, sentinel_row = bwt_codes(codes, sa)
    assert (bwt.tolist(), sentinel_row) == ([2, 0, 1, 0, 0], 1)  # G$CAA
    with pytest.raises(ValueError, match="no entry for position 0"):
        bwt_codes(codes, np.array([4, 1, 2, 1, 3]))
