import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmpm.alphabet import (
    AlphabetError,
    PackedText,
    decode,
    encode,
    is_dna,
    is_dna_many,
    pack_2bit,
    pack_codes,
    unpack_2bit,
)


def test_codes_follow_lexicographic_order():
    assert encode("ACGT") == [0, 1, 2, 3]
    assert encode("acgt") == [0, 1, 2, 3]


def test_encode_rejects_bad_character():
    with pytest.raises(AlphabetError, match="position 2"):
        encode("ACNG")


def test_is_dna():
    assert is_dna("ACGTacgt")
    assert not is_dna("ACGU")
    assert is_dna("")


@given(st.lists(st.text(alphabet="ACGTacgtNn\u00e9\U0001f600") | st.text(), max_size=8))
def test_is_dna_many_equals_is_dna(texts):
    # lowercase, N and non-ASCII characters, one of them astral (one code point)
    assert is_dna_many(texts).tolist() == [is_dna(t) for t in texts]


def test_pack_single_bytes():
    assert pack_2bit("ccac").data == bytes([0x45])
    assert pack_2bit("aaaa").data == bytes([0x00])
    assert pack_2bit("ttgc").data == bytes([0x6F])


def test_pack_partial_byte_padding_is_zero():
    packed = pack_2bit("TG")
    # T=11 in bits [0,1], G=10 in bits [2,3], rest zero
    assert packed.data == bytes([0b1011])
    assert packed.length == 2


def test_pack_32_char_block_low_word():
    packed = pack_2bit("ccacttgcgaaatttacaaggtttattaggtt")
    assert len(packed.data) == 8
    assert int.from_bytes(packed.data, "little") == 0xFA3CFE813F026F45


def test_pack_codes_pad_to():
    data = pack_codes([1, 1, 0, 1], pad_to=32)
    assert len(data) == 32
    assert data[0] == 0x45
    assert set(data[1:]) == {0}
    with pytest.raises(ValueError):
        pack_codes([0] * 9, pad_to=2)


def test_packed_text_size_invariant():
    with pytest.raises(ValueError):
        PackedText(data=b"\x00\x00", length=2)


def test_char_code_and_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 100)
        text = "".join(rng.choice("ACGT") for _ in range(n))
        packed = pack_2bit(text)
        assert unpack_2bit(packed) == text
        assert [packed.char_code(j) for j in range(n)] == encode(text)
    with pytest.raises(IndexError):
        pack_2bit("ACG").char_code(3)


def test_decode_inverts_encode():
    assert decode(encode("GATTACA")) == "GATTACA"
