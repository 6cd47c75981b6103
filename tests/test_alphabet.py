import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmpm.alphabet import SYMBOLS, AlphabetError, encode_array, encode_batch

from oracles import encode, is_dna, pack_codes


def test_codes_follow_lexicographic_order():
    assert encode_array("ACGT").tolist() == [0, 1, 2, 3]
    assert encode_array("acgt").tolist() == [0, 1, 2, 3]
    assert encode_array("").tolist() == []


def test_encode_rejects_bad_character():
    # the first bad character and its position; a non-ASCII character
    # counts as one position, an astral one too
    cases = [
        ("ACNG", "'N' at position 2"),
        ("acgtN", "'N' at position 4"),
        ("AC\u00e9G", "'\u00e9' at position 2"),
        ("ACGT\U0001f600A", "'\U0001f600' at position 4"),
        ("NACGU", "'N' at position 0"),
    ]
    for text, where in cases:
        with pytest.raises(AlphabetError) as raised:
            encode_array(text)
        assert str(raised.value) == f"invalid character {where}; expected one of ACGT"


@given(st.text(alphabet="ACGTacgtNn\u00e9\U0001f600") | st.text())
def test_encode_array_equals_encode(text):
    try:
        want = encode(text)
    except AlphabetError as expected:
        with pytest.raises(AlphabetError) as raised:
            encode_array(text)
        assert str(raised.value) == str(expected)
    else:
        assert encode_array(text).tolist() == want


def test_encode_batch():
    codes, lengths, dna = encode_batch(["ACGTacgt", "ACGU", "", "N", "\u00e9"])
    assert dna.tolist() == [True, False, True, False, False]
    assert lengths.tolist() == [8, 4, 0, 1, 1]
    assert codes.dtype == np.uint8
    assert codes.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
    codes, lengths, dna = encode_batch([])
    assert (codes.tolist(), lengths.tolist(), dna.tolist()) == ([], [], [])


@given(st.lists(st.text(alphabet="ACGTacgtNn\u00e9\U0001f600") | st.text(), max_size=8))
def test_encode_batch_equals_is_dna_and_encode_array(texts):
    # lowercase, N and non-ASCII characters, one of them astral (one code point)
    codes, lengths, dna = encode_batch(texts)
    assert dna.tolist() == [is_dna(t) for t in texts]
    assert lengths.tolist() == [len(t) for t in texts]
    want = encode_array("".join(t for t in texts if is_dna(t)))
    assert codes.dtype == np.uint8
    assert codes.tolist() == want.tolist()


def _pack(text):
    return pack_codes(encode(text))


def test_pack_single_bytes():
    assert _pack("ccac") == bytes([0x45])
    assert _pack("aaaa") == bytes([0x00])
    assert _pack("ttgc") == bytes([0x6F])


def test_pack_partial_byte_padding_is_zero():
    # T=11 in bits [0,1], G=10 in bits [2,3], rest zero
    assert _pack("TG") == bytes([0b1011])


def test_pack_32_char_block_low_word():
    packed = _pack("ccacttgcgaaatttacaaggtttattaggtt")
    assert len(packed) == 8
    assert int.from_bytes(packed, "little") == 0xFA3CFE813F026F45


def test_pack_codes_pad_to():
    data = pack_codes([1, 1, 0, 1], pad_to=32)
    assert len(data) == 32
    assert data[0] == 0x45
    assert set(data[1:]) == {0}
    with pytest.raises(ValueError):
        pack_codes([0] * 9, pad_to=2)


def test_packed_text_size_invariant():
    # four codes per byte, the last byte partly filled
    assert [len(pack_codes([3] * n)) for n in range(10)] == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


def test_char_code_and_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 100)
        text = "".join(rng.choice("ACGT") for _ in range(n))
        packed = _pack(text)
        # code j sits in bits [2*(j % 4), 2*(j % 4) + 1] of byte j // 4
        codes = [(packed[j >> 2] >> ((j & 3) << 1)) & 3 for j in range(n)]
        assert codes == encode_array(text).tolist()
        assert "".join(SYMBOLS[c] for c in codes) == text


def test_decode_inverts_encode():
    assert "".join(SYMBOLS[c] for c in encode_array("GATTACA")) == "GATTACA"
    assert "".join(SYMBOLS[c] for c in encode_array("gattaca")) == "GATTACA"
