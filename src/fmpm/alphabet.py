"""2-bit DNA alphabet: symbol codes, text encoding, packed storage."""

from __future__ import annotations

from typing import Sequence

import numpy as np

SYMBOLS = "ACGT"
A, C, G, T = 0, 1, 2, 3

# Code order matches lexicographic order (A < C < G < T), which the
# suffix sort and the C table both rely on.
CODE_OF = {ch: i for i, ch in enumerate(SYMBOLS)}
CODE_OF.update({ch.lower(): i for i, ch in enumerate(SYMBOLS)})

# End-of-text marker, lexicographically below every symbol (ASCII '$' < 'A').
TERMINATOR = "$"

CHARS_PER_BYTE = 4

# Byte value -> symbol code; _INVALID marks every byte outside ACGTacgt.
_INVALID = 255
_CODE_OF_BYTE = np.full(256, _INVALID, dtype=np.uint8)
for _ch, _code in CODE_OF.items():
    _CODE_OF_BYTE[ord(_ch)] = _code


class AlphabetError(ValueError):
    """A character outside A/C/G/T (either case) was encountered."""


def encode(text: str) -> list[int]:
    """Map a DNA string to symbol codes, rejecting anything outside ACGT."""
    codes = []
    get = CODE_OF.get
    for i, ch in enumerate(text):
        code = get(ch)
        if code is None:
            raise AlphabetError(
                f"invalid character {ch!r} at position {i}; expected one of ACGT"
            )
        codes.append(code)
    return codes


def encode_array(text: str) -> np.ndarray:
    """encode() as a uint8 array, validated by one table lookup."""
    # "replace" turns each non-ASCII character into one '?', which keeps
    # positions aligned and fails the lookup
    codes = _CODE_OF_BYTE[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    if len(codes) and codes.max() == _INVALID:
        encode(text)  # raises the AlphabetError naming the first bad character
    return codes


def is_dna(text: str) -> bool:
    """True when every character of `text` is A/C/G/T (either case)."""
    return all(ch in CODE_OF for ch in text)


def is_dna_many(texts: Sequence[str]) -> np.ndarray:
    """is_dna of every string, as a bool array, by one table lookup over all."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # as in encode_array, each non-ASCII character becomes one invalid '?'
    joined = "".join(texts).encode("ascii", "replace")
    invalid = _CODE_OF_BYTE[np.frombuffer(joined, dtype=np.uint8)] == _INVALID
    seen = np.concatenate([[0], np.cumsum(invalid)])
    ends = np.cumsum(lengths)
    return seen[ends] == seen[ends - lengths]


def pack_codes(codes: Sequence[int], pad_to: int | None = None) -> bytes:
    """Pack 2-bit symbol codes into bytes, four per byte, low-order fields first.

    Code j occupies bits [2*(j % 4), 2*(j % 4) + 1] of byte j // 4, so
    earlier codes sit in lower-order bits; unused trailing fields of the
    last byte are zero.  `pad_to` extends the result with zero bytes up
    to a fixed block size.
    """
    out = bytearray((len(codes) + CHARS_PER_BYTE - 1) // CHARS_PER_BYTE)
    for j, code in enumerate(codes):
        out[j >> 2] |= (code & 3) << ((j & 3) << 1)
    if pad_to is not None:
        if len(out) > pad_to:
            raise ValueError(f"{len(codes)} characters do not fit in {pad_to} bytes")
        out.extend(b"\x00" * (pad_to - len(out)))
    return bytes(out)
