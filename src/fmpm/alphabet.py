"""2-bit DNA alphabet: symbol codes and text encoding."""

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


def encode_array(text: str) -> np.ndarray:
    """Symbol codes of a DNA string as a uint8 array, validated by one table lookup.

    Raises AlphabetError naming the first character outside ACGT.
    """
    # "replace" turns each non-ASCII character into one '?', which keeps
    # positions aligned and fails the lookup
    codes = _CODE_OF_BYTE[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    if len(codes) and codes.max() == _INVALID:
        i = int(np.argmax(codes == _INVALID))
        raise AlphabetError(
            f"invalid character {text[i]!r} at position {i}; expected one of ACGT"
        )
    return codes


def encode_batch(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, lengths, dna) of a batch of strings, in one table lookup.

    `dna` tells whether each string is all A/C/G/T (either case), and the
    uint8 `codes` of those strings run end to end.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # as in encode_array, each non-ASCII character becomes one invalid '?'
    joined = "".join(texts).encode("ascii", "replace")
    codes = _CODE_OF_BYTE[np.frombuffer(joined, dtype=np.uint8)]
    dna = np.ones(len(texts), dtype=bool)
    # each invalid code marks the text holding it, the first to end past it
    dna[np.searchsorted(np.cumsum(lengths), np.flatnonzero(codes == _INVALID), "right")] = False
    return codes[np.repeat(dna, lengths)], lengths, dna
