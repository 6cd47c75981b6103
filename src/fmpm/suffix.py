"""Suffix array construction and the Burrows-Wheeler transform."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .alphabet import TERMINATOR, encode_array

# Characters packed into each suffix's seed rank.  A seed holds SEED_WIDTH
# base-5 digits (terminator and past-the-end 0, A..T 1..4), and
# 5**SEED_WIDTH must stay below 2**63 so the seed fits an int64.
SEED_WIDTH = 24

_INT64_MAX = np.iinfo(np.int64).max


def suffix_array_naive(reference: str) -> list[int]:
    """Comparison-sort oracle: sort all suffixes of reference + terminator.

    Materializes every suffix, so keep inputs small (a few thousand chars).
    ASCII ordering of '$' < 'A' < 'C' < 'G' < 'T' matches the code order.
    """
    _validate(reference)
    text = reference.upper() + TERMINATOR
    return sorted(range(len(text)), key=lambda i: text[i:])


def build_suffix_array(reference: str) -> list[int]:
    """Suffix array of reference + terminator by numpy prefix doubling.

    Ranks are seeded from each suffix's first SEED_WIDTH characters packed
    into one int64, then refined by rank doubling (Manber & Myers 1993):
    a round sorts the suffixes of every group still tied on its first `w`
    characters by the pair (rank[i], rank[i + w]), so the tied prefix
    doubles.  Only unresolved groups are re-sorted (Larsson & Sadakane
    2007).  With h the longest repeated substring, that is
    ceil(log2((h + 1) / SEED_WIDTH)) rounds after the seed, each one
    O(m log m) in the m suffixes still tied; O(n log^2 n) at worst.
    Agrees with suffix_array_naive on every input.
    """
    codes = _validate(reference)
    n = len(codes) + 1
    if n > _INT64_MAX // n:  # the rank-pair keys reach n * n - 1
        raise ValueError(f"reference of {n - 1} characters is too long to rank in int64")

    digits = np.zeros(n + SEED_WIDTH - 1, dtype=np.int64)
    digits[: n - 1] = codes + 1
    key = np.zeros(n, dtype=np.int64)
    for j in range(SEED_WIDTH):
        key *= 5
        key += digits[j : j + n]
    del digits

    # rank[i] is the number of suffixes whose tied prefix sorts below that
    # of suffix i: the SA index where i's group starts.  Groups refined in
    # a round keep their start, so untouched ranks stay valid.
    rank = np.empty(n, dtype=np.int64)
    sa = np.arange(n, dtype=np.int64)
    tied = np.arange(n, dtype=np.int64)  # ascending SA indices of unresolved groups
    width = SEED_WIDTH
    while True:
        # any sort will do: members left tied are sorted again next round,
        # and the loop ends only once every key in a round is distinct
        order = np.argsort(key)
        key = key[order]
        members = sa[tied[order]]
        del order
        sa[tied] = members
        # boundary[j]: a new group starts at sorted member j (or j == end)
        boundary = np.ones(len(key) + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=boundary[1:-1])
        heads = np.where(boundary[:-1], tied, 0)
        rank[members] = np.maximum.accumulate(heads, out=heads)
        tied = tied[~(boundary[:-1] & boundary[1:])]
        if not len(tied):
            return sa.tolist()
        # a tied suffix's first `width` characters hold no terminator, since
        # the terminator occurs once; so i + width < n for every member
        members = sa[tied]
        key = rank[members] * n + rank[members + width]
        width *= 2


def bwt_from_sa(reference: str, sa: Sequence[int]) -> tuple[str, int]:
    """Burrows-Wheeler transform of reference + terminator.

    Row i holds the character preceding suffix sa[i], the terminator for
    the row whose suffix starts at position 0.  Returns the transform and
    the row index holding the terminator.
    """
    text = reference.upper()
    if len(sa) != len(text) + 1:
        raise ValueError(
            f"suffix array length {len(sa)} does not match reference length {len(text)}"
        )
    positions = np.asarray(sa, dtype=np.int64)
    at_start = np.flatnonzero(positions == 0)
    if not len(at_start):
        raise ValueError("suffix array holds no entry for position 0")
    # byte p of the shifted text is the character before suffix p
    shifted = np.frombuffer((TERMINATOR + text).encode("ascii"), dtype=np.uint8)
    return shifted[positions].tobytes().decode("ascii"), int(at_start[0])


def _validate(reference: str) -> np.ndarray:
    if not reference:
        raise ValueError("reference is empty")
    return encode_array(reference)
