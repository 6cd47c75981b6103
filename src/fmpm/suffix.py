"""Suffix array construction and the Burrows-Wheeler transform."""

from __future__ import annotations

import numpy as np

from .alphabet import SYMBOLS

_INT64_MAX = np.iinfo(np.int64).max

# marks the terminator's row while the transform codes are gathered
_TERMINATOR_MARK = len(SYMBOLS)


def _seed_width(n: int) -> int:
    """The seed width for n suffixes, in characters.

    The most base-5 digits (terminator and past-the-end 0, A..T 1..4)
    whose value, shifted left past the bits of positions up to n - 1,
    still fits an int64.
    """
    room = _INT64_MAX >> (n - 1).bit_length()
    width = 0
    while 5 ** (width + 1) - 1 <= room:
        width += 1
    return width


def suffix_array(codes: np.ndarray) -> np.ndarray:
    """Suffix array of a coded reference + terminator, by numpy prefix doubling.

    Ranks are seeded from each suffix's first `w` characters packed into
    one int64 above the suffix's position, `w` = `_seed_width(n)` (19 at
    100k characters, 17 at 4M), so that one in-place sort gives both the
    first order and the seed ranks.  They are then refined by rank
    doubling (Manber & Myers 1993): a round sorts the suffixes of every
    group still tied on its first `width` characters by the pair
    (rank[i], rank[i + width]), so the tied prefix doubles.  Only
    unresolved groups are re-sorted (Larsson & Sadakane 2007).  With h the
    longest repeated substring, that is ceil(log2((h + 1) / w)) rounds
    after the seed, each one O(m log m) in the m suffixes still tied;
    O(n log^2 n) at worst.  Suffix positions and ranks are int32 while
    they fit; only the sort keys are int64.
    """
    if not len(codes):
        raise ValueError("reference is empty")
    n = len(codes) + 1
    if n > _INT64_MAX // n:  # the rank-pair keys reach n * n - 1
        raise ValueError(f"reference of {n - 1} characters is too long to rank in int64")
    index_type = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    width = _seed_width(n)

    # key[i] holds the h digits from position i; key[i]·5^h + key[i + h]
    # holds 2h, so log2(width) doublings and at most width / 2 single-digit
    # top-ups make the seed, through two buffers
    key = np.zeros(n, dtype=np.int64)
    np.add(codes, 1, out=key[:-1])
    spare = np.empty(n, dtype=np.int64)
    h = 1
    while 2 * h <= width:
        np.multiply(key, 5**h, out=spare)
        spare[: max(n - h, 0)] += key[h:]
        key, spare = spare, key
        h *= 2
    del spare
    for j in range(h, width):
        key *= 5
        key[: max(n - 1 - j, 0)] += codes[j:] + 1

    # the first sort: the position below each seed makes every key
    # distinct, so one in-place sort gives the order (low bits) and the
    # sorted seeds (high bits); suffixes tied on their seed come out in
    # position order, and any order of them will do
    bits = (n - 1).bit_length()
    key <<= bits
    key |= np.arange(n, dtype=index_type)
    key.sort()
    sa = members = np.empty(n, dtype=index_type)
    np.bitwise_and(key, (1 << bits) - 1, out=sa, casting="unsafe")
    key >>= bits
    tied = np.arange(n, dtype=index_type)  # ascending SA indices of unresolved groups
    # rank[i] is the number of suffixes whose tied prefix sorts below that
    # of suffix i: the SA index where i's group starts.  Groups refined in
    # a round keep their start, so untouched ranks stay valid.
    rank = np.empty(n, dtype=index_type)
    while True:
        # boundary[j]: a new group starts at sorted member j (or j == end)
        boundary = np.ones(len(key) + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=boundary[1:-1])
        del key
        heads = np.where(boundary[:-1], tied, 0)
        rank[members] = np.maximum.accumulate(heads, out=heads)
        del heads, members
        tied = tied[~(boundary[:-1] & boundary[1:])]
        if not len(tied):
            return sa
        # a tied suffix's first `width` characters hold no terminator, since
        # the terminator occurs once; so i + width < n for every member
        members = sa[tied]
        key = rank[members].astype(np.int64)
        key *= n
        key += rank[members + width]
        width *= 2
        # any sort will do: members left tied are sorted again next round,
        # and the loop ends only once every key in a round is distinct
        order = np.argsort(key)
        members = members[order]
        del order
        key.sort()
        sa[tied] = members


def bwt_codes(codes: np.ndarray, sa: np.ndarray) -> tuple[np.ndarray, int]:
    """Burrows-Wheeler transform codes of a coded reference + terminator.

    Row i holds the code of the character preceding suffix sa[i]; the row
    whose suffix starts at position 0 holds the terminator, coded as A (0).
    Returns the codes and that row's index.
    """
    if len(sa) != len(codes) + 1:
        raise ValueError(
            f"suffix array length {len(sa)} does not match reference length {len(codes)}"
        )
    # entry p of the shifted codes is the code before suffix p; the
    # terminator gets 4, above every symbol, so its row is the maximum
    shifted = np.empty(len(codes) + 1, dtype=np.uint8)
    shifted[0] = _TERMINATOR_MARK
    shifted[1:] = codes
    out = shifted[sa]
    del shifted
    sentinel_row = int(out.argmax())
    if out[sentinel_row] != _TERMINATOR_MARK:
        raise ValueError("suffix array holds no entry for position 0")
    out[sentinel_row] = 0
    return out, sentinel_row
