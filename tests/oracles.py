"""Independent reference implementations used to cross-check the package."""

from __future__ import annotations

import random
import struct
import zlib

from fmpm.alphabet import pack_codes
from fmpm.kernels import count_bucket_scalar
from fmpm.suffix import suffix_array_naive


def random_dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(n))


def random_bucket(rng: random.Random) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(32))


def scan_positions(text: str, pattern: str) -> list[int]:
    """Every start position of pattern in text, by direct scanning."""
    out = []
    start = text.find(pattern)
    while start != -1:
        out.append(start)
        start = text.find(pattern, start + 1)
    return out


def hamming_positions(text: str, pattern: str, max_diff: int) -> list[int]:
    """Positions whose equal-length window is within max_diff substitutions."""
    m = len(pattern)
    out = []
    for pos in range(len(text) - m + 1):
        diffs = 0
        for a, b in zip(pattern, text[pos : pos + m]):
            if a != b:
                diffs += 1
                if diffs > max_diff:
                    break
        if diffs <= max_diff:
            out.append(pos)
    return out


def min_anchored_edit_distance(pattern: str, window: str, band: int) -> int:
    """Min edit distance from pattern to any window prefix of plausible length.

    Both strings anchored at their starts; banded at `band`, so any
    distance above it comes back as band + 1.  Prefix lengths considered
    are len(pattern) +- band, clipped to the window.
    """
    m, w = len(pattern), len(window)
    inf = band + 1
    prev = [j if j <= band else inf for j in range(w + 1)]
    for i in range(1, m + 1):
        cur = [i if i <= band else inf] + [inf] * w
        lo = max(1, i - band)
        hi = min(w, i + band)
        for j in range(lo, hi + 1):
            cost = prev[j - 1] + (pattern[i - 1] != window[j - 1])
            if prev[j] + 1 < cost:
                cost = prev[j] + 1
            if cur[j - 1] + 1 < cost:
                cost = cur[j - 1] + 1
            cur[j] = cost if cost < inf else inf
        prev = cur
    lo = max(0, m - band)
    hi = min(w, m + band)
    return min(prev[lo : hi + 1], default=inf)


def bwt_prefix_counts(bwt: str, symbol_char: str, k: int) -> int:
    """Occurrences of symbol_char in bwt[0..k] by direct counting."""
    return bwt[: k + 1].count(symbol_char)


def reference_index_bytes(text: str, records: list[tuple[str, int, int]]) -> bytes:
    """The .fmi file of `text`, built one character at a time.

    Follows the layout documented in fmpm.serialize with the naive suffix
    sort, per-character packing and the scalar counting kernel.
    """
    n = len(text)
    sa = suffix_array_naive(text)
    full = text.upper() + "$"
    # full[-1] is the terminator, so suffix 0 picks it up
    bwt = "".join(full[p - 1] for p in sa)
    codes = [max(0, "ACGT".find(ch)) for ch in bwt]
    c = [0]
    for s in "ACGT":
        c.append(c[-1] + full.count(s))

    out = bytearray(b"FMPM")
    out += struct.pack("<HHQIIQ", 1, 0, n, 128, 32, bwt.index("$"))
    out += struct.pack("<5Q", *c)
    starts = range(0, n + 1, 128)
    out += struct.pack("<Q", len(starts))
    base = [0, 0, 0, 0]
    for start in starts:
        chunk = codes[start : start + 128]
        chars = pack_codes(chunk, pad_to=32)
        out += struct.pack("<4Q", *base) + chars
        for s in range(4):
            base[s] += count_bucket_scalar(chars, len(chunk), s)
    samples = sa[::32]
    out += struct.pack(f"<Q{len(samples)}Q", len(samples), *samples)
    out += struct.pack("<I", len(records))
    for name, start, length in records:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded + struct.pack("<QQ", start, length)
    return bytes(out + struct.pack("<I", zlib.crc32(out)))
