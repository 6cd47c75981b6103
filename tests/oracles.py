"""Independent reference implementations used to cross-check the package.

The occurrence, search and locate functions below answer one item at a
time what the library answers in batches: they read one bucket of
`FmIndex.blocks` and `FmIndex.bases` at a time, count it with a one-row
`count_blocks` call and share no code with the batch engine in
`fmpm.batch`, which the library runs.  The text functions (encode,
is_dna, pack_codes, suffix_array_naive) work one character at a time,
with no numpy.
"""

from __future__ import annotations

import random
import struct
import zlib
from bisect import bisect_right
from typing import Iterable, NamedTuple

import numpy as np

from fmpm.alphabet import A, AlphabetError
from fmpm.index import FmIndex, SA_STRIDE
from fmpm.kernels import BUCKET_BYTES, BUCKET_CHARS, Kernel, count_blocks, resolve_kernel
from fmpm.search import BwmInterval, Hit, MatchResult

_ZERO = (0, 0, 0, 0)


class OccPair(NamedTuple):
    """Occurrence counts at the two positions an interval update needs."""

    at_low: tuple[int, int, int, int]
    at_high: tuple[int, int, int, int]


# below one bucket, and at or one off multiples of the sample stride and the bucket
EDGE_SIZES = sorted(
    {1, 2, 3, 31, 77, 127} | {m + d for m in (32, 64, 96, 128, 256, 384) for d in (-1, 0, 1)}
)
PERIODIC_TEXTS = ["ACG" * 90, "A" * 130, ("acgt" * 70)[:257], "AAC" * 43]


def encode(text: str) -> list[int]:
    """Symbol codes of a DNA string, raising AlphabetError at the first other character."""
    codes = []
    for i, ch in enumerate(text):
        code = "ACGTacgt".find(ch)
        if code < 0:
            raise AlphabetError(
                f"invalid character {ch!r} at position {i}; expected one of ACGT"
            )
        codes.append(code % 4)
    return codes


def is_dna(text: str) -> bool:
    """True when every character of `text` is A/C/G/T (either case)."""
    return all(ch in "ACGTacgt" for ch in text)


def pack_codes(codes: list[int], pad_to: int | None = None) -> bytes:
    """Pack 2-bit symbol codes into bytes, four per byte, low-order fields first.

    Code j occupies bits [2*(j % 4), 2*(j % 4) + 1] of byte j // 4, so
    earlier codes sit in lower-order bits; unused trailing fields of the
    last byte are zero.  `pad_to` extends the result with zero bytes up
    to a fixed block size.
    """
    out = bytearray((len(codes) + 3) // 4)
    for j, code in enumerate(codes):
        out[j >> 2] |= (code & 3) << ((j & 3) << 1)
    if pad_to is not None:
        if len(out) > pad_to:
            raise ValueError(f"{len(codes)} characters do not fit in {pad_to} bytes")
        out.extend(b"\x00" * (pad_to - len(out)))
    return bytes(out)


def suffix_array_naive(reference: str) -> list[int]:
    """Comparison-sort oracle: sort all suffixes of reference + terminator.

    Materializes every suffix, so keep inputs small (a few thousand chars).
    ASCII ordering of '$' < 'A' < 'C' < 'G' < 'T' matches the code order.
    """
    if not reference:
        raise ValueError("reference is empty")
    encode(reference)
    text = reference.upper() + "$"
    return sorted(range(len(text)), key=lambda i: text[i:])


def random_dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(n))


def edge_text(n: int) -> str:
    """Random DNA of length n seeded by n, lowercase at odd n."""
    text = random_dna(random.Random(n), n)
    return text.lower() if n % 2 else text


def random_bucket(rng: random.Random) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(32))


def block_rows(blocks: Iterable[bytes]) -> np.ndarray:
    """32-byte blocks as the (m, 32) uint8 rows that `count_blocks` takes."""
    return np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, BUCKET_BYTES)


def scalar_counts(rows: np.ndarray, prefix_lens: np.ndarray) -> list[list[int]]:
    """Each row's four prefix counts, from one one-symbol `scalar` pass per symbol."""
    return np.stack(
        [count_blocks(rows, prefix_lens, Kernel.SCALAR, np.full(len(rows), s)) for s in range(4)],
        axis=1,
    ).tolist()


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


def naive_bwt(text: str) -> str:
    """Transform of text + terminator from the naive suffix array, '$' in its row."""
    full = text.upper() + "$"
    # full[-1] is the terminator, so suffix 0 picks it up
    return "".join(full[p - 1] for p in suffix_array_naive(text))


def reference_index_bytes(text: str, records: list[tuple[str, int, int]]) -> bytes:
    """The .fmi file of `text`, built one character at a time.

    Follows the layout documented in fmpm.serialize with the naive suffix
    sort and per-character packing.
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
    out += struct.pack("<HHQIIQ", 3, 0, n, 128, 32, bwt.index("$"))
    out += struct.pack("<5Q", *c)
    starts = range(0, n + 1, 128)
    out += struct.pack("<Q", len(starts))
    for start in starts:
        out += pack_codes(codes[start : start + 128], pad_to=32)
    samples = sa[::32]
    width = max(1, n.bit_length())
    out += struct.pack("<Q", len(samples))
    out += sum(s << (j * width) for j, s in enumerate(samples)).to_bytes(
        sample_section_bytes(n), "little"
    )
    out += struct.pack("<I", len(records))
    for name, start, length in records:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded + struct.pack("<QQ", start, length)
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


def sample_section_bytes(n: int) -> int:
    """Size of the packed suffix-array sample section for a reference of n chars."""
    return ((n // 32 + 1) * max(1, n.bit_length()) + 7) // 8


def unpack_samples(section: bytes, n: int) -> list[int]:
    """The suffix-array samples of a packed sample section, one field at a time."""
    width = max(1, n.bit_length())
    stream = int.from_bytes(section, "little")
    return [stream >> (j * width) & ((1 << width) - 1) for j in range(n // 32 + 1)]


def occ_all(
    index: FmIndex, k: int, kernel: Kernel | str | None = None, memo: dict | None = None
) -> tuple[int, int, int, int]:
    """All four occurrence counts at position k (k == -1 gives zeros).

    Position k is the prefix k % 128 + 1 of bucket k // 128.  The
    terminator is packed as code 0, so the raw A count is corrected down
    by one once the prefix covers the sentinel row.  `memo`, a dict made
    by one oracle call for all of its counts, keeps each position's
    counts, so the kernel counts each distinct (bucket, prefix) once.
    """
    if k == -1:
        return _ZERO
    if not 0 <= k <= index.n:
        raise ValueError(f"position {k} outside [-1, {index.n}]")
    if memo is not None and k in memo:
        return memo[k]
    j, r = divmod(k, BUCKET_CHARS)
    inside = count_blocks(index.blocks[j : j + 1], np.array([r + 1]), kernel)[0]
    counts = (index.bases[j] + inside).tolist()
    if index.sentinel_row <= k:
        counts[A] -= 1
    counts = tuple(counts)
    if memo is not None:
        memo[k] = counts
    return counts


def occ_pair_all(
    index: FmIndex,
    low: int,
    high: int,
    kernel: Kernel | str | None = None,
    memo: dict | None = None,
) -> OccPair:
    """Counts for all symbols at two positions, low <= high.

    The workhorse of interval updates, which need Occ at k-1 and l for
    every candidate symbol.
    """
    if low > high:
        raise ValueError(f"pair positions out of order: {low} > {high}")
    return OccPair(
        at_low=occ_all(index, low, kernel, memo), at_high=occ_all(index, high, kernel, memo)
    )


def init_interval(index: FmIndex, symbol: int) -> BwmInterval:
    """Row range of rotations starting with `symbol`: [c[s]+1, c[s+1]].

    The +1 skips the terminator row, which sorts before everything.
    """
    if not 0 <= symbol < 4:
        raise ValueError(f"symbol code {symbol} outside [0, 4)")
    return BwmInterval(k=index.c[symbol] + 1, l=index.c[symbol + 1])


def extend_backward(
    index: FmIndex,
    interval: BwmInterval,
    symbol: int,
    kernel: Kernel | str | None = None,
    memo: dict | None = None,
) -> BwmInterval:
    """Narrow an interval to rotations prefixed by one more symbol."""
    if interval.is_empty:
        raise ValueError("cannot extend an empty interval")
    pair = occ_pair_all(index, interval.k - 1, interval.l, kernel, memo)
    c = index.c[symbol]
    return BwmInterval(k=c + pair.at_low[symbol] + 1, l=c + pair.at_high[symbol])


def exact_search(
    index: FmIndex, pattern: str, kernel: Kernel | str | None = None
) -> BwmInterval:
    """Interval of rows whose rotations start with `pattern`.

    Runs right to left, one interval update per character, stopping as
    soon as the interval empties.  A pattern with characters outside ACGT
    yields an empty interval flagged degenerate rather than an error.
    """
    if not pattern:
        raise ValueError("pattern is empty")
    if not is_dna(pattern):
        return BwmInterval(k=1, l=0, degenerate=True)
    kernel = resolve_kernel(kernel)
    codes = encode(pattern)
    memo: dict = {}
    interval = init_interval(index, codes[-1])
    for symbol in reversed(codes[:-1]):
        if interval.is_empty:
            break
        interval = extend_backward(index, interval, symbol, kernel, memo)
    return interval


def inexact_search(
    index: FmIndex,
    pattern: str,
    max_diff: int,
    kernel: Kernel | str | None = None,
) -> list[MatchResult]:
    """All intervals reachable within `max_diff` edits of `pattern`.

    Explores the edit branches (skip a pattern character, insert a
    reference character, match, mismatch) with an explicit work stack;
    every branch spends one unit of budget except a match.  Branch
    intervals are computed fresh from the interval the loop entered with,
    and empty intervals are pruned: extending an empty interval can never
    repopulate it.  Results are deduplicated by interval, keeping the
    smallest difference count, and sorted for determinism.
    """
    if max_diff < 0:
        raise ValueError(f"difference budget {max_diff} is negative")
    if not pattern:
        raise ValueError("pattern is empty")
    if not is_dna(pattern):
        return []
    kernel = resolve_kernel(kernel)
    codes = encode(pattern)
    c = index.c
    memo: dict = {}
    best: dict[tuple[int, int], int] = {}
    # (next pattern position, remaining budget, k, l); the full row range
    # [0, n] makes the first extension coincide with init_interval.
    stack = [(len(codes) - 1, max_diff, 0, index.n)]
    while stack:
        i, budget, k, l = stack.pop()
        if i < 0:
            used = max_diff - budget
            key = (k, l)
            prev = best.get(key)
            if prev is None or used < prev:
                best[key] = used
            continue
        if budget > 0:
            # skip: consume the pattern character without extending
            stack.append((i - 1, budget - 1, k, l))
        pair = occ_pair_all(index, k - 1, l, kernel, memo)
        want = codes[i]
        for symbol in range(4):
            base = c[symbol]
            k2 = base + pair.at_low[symbol] + 1
            l2 = base + pair.at_high[symbol]
            if k2 > l2:
                continue
            if budget > 0:
                # insert: extend by a reference character, keep the pattern position
                stack.append((i, budget - 1, k2, l2))
            if symbol == want:
                stack.append((i - 1, budget, k2, l2))
            elif budget > 0:
                stack.append((i - 1, budget - 1, k2, l2))
    return sorted(
        (
            MatchResult(interval=BwmInterval(k=k, l=l), diffs_used=used)
            for (k, l), used in best.items()
        ),
        key=lambda m: (m.interval.k, m.interval.l, m.diffs_used),
    )


def psi_inverse_fused(
    index: FmIndex, i: int, kernel: Kernel | str | None = None
) -> tuple[int, int] | None:
    """(symbol at row i, predecessor row) with a single bucket access."""
    if not 0 <= i <= index.n:
        raise ValueError(f"row {i} outside [0, {index.n}]")
    if i == index.sentinel_row:
        return None
    j, r = divmod(i, BUCKET_CHARS)
    symbol = (int(index.blocks[j, r >> 2]) >> ((r & 3) << 1)) & 3
    inside = count_blocks(index.blocks[j : j + 1], np.array([r + 1]), kernel, np.array([symbol]))
    count = int(index.bases[j, symbol] + inside[0])
    if symbol == 0 and index.sentinel_row <= i:
        count -= 1
    return symbol, index.c[symbol] + count


def locate_row(index: FmIndex, i: int, kernel: Kernel | str | None = None) -> int:
    """Text position of row i, walking to the nearest sampled row.

    Steps backward through the text until reaching a row whose
    suffix-array entry is stored (every 32nd row) or the sentinel row
    (position 0), then adds back the number of steps taken.
    """
    kernel = resolve_kernel(kernel)
    steps = 0
    while True:
        if i == index.sentinel_row:
            return steps
        if i % SA_STRIDE == 0:
            return int(index.samples[i // SA_STRIDE]) + steps
        stepped = psi_inverse_fused(index, i, kernel)
        assert stepped is not None
        i = stepped[1]
        steps += 1
        if steps > index.n + 1:
            raise RuntimeError("predecessor walk did not terminate; index is corrupt")


def locate_all(
    index: FmIndex,
    interval: BwmInterval,
    diffs: int,
    pattern_len: int,
    kernel: Kernel | str | None = None,
) -> list[Hit]:
    """Map every row of an interval to a record-relative hit.

    Hits whose span cannot fit inside a single record are dropped: a
    match using d differences covers at least pattern_len - d reference
    characters, so anything forced across a record boundary (or past the
    end of the reference) is an artifact of concatenation.
    """
    if interval.is_empty:
        return []
    kernel = resolve_kernel(kernel)
    starts = [r.start for r in index.records]
    min_span = max(pattern_len - diffs, 0)
    hits = []
    for row in range(interval.k, interval.l + 1):
        pos = locate_row(index, row, kernel)
        if pos >= index.n:
            continue
        which = bisect_right(starts, pos) - 1
        record = index.records[which]
        offset = pos - record.start
        if offset + min_span > record.length:
            continue
        hits.append(Hit(record=record.name, offset=offset, global_pos=pos, diffs=diffs))
    hits.sort(key=lambda h: h.global_pos)
    return hits


def collect_hits(
    index: FmIndex,
    matches: Iterable[MatchResult],
    pattern_len: int,
    kernel: Kernel | str | None = None,
    max_hits: int | None = None,
) -> tuple[list[Hit], bool]:
    """Merge hits from several intervals, keeping the fewest diffs per position.

    Returns the sorted hits and whether `max_hits` truncated them.
    """
    kernel = resolve_kernel(kernel)
    best: dict[int, Hit] = {}
    for match in sorted(matches, key=lambda m: m.diffs_used):
        for hit in locate_all(index, match.interval, match.diffs_used, pattern_len, kernel):
            prev = best.get(hit.global_pos)
            if prev is None or hit.diffs < prev.diffs:
                best[hit.global_pos] = hit
    hits = sorted(best.values(), key=lambda h: h.global_pos)
    truncated = max_hits is not None and len(hits) > max_hits
    if truncated:
        hits = hits[:max_hits]
    return hits, truncated
