"""Independent reference implementations used to cross-check the package.

The oracles of answers read the text, not an index: direct scans
(`scan_positions`, `hamming_positions`), the naive suffix array and the
transform and counts made from it (`suffix_array_naive`, `naive_bwt`,
`bwt_prefix_counts`, `sa_interval`), and edit distances by dynamic
programming (`edits`, `fewest_edits_from`, `edit_hits`).  None repeats a
rule of the engine in `fmpm.batch`, so a rule the engine gets wrong shows
as a difference from the text.  The text functions (encode, is_dna,
pack_codes, suffix_array_naive) work one character at a time, with no
numpy; the file functions build or edit `.fmi` bytes field by field.
"""

from __future__ import annotations

import functools
import random
import struct
import zlib
from bisect import bisect_left
from typing import Iterable

import numpy as np

from fmpm.alphabet import AlphabetError
from fmpm.kernels import BUCKET_BYTES, Kernel, count_blocks

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


def fewest_edits_from(pattern: str, text: str) -> np.ndarray:
    """Fewest edits of `pattern` against text[p:p+j], over all j >= 1, for every start p.

    A semi-global DP (Sellers, J. Algorithms 1980), vectorized over p: row i
    of D holds, for every p and j, the fewest substitutions, skipped pattern
    characters and inserted text characters that turn pattern[:i] into
    text[p:p+j].  No text character may be inserted before the pattern's
    first character is consumed (D[0][j] is unreachable for j > 0), which is
    the search's own edit model.  It reads the text itself, not an index;
    pass one record, since a hit may not cross a record's end.
    """
    pat = np.frombuffer(pattern.upper().encode("ascii"), dtype=np.uint8)
    txt = np.frombuffer(text.upper().encode("ascii"), dtype=np.uint8)
    m, n = len(pat), len(txt)
    # one aligned character and m - 1 skips cost at most m, and a span past
    # 2m costs more than m in inserts alone
    width = min(2 * m, n)
    # ahead[p, j] = text[p + j], a 0 byte (no letter) past the end
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([txt, np.zeros(width, dtype=np.uint8)]), width
    )[:n]
    unreachable = 2 * m + 1
    prev = np.full((width + 1, n), unreachable)
    prev[0] = 0
    for i in range(1, m + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        for j in range(1, width + 1):
            aligned = prev[j - 1] + (ahead[:, j - 1] != pat[i - 1])
            cur[j] = np.minimum(np.minimum(aligned, prev[j] + 1), cur[j - 1] + 1)
        prev = cur
    fits = np.arange(1, width + 1)[:, None] <= n - np.arange(n)
    return np.where(fits, prev[1:], unreachable).min(axis=0)


def edit_hits(
    text: str, records: Iterable[tuple[str, int, int]], pattern: str, max_diff: int
) -> list[tuple[str, int, int]]:
    """(record, offset, fewest edits) of every hit within `max_diff` edits, in text order.

    `fewest_edits_from` on each (name, start, length) record by itself.
    """
    hits = []
    for name, start, length in records:
        fewest = fewest_edits_from(pattern, text[start : start + length])
        hits += [(name, p, int(fewest[p])) for p in np.flatnonzero(fewest <= max_diff).tolist()]
    return hits


def edits(pattern: str, window: str) -> int:
    """Fewest edits that turn `pattern` into all of `window`, as `fewest_edits_from` counts."""
    prev = [0] + [len(pattern) + len(window) + 1] * len(window)  # no window character first
    for i, a in enumerate(pattern.upper(), 1):
        cur = [i]
        for j, b in enumerate(window.upper(), 1):
            cur.append(min(prev[j - 1] + (a != b), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


@functools.lru_cache(maxsize=4)
def sorted_suffixes(text: str) -> tuple[str, ...]:
    """The suffixes of text + terminator in row order, uppercase."""
    full = text.upper() + "$"
    return tuple(full[p:] for p in suffix_array_naive(text))


def sa_interval(text: str, pattern: str) -> tuple[int, int]:
    """(k, l) of backward search for `pattern`, from the sorted suffixes of `text`.

    Rows k..l start with the pattern, and k suffixes sort below it.  The
    search stops at the shortest suffix of the pattern that starts no row,
    so an empty result (k = l + 1) is where that piece would sort.
    """
    suffixes = sorted_suffixes(text)
    k, l = 0, len(text)  # the empty pattern starts every row
    for i in reversed(range(len(pattern))):
        piece = pattern[i:].upper()
        # a suffix starts with the piece when it sorts in [piece, piece + "Z")
        k, l = bisect_left(suffixes, piece), bisect_left(suffixes, piece + "Z") - 1
        if k > l:
            break
    return k, l


def check_edit_intervals(
    text: str, pattern: str, max_diff: int, found: Iterable[tuple[int, int, int, int]]
) -> None:
    """Assert that (k, l, used, span) entries are the search's answer for `pattern` in `text`.

    Each entry names one text string S, the first `span` characters of row
    k's suffix: rows k..l must be exactly those whose suffixes start with
    S, and `used` the fewest edits between the pattern and S.  At each text
    position, the fewest `used` of its rows must equal `fewest_edits_from`
    wherever that is within `max_diff`.  (The terminator's row, reached by
    a budget that skips the whole pattern, is no text position.)
    """
    suffixes = sorted_suffixes(text)
    found = list(found)
    assert len({(k, l, span) for k, l, _, span in found}) == len(found), found
    best: dict[int, int] = {}
    for k, l, used, span in found:
        string = suffixes[k][:span]
        assert "$" not in string and sa_interval(text, string) == (k, l), (k, l, span)
        assert edits(pattern, string) == used <= max_diff, (string, used)
        for row in range(k, l + 1):
            p = len(text) + 1 - len(suffixes[row])
            best[p] = min(best.get(p, used), used)
    best.pop(len(text), None)
    fewest = fewest_edits_from(pattern, text)
    assert best == {p: int(fewest[p]) for p in np.flatnonzero(fewest <= max_diff).tolist()}


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
    bwt = naive_bwt(text)
    codes = [max(0, "ACGT".find(ch)) for ch in bwt]
    c = [0]
    for s in "ACGT":
        c.append(c[-1] + text.upper().count(s))

    out = bytearray(b"FMPM")
    out += struct.pack("<HHQIIQ", 5, 0, n, 128, 32, bwt.index("$"))
    out += struct.pack("<5Q", *c)
    starts = range(0, n + 1, 128)
    blocks = b"".join(pack_codes(codes[start : start + 128], pad_to=32) for start in starts)
    deflated = zlib.compress(blocks)
    out += struct.pack("<QQ", len(starts), len(deflated)) + deflated
    samples = sa[::32]
    width = max(1, n.bit_length())
    out += struct.pack("<Q", len(samples)) + pack_fields(samples, width)
    out += struct.pack("<I", len(records))
    for _, _, length in records:
        out += struct.pack("<Q", length)
    names = "\n".join(name for name, _, _ in records).encode("utf-8")
    out += struct.pack("<Q", len(names)) + names
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


# the header, the C table and the bucket count fill the first 80 bytes of
# a file; the deflated bucket section's size follows, then the section
_DEFLATED_SIZE_AT = 80


def deflated_section(blob: bytes) -> tuple[int, int]:
    """Start and end offset of the zlib stream of an index file's packed blocks."""
    (size,) = struct.unpack_from("<Q", blob, _DEFLATED_SIZE_AT)
    start = _DEFLATED_SIZE_AT + 8
    return start, start + size


def samples_at(blob: bytes) -> int:
    """Offset of an index file's sample section, after the sample count."""
    return deflated_section(blob)[1] + 8


def file_blocks(blob: bytes) -> bytearray:
    """The packed blocks of an index file, inflated from its bucket section."""
    start, end = deflated_section(blob)
    return bytearray(zlib.decompress(blob[start:end]))


def with_section(blob: bytes, deflated: bytes) -> bytes:
    """`blob` with its bucket section replaced by `deflated`, and a valid CRC."""
    start, end = deflated_section(blob)
    out = bytearray(blob[: start - 8])
    out += struct.pack("<Q", len(deflated)) + deflated + blob[end:-4]
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


def with_blocks(blob: bytes, blocks: bytes) -> bytes:
    """`blob` with its packed blocks replaced and deflated again, and a valid CRC."""
    return with_section(blob, zlib.compress(blocks))


def pack_fields(values: list[int], width: int) -> bytes:
    """`values` as one little-endian bit stream of `width`-bit fields, via one big int."""
    stream = sum(v << (j * width) for j, v in enumerate(values))
    return stream.to_bytes((len(values) * width + 7) // 8, "little")


def sample_section_bytes(n: int) -> int:
    """Size of the packed suffix-array sample section for a reference of n chars."""
    return ((n // 32 + 1) * max(1, n.bit_length()) + 7) // 8


def records_at(blob: bytes) -> int:
    """Offset of an index file's record count, after the sample section."""
    (n,) = struct.unpack_from("<Q", blob, 8)
    return samples_at(blob) + sample_section_bytes(n)


def with_records(
    blob: bytes, lengths: list[int], names: bytes, names_size: int | None = None
) -> bytes:
    """`blob` with its record table rewritten, and a valid CRC.

    `names_size` is the size field written before the names; it defaults
    to their length.
    """
    out = bytearray(blob[: records_at(blob)])
    out += struct.pack(f"<I{len(lengths)}Q", len(lengths), *lengths)
    out += struct.pack("<Q", len(names) if names_size is None else names_size) + names
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


def unpack_samples(section: bytes, n: int) -> list[int]:
    """The suffix-array samples of a packed sample section, one field at a time."""
    width = max(1, n.bit_length())
    stream = int.from_bytes(section, "little")
    return [stream >> (j * width) & ((1 << width) - 1) for j in range(n // 32 + 1)]
