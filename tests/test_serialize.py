import dataclasses
import functools
import io
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmpm.batch import bwt_symbols, match_many
from fmpm.cli import EXIT_CORRUPT, main
from fmpm.index import build_index
from fmpm.search import MatchResult, collect_hits, exact_search
from fmpm.serialize import (
    BadMagicError,
    ChecksumError,
    IndexFormatError,
    TruncatedStreamError,
    VersionMismatchError,
    _pack_samples,
    _unpack_samples,
    deserialize_index,
    serialize_index,
)

from oracles import (
    EDGE_SIZES,
    deflated_section,
    edge_text,
    file_blocks,
    pack_fields,
    random_dna,
    records_at,
    sample_section_bytes,
    samples_at,
    unpack_samples,
    with_blocks,
    with_records,
    with_section,
)


def roundtrip_bytes(index) -> bytes:
    sink = io.BytesIO()
    serialize_index(index, sink)
    return sink.getvalue()


def test_round_trip_equality():
    rng = random.Random(71)
    for n in (1, 40, 128, 129, 1000):
        index = build_index(random_dna(rng, n))
        blob = roundtrip_bytes(index)
        restored = deserialize_index(io.BytesIO(blob))
        assert restored == index


def test_round_trip_multi_record():
    index = build_index("ACGTACGTAAAA", [("chr1", 0, 7), ("chr2", 7, 5)])
    restored = deserialize_index(io.BytesIO(roundtrip_bytes(index)))
    assert restored == index


def test_serialized_bytes_are_stable():
    index = build_index(random_dna(random.Random(72), 300))
    blob1 = roundtrip_bytes(index)
    blob2 = roundtrip_bytes(deserialize_index(io.BytesIO(blob1)))
    assert blob1 == blob2


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_blocks_and_bases_round_trip_at_edge_sizes(n):
    # the file holds the packed blocks only; the index holds them and the
    # bases derived from them as two contiguous read-only arrays
    index = build_index(edge_text(n))
    blob = roundtrip_bytes(index)
    restored = deserialize_index(io.BytesIO(blob))
    for held in (index, restored):
        for array, shape in ((held.blocks, (n // 128 + 1, 32)), (held.bases, (n // 128 + 1, 4))):
            assert array.shape == shape
            assert array.flags.c_contiguous and not array.flags.writeable
    assert roundtrip_bytes(restored) == blob
    assert np.array_equal(restored.blocks, index.blocks)
    assert np.array_equal(restored.bases, index.bases)
    assert np.array_equal(restored.samples, index.samples)


def test_one_index_read_per_call():
    # a stream of two indexes yields them one call at a time
    first, second = build_index("ACGT"), build_index(random_dna(random.Random(77), 90))
    stream = io.BytesIO(roundtrip_bytes(first) + roundtrip_bytes(second))
    assert deserialize_index(stream) == first
    assert deserialize_index(stream) == second
    assert stream.read() == b""


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pack_samples_equals_big_int_packing_and_round_trips(data):
    width = data.draw(st.integers(min_value=1, max_value=40))
    field = st.integers(min_value=0, max_value=(1 << width) - 1) | st.just((1 << width) - 1)
    values = data.draw(st.lists(field, min_size=1, max_size=70))
    packed = _pack_samples(np.array(values, dtype=np.int64), width)
    assert packed.tobytes() == pack_fields(values, width)
    assert _unpack_samples(packed.tobytes(), len(values), width).tolist() == values


def test_byte_count_matches_stream():
    index = build_index(random_dna(random.Random(73), 150))
    sink = io.BytesIO()
    written = serialize_index(index, sink)
    assert written == len(sink.getvalue())
    # header, the deflated size and the zlib stream of two buckets' 64
    # packed bytes, sample count and five 8-bit samples, record count, one
    # length, the names' size and "ref", CRC
    deflated = len(zlib.compress(index.blocks))
    assert written == 80 + 8 + deflated + 8 + 5 + 4 + 8 + 8 + 3 + 4


def test_bad_magic():
    blob = bytearray(roundtrip_bytes(build_index("ACGT")))
    blob[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        deserialize_index(io.BytesIO(bytes(blob)))


def test_version_mismatch():
    blob = bytearray(roundtrip_bytes(build_index("ACGT")))
    blob[4] = 9
    with pytest.raises(VersionMismatchError):
        deserialize_index(io.BytesIO(bytes(blob)))


# "ACAG": one bucket, deflated after its size at 80, then the sample count
# and one 3-bit sample
_ACAG = build_index("ACAG")


def _version_3_body():
    """The "ACAG" file less its CRC, its one bucket's 32 packed bytes stored as
    they are, as version 3 stored them: the sample count at 112, the sample
    at 120."""
    blob = roundtrip_bytes(_ACAG)
    start, end = deflated_section(blob)
    return bytearray(blob[: start - 8] + _ACAG.blocks.tobytes() + blob[end:-4])


def _older_version(version, blob, tmp_path, capsys):
    """Load a file of an earlier version: an error that says to rebuild, and exit 3."""
    blob[4:6] = struct.pack("<H", version)
    blob += struct.pack("<I", zlib.crc32(blob))
    with pytest.raises(VersionMismatchError, match=f"version {version}"):
        deserialize_index(io.BytesIO(bytes(blob)))
    path = tmp_path / f"v{version}.fmi"
    path.write_bytes(bytes(blob))
    assert main(["match", str(path), "-p", "CA"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unsupported version {version}" in captured.err
    assert "rebuild the index with `fmpm index`" in captured.err


def test_version_1_file_exits_corrupt_and_says_to_rebuild(tmp_path, capsys):
    # a version-1 file stored four u64 bases before each bucket's packed
    # bytes, and a u64 per sample
    blob = _version_3_body()
    blob[120:121] = _ACAG.samples.astype("<u8").tobytes()
    blob[80:80] = _ACAG.bases.astype("<i8").tobytes()
    _older_version(1, blob, tmp_path, capsys)


def test_version_2_file_exits_corrupt_and_says_to_rebuild(tmp_path, capsys):
    # a version-2 file stored a u64 per sample
    blob = _version_3_body()
    blob[120:121] = _ACAG.samples.astype("<u8").tobytes()
    _older_version(2, blob, tmp_path, capsys)


def test_version_3_file_exits_corrupt_and_says_to_rebuild(tmp_path, capsys):
    # a version-3 file stored the packed blocks as they are
    _older_version(3, _version_3_body(), tmp_path, capsys)


def test_version_4_file_exits_corrupt_and_says_to_rebuild(tmp_path, capsys):
    # a version-4 file stored each record as its name's size, its name, its
    # start and its length
    blob = roundtrip_bytes(_ACAG)
    v4 = blob[: records_at(blob)] + struct.pack("<II", 1, 3) + b"ref" + struct.pack("<QQ", 0, 4)
    _older_version(4, bytearray(v4), tmp_path, capsys)


def test_nonzero_flags_rejected():
    # version 5 reserves the flags field as 0
    blob = bytearray(roundtrip_bytes(build_index("ACGT"))[:-4])
    blob[6:8] = struct.pack("<H", 1)
    blob += struct.pack("<I", zlib.crc32(blob))
    with pytest.raises(IndexFormatError, match="flags"):
        deserialize_index(io.BytesIO(bytes(blob)))


def test_nonzero_bits_after_the_last_sample_rejected():
    # "ACAG" stores one 3-bit sample in one byte; bits 3 to 7 are padding
    blob = bytearray(roundtrip_bytes(_ACAG)[:-4])
    blob[samples_at(blob)] |= 1 << 3
    blob += struct.pack("<I", zlib.crc32(blob))
    with pytest.raises(IndexFormatError, match="past the last suffix-array sample"):
        deserialize_index(io.BytesIO(bytes(blob)))


@pytest.mark.parametrize("sample", [5, 8, -1], ids=["n+1", "2**3", "negative"])
def test_replace_rejects_a_sample_outside_the_reference(sample):
    # a 3-bit field would store 8 as 0 and -1 as 7, which the load could not
    # tell from written values; no index holding a sample outside [0, n] is
    # made, so the writer never sees one
    samples = _ACAG.samples.copy()
    samples[0] = sample
    with pytest.raises(ValueError, match=r"outside \[0, 4\]"):
        dataclasses.replace(_ACAG, samples=samples)


@functools.lru_cache(maxsize=None)
def _edge_index(n):
    halves = [("r1", 0, n // 2), ("r2", n // 2, n - n // 2)] if n > 1 else None
    return build_index(edge_text(n), halves)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_index_that_is_made_loads_back_equal(data):
    # one field set to a drawn value: either making the index refuses it,
    # or the file holds it exactly (the writer checks nothing itself).  The
    # draws lean to values an index can hold: a sample or sentinel row in
    # [0, n], and a block byte with its four fields reordered, which keeps
    # the totals.  Integers come as Python or numpy ints, and some values
    # are floats, which no index holds.  The C table is derived, so its
    # draw edits a file's header copy, which loads only when it is the same
    n = data.draw(st.sampled_from(EDGE_SIZES), label="n")
    index = _edge_index(n)
    integer = st.integers(0, n) | st.integers(-(2**63), 2**63 - 1)
    value = integer | integer.map(np.int64) | st.floats(-1.0, n + 1.0) | st.just(1.0)
    kinds = ["c", "sentinel_row", "samples", "blocks", "names", "lengths"]
    field = data.draw(st.sampled_from(kinds))
    if field == "c":
        c = list(index.c)
        c[data.draw(st.integers(0, 4))] = data.draw(st.integers(0, n) | st.integers(0, 2**64 - 1))
        blob = bytearray(roundtrip_bytes(index)[:-4])
        blob[32:72] = struct.pack("<5Q", *c)
        blob += struct.pack("<I", zlib.crc32(blob))
        try:
            loaded = deserialize_index(io.BytesIO(bytes(blob)))
        except IndexFormatError as exc:
            assert tuple(c) != index.c and "does not match the bucket totals" in str(exc)
            return
        assert tuple(c) == index.c and loaded == index
        return
    elif field == "sentinel_row":
        changes = dict(sentinel_row=data.draw(value))
    elif field == "samples":
        samples = index.samples.tolist()  # a list, so a drawn float is not cast
        samples[data.draw(st.integers(0, len(samples) - 1))] = data.draw(value)
        changes = dict(samples=samples)
    elif field == "blocks":
        blocks = index.blocks.copy()
        at = data.draw(st.tuples(st.integers(0, len(blocks) - 1), st.integers(0, 31)))
        fields = [blocks[at] >> 2 * r & 3 for r in range(4)]
        reordered = st.permutations(fields).map(lambda f: f[0] | f[1] << 2 | f[2] << 4 | f[3] << 6)
        blocks[at] = data.draw(reordered | st.integers(0, 255))
        changes = dict(blocks=blocks)
    elif field == "names":
        names = list(index.names)
        names[data.draw(st.integers(0, len(names) - 1))] = data.draw(st.text(max_size=4))
        changes = dict(names=tuple(names))
    else:
        lengths = index.lengths.tolist()
        lengths[data.draw(st.integers(0, len(lengths) - 1))] = data.draw(value)
        changes = dict(lengths=lengths)
    try:
        made = dataclasses.replace(index, **changes)
    except ValueError:
        return
    assert type(made.n) is int and type(made.sentinel_row) is int
    assert deserialize_index(io.BytesIO(roundtrip_bytes(made))) == made


def test_truncated_everywhere():
    blob = roundtrip_bytes(build_index(random_dna(random.Random(74), 60)))
    for cut in (0, 3, 4, 10, 30, len(blob) // 2, len(blob) - 1):
        with pytest.raises(TruncatedStreamError):
            deserialize_index(io.BytesIO(blob[:cut]))


def test_huge_count_in_short_file_is_truncated(tmp_path):
    # n = 2**40 asks for 2**35 + 1 samples of 41 bits, a deflated size of
    # 2**40 for as many bytes, and a record count of 2**32 - 1 for 32 GiB of
    # lengths; the file holds a few hundred, and the load's reads ask for
    # 64 KiB at first and then for what the file gave
    n = 1 << 40
    at = samples_at(roundtrip_bytes(_ACAG)) - 8  # the sample count
    records = records_at(roundtrip_bytes(_ACAG))  # the record count
    q = functools.partial(struct.pack, "<Q")
    for section, changes in [
        ("samples", {8: q(n), 72: q((n + 128) // 128), at: q(n // 32 + 1)}),
        ("buckets", {80: q(1 << 40)}),  # the deflated size
        ("record lengths", {records: struct.pack("<I", 2**32 - 1)}),
        ("record names", {records + 12: q(1 << 40)}),  # the names' size
    ]:
        blob = bytearray(roundtrip_bytes(_ACAG))
        for offset, value in changes.items():
            blob[offset : offset + len(value)] = value
        path = tmp_path / "huge.fmi"
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with open(path, "rb") as fh, pytest.raises(TruncatedStreamError, match=section):
                deserialize_index(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_checksum_failure():
    blob = bytearray(roundtrip_bytes(build_index(random_dna(random.Random(75), 60))))
    start, end = deflated_section(blob)
    blob[(start + end) // 2] ^= 0xFF  # the bucket section is inflated after the CRC check
    with pytest.raises(ChecksumError):
        deserialize_index(io.BytesIO(bytes(blob)))


_ACAG_BLOCKS = _ACAG.blocks.tobytes()


def _past_the_end():
    """The "ACAG" file, its deflated size pointing 1,000 bytes past its end."""
    blob = bytearray(roundtrip_bytes(_ACAG)[:-4])
    blob[80:88] = struct.pack("<Q", len(blob) + 1000)
    return bytes(blob + struct.pack("<I", zlib.crc32(blob)))


@pytest.mark.parametrize(
    "blob",
    [
        with_section(roundtrip_bytes(_ACAG), _ACAG_BLOCKS),
        with_section(roundtrip_bytes(_ACAG), zlib.compress(_ACAG_BLOCKS[:-1])),
        with_section(roundtrip_bytes(_ACAG), zlib.compress(_ACAG_BLOCKS + b"\0")),
        with_section(roundtrip_bytes(_ACAG), zlib.compress(_ACAG_BLOCKS) + b"\0"),
        with_section(roundtrip_bytes(_ACAG), zlib.compress(_ACAG_BLOCKS)[:-1]),
        with_section(roundtrip_bytes(_ACAG), zlib.compress(bytes(1 << 24))),
        _past_the_end(),
    ],
    ids=[
        "not-a-zlib-stream",
        "one-byte-short",
        "one-byte-long",
        "bytes-after-the-stream",
        "stream-cut-short",
        "inflates-to-16-MiB",
        "size-past-the-end",
    ],
)
def test_bad_bucket_section_behind_valid_checksum_exits_corrupt(blob, tmp_path, capsys):
    # the load inflates at most bucket_count * 32 + 1 = 33 bytes, so beyond
    # the file it reads it holds only the inflater's state (a 32 KiB window)
    # and a few objects, whatever the stream holds
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError):
            deserialize_index(io.BytesIO(blob))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(blob) + (1 << 18)
    path = tmp_path / "bad.fmi"
    path.write_bytes(blob)
    assert main(["match", str(path), "-p", "CA"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fmpm: corrupt index: ")


def test_unsupported_layout_rejected():
    blob = bytearray(roundtrip_bytes(build_index("ACGT")))
    blob[16] = 64  # bucket_size field
    with pytest.raises(IndexFormatError):
        deserialize_index(io.BytesIO(bytes(blob)))


def test_queries_identical_after_round_trip():
    rng = random.Random(76)
    text = random_dna(rng, 800)
    index = build_index(text)
    restored = deserialize_index(io.BytesIO(roundtrip_bytes(index)))
    for _ in range(30):
        m = rng.randint(1, 12)
        start = rng.randint(0, len(text) - m)
        pattern = text[start : start + m]
        a = exact_search(index, pattern)
        b = exact_search(restored, pattern)
        assert a == b
        assert collect_hits(index, [MatchResult(a, 0)], m) == collect_hits(
            restored, [MatchResult(b, 0)], m
        )


@pytest.mark.parametrize(
    "field, offset, value",
    [
        ("sentinel_row", 24, 5),
        ("c[0]", 32, 1),
        ("c[4]", 64, 5),
        ("c[2]", 48, 1),  # C table (0, 2, 1, 4, 4) decreases
    ],
)
def test_inconsistent_header_behind_valid_checksum(field, offset, value):
    blob = bytearray(roundtrip_bytes(build_index("ACAG"))[:-4])  # n=4, c=(0, 2, 3, 4, 4)
    blob[offset : offset + 8] = struct.pack("<Q", value)
    blob += struct.pack("<I", zlib.crc32(blob))
    with pytest.raises(IndexFormatError) as raised:
        deserialize_index(io.BytesIO(bytes(blob)))
    assert type(raised.value) is IndexFormatError, field


# a 300-char, two-record index: three buckets, the last holding 45 fields
_WITNESSED = build_index(random_dna(random.Random(37), 300), [("r1", 0, 120), ("r2", 120, 180)])


def _witnessed_blocks_set(at, value):
    """The 300-char file with its blocks edited at `at`, header C kept, CRC valid."""
    blocks = _WITNESSED.blocks.copy()
    blocks[at] = value
    return with_blocks(roundtrip_bytes(_WITNESSED), blocks.tobytes())


def _witnessed_c1_raised():
    blob = bytearray(roundtrip_bytes(_WITNESSED)[:-4])
    blob[40:48] = struct.pack("<Q", _WITNESSED.c[1] + 1)
    return bytes(blob + struct.pack("<I", zlib.crc32(blob)))


@pytest.mark.parametrize(
    "blob",
    [
        # bucket 1's block zeroed: its A fields raise the transform's A total
        _witnessed_blocks_set(1, 0),
        # field 4 of the last block changed: no base counts it, the C table does
        _witnessed_blocks_set((2, 1), 0xFF),
        _witnessed_c1_raised(),
    ],
    ids=["zeroed-block", "last-block-field", "c-table"],
)
def test_header_c_table_witnesses_the_blocks(blob, tmp_path, capsys):
    # each file is CRC-valid and its blocks make an index; only the header's
    # C table and the one derived from the blocks disagree
    with pytest.raises(IndexFormatError, match=r"C table \(.*\) does not match the bucket totals"):
        deserialize_index(io.BytesIO(blob))
    path = tmp_path / "witness.fmi"
    path.write_bytes(blob)
    assert main(["match", str(path), "-p", "ACGT"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fmpm: corrupt index: C table")


def test_empty_reference_file_exits_corrupt(tmp_path, capsys):
    # n = 0 still asks for one bucket and one 1-bit sample, as n = 1 does
    blob = bytearray(roundtrip_bytes(build_index("A"))[:-4])
    blob[8:16] = struct.pack("<Q", 0)
    blob += struct.pack("<I", zlib.crc32(blob))
    with pytest.raises(IndexFormatError, match="index covers an empty reference"):
        deserialize_index(io.BytesIO(bytes(blob)))
    path = tmp_path / "empty.fmi"
    path.write_bytes(bytes(blob))
    assert main(["match", str(path), "-p", "A"]) == EXIT_CORRUPT
    assert capsys.readouterr().err.startswith("fmpm: corrupt index: ")


def _ten_char_blob_with(offset, value):
    """A 10-character index file with the u64 at `offset` set to `value`, CRC kept valid.

    A negative offset (below -8) counts back from the checksum trailer.
    """
    blob = bytearray(roundtrip_bytes(build_index("ACGTTGCAAC"))[:-4])
    blob[offset : offset + 8] = struct.pack("<Q", value)
    return bytes(blob + struct.pack("<I", zlib.crc32(blob)))


# the 10-character file ends with the one record's length, the names' size
# and the name "ref"
@pytest.mark.parametrize(
    "blob",
    [
        _ten_char_blob_with(40, 2**63),  # C[1]
        _ten_char_blob_with(-19, 2**63 + 5),  # the length of the one record
        _ten_char_blob_with(-11, 2**63 + 5),  # the names' size
    ],
    ids=["c1-2**63", "record-length-2**63+5", "names-size-2**63+5"],
)
def test_oversized_u64_field_is_corrupt(blob, tmp_path, capsys):
    # a u64 at or above 2**63 fails a check, not a conversion to int64
    with pytest.raises(IndexFormatError):
        deserialize_index(io.BytesIO(blob))
    path = tmp_path / "big.fmi"
    path.write_bytes(blob)
    assert main(["match", str(path), "-p", "ACG"]) == EXIT_CORRUPT
    assert capsys.readouterr().err.startswith("fmpm: corrupt index: ")


# One flipped byte behind a valid CRC, anywhere from the version field to the
# end of the record table, on a 700-character two-record index: the load, or a
# query at one difference, raises IndexFormatError, or the answers are the good
# file's, and in the names at most the record holding the byte is renamed.
_GOOD_TEXT = random_dna(random.Random(13), 700)
_GOOD_INDEX = build_index(_GOOD_TEXT, [("r1", 0, 300), ("r2", 300, 400)])
_GOOD = roundtrip_bytes(_GOOD_INDEX)
_GOOD_BLOCKS = _GOOD_INDEX.blocks.tobytes()
_DEFLATED_AT, _DEFLATED_END = deflated_section(_GOOD)
# 22 samples of 10 bits in 28 bytes, after the sample count
_SAMPLES_AT = samples_at(_GOOD)
_SAMPLES_END = _SAMPLES_AT + sample_section_bytes(_GOOD_INDEX.n)
# the record count, two u64 lengths, the names' size, then "r1\nr2"
_LENGTHS_AT = _SAMPLES_END + 4
_NAMES_AT = _LENGTHS_AT + 16 + 8
assert _GOOD[_NAMES_AT:-4] == b"r1\nr2"


def _flip_patterns():
    rng = random.Random(14)
    patterns = []
    for j in range(24):
        m = rng.randint(6, 14)
        at = rng.randrange(700 - m)
        p = _GOOD_TEXT[at : at + m]
        if j % 2:  # one substitution
            q = rng.randrange(m)
            p = p[:q] + rng.choice("ACGT".replace(p[q], "")) + p[q + 1 :]
        patterns.append(p)
    return patterns


_FLIP_PATTERNS = _flip_patterns()


def _answers(index):
    return [column.tolist() for column in match_many(index, _FLIP_PATTERNS, 1)]


_GOOD_ANSWERS = _answers(_GOOD_INDEX)


def _flipped(offset, value):
    blob = bytearray(_GOOD[:-4])
    blob[offset] = value
    return bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def _fields(blocks):
    return sorted(byte >> shift & 3 for byte in blocks for shift in (0, 2, 4, 6))


def _in_known_gap(offset, value):
    """Whether the flip is one that `check_index` documents it cannot see."""
    if _DEFLATED_AT <= offset < _DEFLATED_END:  # a byte of the deflated blocks
        # the gap is a whole stream of the blocks' size that keeps the
        # transform's totals but not its order
        inflater = zlib.decompressobj()
        try:
            blocks = inflater.decompress(_flipped(offset, value)[_DEFLATED_AT:_DEFLATED_END])
        except zlib.error:
            return False
        return (
            inflater.eof
            and not inflater.unused_data
            and len(blocks) == len(_GOOD_BLOCKS)
            and blocks != _GOOD_BLOCKS
            and _fields(blocks) == _fields(_GOOD_BLOCKS)
        )
    if _SAMPLES_AT <= offset < _SAMPLES_END:  # one or two samples moved within [0, n]
        n = _GOOD_INDEX.n
        samples = unpack_samples(_flipped(offset, value)[_SAMPLES_AT:_SAMPLES_END], n)
        return (
            samples != _GOOD_INDEX.samples.tolist()
            and all(0 <= s <= n for s in samples)
            and samples[0] == n
        )
    if 24 <= offset < 32:  # sentinel_row, moved to another row holding an A field
        (row,) = struct.unpack_from("<Q", _flipped(offset, value), 24)
        return row <= _GOOD_INDEX.n and int(bwt_symbols(_GOOD_INDEX, [row])[0]) == 0
    return False


# first and last byte of each header field after the magic (version and flags,
# n, the layout witnesses, sentinel_row), of the C table, the bucket count,
# the deflated size, the bucket section, the sample count, the sample section,
# the record count, the record lengths, the names' size and the names; each is
# drawn as often as the others
_SECTIONS = [
    (4, 7),
    (8, 15),
    (16, 23),
    (24, 31),
    (32, 71),
    (72, 79),
    (80, 87),
    (_DEFLATED_AT, _DEFLATED_END - 1),
    (_DEFLATED_END, _SAMPLES_AT - 1),
    (_SAMPLES_AT, _SAMPLES_END - 1),
    (_SAMPLES_END, _LENGTHS_AT - 1),
    (_LENGTHS_AT, _NAMES_AT - 9),
    (_NAMES_AT - 8, _NAMES_AT - 1),
    (_NAMES_AT, len(_GOOD) - 5),
]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_SECTIONS).flatmap(lambda section: st.integers(*section)),
    st.integers(min_value=0, max_value=255),
)
def test_flipped_byte_is_caught_or_harmless(offset, value):
    assume(value != _GOOD[offset] and not _in_known_gap(offset, value))
    try:
        index = deserialize_index(io.BytesIO(_flipped(offset, value)))
        answers = _answers(index)
    except IndexFormatError:
        return
    # one changed length always breaks their sum, n, so no flip there loads
    assert not _LENGTHS_AT <= offset < _NAMES_AT - 8, "a flipped record length loaded"
    assert answers == _GOOD_ANSWERS
    assert np.array_equal(index.lengths, _GOOD_INDEX.lengths)
    # a flipped byte of the names renames at most the record that holds it
    renamed = _GOOD.count(b"\n", _NAMES_AT, offset) if offset >= _NAMES_AT else None
    for j, (name, good) in enumerate(zip(index.names, _GOOD_INDEX.names)):
        assert name == good or j == renamed


@pytest.mark.parametrize(
    "lengths, names, names_size, message",
    [
        ([300, 401], b"r1\nr2", None, "records cover 701 of 700 characters"),
        ([0, 700], b"r1\nr2", None, r"record 'r1' \(start=0, length=0\) does not tile"),
        ([300, 2**63 + 5], b"r1\nr2", None, r"record 1's length 9223372036854775813 is 2\*\*63"),
        ([300, 400], b"r1\nr2\nr3", None, "3 record names for record lengths of shape"),
        ([300, 400], b"r1", None, "1 record names for record lengths of shape"),
        ([300, 400], b"r1\nr\xff", None, "record 1's name is not UTF-8"),
        # the size claims ten bytes more than the file holds
        ([300, 400], b"r1\nr2", 15, "stream ended inside record names"),
    ],
    ids=["sum", "zero", "2**63+5", "a-name-too-many", "a-name-too-few", "utf-8", "cut-names"],
)
def test_bad_record_table_behind_a_valid_checksum_exits_corrupt(
    lengths, names, names_size, message, tmp_path, capsys
):
    blob = with_records(_GOOD, lengths, names, names_size)
    with pytest.raises(IndexFormatError, match=message):
        deserialize_index(io.BytesIO(blob))
    path = tmp_path / "bad.fmi"
    path.write_bytes(blob)
    assert main(["match", str(path), "-p", "ACGT"]) == EXIT_CORRUPT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fmpm: corrupt index: ")


def _block_byte_set(at, value):
    """The good file with byte `at` of its packed blocks set to `value`,
    deflated again behind a valid CRC."""
    blocks = file_blocks(_GOOD)
    blocks[at] = value
    return with_blocks(_GOOD, bytes(blocks))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a gap check_index documents")
@pytest.mark.parametrize(
    "blob",
    [
        _block_byte_set(1, 11),  # bucket 0's byte 1 (fields 4 to 7), its fields permuted
        _flipped(24, 201),  # the low byte of sentinel_row, moved to another row holding A
        _flipped(_SAMPLES_AT + 1, 2),  # sample 1's low six bits cleared: 104 becomes 64
    ],
    ids=["count-preserving-block-byte", "sentinel-on-another-A-row", "sample-moved-within-range"],
)
def test_flip_in_a_known_gap_loads_and_answers_wrong(blob):
    # the load passes, so only the answers can differ
    index = deserialize_index(io.BytesIO(blob))
    assert _answers(index) == _GOOD_ANSWERS
