import io
import random
import struct
import zlib

import pytest

from fmpm.index import build_index
from fmpm.search import exact_search, locate_all
from fmpm.serialize import (
    BadMagicError,
    ChecksumError,
    IndexFormatError,
    TruncatedStreamError,
    VersionMismatchError,
    deserialize_index,
    serialize_index,
)

from oracles import EDGE_SIZES, edge_text, random_dna


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
    # the index holds the bucket records as two contiguous read-only arrays,
    # split on load and interleaved again on write
    index = build_index(edge_text(n))
    blob = roundtrip_bytes(index)
    restored = deserialize_index(io.BytesIO(blob))
    for held in (index, restored):
        for array, shape in ((held.blocks, (n // 128 + 1, 32)), (held.bases, (n // 128 + 1, 4))):
            assert array.shape == shape
            assert array.flags.c_contiguous and not array.flags.writeable
        assert held.view.blocks is held.blocks and held.view.bases is held.bases
    assert roundtrip_bytes(restored) == blob
    assert restored.table == index.table


def test_byte_count_matches_stream():
    index = build_index(random_dna(random.Random(73), 150))
    sink = io.BytesIO()
    written = serialize_index(index, sink)
    assert written == len(sink.getvalue())


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


def test_truncated_everywhere():
    blob = roundtrip_bytes(build_index(random_dna(random.Random(74), 60)))
    for cut in (0, 3, 4, 10, 30, len(blob) // 2, len(blob) - 1):
        with pytest.raises(TruncatedStreamError):
            deserialize_index(io.BytesIO(blob[:cut]))


def test_huge_count_in_short_file_is_truncated(tmp_path):
    # n = 2**40 asks for 2**39 bucket bytes; the file holds a few hundred
    blob = bytearray(roundtrip_bytes(build_index("ACAG")))
    n = 1 << 40
    blob[8:16] = struct.pack("<Q", n)
    blob[72:80] = struct.pack("<Q", (n + 128) // 128)
    path = tmp_path / "huge.fmi"
    path.write_bytes(bytes(blob))
    with open(path, "rb") as fh, pytest.raises(TruncatedStreamError):
        deserialize_index(fh)


def test_checksum_failure():
    blob = bytearray(roundtrip_bytes(build_index(random_dna(random.Random(75), 60))))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(ChecksumError):
        deserialize_index(io.BytesIO(bytes(blob)))


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
        assert locate_all(index, a, 0, m) == locate_all(restored, b, 0, m)


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
