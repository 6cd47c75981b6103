import dataclasses
import io
import random
import re
import struct
import tracemalloc
import zlib
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpm.suffix
from fmpm.alphabet import TERMINATOR, encode_array
from fmpm.index import (
    FmIndex,
    SA_STRIDE,
    build_index,
    check_index,
)
from fmpm.kernels import BUCKET_BYTES, BUCKET_CHARS, Kernel, count_blocks
from fmpm.serialize import IndexFormatError, deserialize_index, serialize_index
from fmpm.suffix import suffix_array

from oracles import (
    EDGE_SIZES,
    edge_text,
    naive_bwt,
    random_dna,
    reference_index_bytes,
    suffix_array_naive,
)


def test_c_table_is_derived_from_the_blocks():
    # c[s] counts the reference's characters below symbol s, on a build and on a load
    for n in EDGE_SIZES:
        text = edge_text(n)
        want = tuple(accumulate((text.upper().count(s) for s in "ACGT"), initial=0))
        index = build_index(text)
        sink = io.BytesIO()
        serialize_index(index, sink)
        for held in (index, deserialize_index(io.BytesIO(sink.getvalue()))):
            assert held.c == want, n
            assert all(type(count) is int for count in held.c)


def test_build_index_small_reference():
    index = build_index("ACAG")
    assert index.n == 4
    assert index.c == (0, 2, 3, 4, 4)
    assert index.sentinel_row == 1
    assert len(index.blocks) == 1
    assert index.samples.tolist() == [4]
    assert index.names == ("ref",)
    assert index.starts.tolist() == [0] and index.lengths.tolist() == [4]
    check_index(index)


def test_build_index_single_character():
    index = build_index("A")
    assert index.n == 1
    assert index.c == (0, 1, 1, 1, 1)
    assert index.samples.tolist() == [1]
    check_index(index)


def test_bucket_contents_match_bwt():
    text = random_dna(random.Random(31), 300)
    index = build_index(text)
    bwt = naive_bwt(text)
    assert index.sentinel_row == bwt.index(TERMINATOR)
    read_back = []
    for j, block in enumerate(index.blocks.tolist()):
        for r in range(min(BUCKET_CHARS, 301 - j * BUCKET_CHARS)):
            read_back.append((block[r >> 2] >> ((r & 3) << 1)) & 3)
    codes = [0 if ch == TERMINATOR else "ACGT".index(ch) for ch in bwt]
    assert read_back == codes


def test_base_telescoping_across_buckets():
    # each base is the scalar count of all blocks before it, on a build and on a load
    for n in EDGE_SIZES:
        index = build_index(edge_text(n))
        sink = io.BytesIO()
        serialize_index(index, sink)
        for held in (index, deserialize_index(io.BytesIO(sink.getvalue()))):
            assert len(held.blocks) == n // BUCKET_CHARS + 1
            full = np.full(len(held.blocks), BUCKET_CHARS)
            counts = count_blocks(held.blocks, full, Kernel.SCALAR).tolist()
            base = [0, 0, 0, 0]
            for got, inside in zip(held.bases.tolist(), counts):
                assert got == base, n
                base = [b + d for b, d in zip(base, inside)]
            check_index(held)


def test_bases_are_derived_from_the_blocks():
    index = build_index(random_dna(random.Random(34), 300))
    # trade an A field of block 0 that is not the sentinel row for a C
    # field of block 1: the totals hold, so the index is still made (a gap
    # `check_index` documents), and only the base between them moves
    bits = np.unpackbits(index.blocks, axis=1, bitorder="little")
    fields = bits[:, 0::2] | bits[:, 1::2] << 1  # field r of each block
    a = next(r for r in np.flatnonzero(fields[0] == 0) if r != index.sentinel_row)
    c = np.flatnonzero(fields[1] == 1)[0]
    blocks = index.blocks.copy()
    blocks[0, a >> 2] |= 1 << 2 * (a & 3)  # A (0) becomes C (1)
    blocks[1, c >> 2] ^= 1 << 2 * (c & 3)  # C (1) becomes A (0)
    changed = dataclasses.replace(index, blocks=blocks)
    # the index holds a read-only view; the caller's array stays writable
    assert blocks.flags.writeable and not changed.blocks.flags.writeable
    assert not changed.bases.flags.writeable
    assert (changed.bases[1] - index.bases[1]).tolist() == [-1, 1, 0, 0]
    assert np.array_equal(changed.bases[2], index.bases[2])
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(index, bases=index.bases)
    # equal blocks make equal bases, so equality compares the stored fields
    assert dataclasses.replace(changed, blocks=index.blocks) == index


def test_sample_stride():
    text = random_dna(random.Random(33), 167)
    index = build_index(text)
    sa = suffix_array_naive(text)
    assert index.samples.tolist() == [sa[i] for i in range(0, 168, SA_STRIDE)]


def test_records_validation():
    with pytest.raises(ValueError):
        build_index("ACGT", [("r1", 0, 3)])
    with pytest.raises(ValueError):
        build_index("ACGT", [("r1", 0, 2), ("r2", 3, 1)])
    with pytest.raises(ValueError):
        build_index("ACGT", [("", 0, 4)])
    for span in ((2**63, 4), (0, 2**64), (-(2**63) - 1, 4)):
        with pytest.raises(ValueError, match="does not fit in int64"):
            build_index("ACGT", [("r1", *span)])
    index = build_index("ACGTACGT", [("r1", 0, 3), ("r2", 3, 5)])
    assert index.names == ("r1", "r2")
    assert index.starts.tolist() == [0, 3] and index.lengths.tolist() == [3, 5]
    for array in (index.starts, index.lengths):
        assert array.dtype == np.int64 and not array.flags.writeable
    check_index(index)


def test_check_index_catches_tampering():
    # the C table is derived from the blocks, so only a file's header copy
    # can disagree with it, and the reader refuses such a file
    index = build_index(random_dna(random.Random(34), 150))
    sink = io.BytesIO()
    serialize_index(index, sink)
    blob = bytearray(sink.getvalue()[:-4])
    blob[32:72] = struct.pack("<5Q", 0, 1, 2, 3, 5)
    blob += struct.pack("<I", zlib.crc32(blob))
    message = f"C table (0, 1, 2, 3, 5) does not match the bucket totals ({index.c})"
    with pytest.raises(IndexFormatError, match=re.escape(message)):
        deserialize_index(io.BytesIO(bytes(blob)))


def _patched(array, at, value):
    out = array.copy()
    out[at] = value
    return out


# a 300-char, two-record index: three buckets, the last holding 45 fields
_CHECKED = build_index(random_dna(random.Random(37), 300), [("r1", 0, 120), ("r2", 120, 180)])


def _non_terminator_row(index):
    bits = np.unpackbits(index.blocks, bitorder="little")
    fields = bits[0::2] | bits[1::2] << 1  # field r of the transform
    return int(np.flatnonzero(fields[: index.n + 1])[0])


@pytest.mark.parametrize(
    "message, fields",
    [
        # field 127 of the last block, past the end of the transform
        ("padding", dict(blocks=_patched(_CHECKED.blocks, (2, 31), 0x40))),
        ("sentinel row .* outside", dict(sentinel_row=_CHECKED.n + 1)),
        ("terminator", dict(sentinel_row=_non_terminator_row(_CHECKED))),
        # sample 1 set to n + 1, then to -1, which no field of the file holds
        ("outside \\[0, 300\\]", dict(samples=_patched(_CHECKED.samples, 1, 301))),
        ("outside \\[0, 300\\]", dict(samples=_patched(_CHECKED.samples, 1, -1))),
        ("sample 0", dict(samples=_patched(_CHECKED.samples, 0, 0))),
        ("records cover", dict(names=_CHECKED.names[:1], lengths=_CHECKED.lengths[:1])),
        # the right counts in the wrong shapes, which the file cannot hold
        ("3 buckets", dict(blocks=np.hstack([_CHECKED.blocks, np.zeros_like(_CHECKED.blocks)]))),
        ("10 samples", dict(samples=_CHECKED.samples.reshape(-1, 1))),
        # a tab would split the record's name across two fields of a hit line
        (r"record name 'r\\t1' is empty or holds whitespace", dict(names=("r\t1", "r2"))),
        # a lone surrogate has no UTF-8 form, so the index could not be written
        (r"record name 'r\\udc80' does not encode as UTF-8", dict(names=("r\udc80", "r2"))),
        # hits print only the record name, so two records may not share one
        ("record name 'r1' is used twice", dict(names=("r1", "r1"))),
        ("record name '' is empty", dict(names=("r1", ""))),
        ("3 record names", dict(names=("r1", "r2", "r3"))),
        # the lengths still sum to n, but a record may not be empty
        (r"record 'r1' \(start=0, length=0\) does not tile", dict(lengths=[0, 300])),
        (r"record 'r2' \(start=120, length=301\) does not tile", dict(lengths=[120, 301])),
        ("records cover 301 of 300", dict(lengths=[121, 180])),
        # values no int64 holds, which the file reader refuses before they get here
        ("a value of lengths does not fit in int64", dict(lengths=[2**63])),
        ("a value of samples does not fit in int64", dict(samples=[2**63, *_CHECKED.samples[1:]])),
        # a cast would truncate these, and the writer could not pack the header fields
        ("lengths holds float64 values", dict(lengths=[120.5, 179.5])),
        ("samples holds float64 values", dict(samples=_CHECKED.samples + 0.25)),
        ("blocks holds float64 values", dict(blocks=_CHECKED.blocks.astype(float))),
        ("sentinel_row is 4.0, not an integer", dict(sentinel_row=4.0)),
        ("n is 300.0, not an integer", dict(n=300.0)),
        ("n is '300', not an integer", dict(n="300")),
        ("record name b'r1' is not a str", dict(names=(b"r1", "r2"))),
        # shapes are checked before the bases are derived from the blocks
        (r"1 buckets for n=5, found \(32,\)", dict(n=5, blocks=np.zeros(32, np.uint8))),
        (r"1 buckets for n=5, found \(2, 31\)", dict(n=5, blocks=np.zeros((2, 31), np.uint8))),
        (r"1 buckets for n=5, found \(0, 32\)", dict(n=5, blocks=np.zeros((0, 32), np.uint8))),
        ("empty reference", dict(n=0, blocks=np.zeros((0, 32), np.uint8))),
        ("empty reference", dict(n=0, blocks=np.zeros((1, 32), np.uint8))),
    ],
    ids=[
        "padding",
        "sentinel-range",
        "sentinel-field",
        "sample-range",
        "sample-negative",
        "sample-0",
        "records",
        "block-shape",
        "sample-shape",
        "record-name-tab",
        "record-name-surrogate",
        "record-name-twice",
        "record-name-empty",
        "record-count",
        "record-length-0",
        "record-length-past-n",
        "record-lengths-sum",
        "record-length-2**63",
        "sample-2**63",
        "float-lengths",
        "float-samples",
        "float-blocks",
        "float-sentinel-row",
        "float-n",
        "str-n",
        "bytes-record-name",
        "1-d-blocks-at-n=5",
        "2x31-blocks-at-n=5",
        "0x32-blocks-at-n=5",
        "n=0-no-block",
        "n=0-one-block",
    ],
)
def test_check_index_catches_each_broken_invariant(message, fields):
    # making an index runs check_index, by dataclasses.replace or directly
    check_index(_CHECKED)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(_CHECKED, **fields)
    made = {f.name: getattr(_CHECKED, f.name) for f in dataclasses.fields(FmIndex) if f.init}
    with pytest.raises(ValueError, match=message):
        FmIndex(**{**made, **fields})


def test_numpy_integers_are_stored_as_int():
    # a numpy integer is an integer; the index stores it as int, so the writer can pack it
    made = dataclasses.replace(
        _CHECKED, n=np.int64(300), sentinel_row=np.uint32(_CHECKED.sentinel_row)
    )
    assert type(made.n) is int and type(made.sentinel_row) is int
    assert made == _CHECKED
    sink = io.BytesIO()
    serialize_index(made, sink)
    assert deserialize_index(io.BytesIO(sink.getvalue())) == _CHECKED
    # integer arrays of another dtype are cast when every value fits
    made = dataclasses.replace(_CHECKED, lengths=np.array([120, 180], dtype=np.uint16))
    assert made.lengths.dtype == np.int64 and made == _CHECKED
    with pytest.raises(ValueError, match="a value of lengths does not fit in int64"):
        dataclasses.replace(_CHECKED, lengths=np.array([2**63, 180], dtype=np.uint64))
    with pytest.raises(ValueError, match="a value of blocks does not fit in uint8"):
        dataclasses.replace(_CHECKED, blocks=_CHECKED.blocks.astype(np.int64) - 1)


def test_bad_records_rejected_before_the_sort(monkeypatch):
    def no_sort(codes):
        raise AssertionError("the suffix sort ran")

    monkeypatch.setattr(fmpm.suffix, "suffix_array", no_sort)
    with pytest.raises(ValueError, match="records cover 3 of 400000 characters"):
        build_index("ACGT" * 100000, [("a", 0, 3)])
    with pytest.raises(ValueError, match="does not tile"):
        build_index("ACGT" * 100000, [("a", 0, 3), ("b", 4, 399996)])
    # hits print only the record name, so two records may not share one
    with pytest.raises(ValueError, match="record name 'a' is used twice"):
        build_index("ACGT" * 100000, [("a", 0, 3), ("b", 3, 5), ("a", 8, 399992)])
    with pytest.raises(ValueError, match="does not encode as UTF-8"):
        build_index("ACGT" * 100000, [("r\udc80", 0, 400000)])


def test_build_memory_per_character():
    # tracemalloc counts numpy's buffers, so the peak repeats exactly
    text = random_dna(random.Random(38), 300_000)
    assert suffix_array(encode_array(text)).dtype == np.int32
    tracemalloc.start()
    try:
        build_index(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(text) <= 32, f"build peaked at {peak / len(text):.1f} B/char"


def test_final_bucket_padding_is_zero():
    # 128 chars + terminator: second bucket holds one real character
    text = random_dna(random.Random(35), BUCKET_CHARS)
    index = build_index(text)
    assert index.blocks.shape == (2, BUCKET_BYTES)
    assert set(index.blocks[1, 1:].tolist()) == {0}
    check_index(index)


def _serialized(text, records):
    sink = io.BytesIO()
    serialize_index(build_index(text, records), sink)
    return sink.getvalue()


@pytest.mark.parametrize(
    "n, cuts",
    [
        (1, []),
        (127, [64]),
        (128, [32, 96]),
        (129, [128]),
        (255, [127, 128]),
        (256, [128]),
        (257, [128, 256]),
        (300, [100, 200]),
    ],
)
def test_file_bytes_match_reference_builder(n, cuts):
    rng = random.Random(n)
    text = random_dna(rng, n)
    if n % 2:
        text = text.lower()
    bounds = [0, *cuts, n]
    records = [(f"r{i}", a, b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    data = _serialized(text, records)
    assert data == reference_index_bytes(text, records)
    # loading derives the bases from the blocks, and check_index compares C with their totals
    assert deserialize_index(io.BytesIO(data)) == build_index(text, records)


# the sample width n.bit_length() grows by one bit from 2**k - 1 to 2**k
@pytest.mark.parametrize("n", [2**k + d for k in range(5, 13) for d in (-1, 0, 1)])
def test_file_bytes_match_reference_builder_where_the_sample_width_changes(n):
    text = edge_text(n)
    records = [("r0", 0, n // 2), ("r1", n // 2, n - n // 2)]
    data = _serialized(text, records)
    assert data == reference_index_bytes(text, records)
    # header to bucket count, deflated size and packed blocks, sample count,
    # samples of n.bit_length() bits each, record count, two lengths, the
    # names' size and "r0\nr1", CRC
    deflated = len(zlib.compress(build_index(text, records).blocks))
    sample_bytes = -(-(n // SA_STRIDE + 1) * n.bit_length() // 8)
    assert len(data) == 80 + 8 + deflated + 8 + sample_bytes + 4 + 2 * 8 + 8 + 5 + 4
    assert deserialize_index(io.BytesIO(data)) == build_index(text, records)


@st.composite
def texts_with_records(draw):
    text = draw(
        st.text(alphabet="ACGT", min_size=1, max_size=300)
        | st.sampled_from(["A", "AC", "ACG"]).map(lambda unit: unit * 90)
    )
    cuts = draw(st.lists(st.integers(min_value=1, max_value=len(text)), max_size=3))
    bounds = sorted({0, len(text), *cuts})
    return text, [(f"r{i}", a, b - a) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


@settings(max_examples=150, deadline=None)
@given(texts_with_records())
def test_file_bytes_match_reference_builder_property(case):
    text, records = case
    assert _serialized(text, records) == reference_index_bytes(text, records)
