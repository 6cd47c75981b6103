import dataclasses
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmpm.index
from fmpm.alphabet import TERMINATOR, encode_array
from fmpm.index import (
    FmIndex,
    RecordSpan,
    SA_STRIDE,
    build_c_table,
    build_index,
    check_index,
)
from fmpm.kernels import BUCKET_BYTES, BUCKET_CHARS, Kernel, count_blocks
from fmpm.serialize import deserialize_index, serialize_index
from fmpm.suffix import suffix_array

from oracles import (
    EDGE_SIZES,
    edge_text,
    naive_bwt,
    random_dna,
    reference_index_bytes,
    suffix_array_naive,
)


def test_c_table_examples():
    assert build_c_table([2, 1, 1, 0]) == (0, 2, 3, 4, 4)
    assert build_c_table([1, 1, 1, 1]) == (0, 1, 2, 3, 4)
    assert build_c_table([0, 0, 0, 0]) == (0, 0, 0, 0, 0)


def test_c_table_rejects_bad_totals():
    with pytest.raises(ValueError):
        build_c_table([1, 2, 3])
    with pytest.raises(ValueError):
        build_c_table([1, -1, 0, 0])


def test_build_index_small_reference():
    index = build_index("ACAG")
    assert index.n == 4
    assert index.c == (0, 2, 3, 4, 4)
    assert index.sentinel_row == 1
    assert len(index.blocks) == 1
    assert index.samples.tolist() == [4]
    assert index.records == (RecordSpan(name="ref", start=0, length=4),)
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
    index = build_index("ACGTACGT", [("r1", 0, 3), ("r2", 3, 5)])
    assert [r.name for r in index.records] == ["r1", "r2"]
    check_index(index)


def test_check_index_catches_tampering():
    index = build_index(random_dna(random.Random(34), 150))
    with pytest.raises(ValueError):
        dataclasses.replace(index, c=(0, 1, 2, 3, 5))


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
        # bucket 1's block zeroed: its A fields raise the transform's A total
        ("C table", dict(blocks=_patched(_CHECKED.blocks, 1, 0))),
        # field 127 of the last block, past the end of the transform
        ("padding", dict(blocks=_patched(_CHECKED.blocks, (2, 31), 0x40))),
        # field 4 of the last block changed: no base counts it, the C table does
        ("C table", dict(blocks=_patched(_CHECKED.blocks, (2, 1), 0xFF))),
        ("C table", dict(c=(0, _CHECKED.c[1] + 1, *_CHECKED.c[2:]))),
        ("sentinel row .* outside", dict(sentinel_row=_CHECKED.n + 1)),
        ("terminator", dict(sentinel_row=_non_terminator_row(_CHECKED))),
        # sample 1 set to n + 1, then to -1, which no field of the file holds
        ("outside \\[0, 300\\]", dict(samples=_patched(_CHECKED.samples, 1, 301))),
        ("outside \\[0, 300\\]", dict(samples=_patched(_CHECKED.samples, 1, -1))),
        ("sample 0", dict(samples=_patched(_CHECKED.samples, 0, 0))),
        ("records cover", dict(records=_CHECKED.records[:1])),
        # the right counts in the wrong shapes, which the file cannot hold
        ("3 buckets", dict(blocks=np.hstack([_CHECKED.blocks, np.zeros_like(_CHECKED.blocks)]))),
        ("10 samples", dict(samples=_CHECKED.samples.reshape(-1, 1))),
        # a tab would split the record's name across two fields of a hit line
        (
            r"record name 'r\\t1' is empty or holds whitespace",
            dict(records=(RecordSpan("r\t1", 0, 120), _CHECKED.records[1])),
        ),
        # a lone surrogate has no UTF-8 form, so the index could not be written
        (
            r"record name 'r\\udc80' does not encode as UTF-8",
            dict(records=(RecordSpan("r\udc80", 0, 120), _CHECKED.records[1])),
        ),
    ],
    ids=[
        "zeroed-block",
        "padding",
        "last-block-field",
        "c-table",
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


def test_bad_records_rejected_before_the_sort(monkeypatch):
    def no_sort(codes):
        raise AssertionError("the suffix sort ran")

    monkeypatch.setattr(fmpm.index, "suffix_array", no_sort)
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
    # header to bucket count, packed blocks, sample count, samples of
    # n.bit_length() bits each, record count, two records, CRC
    sample_bytes = -(-(n // SA_STRIDE + 1) * n.bit_length() // 8)
    assert len(data) == 80 + 32 * (n // 128 + 1) + 8 + sample_bytes + 4 + 2 * 22 + 4
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
