import random

import numpy as np
import pytest

import fmpm.kernels
from fmpm.alphabet import A, C, G, T
from fmpm.kernels import (
    BUCKET_BYTES,
    BUCKET_CHARS,
    Kernel,
    KernelTrace,
    NibbleTables,
    TABLES,
    count_bucket_all4,
    count_bucket_bytelut,
    count_bucket_nibble,
    count_bucket_scalar,
    count_bucket_simd,
    count_blocks,
    mask_blocks,
    resolve_kernel,
)

from oracles import encode, pack_codes, random_bucket

FIG_STRING = "ccacttgcgaaatttacaaggtttattaggtt"
FIG_BLOCK = pack_codes(encode(FIG_STRING)) + bytes(BUCKET_BYTES - 8)

COUNT_FNS = [
    count_bucket_scalar,
    count_bucket_bytelut,
    count_bucket_nibble,
    count_bucket_simd,
]


def test_nibble_tables_shape_and_contents():
    tables = NibbleTables.build()
    assert tables == TABLES
    assert len(tables.lo) == 16 and len(tables.hi) == 16
    for v in range(16):
        pair = (v & 3, (v >> 2) & 3)
        for symbol in range(4):
            want = pair.count(symbol)
            assert (tables.hi[v] >> (2 * symbol)) & 3 == want
        assert tables.lo[v] == (~tables.hi[v]) & 0xFF
        # two characters per nibble, however they split across symbols
        assert sum((tables.hi[v] >> (2 * s)) & 3 for s in range(4)) == 2


def test_mask_blocks_boundaries():
    blocks = np.full((3, BUCKET_BYTES), 0xFF, dtype=np.uint8)
    masked = mask_blocks(blocks, np.array([0, BUCKET_CHARS, 5]))
    assert masked[0].tobytes() == bytes(BUCKET_BYTES)
    assert masked[1].tobytes() == blocks[1].tobytes()
    # one full byte plus one 2-bit field survive
    assert masked[2, 0] == 0xFF
    assert masked[2, 1] == 0x03
    assert set(masked[2, 2:].tolist()) == {0}


def test_scalar_known_counts():
    assert count_bucket_scalar(FIG_BLOCK, 32, G) == 6
    assert count_bucket_scalar(FIG_BLOCK, 7, G) == 1
    assert count_bucket_scalar(FIG_BLOCK, 0, G) == 0
    assert count_bucket_scalar(FIG_BLOCK, 32, T) == 12


def test_all_zero_bucket_counts():
    zero = bytes(BUCKET_BYTES)
    for fn in COUNT_FNS:
        assert fn(zero, BUCKET_CHARS, A) == BUCKET_CHARS
        assert fn(zero, 0, A) == 0
        assert fn(zero, BUCKET_CHARS, C) == 0
        assert fn(zero, 77, A) == 77


def test_bad_arguments_rejected():
    zero = bytes(BUCKET_BYTES)
    for fn in COUNT_FNS:
        with pytest.raises(ValueError):
            fn(zero[:-1], 4, A)
        with pytest.raises(ValueError):
            fn(zero, BUCKET_CHARS + 1, A)
        with pytest.raises(ValueError):
            fn(zero, -1, A)


def test_nibble_trace_on_figure_block():
    trace = KernelTrace()
    count = count_bucket_nibble(FIG_BLOCK, 32, G, trace=trace)
    assert count == 6
    assert trace.masked_words[0] == 0xFA3CFE813F026F45
    assert trace.group_sads[0] == 0x7F2
    # the three masked groups carry no characters at all
    assert trace.group_sads[1:] == [2040, 2040, 2040]
    assert trace.sad_total == 0x7F2 + 3 * 2040
    assert trace.raw_count == 8160 - trace.sad_total == 6
    assert trace.count == 6


def test_nibble_lookup_words_on_figure_block():
    # register-level values derived by hand from the table construction
    trace = KernelTrace()
    count_bucket_nibble(FIG_BLOCK, 32, G, trace=trace)
    assert trace.lookup_lo_words[0] == 0xDFBEAFFA7FEE7FF7
    assert trace.lookup_hi_words[0] == 0x8041801141021405


@pytest.mark.parametrize("prefix_len", [0, 1, 5, 127, 128])
def test_nibble_trace_at_partial_prefixes(prefix_len):
    # the masked-off fields decode as A: in the raw count, not in the count
    block = random_bucket(random.Random(prefix_len))
    trace = KernelTrace()
    count = count_bucket_nibble(block, prefix_len, A, trace=trace)
    assert trace.count == count == count_bucket_scalar(block, prefix_len, A)
    assert trace.raw_count - trace.count == BUCKET_CHARS - prefix_len
    assert trace.raw_count == 8160 - trace.sad_total


def test_bytelut_has_one_body(monkeypatch):
    # the per-bucket names count through the word table that `fmpm match` runs
    def word_table(masked, symbol=None):
        raise AssertionError("the word table ran")

    monkeypatch.setattr(fmpm.kernels, "count_blocks_bytelut", word_table)
    with pytest.raises(AssertionError, match="word table"):
        count_bucket_bytelut(FIG_BLOCK, 32, G)
    with pytest.raises(AssertionError, match="word table"):
        count_bucket_all4(FIG_BLOCK, 32, "bytelut")


def test_trace_identity_raw_equals_ceiling_minus_sad():
    rng = random.Random(21)
    for _ in range(40):
        block = random_bucket(rng)
        for symbol in range(4):
            trace = KernelTrace()
            count_bucket_nibble(block, BUCKET_CHARS, symbol, trace=trace)
            assert trace.raw_count == 8160 - trace.sad_total
            assert trace.raw_count == count_bucket_scalar(block, BUCKET_CHARS, symbol)


def test_kernels_agree_randomized():
    rng = random.Random(22)
    for _ in range(400):
        block = random_bucket(rng)
        prefix_len = rng.randint(0, BUCKET_CHARS)
        symbol = rng.randrange(4)
        want = count_bucket_scalar(block, prefix_len, symbol)
        assert count_bucket_bytelut(block, prefix_len, symbol) == want
        assert count_bucket_nibble(block, prefix_len, symbol) == want
        assert count_bucket_simd(block, prefix_len, symbol) == want


def test_kernels_agree_all_prefix_lengths():
    rng = random.Random(23)
    for _ in range(4):
        block = random_bucket(rng)
        for prefix_len in range(BUCKET_CHARS + 1):
            for symbol in range(4):
                want = count_bucket_scalar(block, prefix_len, symbol)
                assert count_bucket_bytelut(block, prefix_len, symbol) == want
                assert count_bucket_nibble(block, prefix_len, symbol) == want
                assert count_bucket_simd(block, prefix_len, symbol) == want


# every (prefix length, symbol) pair, one row each
_PREFIX_SYMBOL_CASES = [(p, s) for p in range(BUCKET_CHARS + 1) for s in range(4)]


@pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
@pytest.mark.parametrize("m", [1, 2, 129, 5000])
def test_count_blocks_equals_scalar_oracle(fill, m):
    # all-zero blocks count every field as A; all-0xFF blocks fill the T lane to 128
    rng = random.Random(m)
    make = {
        "random": random_bucket,
        "zeros": lambda _: bytes(BUCKET_BYTES),
        "ones": lambda _: b"\xff" * BUCKET_BYTES,
    }[fill]
    # the cases cycled to fill whole calls of m rows, each case at least once
    total = -(-max(m, len(_PREFIX_SYMBOL_CASES)) // m) * m
    cases = [_PREFIX_SYMBOL_CASES[i % len(_PREFIX_SYMBOL_CASES)] for i in range(total)]
    for at in range(0, total, m):
        prefix_lens, symbols = (np.array(column) for column in zip(*cases[at : at + m]))
        rows = [make(rng) for _ in range(m)]
        want = [
            [count_bucket_scalar(row, p, s) for s in range(4)]
            for row, p in zip(rows, prefix_lens.tolist())
        ]
        blocks = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(m, BUCKET_BYTES)
        for kernel in Kernel:
            got = count_blocks(blocks, prefix_lens, kernel)
            assert got.dtype == np.int64 and got.tolist() == want, kernel
            got = count_blocks(blocks, prefix_lens, kernel, symbols)
            assert got.dtype == np.int64, kernel
            assert got.tolist() == [w[s] for w, s in zip(want, symbols.tolist())], kernel


def test_all4_matches_singles_and_sums_to_prefix():
    rng = random.Random(24)
    for _ in range(60):
        block = random_bucket(rng)
        prefix_len = rng.randint(0, BUCKET_CHARS)
        for kernel in Kernel:
            counts = count_bucket_all4(block, prefix_len, kernel)
            assert sum(counts) == prefix_len
            for symbol in range(4):
                assert counts[symbol] == count_bucket_scalar(block, prefix_len, symbol)


def test_all4_known_block():
    counts = count_bucket_all4(FIG_BLOCK, 32)
    assert tuple(counts) == (9, 5, 6, 12)


def test_counts_are_monotone_in_prefix():
    rng = random.Random(25)
    block = random_bucket(rng)
    for symbol in range(4):
        prev = 0
        for prefix_len in range(1, BUCKET_CHARS + 1):
            cur = count_bucket_nibble(block, prefix_len, symbol)
            assert cur - prev in (0, 1)
            prev = cur


def test_partial_bucket_padding_not_counted():
    # 5 real characters, the rest padding: only A picks up masked fields
    block = pack_codes([2, 0, 1, 0, 0], pad_to=BUCKET_BYTES)
    for fn in COUNT_FNS:
        assert fn(block, 5, A) == 3
        assert fn(block, 5, C) == 1
        assert fn(block, 5, G) == 1
        assert fn(block, 5, T) == 0


def test_resolve_kernel_values_and_env():
    assert resolve_kernel("scalar") is Kernel.SCALAR
    assert resolve_kernel(Kernel.NIBBLE) is Kernel.NIBBLE
    assert resolve_kernel(None) is Kernel.BYTELUT
    with pytest.raises(ValueError):
        resolve_kernel("avx999")
