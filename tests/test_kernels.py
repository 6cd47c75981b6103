import random

import numpy as np
import pytest

import fmpm.kernels
from fmpm.alphabet import A, C, G, T
from fmpm.index import build_index
from fmpm.kernels import (
    BUCKET_BYTES,
    BUCKET_CHARS,
    Kernel,
    count_blocks,
    mask_blocks,
    resolve_kernel,
    trace_nibble,
)

from oracles import (
    EDGE_SIZES,
    block_rows,
    edge_text,
    encode,
    pack_codes,
    random_bucket,
    scalar_counts,
)

FIG_STRING = "ccacttgcgaaatttacaaggtttattaggtt"
FIG_BLOCK = pack_codes(encode(FIG_STRING)) + bytes(BUCKET_BYTES - 8)


def _count(kernel, blocks, prefix_lens, symbols=None):
    """`count_blocks` over a list of blocks, as a list."""
    symbols = None if symbols is None else np.array(symbols)
    return count_blocks(block_rows(blocks), np.array(prefix_lens), kernel, symbols).tolist()


def test_nibble_tables_shape_and_contents():
    lo, hi = fmpm.kernels._NP_LO.tobytes(), fmpm.kernels._NP_HI.tobytes()
    assert hi.hex() == "02051141050814441114205041445080"
    assert lo.hex() == "fdfaeebefaf7ebbbeeebdfafbebbaf7f"
    for v in range(16):
        pair = (v & 3, (v >> 2) & 3)
        for symbol in range(4):
            want = pair.count(symbol)
            assert (hi[v] >> (2 * symbol)) & 3 == want
        assert lo[v] == (~hi[v]) & 0xFF
        # two characters per nibble, however they split across symbols
        assert sum((hi[v] >> (2 * s)) & 3 for s in range(4)) == 2


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
    got = _count(Kernel.SCALAR, [FIG_BLOCK] * 4, [32, 7, 0, 32], [G, G, G, T])
    assert got == [6, 1, 0, 12]


def test_all_zero_bucket_counts():
    zero = bytes(BUCKET_BYTES)
    for kernel in Kernel:
        got = _count(kernel, [zero] * 4, [BUCKET_CHARS, 0, BUCKET_CHARS, 77], [A, A, C, A])
        assert got == [BUCKET_CHARS, 0, 0, 77], kernel


def test_bad_arguments_rejected():
    # the one-bucket check: a block, a prefix or a symbol out of range
    zero = bytes(BUCKET_BYTES)
    cases = [
        (zero[:-1], 4, A),
        (zero, BUCKET_CHARS + 1, A),
        (zero, -1, A),
        (zero, 4, 4),
        (zero, 4, -1),
    ]
    for kernel in Kernel:
        for block, prefix_len, symbol in cases:
            with pytest.raises(ValueError):
                fmpm.kernels._count_bucket(block, prefix_len, kernel, symbol)
    for block, prefix_len, symbol in cases:
        with pytest.raises(ValueError):
            trace_nibble(block, prefix_len, symbol)
    # without a symbol, only the block and the prefix are checked
    for kernel in Kernel:
        for block, prefix_len, _ in cases[:3]:
            with pytest.raises(ValueError):
                fmpm.kernels._count_bucket(block, prefix_len, kernel)


def test_nibble_trace_on_figure_block():
    trace = trace_nibble(FIG_BLOCK, 32, G)
    assert trace.masked_words[0] == 0xFA3CFE813F026F45
    assert trace.group_sads[0] == 0x7F2
    # the three masked groups carry no characters at all
    assert trace.group_sads[1:] == [2040, 2040, 2040]
    assert trace.sad_total == 0x7F2 + 3 * 2040
    assert trace.raw_count == 8160 - trace.sad_total == 6
    assert trace.count == 6


def test_nibble_lookup_words_on_figure_block():
    # register-level values derived by hand from the table construction
    trace = trace_nibble(FIG_BLOCK, 32, G)
    assert trace.lookup_lo_words[0] == 0xDFBEAFFA7FEE7FF7
    assert trace.lookup_hi_words[0] == 0x8041801141021405


@pytest.mark.parametrize("prefix_len", [0, 1, 5, 127, 128])
def test_nibble_trace_at_partial_prefixes(prefix_len):
    # the masked-off fields decode as A: in the raw count, not in the count
    block = random_bucket(random.Random(prefix_len))
    trace = trace_nibble(block, prefix_len, A)
    assert [trace.count] == _count(Kernel.SCALAR, [block], [prefix_len], [A])
    assert trace.raw_count - trace.count == BUCKET_CHARS - prefix_len
    assert trace.raw_count == 8160 - trace.sad_total


def test_bytelut_has_one_body(monkeypatch):
    # `count_blocks` counts one symbol and all four through the word table
    def word_table(masked, symbol=None):
        raise AssertionError("the word table ran")

    monkeypatch.setattr(fmpm.kernels, "count_blocks_bytelut", word_table)
    with pytest.raises(AssertionError, match="word table"):
        _count(Kernel.BYTELUT, [FIG_BLOCK], [32], [G])
    with pytest.raises(AssertionError, match="word table"):
        _count("bytelut", [FIG_BLOCK], [32])


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
        blocks = block_rows(make(rng) for _ in range(m))
        want = scalar_counts(blocks, prefix_lens)
        for kernel in Kernel:
            got = count_blocks(blocks, prefix_lens, kernel)
            assert got.dtype == np.int64 and got.tolist() == want, kernel
            got = count_blocks(blocks, prefix_lens, kernel, symbols)
            assert got.dtype == np.int64, kernel
            assert got.tolist() == [w[s] for w, s in zip(want, symbols.tolist())], kernel


def test_all4_known_block():
    assert _count(None, [FIG_BLOCK], [32]) == [[9, 5, 6, 12]]


def test_partial_bucket_padding_not_counted():
    # 5 real characters, the rest padding: only A picks up masked fields
    block = pack_codes([2, 0, 1, 0, 0], pad_to=BUCKET_BYTES)
    for kernel in Kernel:
        assert _count(kernel, [block] * 4, [5] * 4, [A, C, G, T]) == [3, 1, 1, 0], kernel


def test_resolve_kernel_values_and_env():
    assert resolve_kernel("scalar") is Kernel.SCALAR
    assert resolve_kernel(Kernel.NIBBLE) is Kernel.NIBBLE
    assert resolve_kernel(None) is Kernel.BYTELUT
    with pytest.raises(ValueError):
        resolve_kernel("avx999")


def test_benchmark_one_row_readers_equal_count_blocks():
    # perfbench/traced.py's `kernel_layer` times these names, and no other code calls them
    rng = random.Random(26)
    block = random_bucket(rng)
    prefix_lens = range(BUCKET_CHARS + 1)
    blocks = [block] * len(prefix_lens)
    for kernel in Kernel:
        count = getattr(fmpm.kernels, f"count_bucket_{kernel.value}")
        for symbol in range(4):
            want = _count(kernel, blocks, prefix_lens, [symbol] * len(blocks))
            assert [count(block, p, symbol) for p in prefix_lens] == want, (kernel, symbol)
        with pytest.raises(ValueError):
            count(block, 0, 4)
        got = [fmpm.kernels.count_bucket_all4(block, p, kernel=kernel.value) for p in prefix_lens]
        assert got == [tuple(row) for row in _count(kernel, blocks, prefix_lens)], kernel
    for n in EDGE_SIZES:
        index = build_index(edge_text(n))
        assert len(index.buckets) == len(index.blocks), n
        for bucket, block in zip(index.buckets, index.blocks):
            assert bucket.chars == block.tobytes(), n
