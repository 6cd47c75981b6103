"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single pass line (visible with -v/-s); a failed assert
is the corresponding fail line.  Shared workloads are built once per
session and reused where criteria overlap.
"""

import io
import random
import time

import numpy as np
import pytest

from fmpm.alphabet import A, C, G, encode_array
from fmpm.batch import locate_rows, rank_many
from fmpm.index import build_index
from fmpm.kernels import BUCKET_BYTES, BUCKET_CHARS, Kernel, count_blocks, trace_nibble
from fmpm.bench import run_bench, format_summary
from fmpm.search import (
    BwmInterval,
    MatchResult,
    collect_hits,
    exact_search,
    inexact_search,
)
from fmpm.serialize import deserialize_index, serialize_index
from fmpm.suffix import bwt_codes, suffix_array

from oracles import (
    block_rows,
    encode,
    edit_hits,
    hamming_positions,
    pack_codes,
    random_bucket,
    random_dna,
    scalar_counts,
    scan_positions,
)

ACAG_OCC = [
    (0, 0, 1, 0),
    (0, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 1, 0),
    (2, 1, 1, 0),
]

FIG_STRING = "ccacttgcgaaatttacaaggtttattaggtt"


@pytest.fixture(scope="session")
def suite5():
    """Pool of references plus 1,000 (reference, pattern) exact-search cases."""
    rng = random.Random(105)
    pool = []
    sizes = [10_000] + [rng.randint(500, 10_000) for _ in range(39)]
    for n in sizes:
        text = random_dna(rng, n)
        pool.append((text, build_index(text)))
    cases = []
    for _ in range(1000):
        ref_id = rng.randrange(len(pool))
        text, _ = pool[ref_id]
        m = rng.randint(1, 50)
        if rng.random() < 0.7:
            start = rng.randint(0, len(text) - m)
            pattern = text[start : start + m]
        else:
            pattern = random_dna(rng, m)
        cases.append((ref_id, pattern))
    return pool, cases


@pytest.fixture(scope="session")
def suite8():
    """100 indexed references up to 5,000 chars, with their suffix arrays."""
    rng = random.Random(108)
    out = []
    for _ in range(100):
        n = rng.randint(100, 5000)
        text = random_dna(rng, n)
        out.append((text, build_index(text), suffix_array(encode_array(text)).tolist()))
    return out


def test_criterion_01_worked_example_tables():
    text = "ACAG"
    codes = encode_array(text)
    sa = suffix_array(codes)
    assert sa.tolist() == [4, 0, 2, 1, 3]
    bwt, sentinel_row = bwt_codes(codes, sa)
    assert bwt.tolist() == [G, A, C, A, A]  # G$CAA, the terminator stored as A
    assert sentinel_row == 1
    index = build_index(text)
    assert index.c == (0, 2, 3, 4, 4)
    assert index.sentinel_row == 1
    rows = np.arange(len(ACAG_OCC))
    assert rank_many(index, rows).tolist() == [list(row) for row in ACAG_OCC]
    for symbol in range(4):
        want = [row[symbol] for row in ACAG_OCC]
        assert rank_many(index, rows, [symbol] * len(rows)).tolist() == want, symbol
    print("\n[criterion 1] worked-example tables (SA, BWT, C, occurrence cells): PASS")


def test_criterion_02_packed_block_and_trace():
    packed = pack_codes(encode(FIG_STRING))
    word = int.from_bytes(packed, "little")
    assert word == 0xFA3CFE813F026F45
    block = packed + bytes(BUCKET_BYTES - len(packed))
    trace = trace_nibble(block, 32, G)
    assert trace.masked_words[0] == 0xFA3CFE813F026F45
    assert trace.group_sads[0] == 0x7F2
    assert trace.count == 6
    print(
        "[criterion 2] packed block 0xfa3cfe813f026f45, group SAD 0x7f2, count 6: PASS"
    )


def test_criterion_03_kernel_equivalence():
    begin = time.perf_counter()
    rng = random.Random(103)

    randomized = 100_000
    cases = [
        (random_bucket(rng), rng.randint(0, BUCKET_CHARS), rng.randrange(4))
        for _ in range(randomized)
    ]
    buckets = [random_bucket(rng) for _ in range(100)]
    cases += [
        (block, prefix_len, rng.randrange(4))
        for block in buckets
        for prefix_len in range(BUCKET_CHARS + 1)
    ]
    swept = len(cases) - randomized

    # one batch per kernel, each row checked against the scalar row
    blocks, prefix_lens, symbols = zip(*cases)
    rows, prefix_lens, symbols = block_rows(blocks), np.array(prefix_lens), np.array(symbols)
    want = count_blocks(rows, prefix_lens, Kernel.SCALAR, symbols)
    for kernel in (Kernel.BYTELUT, Kernel.NIBBLE, Kernel.SIMD):
        bad = np.flatnonzero(count_blocks(rows, prefix_lens, kernel, symbols) != want)
        assert not len(bad), (kernel.value, bad[0], prefix_lens[bad[0]], symbols[bad[0]])
    elapsed = time.perf_counter() - begin
    assert elapsed < 60.0, f"kernel equivalence took {elapsed:.1f}s"
    print(
        f"[criterion 3] kernel equivalence ({randomized} randomized + {swept} swept "
        f"cases, 4 kernels, {elapsed:.1f}s): PASS"
    )


def test_criterion_04_sad_identity_on_full_buckets():
    rng = random.Random(104)
    blocks = [random_bucket(rng) for _ in range(120)]
    want = scalar_counts(block_rows(blocks), np.full(len(blocks), BUCKET_CHARS))
    checked = 0
    for block, counts in zip(blocks, want):
        for symbol in range(4):
            trace = trace_nibble(block, BUCKET_CHARS, symbol)
            assert trace.raw_count == 8160 - trace.sad_total
            assert trace.count == trace.raw_count  # full bucket: no padding correction for A
            assert trace.count == counts[symbol]
            checked += 1
    print(f"[criterion 4] SAD identity raw == 8160 - S on {checked} full-bucket traces: PASS")


def test_criterion_05_exact_search_oracle(suite5):
    begin = time.perf_counter()
    pool, cases = suite5
    for ref_id, pattern in cases:
        text, index = pool[ref_id]
        interval = exact_search(index, pattern)
        hits, _ = collect_hits(index, [MatchResult(interval, 0)], len(pattern))
        assert [h.global_pos for h in hits] == scan_positions(text, pattern), (
            ref_id,
            pattern,
        )
    elapsed = time.perf_counter() - begin
    assert elapsed < 120.0, f"exact-search oracle took {elapsed:.1f}s"
    print(
        f"[criterion 5] exact search vs direct scan on {len(cases)} cases "
        f"({len(pool)} references, {elapsed:.1f}s): PASS"
    )


def test_criterion_06_inexact_soundness():
    rng = random.Random(106)
    refs = 200
    hits_checked = 0
    for _ in range(refs):
        text = random_dna(rng, rng.randint(60, 500))
        index = build_index(text)
        m = rng.randint(10, 16)
        start = rng.randint(0, len(text) - m)
        pattern = text[start : start + m] if rng.random() < 0.6 else random_dna(rng, m)
        for z in (1, 2):
            matches = inexact_search(index, pattern, z)
            hits, _ = collect_hits(index, matches, m)
            # each hit within z edits, with its fewest, and no hit missed
            want = edit_hits(text, [("ref", 0, len(text))], pattern, z)
            assert [(h.record, h.offset, h.diffs) for h in hits] == want, (pattern, z)
            hits_checked += len(hits)
    print(
        f"[criterion 6] bounded-difference soundness on {refs} references "
        f"({hits_checked} hits vs the edit-distance DP): PASS"
    )


def test_criterion_07_mismatch_completeness_and_zero_reduction(suite5):
    rng = random.Random(107)
    planted = 40
    for i in range(planted):
        z = 1 + (i % 2)
        text = random_dna(rng, rng.randint(500, 2000))
        index = build_index(text)
        m = rng.randint(10, 16)
        start = rng.randint(0, len(text) - m)
        pattern = list(text[start : start + m])
        for pos in rng.sample(range(m), z):
            pattern[pos] = rng.choice("ACGT".replace(pattern[pos], ""))
        pattern = "".join(pattern)
        matches = inexact_search(index, pattern, z)
        hits, _ = collect_hits(index, matches, m)
        reported = {h.global_pos for h in hits}
        assert start in reported, (pattern, start, z)
        for pos in hamming_positions(text, pattern, z):
            assert pos in reported, (pattern, pos, z)

    pool, cases = suite5
    for ref_id, pattern in cases:
        _, index = pool[ref_id]
        exact = exact_search(index, pattern)
        matches = inexact_search(index, pattern, 0)
        if exact.is_empty:
            assert matches == []
        else:
            assert matches == [MatchResult(BwmInterval(exact.k, exact.l), 0, len(pattern))]
    print(
        f"[criterion 7] planted-mutation completeness ({planted} instances) and "
        f"zero-budget reduction over {len(cases)} cases: PASS"
    )


def test_criterion_08_position_recovery(suite8):
    begin = time.perf_counter()
    rows = 0
    for _, index, sa in suite8:
        recovered = locate_rows(index, np.arange(index.n + 1))
        assert recovered.tolist() == sa
        rows += index.n + 1
    elapsed = time.perf_counter() - begin
    print(
        f"[criterion 8] predecessor-walk recovery of {rows} suffix positions "
        f"across {len(suite8)} references ({elapsed:.1f}s): PASS"
    )


def test_criterion_09_occurrence_row_sum_and_monotonicity(suite8):
    begin = time.perf_counter()
    checked = 0
    for _, index, _ in suite8:
        k = np.arange(index.n + 1)
        counts = rank_many(index, k)
        bad = counts.sum(axis=1) != k + 1 - (k >= index.sentinel_row)
        assert not bad.any(), k[bad][:5]
        # from row to row exactly one symbol advances by one, except at the sentinel row
        steps = np.diff(counts, axis=0, prepend=np.zeros((1, 4), dtype=counts.dtype))
        bad = ~np.isin(steps, (0, 1)).all(axis=1) | (steps.sum(axis=1) != (k != index.sentinel_row))
        assert not bad.any(), k[bad][:5]
        checked += len(k)
    elapsed = time.perf_counter() - begin
    print(
        f"[criterion 9] occurrence row sums and monotonicity at {checked} positions "
        f"({elapsed:.1f}s): PASS"
    )


def test_criterion_10_serialization_round_trip():
    rng = random.Random(110)
    text = random_dna(rng, 10_000)
    index = build_index(text)
    sink = io.BytesIO()
    serialize_index(index, sink)
    blob = sink.getvalue()
    restored = deserialize_index(io.BytesIO(blob))
    assert restored == index
    sink2 = io.BytesIO()
    serialize_index(restored, sink2)
    assert sink2.getvalue() == blob
    for _ in range(50):
        m = rng.randint(1, 30)
        start = rng.randint(0, len(text) - m)
        pattern = text[start : start + m]
        a = exact_search(index, pattern)
        b = exact_search(restored, pattern)
        assert a == b
        assert collect_hits(index, [MatchResult(a, 0)], m) == collect_hits(
            restored, [MatchResult(b, 0)], m
        )
    for _ in range(10):
        m = rng.randint(8, 14)
        start = rng.randint(0, len(text) - m)
        pattern = text[start : start + m]
        ha, _ = collect_hits(index, inexact_search(index, pattern, 1), m)
        hb, _ = collect_hits(restored, inexact_search(restored, pattern, 1), m)
        assert ha == hb
    print(
        f"[criterion 10] serialization round trip on a {len(text)}-char reference "
        f"({len(blob)} bytes, bit- and query-identical): PASS"
    )


def test_criterion_11_bench_harness():
    rng = random.Random(111)
    text = random_dna(rng, 600)
    index = build_index(text)
    reports = run_bench(index, iterations=30, seed=7)
    assert [r.kernel for r in reports] == ["scalar", "bytelut", "nibble", "simd"]
    checksums = {r.checksum for r in reports}
    assert len(checksums) == 1, "kernels disagree on answers"
    assert all(r.bucket_counts_per_sec > 0 for r in reports)
    assert all(r.exact_qps > 0 and r.inexact_qps > 0 for r in reports)
    print("[criterion 11] bench harness, identical answer checksums across kernels: PASS")
    print(format_summary(reports))
