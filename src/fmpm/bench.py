"""Kernel benchmarking: identical workloads, per-kernel timings, answer checksums."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

import numpy as np

from .alphabet import SYMBOLS
from .batch import lf_step, match_many
from .cli import hit_lines
from .index import SA_STRIDE, FmIndex
from .kernels import Kernel, count_blocks


@dataclass(frozen=True)
class BenchReport:
    kernel: str
    bucket_counts_per_sec: float
    exact_qps: float
    inexact_qps: float
    wall_seconds: float
    checksum: str


@dataclass(frozen=True)
class _Workload:
    exact_patterns: list[str]
    inexact_patterns: list[str]
    # sampled bucket prefixes, one per row: packed bucket, prefix length, symbol
    blocks: np.ndarray
    prefix_lens: np.ndarray
    symbols: np.ndarray


def _build_workload(index: FmIndex, iterations: int, seed: int) -> _Workload:
    """Deterministic query mix drawn from the indexed text itself.

    Each pattern ends just before the known position of a sampled row:
    walking that row back with LF steps reads the text before it, one
    character per step, so the text is never rebuilt.
    """
    rng = random.Random(seed)
    longest = min(24, index.n)
    # sampled rows whose suffix starts at least `longest` characters in;
    # sample 0 is the terminator's suffix, at n, so there is always one
    rows = np.flatnonzero(index.samples >= longest) * SA_STRIDE
    drawn = [
        (rng.randrange(len(rows)), rng.randint(min(8, index.n), longest))
        for _ in range(iterations)
    ]
    # all drawn rows step back in lockstep; step t reads the character at
    # sample - 1 - t from a row whose suffix starts at sample - t >= 1, so
    # no step is given the sentinel row
    at = rows[np.array([j for j, _ in drawn], dtype=np.int64)]
    codes = np.empty((iterations, longest), dtype=np.uint8)
    for t in range(longest):
        codes[:, longest - 1 - t], at = lf_step(index, at, Kernel.BYTELUT)
    exact_patterns = []
    for window, (_, length) in zip(codes.tolist(), drawn):
        pattern = "".join(SYMBOLS[c] for c in window[longest - length :])
        if rng.random() < 0.5:
            # flip one character so roughly half the queries miss
            pos = rng.randrange(length)
            pattern = (
                pattern[:pos]
                + rng.choice("ACGT".replace(pattern[pos], ""))
                + pattern[pos + 1 :]
            )
        exact_patterns.append(pattern)
    # `match_many` refuses a pattern of one character at one difference
    inexact_patterns = [p for p in exact_patterns[: max(1, iterations // 4)] if len(p) > 1]
    cases = [
        (rng.randrange(index.bucket_count), rng.randint(0, 128), rng.randrange(4))
        for _ in range(max(256, iterations))
    ]
    bucket, prefix_lens, symbols = np.array(cases, dtype=np.int64).T
    return _Workload(exact_patterns, inexact_patterns, index.blocks[bucket], prefix_lens, symbols)


def run_bench(index: FmIndex, iterations: int = 200, seed: int = 0) -> list[BenchReport]:
    """Run each of the four kernels, in `Kernel` order, over one seed-derived workload.

    Each kernel counts sampled bucket prefixes with one `count_blocks`
    call, then answers the exact and the one-difference patterns as one
    `match_many` batch each: the kernel entry and the engine `fmpm match`
    runs.  The checksum is the sha256 of the lines `fmpm match` prints for
    the exact batch, then for the one-difference batch, so it must be
    identical across kernels; the hashing is not timed, and throughputs are
    informational.
    """
    workload = _build_workload(index, iterations, seed)
    reports = []
    for kernel in Kernel:
        t0 = time.perf_counter()
        count_blocks(workload.blocks, workload.prefix_lens, kernel, workload.symbols)
        bucket_elapsed = time.perf_counter() - t0

        t0 = time.perf_counter()
        hits = match_many(index, workload.exact_patterns, 0, kernel)
        exact_elapsed = time.perf_counter() - t0
        lines = hit_lines(index, hits)

        t0 = time.perf_counter()
        hits = match_many(index, workload.inexact_patterns, 1, kernel)
        inexact_elapsed = time.perf_counter() - t0
        lines += hit_lines(index, hits)

        reports.append(
            BenchReport(
                kernel=kernel.value,
                bucket_counts_per_sec=len(workload.symbols) / max(bucket_elapsed, 1e-9),
                exact_qps=len(workload.exact_patterns) / max(exact_elapsed, 1e-9),
                inexact_qps=len(workload.inexact_patterns) / max(inexact_elapsed, 1e-9),
                wall_seconds=bucket_elapsed + exact_elapsed + inexact_elapsed,
                checksum=hashlib.sha256("".join(lines).encode()).hexdigest(),
            )
        )
    return reports


def format_tsv(reports: list[BenchReport]) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"{r.kernel}\t{r.bucket_counts_per_sec:.0f}\t{r.exact_qps:.1f}"
            f"\t{r.inexact_qps:.1f}\t{r.wall_seconds:.3f}\t{r.checksum}"
        )
    return "\n".join(lines)


def format_summary(reports: list[BenchReport]) -> str:
    """Human-readable table with speedups relative to the slowest kernel."""
    slowest = min(r.bucket_counts_per_sec for r in reports)
    lines = [
        f"{'kernel':<8} {'buckets/s':>12} {'exact q/s':>10} {'inexact q/s':>12} "
        f"{'wall s':>8} {'rel':>6}"
    ]
    for r in reports:
        rel = r.bucket_counts_per_sec / max(slowest, 1e-9)
        lines.append(
            f"{r.kernel:<8} {r.bucket_counts_per_sec:>12.0f} {r.exact_qps:>10.1f} "
            f"{r.inexact_qps:>12.1f} {r.wall_seconds:>8.3f} {rel:>5.1f}x"
        )
    checksums = {r.checksum for r in reports}
    lines.append(
        "answer checksums agree"
        if len(checksums) == 1
        else "WARNING: answer checksums differ across kernels"
    )
    return "\n".join(lines)
