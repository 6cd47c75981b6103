"""Traced in-process run: per-layer times and counts.

The same inputs as the end-to-end run are driven through the library's
public functions.  Spans are recorded by this file at the build-step and
query boundaries (search, locate); the hot inner calls (the rank pair of
an interval update, the LF step of locate) are wrapped at their
module-level names and only add a count and summed time to the innermost
open span, so the trace stays small.  Nothing in the program is edited:
the wrappers are installed for the traced passes and removed afterwards.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from oracle import Oracle, answer_digest
from workloads import Inputs

KERNELS = ("scalar", "bytelut", "nibble", "simd")

UNITS = {
    "fasta.parse_s": "s",
    "suffix.sort_s": "s",
    "suffix.bwt_s": "s",
    "index.buckets_s": "s",
    "index.check_s": "s",
    "serialize.write_s": "s",
    "serialize.load_s": "s",
    "cli.startup_s": "s",
    **{f"kernels.{k}.{m}": "ns" for k in KERNELS for m in ("ns_per_count", "ns_per_all4")},
    "occ.pair_calls_per_query": "count",
    "occ.pair_ns": "ns",
    "occ.same_bucket_ratio": "ratio",
    "search.share": "ratio",
    "search.query_us.p50": "us",
    "search.query_us.p90": "us",
    "search.query_us.p99": "us",
    "search.unique_rank_ratio": "ratio",
    "search.locate.share": "ratio",
    "search.locate.lf_steps_per_hit": "count",
    "search.locate.ns_per_lf_step": "ns",
    "search.locate.us_per_hit": "us",
    "search.locate.dropped_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
# buckets sampled for the kernel timings and the agreement check
KERNEL_SAMPLE = 256
KERNEL_REPS = 7
# every 23rd query (at least two) is answered once per kernel for the digest
# check; the stride is odd so the subset mixes patterns with and without a
# substitution
KERNEL_QUERY_STRIDE = 23


class Span:
    __slots__ = ("name", "id", "parent", "query", "start", "end", "counts", "pairs")

    def __init__(self, name: str, span_id: int, parent: Span | None, query: int | None):
        self.name = name
        self.id = span_id
        self.parent = parent.id if parent else None
        self.query = query if query is not None else (parent.query if parent else None)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.pairs: set[tuple[int, int]] = set()

    @property
    def ns(self) -> int:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "query": self.query,
            "start_ns": self.start,
            "end_ns": self.end,
            **self.counts,
        }


class Recorder:
    """Spans kept in memory; hot calls add to the innermost open span."""

    def __init__(self, ids: itertools.count | None = None) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        # recorders sharing `ids` number their spans apart
        self.ids = ids if ids is not None else itertools.count()

    @contextmanager
    def span(self, name: str, query: int | None = None):
        s = Span(name, next(self.ids), self.stack[-1] if self.stack else None, query)
        self.stack.append(s)
        s.start = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self.stack.pop()
            if s.pairs:
                s.counts["distinct_pairs"] = len(s.pairs)
                s.pairs = set()
            self.spans.append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ns(self, span: Span) -> int:
        return span.ns - sum(s.ns for s in self.spans if s.parent == span.id)

    def write(self, fh) -> None:
        for s in sorted(self.spans, key=lambda s: s.id):
            fh.write(json.dumps(s.record()) + "\n")


@contextmanager
def patched(wrappers: list[tuple[object, str, object]]):
    """Replace module attributes for the duration of the block."""
    saved = []
    for module, name, make in wrappers:
        original = getattr(module, name, None)
        if original is None:
            print(f"# trace: {module.__name__}.{name} not found; its counts stay 0")
            continue
        setattr(module, name, make(original))
        saved.append((module, name, original))
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def _wrappers(fmpm, rec: Recorder) -> list:
    bucket_chars = fmpm.kernels.BUCKET_CHARS
    clock = time.perf_counter_ns

    def pair(original):
        def occ_pair_all(index, low, high, kernel=None):
            t = clock()
            out = original(index, low, high, kernel)
            dt = clock() - t
            s = rec.stack[-1]
            s.counts["pair_calls"] += 1
            s.counts["pair_ns"] += dt
            if low >= 0 and low // bucket_chars == high // bucket_chars:
                s.counts["same_bucket"] += 1
            s.pairs.add((low, high))
            return out

        return occ_pair_all

    def lf(original):
        def psi_inverse_fused(index, i, kernel=None):
            t = clock()
            out = original(index, i, kernel)
            dt = clock() - t
            s = rec.stack[-1]
            s.counts["lf_steps"] += 1
            s.counts["lf_ns"] += dt
            return out

        return psi_inverse_fused

    def row(original):
        def locate_row(index, i, kernel=None):
            rec.stack[-1].counts["rows"] += 1
            return original(index, i, kernel)

        return locate_row

    def interval(original):
        def locate_all(index, interval, diffs, pattern_len, kernel=None):
            hits = original(index, interval, diffs, pattern_len, kernel)
            rec.stack[-1].counts["kept"] += len(hits)
            return hits

        return locate_all

    def step(name):
        def make(original):
            def wrapped(*args, **kwargs):
                with rec.span(name):
                    return original(*args, **kwargs)

            return wrapped

        return make

    return [
        (fmpm.search, "occ_pair_all", pair),
        (fmpm.search, "psi_inverse_fused", lf),
        (fmpm.search, "locate_row", row),
        (fmpm.search, "locate_all", interval),
        (fmpm.index, "build_suffix_array", step("suffix.sort")),
        (fmpm.index, "bwt_from_sa", step("suffix.bwt")),
    ]


def build(fmpm, rec: Recorder, fasta: Path, fmi: Path):
    """The `fmpm index` steps, in process, then the load `fmpm match` does."""
    with rec.span("fasta.parse"):
        with open(fasta, "r", encoding="utf-8") as fh:
            records = fmpm.read_fasta(fh)
    reference = "".join(r.sequence for r in records)
    spans, start = [], 0
    for r in records:
        spans.append((r.name, start, len(r.sequence)))
        start += len(r.sequence)
    with rec.span("index.build"):
        index = fmpm.build_index(reference, spans)
    with rec.span("index.check"):
        fmpm.check_index(index)
    with rec.span("serialize.write"):
        with open(fmi, "wb") as fh:
            fmpm.serialize_index(index, fh)
    with rec.span("serialize.load"):
        with open(fmi, "rb") as fh:
            return fmpm.deserialize_index(fh)


def match(fmpm, index, queries, z: int, kernel, rec: Recorder | None = None) -> dict:
    """Per-pattern search then locate, as `fmpm match` does.

    `queries` holds (pattern id, pattern) pairs; returns hits by pattern id.
    Spans are recorded only when a recorder is given.
    """
    span = rec.span if rec else (lambda name, query=None: nullcontext())
    answers = {}
    for pid, pattern in queries:
        with span("query", query=pid):
            with span("search"):
                if z:
                    matches = fmpm.inexact_search(index, pattern, z, kernel)
                else:
                    interval = fmpm.exact_search(index, pattern, kernel)
                    matches = [] if interval.is_empty else [fmpm.MatchResult(interval, 0)]
            with span("locate"):
                hits, _ = fmpm.collect_hits(index, matches, len(pattern), kernel)
        answers[pid] = [(h.record, h.offset, h.diffs) for h in hits]
    return answers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(spans: list[Span], key: str) -> int:
    return sum(s.counts[key] for s in spans)


def kernel_layer(fmpm, index) -> tuple[dict[str, float], int, int]:
    """ns per call of every kernel on sampled buckets, and their agreement."""
    k = fmpm.kernels
    step = max(1, len(index.buckets) // KERNEL_SAMPLE)
    # 37 is prime to 129, so the prefix lengths cover every value in [0, 128]
    sample = [
        (index.buckets[j].chars, (i * 37) % (k.BUCKET_CHARS + 1), i % 4)
        for i, j in enumerate(range(0, len(index.buckets), step))
    ][:KERNEL_SAMPLE]
    want_count = [k.count_bucket_scalar(b, p, s) for b, p, s in sample]
    want_all4 = [tuple(k.count_bucket_all4(b, p, kernel="scalar")) for b, p, _ in sample]
    metrics, attempted, failed = {}, 0, 0
    for name in KERNELS:
        count = getattr(k, f"count_bucket_{name}")
        attempted += 2
        failed += [count(b, p, s) for b, p, s in sample] != want_count
        failed += [tuple(k.count_bucket_all4(b, p, kernel=name)) for b, p, _ in sample] != want_all4
        per_count, per_all4 = [], []
        for _ in range(KERNEL_REPS):
            t = time.perf_counter_ns()
            for b, p, s in sample:
                count(b, p, s)
            per_count.append((time.perf_counter_ns() - t) / len(sample))
            t = time.perf_counter_ns()
            for b, p, _ in sample:
                k.count_bucket_all4(b, p, kernel=name)
            per_all4.append((time.perf_counter_ns() - t) / len(sample))
        metrics[f"kernels.{name}.ns_per_count"] = statistics.median(per_count)
        metrics[f"kernels.{name}.ns_per_all4"] = statistics.median(per_all4)
    return metrics, attempted, failed


def query_metrics(rec: Recorder) -> dict[str, float]:
    queries = rec.named("query")
    search = rec.named("search")
    locate = rec.named("locate")
    total = sum(s.ns for s in queries)
    search_us = [s.ns / 1e3 for s in search]
    cuts = statistics.quantiles(search_us, n=100, method="inclusive")
    pair_calls = _total(search, "pair_calls")
    rows = _total(locate, "rows")
    kept = _total(locate, "kept")
    lf_steps = _total(locate, "lf_steps")
    return {
        "occ.pair_calls_per_query": _ratio(pair_calls, len(queries)),
        "occ.pair_ns": _ratio(_total(search, "pair_ns"), pair_calls),
        "occ.same_bucket_ratio": _ratio(_total(search, "same_bucket"), pair_calls),
        "search.share": _ratio(sum(s.ns for s in search), total),
        "search.query_us.p50": cuts[49],
        "search.query_us.p90": cuts[89],
        "search.query_us.p99": cuts[98],
        "search.unique_rank_ratio": _ratio(_total(search, "distinct_pairs"), pair_calls),
        "search.locate.share": _ratio(sum(s.ns for s in locate), total),
        "search.locate.lf_steps_per_hit": _ratio(lf_steps, rows),
        "search.locate.ns_per_lf_step": _ratio(_total(locate, "lf_ns"), lf_steps),
        "search.locate.us_per_hit": _ratio(sum(s.ns for s in locate) / 1e3, kept),
        "search.locate.dropped_ratio": _ratio(rows - kept, rows),
    }


def run_traced(fmpm, inputs: Inputs, oracle: Oracle, fasta: Path, work: Path, seconds: float, startup):
    """Returns (metrics, attempted, failed, answer digest, spans path)."""
    w = inputs.workload
    build_rec = Recorder()
    fmi = work / "traced.fmi"
    with patched(_wrappers(fmpm, build_rec)):
        index = build(fmpm, build_rec, fasta, fmi)
    self_of = {s.name: build_rec.self_ns(s) / 1e9 for s in build_rec.spans}
    metrics = {
        "fasta.parse_s": self_of["fasta.parse"],
        "suffix.sort_s": self_of.get("suffix.sort", 0.0),
        "suffix.bwt_s": self_of.get("suffix.bwt", 0.0),
        "index.buckets_s": self_of["index.build"],
        "index.check_s": self_of["index.check"],
        "serialize.write_s": self_of["serialize.write"],
        "serialize.load_s": self_of["serialize.load"],
    }
    attempted, failed = 0, 0

    startups = []
    for _ in range(3):
        wall, ok = startup(fmi)
        startups.append(wall)
        attempted += 1
        failed += not ok
    metrics["cli.startup_s"] = statistics.median(startups)

    kernel = fmpm.resolve_kernel(None)
    queries = list(enumerate(inputs.patterns))
    plain_s, traced_s = [], []
    began = time.perf_counter()
    while not traced_s or time.perf_counter() - began < seconds:
        t = time.perf_counter()
        plain = match(fmpm, index, queries, w.max_diff, kernel)
        plain_s.append(time.perf_counter() - t)
        rec = Recorder(build_rec.ids)
        t = time.perf_counter()
        with patched(_wrappers(fmpm, rec)):
            traced = match(fmpm, index, queries, w.max_diff, kernel, rec)
        traced_s.append(time.perf_counter() - t)
        attempted += 1
        failed += answer_digest(plain) != answer_digest(traced)
    attempted += len(inputs.patterns)
    failed += oracle.failures(traced)
    metrics.update(query_metrics(rec))
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)

    kernel_metrics, k_attempted, k_failed = kernel_layer(fmpm, index)
    metrics.update(kernel_metrics)
    attempted += k_attempted
    failed += k_failed

    subset = queries[1 :: max(1, min(KERNEL_QUERY_STRIDE, len(queries) // 2))]
    want = {pid: traced[pid] for pid, _ in subset}
    hits = sum(map(len, want.values()))
    for name in KERNELS:
        got = answer_digest(match(fmpm, index, subset, w.max_diff, name))
        print(f"# kernel {name}: {len(subset)} queries, {hits} hits, answers sha256={got}")
        attempted += 1
        failed += got != answer_digest(want)

    spans_path = work / "spans.jsonl"
    with open(spans_path, "w", encoding="ascii") as fh:
        build_rec.write(fh)
        rec.write(fh)
    return metrics, attempted, failed, answer_digest(traced), spans_path
