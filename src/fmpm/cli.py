"""Command-line interface: index, match, bench.

The FASTA reader, the batch engine and the bench harness are imported by
the commands that use them, so `fmpm index` loads no query engine and
`fmpm match` only the index, kernels and batch engine.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .index import FmIndex, build_index
from .kernels import Kernel
from .serialize import IndexFormatError, deserialize_index, serialize_index

if TYPE_CHECKING:
    from .batch import BatchHits

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CORRUPT = 3
EXIT_DISAGREE = 4

_KERNEL_CHOICES = [k.value for k in Kernel]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; remap to the usage code
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fmpm", description="FM-index pattern matching over DNA")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index from a FASTA file")
    p_index.add_argument("fasta", help="input FASTA path")
    p_index.add_argument("-o", "--output", required=True, help="output index path")
    p_index.add_argument(
        "--sanitize",
        action="store_true",
        help="replace non-ACGT characters with A instead of failing",
    )

    p_match = sub.add_parser("match", help="search patterns against an index")
    p_match.add_argument("index", help="index file path")
    group = p_match.add_mutually_exclusive_group(required=True)
    group.add_argument("-p", "--pattern", help="single pattern")
    group.add_argument("-f", "--patterns-file", help="file with one pattern per line")
    p_match.add_argument(
        "-z", "--max-diff", type=int, default=0, help="maximum differences (default 0)"
    )
    p_match.add_argument(
        "--kernel",
        default=None,
        choices=_KERNEL_CHOICES,
        help="counting kernel (default: bytelut)",
    )
    p_match.add_argument(
        "--max-hits",
        type=int,
        default=None,
        help="report at most N hits per pattern; every hit is still located "
        "first, since the first N by position need them all",
    )
    p_match.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect, all patterns run as one batch",
    )

    p_bench = sub.add_parser("bench", help="time every kernel on one workload")
    p_bench.add_argument("index", help="index file path")
    p_bench.add_argument("--iters", type=int, default=200, help="queries per kernel")
    p_bench.add_argument("--seed", type=int, default=0, help="workload seed")
    return parser


def _load_index(path: str) -> FmIndex:
    """The one index a file holds; bytes after its checksum trailer make it corrupt."""
    with open(path, "rb") as fh:
        index = deserialize_index(fh)
        if fh.read(1):
            raise IndexFormatError("bytes after the checksum trailer")
    return index


def cmd_index(args: argparse.Namespace) -> int:
    from .fasta import read_fasta

    # a leading byte-order mark is not part of the first header
    with open(args.fasta, "r", encoding="utf-8-sig") as fh:
        records = read_fasta(fh, sanitize=args.sanitize)
    substituted = sum(r.substituted for r in records)
    if substituted:
        print(
            f"sanitized {substituted} non-ACGT character(s) to A "
            f"across {sum(1 for r in records if r.substituted)} record(s)",
            file=sys.stderr,
        )
    reference = "".join(r.sequence for r in records)
    spans = []
    start = 0
    for r in records:
        spans.append((r.name, start, len(r.sequence)))
        start += len(r.sequence)
    index = build_index(reference, spans)
    with open(args.output, "wb") as fh:
        written = serialize_index(index, fh)
    print(
        f"indexed {len(records)} record(s), {index.n} characters, "
        f"{index.bucket_count} buckets, {written} bytes",
        file=sys.stderr,
    )
    return EXIT_OK


def hit_lines(index: FmIndex, hits: BatchHits) -> list[str]:
    """The line `fmpm match` prints for each hit: pattern, record, offset, diffs."""
    names = index.names
    return [
        f"{pid}\t{names[rec]}\t{offset}\t{diffs}\n"
        for pid, rec, offset, diffs in zip(
            hits.pattern.tolist(), hits.record.tolist(), hits.offset.tolist(), hits.diffs.tolist()
        )
    ]


def cmd_match(args: argparse.Namespace) -> int:
    from .batch import check_batch, match_many

    # usage errors come before any I/O; the patterns are judged once read
    check_batch([], args.max_diff, args.max_hits, args.kernel)
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    index = _load_index(args.index)
    if args.pattern is not None:
        patterns = [args.pattern]
    else:
        with open(args.patterns_file, "r", encoding="utf-8-sig") as fh:
            patterns = [line.strip() for line in fh if line.strip()]
    hits = match_many(index, patterns, args.max_diff, args.kernel, args.max_hits)
    lines = hit_lines(index, hits)
    # hits come sorted by pattern; a pattern's notes go out before its lines
    noted = (hits.degenerate | hits.truncated).nonzero()[0]
    written = 0
    for pid, first in zip(noted.tolist(), hits.pattern.searchsorted(noted).tolist()):
        sys.stdout.write("".join(lines[written:first]))
        written = first
        if hits.degenerate[pid]:
            print(
                f"pattern {pid} contains non-ACGT characters; reporting zero hits",
                file=sys.stderr,
            )
        if hits.truncated[pid]:
            print(f"pattern {pid}: hits truncated to {args.max_hits}", file=sys.stderr)
    sys.stdout.write("".join(lines[written:]))
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod

    if args.iters < 1:
        raise ValueError("--iters must be >= 1")
    index = _load_index(args.index)
    reports = bench_mod.run_bench(index, iterations=args.iters, seed=args.seed)
    print(bench_mod.format_tsv(reports))
    print(bench_mod.format_summary(reports), file=sys.stderr)
    return EXIT_OK if len({r.checksum for r in reports}) == 1 else EXIT_DISAGREE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "index":
            return cmd_index(args)
        if args.command == "match":
            return cmd_match(args)
        return cmd_bench(args)
    except ValueError as exc:
        # bad arguments, malformed FASTA, empty patterns and the like
        print(f"fmpm: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IndexFormatError as exc:
        print(f"fmpm: corrupt index: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as exc:
        print(f"fmpm: {exc}", file=sys.stderr)
        return EXIT_IO
