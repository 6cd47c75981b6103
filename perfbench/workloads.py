"""Seeded input generation for the benchmark workloads.

The program under test only ever sees the FASTA and pattern files written
here; the in-memory `Inputs` feed the answer oracle.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
PATTERN_LEN = 20
FASTA_WIDTH = 80
FAMILY_LEN = 300
FAMILY_COUNT = 4
FAMILY_DIVERGENCE = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    records: int
    queries: int
    max_diff: int
    # the traced share that shows the workload does the work it exists for
    purpose: tuple[str, float]
    # share of each record covered by copies of the repeat families
    repeat_share: float = 0.0
    # `fmpm index` runs per end-to-end run; setup_s is their median
    builds: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        # Backward search dominates (-z 0, half the patterns miss after a
        # substitution) and the in-memory index is larger than one core's L2.
        Workload(
            name="exact-400k",
            n=400_000,
            records=4,
            queries=3_000,
            max_diff=0,
            purpose=("search.share", 0.6),
        ),
        # Locate dominates: tens of hits per query, about 31 LF steps each.
        # The repeats also make the suffix sort do more doubling rounds.
        Workload(
            name="repeats-400k",
            n=400_000,
            records=64,
            queries=300,
            max_diff=0,
            purpose=("search.locate.share", 0.8),
            repeat_share=0.25,
        ),
        # Bounded-difference search does nearly all the work, with thousands
        # of rank calls per query; the index fits in cache.  Its build takes
        # about a second, so it is built more often for a steadier median.
        Workload(
            name="inexact-z2",
            n=100_000,
            records=4,
            queries=20,
            max_diff=2,
            purpose=("search.share", 0.9),
            builds=7,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    names: tuple[str, ...]
    sequences: tuple[str, ...]
    patterns: tuple[str, ...]

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write the FASTA and pattern files; returns their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        fasta = directory / "reference.fa"
        with open(fasta, "w", encoding="ascii") as fh:
            for name, seq in zip(self.names, self.sequences):
                fh.write(f">{name}\n")
                for i in range(0, len(seq), FASTA_WIDTH):
                    fh.write(seq[i : i + FASTA_WIDTH])
                    fh.write("\n")
        patterns = directory / "patterns.txt"
        patterns.write_text("".join(p + "\n" for p in self.patterns), encoding="ascii")
        return fasta, patterns


def _text(codes: np.ndarray) -> str:
    return BASES[codes].tobytes().decode("ascii")


def _substitute(rng: np.random.Generator, codes: np.ndarray, where: np.ndarray) -> None:
    """Replace codes[where] by a different base, in place."""
    codes[where] = (codes[where] + rng.integers(1, 4, size=len(where))) % 4


def _record_lengths(w: Workload) -> list[int]:
    base, extra = divmod(w.n, w.records)
    return [base + (1 if i < extra else 0) for i in range(w.records)]


def _repeat_record(
    rng: np.random.Generator, length: int, families: np.ndarray, share: float, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random background with non-overlapping diverged family copies.

    Families are assigned round-robin from `first`, so every family has
    the same number of copies (within one) whatever the seed.  Returns the
    codes and a mask of the positions covered by copies.
    """
    codes = rng.integers(0, 4, size=length, dtype=np.uint8)
    in_copy = np.zeros(length, dtype=bool)
    copies = round(share * length / FAMILY_LEN)
    stride = length // copies if copies else 0
    for slot in range(copies):
        start = slot * stride + int(rng.integers(0, stride - FAMILY_LEN + 1))
        copy = families[(first + slot) % len(families)].copy()
        _substitute(rng, copy, np.flatnonzero(rng.random(FAMILY_LEN) < FAMILY_DIVERGENCE))
        codes[start : start + FAMILY_LEN] = copy
        in_copy[start : start + FAMILY_LEN] = True
    return codes, in_copy


def generate(w: Workload, seed: int) -> Inputs:
    """Inputs for workload `w`; the same seed always gives the same inputs."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    lengths = _record_lengths(w)
    families = rng.integers(0, 4, size=(FAMILY_COUNT, FAMILY_LEN), dtype=np.uint8)
    records, masks = [], []
    for i, n in enumerate(lengths):
        if w.repeat_share:
            codes, in_copy = _repeat_record(rng, n, families, w.repeat_share, i)
        else:
            codes, in_copy = rng.integers(0, 4, size=n, dtype=np.uint8), np.zeros(n, dtype=bool)
        records.append(codes)
        masks.append(in_copy)
    text = np.concatenate(records)
    in_copy = np.concatenate(masks)
    starts = np.cumsum([0] + lengths)

    def background_at() -> int:
        # a window inside one record that overlaps no family copy
        while True:
            r = int(rng.integers(0, w.records))
            at = int(starts[r] + rng.integers(0, lengths[r] - PATTERN_LEN + 1))
            if not in_copy[at : at + PATTERN_LEN].any():
                return at

    # 1% of the patterns straddle a record junction, so the boundary filter
    # in locate has rows to drop on every workload.
    junction_every = w.queries // max(2, w.queries // 100)
    patterns = []
    for pid in range(w.queries):
        if pid % junction_every == 0:
            j = int(rng.integers(1, w.records))
            at = int(starts[j]) - int(rng.integers(1, PATTERN_LEN))
            codes = text[at : at + PATTERN_LEN].copy()
        elif w.repeat_share and pid % 2:
            at = int(rng.integers(0, FAMILY_LEN - PATTERN_LEN + 1))
            codes = families[pid // 2 % FAMILY_COUNT, at : at + PATTERN_LEN].copy()
        else:
            at = background_at()
            codes = text[at : at + PATTERN_LEN].copy()
            if not w.repeat_share and pid % 2:
                # one substitution, its position spread evenly over the pattern
                _substitute(rng, codes, np.array([pid * 7 % PATTERN_LEN]))
        patterns.append(_text(codes))
    return Inputs(
        workload=w,
        names=tuple(f"rec{i:02d}" for i in range(w.records)),
        sequences=tuple(_text(r) for r in records),
        patterns=tuple(patterns),
    )
