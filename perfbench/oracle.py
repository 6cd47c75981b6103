"""Answer oracle: expected hit sets computed without the FM-index.

Exact workloads are checked against a scan of every window of every
record.  Bounded-difference workloads are checked both ways: every window
within Hamming distance z must be reported (completeness), and every
reported hit must have a banded anchored edit distance no larger than its
difference count (soundness).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import numpy as np

from workloads import Inputs

# (record name, offset, diffs)
Hit = tuple[str, int, int]


def parse_tsv(data: bytes) -> dict[int, list[Hit]]:
    """Hits per pattern id from `fmpm match` output lines."""
    hits: dict[int, list[Hit]] = {}
    for line in data.decode("ascii").splitlines():
        pid, record, offset, diffs = line.split("\t")
        hits.setdefault(int(pid), []).append((record, int(offset), int(diffs)))
    return hits


def answer_digest(hits: dict[int, list[Hit]]) -> str:
    """sha256 of the sorted answer lines, independent of output order."""
    lines = sorted((pid, *hit) for pid, pid_hits in hits.items() for hit in pid_hits)
    h = hashlib.sha256()
    for pid, record, offset, diffs in lines:
        h.update(f"{pid}\t{record}\t{offset}\t{diffs}\n".encode("ascii"))
    return h.hexdigest()


def min_anchored_edit_distance(pattern: str, window: str, band: int) -> int:
    """Min edit distance from pattern to any window prefix of plausible length.

    Both strings anchored at their starts; banded at `band`, so any
    distance above it comes back as band + 1.  Prefix lengths considered
    are len(pattern) +- band, clipped to the window.
    """
    m, w = len(pattern), len(window)
    inf = band + 1
    prev = [j if j <= band else inf for j in range(w + 1)]
    for i in range(1, m + 1):
        cur = [i if i <= band else inf] + [inf] * w
        lo = max(1, i - band)
        hi = min(w, i + band)
        for j in range(lo, hi + 1):
            cost = prev[j - 1] + (pattern[i - 1] != window[j - 1])
            if prev[j] + 1 < cost:
                cost = prev[j] + 1
            if cur[j - 1] + 1 < cost:
                cost = cur[j - 1] + 1
            cur[j] = cost if cost < inf else inf
        prev = cur
    lo = max(0, m - band)
    hi = min(w, m + band)
    return min(prev[lo : hi + 1], default=inf)


class Oracle:
    """Checks one pattern's reported hits against independently computed ones."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.z = inputs.workload.max_diff
        self.text = "".join(inputs.sequences)
        self.starts = [0]
        for seq in inputs.sequences:
            self.starts.append(self.starts[-1] + len(seq))
        self.record_of = {name: i for i, name in enumerate(inputs.names)}
        if self.z == 0:
            self._exact = self._window_scan()
        else:
            lut = np.full(256, 255, dtype=np.uint8)
            lut[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4, dtype=np.uint8)
            self._codes = [lut[np.frombuffer(s.encode("ascii"), dtype=np.uint8)] for s in inputs.sequences]
            self._lut = lut

    def _window_scan(self) -> dict[str, set[tuple[str, int]]]:
        wanted = set(self.inputs.patterns)
        found: dict[str, set[tuple[str, int]]] = {p: set() for p in wanted}
        for name, seq in zip(self.inputs.names, self.inputs.sequences):
            for m in {len(p) for p in wanted}:
                for off in range(len(seq) - m + 1):
                    window = seq[off : off + m]
                    if window in wanted:
                        found[window].add((name, off))
        return found

    def _hamming_windows(self, pattern: str) -> dict[tuple[str, int], int]:
        """(record, offset) -> Hamming distance, for windows within z."""
        p = self._lut[np.frombuffer(pattern.encode("ascii"), dtype=np.uint8)]
        m = len(p)
        out = {}
        for name, codes in zip(self.inputs.names, self._codes):
            windows = len(codes) - m + 1
            if windows <= 0:
                continue
            dist = np.zeros(windows, dtype=np.int32)
            for j in range(m):
                dist += codes[j : j + windows] != p[j]
            for off in np.flatnonzero(dist <= self.z):
                out[(name, int(off))] = int(dist[off])
        return out

    def check(self, pid: int, hits: list[Hit]) -> bool:
        """True when the reported hits for pattern `pid` are right."""
        pattern = self.inputs.patterns[pid]
        reported = {}
        for record, offset, diffs in hits:
            key = (record, offset)
            if key in reported or record not in self.record_of or not 0 <= diffs <= self.z:
                return False
            reported[key] = diffs
        if self.z == 0:
            return set(reported) == self._exact[pattern]
        for key, dist in self._hamming_windows(pattern).items():
            if reported.get(key, self.z + 1) > dist:
                return False
        m = len(pattern)
        for (record, offset), diffs in reported.items():
            # a hit must leave room in its record for the m - diffs characters
            # it covers at least
            r = self.record_of[record]
            if not 0 <= offset <= self.starts[r + 1] - self.starts[r] - (m - diffs):
                return False
            g = self.starts[r] + offset
            window = self.text[g : g + m + diffs]
            if min_anchored_edit_distance(pattern, window, diffs) > diffs:
                return False
        return True

    def failures(self, hits: dict[int, list[Hit]]) -> int:
        """Number of patterns whose reported hits are wrong."""
        extra = set(hits) - set(range(len(self.inputs.patterns)))
        return len(extra) + sum(
            not self.check(pid, hits.get(pid, [])) for pid in range(len(self.inputs.patterns))
        )
