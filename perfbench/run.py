"""fmpm benchmark: `fmpm index` and `fmpm match` on generated workloads.

    python3 perfbench/run.py --workload exact-400k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  With --trace 0 the real CLI runs as
child processes, one at a time (closed loop, one client): `fmpm index`
builds for the set-up time, alternating with `fmpm match -f`
children that run for --seconds in all.  With --trace 1 the same inputs
go through the library in process and the per-layer metrics are
reported (see traced.py).  Every answer is checked against the oracle.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  `--workload all` runs every workload both ways and
prints every metric in a table.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from oracle import Oracle, answer_digest, parse_tsv
from workloads import WORKLOADS, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "index_peak_rss_mb": "MiB",
    "match_peak_rss_mb": "MiB",
    "index_bytes_per_char": "B/char",
    "success_ratio": "ratio",
}


class Child(NamedTuple):
    """Outcome of one `fmpm` child process."""

    code: int
    wall_s: float
    peak_rss_mb: float


def run_fmpm(args: list, stdout: Path) -> Child:
    """Run `python -m fmpm ARGS` from the checkout's sources and wait for it.

    Peak RSS is read for this child alone with os.wait4, since
    RUSAGE_CHILDREN mixes every child of the process together.
    """
    env = {k: v for k, v in os.environ.items() if k != "FMPM_KERNEL"}
    env["PYTHONPATH"] = str(SRC)
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fmpm", *map(str, args)], stdout=out, stderr=err, env=env, cwd=ROOT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024)


def load_average() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def machine_facts() -> dict:
    """CPU, caches, versions, commit and load, read without changing anything."""
    facts = {
        "nproc": os.cpu_count(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": "unknown",
        "loadavg_start": load_average(),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for entry in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (entry / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (entry / "size").read_text().strip()
        except OSError:
            pass
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


def run_end_to_end(inputs, oracle: Oracle, seconds: float, work: Path):
    w: Workload = inputs.workload
    fasta, patterns = inputs.write(work)
    fmi = work / "reference.fmi"
    attempted, failed = 0, 0

    q = len(inputs.patterns)
    builds, runs = [], []
    checked = None  # (output bytes, patterns failed, answer digest)
    # Builds and match children alternate, so both are sampled across the
    # whole run rather than in one stretch: on a shared host the machine's
    # speed drifts over seconds, and a longer window averages more of it.
    for slot in range(w.builds):
        child = run_fmpm(["index", fasta, "-o", fmi], work / "index.out")
        builds.append(child)
        attempted += 1
        failed += child.code != 0
        began = time.perf_counter()
        while time.perf_counter() - began < seconds / w.builds or len(runs) <= slot:
            out = work / "match.tsv"
            child = run_fmpm(["match", fmi, "-f", patterns, "-z", w.max_diff, "--threads", 1], out)
            runs.append(child)
            attempted += 1 + q
            if child.code != 0:
                failed += 1 + q
                continue
            data = out.read_bytes()
            if checked is None or data != checked[0]:
                hits = parse_tsv(data)
                checked = (data, oracle.failures(hits), answer_digest(hits))
            failed += checked[1]

    metrics = {
        "setup_s": statistics.median(c.wall_s for c in builds),
        "queries_per_s": statistics.median(q / c.wall_s for c in runs),
        "index_peak_rss_mb": statistics.median(c.peak_rss_mb for c in builds),
        "match_peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        "index_bytes_per_char": fmi.stat().st_size / w.n if fmi.exists() else 0.0,
        "success_ratio": 1 - failed / attempted,
    }
    result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(f"# setup_s runs: {[round(c.wall_s, 4) for c in builds]}")
    print(f"# queries_per_s runs: {[round(q / c.wall_s, 2) for c in runs]}")
    return result, attempted, failed, checked[2] if checked else "none"


def run_per_layer(inputs, oracle: Oracle, seconds: float, work: Path):
    sys.path.insert(0, str(SRC))
    os.environ.pop("FMPM_KERNEL", None)
    import fmpm

    if Path(fmpm.__file__).resolve().parent != SRC / "fmpm":
        raise SystemExit(f"imported fmpm from {fmpm.__file__}, not from {SRC}")
    import traced

    fasta, _ = inputs.write(work)

    def startup(fmi: Path) -> tuple[float, bool]:
        # one non-ACGT pattern: start, import, load, and no search
        child = run_fmpm(["match", fmi, "-p", "N", "--threads", 1], work / "startup.out")
        return child.wall_s, child.code == 0

    metrics, attempted, failed, digest, spans = traced.run_traced(
        fmpm, inputs, oracle, fasta, work, seconds, startup
    )
    print(f"# spans: {spans.relative_to(ROOT)}")
    share, floor = inputs.workload.purpose
    verdict = "PASS" if metrics[share] >= floor else "FAIL (the workload no longer does what it is for)"
    print(f"# purpose {inputs.workload.name}: {share}={metrics[share]:.3f} >= {floor}: {verdict}")
    result = {k: {"value": v, "unit": traced.UNITS[k]} for k, v in sorted(metrics.items())}
    return result, attempted, failed, digest


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    facts = machine_facts()
    inputs = generate(w, args.seed)
    oracle = Oracle(inputs)
    work = WORK / w.name
    work.mkdir(parents=True, exist_ok=True)
    run = run_per_layer if args.trace else run_end_to_end
    metrics, attempted, failed, digest = run(inputs, oracle, args.seconds, work)
    facts["loadavg_end"] = load_average()
    print(f"# machine: {json.dumps(facts)}")
    print(f"# answers {w.name} seed={args.seed}: sha256={digest}")
    print(f"# error_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload with tracing off and on, as child runs of this script."""
    ok = True
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            ok &= result["correct"]
            run = ("end-to-end", "per-layer")[trace]
            rows.append((name, run, "error_rate", result["failed"] / result["attempted"], "ratio"))
            rows.extend((name, run, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
    print()
    print(f"{'workload':<13} {'run':<11} {'metric':<31} {'value':>14}  unit")
    for name, run, metric, value, unit in rows:
        print(f"{name:<13} {run:<11} {metric:<31} {value:>14.6g}  {unit}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fmpm" / "__init__.py").is_file():
        print(f"run.py: no fmpm sources at {SRC}; run from the root of an fmpm checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
