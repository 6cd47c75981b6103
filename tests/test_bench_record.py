"""BENCH_0.json, the committed benchmark baseline, against BENCHMARK.json.

Reads the two files only; no benchmark runs here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORD = json.loads((ROOT / "BENCH_0.json").read_text(encoding="utf-8"))

# sha256 of each workload's sorted answers at seed 1; a change that moves one changed an answer
SEED_1_DIGESTS = {
    "exact-400k": "829bf04cf9a1226cc2fd48fe544dd917caf485a852afc19e695d794a103e248d",
    "repeats-400k": "7024c5f302c9b126e4318fcdc4df769269ba576363540b6d64a64bacbe2b2546",
    "inexact-z2": "214c913a360338f826d1fcf02634669f1b459f5fbc09b38bd99674a81eca0993",
}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_holds_a_clean_untraced_run_of_each_workload(workload):
    runs = [r for r in RECORD["runs"] if r["workload"] == workload and r["trace"] == 0]
    assert runs, f"no trace-0 run of {workload}"
    for run in runs:
        result = run["result"]
        assert result["correct"] is True
        assert result["failed"] == 0
        for metric in BENCHMARK["end_to_end"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"], metric["name"]


def test_every_run_has_the_seed_1_answers_and_its_provenance():
    assert set(SEED_1_DIGESTS) == set(WORKLOADS)
    for run in RECORD["runs"]:
        assert run["seed"] == 1
        assert run["answers_sha256"] == SEED_1_DIGESTS[run["workload"]]
        assert run["seconds"] > 0
        assert run["commit"] == run["machine"]["commit"] == RECORD["commit"]


def test_known_dead_metrics_are_the_per_layer_metrics_that_read_zero():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    traced = [r["result"]["metrics"] for r in RECORD["runs"] if r["trace"] == 1]
    assert len(traced) == len(WORKLOADS)
    zero = {name for name in per_layer if all(m[name]["value"] == 0 for m in traced)}
    assert set(RECORD["known_dead"]) == zero
    for name, dead in RECORD["known_dead"].items():
        assert dead["missing_hook"].startswith("fmpm.")
    for metrics in traced:
        assert {name: m["unit"] for name, m in metrics.items() if name in per_layer} == per_layer
