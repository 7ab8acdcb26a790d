"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units; that two runs with one seed print the same determinism
fingerprint; that a traced run's self times add up to its spans; that a
wrong reference is counted as a failure; and that the runner refuses to
produce a result without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                           "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_metrics_units_fingerprint_and_trace(workload):
    first, result = parse(bench(workload, 5, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name

    second, _ = parse(bench(workload, 5, 0))
    assert second["fingerprint"] == first["fingerprint"]
    other, _ = parse(bench(workload, 6, 0))
    assert other["fingerprint"] != first["fingerprint"]

    traced, result = parse(bench(workload, 5, 1))
    assert result["correct"], traced["checks"]["failures"]
    assert traced["fingerprint"] == first["fingerprint"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    spans = json.loads((ROOT / traced["tracing"]["trace_file"]).read_text())["spans"]
    assert spans
    check_self_times(spans)


def check_self_times(spans):
    """Children lie inside their parent, self times are nonnegative, and a
    parent's duration is its self time plus its children's and its oracle
    time."""
    by_id = {s["id"]: s for s in spans}
    dur = tracing.durations(spans)
    own = tracing.self_times(spans)
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            children[s["parent"]].append(s["id"])
    for s in spans:
        assert own[s["id"]] >= -1e-9, s
        covered = own[s["id"]] + sum(dur[c] for c in children[s["id"]]) + s["oracle_s"]
        assert covered == pytest.approx(dur[s["id"]], abs=1e-9)


def test_wrong_reference_counts_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "uniform_optimum", lambda n, k: 0.5)
    assert run.main(["--workload", "uniform-analysis", "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert not result["correct"] and result["failed"] >= 1
    assert detail["checks"]["fail_ratio"]["value"] == result["failed"] / result["attempted"]
    assert any(f.startswith("ascent[") for f in detail["checks"]["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench(NAMES[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
