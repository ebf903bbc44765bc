"""Smoke tests of the benchmark at tiny K and F.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Span, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = ("smoke-remove", "smoke-add")


def run_bench(root: Path, workload: str, trace: int, seed: int = 2):
    command = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(command, capture_output=True, text=True, timeout=170)


def last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def copy_checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("workload", SMOKE)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = last_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", SMOKE)
def test_traced_run_reports_every_layer_with_repeatable_counts(workload):
    runs = [run_bench(ROOT, workload, trace=1) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert units(last_line(proc)) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        {name: m["value"] for name, m in last_line(proc)["metrics"].items()
         if m["unit"] in ("count", "bits")}
        for proc in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["removal.decodes"] > 0 and counts[0]["addition.codewords"] > 0


def test_document_with_another_digest_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path, with_sources=True)
    digests = root / "bench" / "digests.json"
    table = json.loads(digests.read_text(encoding="utf-8"))
    table["smoke-remove"]["2"] = "0" * 64
    digests.write_text(json.dumps(table), encoding="utf-8")
    proc = run_bench(root, "smoke-remove", trace=0)
    assert proc.returncode == 1
    result = last_line(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(root, "smoke-add", trace=0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        Span("trial", 0.0, 10.0, None, "t"),
        Span("removal.bin", 1.0, 4.0, 0, "t"),
        Span("removal.encode", 5.0, 7.0, 0, "t"),
    ]
    assert tracer.self_times() == [5.0, 3.0, 2.0]


def test_nested_spans_record_parent_and_inherit_trial():
    tracer = Tracer()
    with tracer.span("trial", "trial-0"):
        with tracer.span("database.build"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.trial == "trial-0"
    assert outer.start <= inner.start <= inner.end <= outer.end
