"""Smoke test of the benchmark: every workload, both trace modes, tiny ledgers.

Run with ``python -m pytest -q perfbench``; tier-1 collects only ``tests/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_every_check_passes(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0


def test_traced_run_covers_its_layers():
    metrics = run("raw-ledger", 1)["metrics"]
    for name in ("events.read_fills_s", "decompose.decompose_ledger_s",
                 "prices.build_price_series_s", "microstructure.rolling_kyle_lambda_s",
                 "traders.participation_sets_s", "cli.startup_s", "cli.manifest_s"):
        assert metrics[name]["value"] > 0, name
    assert 0 < metrics["decompose.lambda_rows_used_ratio"]["value"] < 1
    assert 0 < metrics["prices.fills_used_ratio"]["value"] < 1


def test_fails_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "raw-ledger", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
