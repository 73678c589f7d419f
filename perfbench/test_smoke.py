"""Reduced-length smoke test of the benchmark (about a minute).

Every workload must print every end-to-end metric by name with its unit,
the traced run every per-layer metric, and the JSON result line must match
BENCHMARK.json.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PRINTED = ("op_ms_p50 ms", "op_ms_p90 ms", "setup_s s", "peak_rss_mb MB",
           "failed_op_share fraction")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return lines[:-1], result


def assert_metrics_match(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed_with_units(workload):
    text, result = result_of(run_bench(workload, 0))
    throughput = "points_per_s points/s" if workload == "param-design" else "trials_per_s trials/s"
    for name_unit in (throughput,) + PRINTED:
        name, unit = name_unit.split()
        pattern = rf"\s*{name} [-+0-9.e]+ {re.escape(unit)}(\s|$)"
        assert any(re.match(pattern, line) for line in text), name
    assert_metrics_match(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_per_layer_metrics():
    text, result = result_of(run_bench("brm-dense", 1))
    assert_metrics_match(result, SPEC["per_layer"])
    assert result["metrics"]["protocols.run_pi3.calls"]["value"] > 0
    assert any(line.strip().startswith("trace.overhead_share ") for line in text)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("brm-dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
