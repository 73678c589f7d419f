"""The before/after timing harness, ``bench/draws.py``: its measurement names,
its ``--group`` selection and one timing child."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DRAWS = ROOT / "bench" / "draws.py"
_spec = importlib.util.spec_from_file_location("bench_draws", DRAWS)
draws = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(draws)


def _run_child(name, pythonpath):
    return subprocess.run([sys.executable, str(DRAWS), "--child", name], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(pythonpath)),
                          timeout=60)


def test_measurement_names_are_unique():
    names = [name for name, _ in draws._measurements()]
    assert len(names) == len(set(names)) == len(draws.MEASUREMENTS)


def test_names_of_committed_records_carry_over():
    """The rows of the committed records stay comparable with a new run's."""
    lanes = json.loads((ROOT / "BENCH_lanes.json").read_text())["metrics"]
    lazy_tags = json.loads((ROOT / "BENCH_lazy_tags.json").read_text())["metrics"]
    sampler = json.loads((ROOT / "BENCH_sampler.json").read_text())["metrics"]
    design = json.loads((ROOT / "BENCH_design.json").read_text())["metrics"]
    solve = json.loads((ROOT / "BENCH_solve.json").read_text())["metrics"]
    carried = set(lanes) | set(lazy_tags) | set(design) | set(solve) | {
        f"sampler/{name}" for name in sampler if not name.startswith("pi3_honest/")}
    assert carried == set(draws.MEASUREMENTS)


@pytest.mark.parametrize("group", draws.GROUPS)
def test_group_selects_the_names_with_its_prefix(group):
    selected = draws._select(group)
    assert selected
    assert selected == [name for name in draws.MEASUREMENTS
                        if group == "all" or name.startswith(group + "/")]


def _check_child_times(name):
    result = _run_child(name, ROOT / "src")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert list(report["us"]) == [name]
    assert math.isfinite(report["us"][name]) and report["us"][name] > 0
    assert report["numpy"] and report["scipy"]


def test_child_times_one_measurement():
    _check_child_times("read/1x(k=103)")


def test_child_times_a_design_measurement():
    _check_child_times("design/tail_upper(k=2229)")


def test_child_refuses_an_unknown_measurement():
    result = _run_child("read/2x(k=103)", ROOT / "src")
    assert result.returncode != 0
    assert "unknown measurement" in result.stderr


def test_failed_child_stops_the_run_with_its_stderr(tmp_path):
    """A side without dbvsim fails its child; the run stops naming the side,
    the commit and the measurement, with the child's error."""
    with pytest.raises(SystemExit) as stop:
        draws._time("change", "0123abc", tmp_path, "read/1x(k=103)")
    message = str(stop.value.code)
    assert "change side (0123abc)" in message and "read/1x(k=103)" in message
    assert "ModuleNotFoundError" in message
