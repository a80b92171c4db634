"""Smoke runs of the experiment scripts in ``scripts/`` on a tiny campaign."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(("name", "header", "rows"), [
    # two methods x four tasks x three prefixes
    ("sequential_rmse_experiment", "method,task,k,rmse", 2 * 4 * 3),
    # six task pairs x three prefixes
    ("correlation_trajectory_experiment", "task_i,task_j,k,r", 6 * 3),
])
def test_script_writes_one_row_per_curve_point(tmp_path, capsys, name, header, rows):
    out = tmp_path / "out.csv"
    code = load_script(name).main(["--out", str(out), "--samples", "3", "--restarts", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert f"wrote {out}" in capsys.readouterr().out
