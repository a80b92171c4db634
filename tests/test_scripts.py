"""Runs of ``scripts/replay_experiment.py`` on a tiny campaign."""

import importlib.util
import shlex
from pathlib import Path

import pytest

from soilgp.gp import FitConfig
from soilgp.io import write_rmse_curves, write_trajectory
from soilgp.mapping import correlation_trajectory, sequential_eval

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--samples", "3", "--restarts", "1"]
CURVES = ("method,task,k,rmse", 2 * 4 * 3)  # two methods x four tasks x three prefixes
TRAJECTORY = ("task_i,task_j,k,r", 6 * 3)  # six task pairs x three prefixes


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replay():
    return load_script(ROOT / "scripts" / "replay_experiment.py")


@pytest.mark.parametrize("outputs", [
    {"--curves": CURVES},
    {"--trajectory": TRAJECTORY},
    {"--curves": CURVES, "--trajectory": TRAJECTORY},
], ids=["curves", "trajectory", "both"])
def test_one_row_per_curve_point(replay, tmp_path, capsys, outputs):
    args = [a for flag in outputs for a in (flag, str(tmp_path / f"{flag[2:]}.csv"))]
    assert replay.main(args + TINY) == 0
    printed = capsys.readouterr().out
    for flag, (header, rows) in outputs.items():
        out = tmp_path / f"{flag[2:]}.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        assert f"wrote {out}" in printed
    assert len(list(tmp_path.iterdir())) == len(outputs)


def test_both_outputs_describe_one_campaign(replay, tmp_path):
    curves, traj = tmp_path / "curves.csv", tmp_path / "traj.csv"
    replay.main(["--curves", str(curves), "--trajectory", str(traj), "--seed", "2"] + TINY)
    dataset, truth = replay.draw_campaign(2, 3)
    assert truth.xy.shape == (20 * 20, 2)
    config = FitConfig(restarts=1, max_iters=120, seed=2)
    write_rmse_curves(tmp_path / "want_curves.csv", dataset.labels,
                      [sequential_eval(dataset, truth, m, config) for m in ("mtgp", "stgp")])
    write_trajectory(tmp_path / "want_traj.csv", dataset.labels,
                     correlation_trajectory(dataset, config))
    assert curves.read_bytes() == (tmp_path / "want_curves.csv").read_bytes()
    assert traj.read_bytes() == (tmp_path / "want_traj.csv").read_bytes()


def test_no_output_is_a_usage_error(replay, capsys):
    with pytest.raises(SystemExit) as exc:
        replay.main(TINY)
    assert exc.value.code == 2
    assert "give --curves, --trajectory or both" in capsys.readouterr().err


def test_readme_command_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Experiment scripts", 1)[1].split("```bash\n", 1)[1]
    commands = [shlex.split(line) for line in block.split("```", 1)[0].splitlines()]
    assert commands
    monkeypatch.chdir(tmp_path)
    for python, script, *args in commands:
        assert python == "python"
        assert load_script(ROOT / script).main(args + TINY) == 0
    assert any(tmp_path.iterdir())
