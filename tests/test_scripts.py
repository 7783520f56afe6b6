"""The scripts under scripts/ import cleanly against the current package,
and the ablation grid runs end to end on a tiny corpus.

The rest of the suite does not run them, so a name they import that the
package no longer has would otherwise go unnoticed until someone runs them.
"""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_ablation_grid", "run_synth_pipeline"])
def test_script_imports(name):
    assert callable(_load(name).main)


def test_ablation_grid_writes_one_row_per_cell(tmp_path, monkeypatch, capsys):
    grid = _load("run_ablation_grid")
    monkeypatch.setattr(sys, "argv", ["run_ablation_grid.py", "--out", str(tmp_path), "--seed", "3",
                                      "--n-train", "60", "--n-val", "30", "--n-test", "30"])
    grid.main()
    with open(tmp_path / "ablation_grid.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["variant"] for row in rows] == [name for name, _, _ in grid.CELLS]
    assert list(rows[0]) == [
        "variant", "feature_gate", "attention", "epochs", "val_auc", "test_auc", "tau",
        "test_accuracy", "test_mean_tokens", "test_token_reduction",
    ]
    for row, (_, gate, mhsa) in zip(rows, grid.CELLS):
        assert (row["feature_gate"], row["attention"]) == (str(int(gate)), str(int(mhsa)))
        assert 0.0 <= float(row["test_auc"]) <= 1.0
        assert 0.0 <= float(row["test_accuracy"]) <= 1.0
    assert "wrote" in capsys.readouterr().out
