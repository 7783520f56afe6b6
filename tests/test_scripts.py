"""The scripts under scripts/ import cleanly against the current package.

They are not run by the rest of the suite, so a name they import that the
package no longer has would otherwise go unnoticed until someone runs them.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["run_ablation_grid", "run_synth_pipeline"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
