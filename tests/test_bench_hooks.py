"""Every function the benchmark tracer hooks must exist under its recorded name.

perfbench/spans.py looks its hooks up by module and attribute path at run
time and reports a missing one instead of failing, so a rename would silently
drop per-layer metrics. This test turns such a rename into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def resolves(module_name: str, attr_path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_bench_hook_resolves():
    hooks = load_hooks()
    assert hooks
    missing = [f"{module}.{attr}" for _, module, attr, _ in hooks if not resolves(module, attr)]
    assert missing == []
