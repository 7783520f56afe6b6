"""The benchmark's view of the package must keep working.

perfbench/spans.py looks its hooks up by module and attribute path at run
time and reports a missing one instead of failing, so a rename would silently
drop per-layer metrics. perfbench/layers.py builds a ModelConfig and calls
forward/backward itself, so a signature change would break only the
benchmark. These tests turn either into a failure.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from cotriage import training
from cotriage.features import FeatureSequence
from cotriage.model import ModelConfig, init_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_layer_bench_times_every_model_block(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    layers = importlib.import_module("layers")
    got = layers.model_block_ms()
    cells = ("full", "no_gate", "no_mhsa", "core")
    assert set(got) == {f"model.{kind}_ms.{cell}" for kind in ("fwd", "bwd") for cell in cells}
    assert all(math.isfinite(ms) and ms > 0 for ms in got.values())


def test_final_loss_goes_through_the_hooked_forward_and_backward(monkeypatch):
    """perfbench times training.forward/backward as model.forward_s/backward_s,
    so one final-loss batch must call each exactly once by those names."""
    calls = []
    for name in ("forward", "backward"):
        real = getattr(training, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(training, name, counting)
    rng = np.random.default_rng(0)
    cfg = ModelConfig(input_dim=3, hidden=4, heads=2, head_hidden=2)
    x = rng.normal(size=(4, 5, 3))
    mask = (np.arange(5)[None, :] < np.array([5, 3, 1, 4])[:, None]).astype(np.float64)
    training.batch_loss(init_params(cfg, 0), cfg, x, mask, np.array([1.0, 0.0, 1.0, 0.0]),
                        np.ones(4))
    assert calls == ["forward", "backward"]


def test_scoring_goes_through_the_hooked_forward(monkeypatch):
    """Scoring time counts as model.forward_s only if score_features calls
    training.forward by that name: once per SCORE_BATCH chunk, last_only."""
    calls = []
    real = training.forward

    def counting(*args, **kwargs):
        calls.append(kwargs.get("last_only"))
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counting)
    rng = np.random.default_rng(1)
    cfg = ModelConfig(input_dim=3, hidden=4, heads=2, head_hidden=2)
    seqs = [FeatureSequence(f"q{i}", rng.normal(size=(t, 3)), "test")
            for i, t in enumerate(rng.integers(1, 6, size=300))]
    scores = training.score_features(init_params(cfg, 0), cfg, seqs)
    assert scores.shape == (300,)
    assert calls == [True] * math.ceil(300 / training.SCORE_BATCH) == [True, True]


def test_harvest_workload_replays_its_cold_pass(monkeypatch, tmp_path):
    """One unprobed pass of the harvest benchmark: the cold pass holds what the
    fake endpoint planted, and the replays send nothing and equal it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports fake_endpoint.py and speed.py
    for var in ("NO_PROXY", "no_proxy"):  # the fake endpoint listens on 127.0.0.1
        monkeypatch.setenv(var, "127.0.0.1,localhost")
    workloads = importlib.import_module("workloads")
    with workloads.Harvest(42, tmp_path) as workload:
        workload.setup()
        it = workload.iterate(0, probe=False)
        replay_requests = workload.endpoint.requests
        quality = workload.check(it)
    assert it.problems == []
    assert quality["planted_match"] == 1.0
    assert replay_requests == 0
