"""Per-layer metrics of a traced iteration, and the detector block timings.

Every metric names the spans it is built from. If one of those spans has no
installed hook (the function it wraps was renamed or removed), the metric is
reported as missing rather than as a number.

``*_s`` metrics are the summed duration of the named calls (inclusive of
anything they call); ``<layer>.self_s`` is the layer's self time on the stage
thread, so the self times of all layers plus ``trace.bench_self_s`` add up to
the wall time of the traced stages.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

from spans import LAYERS, Tracer

# detector block timings: B=64 trajectories of up to T=12 sentences, D=32 features, H=64
MICRO_SHAPE = (64, 12, 32, 64)
MICRO_CELLS = {"full": (True, True), "no_gate": (False, True), "no_mhsa": (True, False), "core": (False, False)}
MICRO_REPEATS = 15
MICRO_SEED = 0


def model_block_ms() -> dict[str, float]:
    """Best-of-N forward and backward milliseconds for each ablation cell."""
    model = importlib.import_module("cotriage.model")
    b, t, d, h = MICRO_SHAPE
    rng = np.random.default_rng(MICRO_SEED)
    x = rng.normal(size=(b, t, d))
    lengths = rng.integers(3, t + 1, size=b)
    mask = (np.arange(t)[None, :] < lengths[:, None]).astype(np.float64)
    dq = rng.normal(size=(b, t)) * mask
    out = {}
    for cell, (gate, mhsa) in MICRO_CELLS.items():
        cfg = model.ModelConfig(input_dim=d, hidden=h, heads=4, head_hidden=32,
                                use_feature_gate=gate, use_mhsa=mhsa)
        params = model.init_params(cfg, MICRO_SEED)
        fwd, bwd = math.inf, math.inf
        for _ in range(MICRO_REPEATS):
            t0 = time.perf_counter()
            _, _, cache = model.forward(params, cfg, x, mask, want_cache=True)
            t1 = time.perf_counter()
            model.backward(params, cfg, cache, dq)
            t2 = time.perf_counter()
            fwd, bwd = min(fwd, t1 - t0), min(bwd, t2 - t1)
        out[f"model.fwd_ms.{cell}"] = fwd * 1e3
        out[f"model.bwd_ms.{cell}"] = bwd * 1e3
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _epochs(tr: Tracer) -> int:
    # train scores the validation split once per epoch
    return len(tr.named("training.score_features", parent="training.train"))


# metric -> the spans whose summed duration it is, in seconds
SPAN_TOTALS = {
    "cli.manifest_s": ["cli.write_manifest"],
    "synth.generate_s": ["synth.generate"],
    "trajectory.read_s": ["trajectory.read_trajectories", "trajectory.load_questions"],
    "trajectory.write_s": ["trajectory.write_trajectories", "trajectory.write_questions"],
    "voting.read_paths_s": ["voting.read_paths"],
    "voting.run_method_s": ["voting.run_method"],
    "features.assemble_s": ["features.assemble"],
    "features.read_s": ["features.read_features", "features.read_labels"],
    "features.write_s": ["features.write_features", "features.write_labels"],
    "model.forward_s": ["model.forward"],
    "model.backward_s": ["model.backward"],
    "training.adam_s": ["training.adam_step"],
    "training.pad_batch_s": ["training.pad_batch"],
    "calibration.sweep_s": ["calibration.sweep"],
    "evaluation.build_items_s": ["evaluation.build_calibration_items"],
    "evaluation.route_outcomes_s": ["evaluation.route_outcomes"],
    "evaluation.bootstrap_s": ["evaluation.paired_bootstrap"],
    "evaluation.write_report_s": ["evaluation.write_report"],
    "harvest.post_s": ["harvest.post"],
}

_TRAIN = ["training.train", "training.score_features"]

# metric -> (unit, spans it needs, value from the tracer)
SPAN_DERIVED = {
    "jsonl.bytes_written": ("bytes", ["jsonl.write_jsonl"], lambda tr: tr.observed("jsonl.write_jsonl", "bytes")),
    "features.rows": ("count", ["features.assemble"], lambda tr: tr.observed("features.assemble", "rows")),
    "model.forward_calls": ("count", ["model.forward"], lambda tr: len(tr.named("model.forward"))),
    "training.epochs": ("count", _TRAIN, _epochs),
    "training.epoch_s": ("s", _TRAIN, lambda tr: _ratio(tr.total("training.train"), _epochs(tr))),
    "training.val_score_s": ("s", _TRAIN, lambda tr: tr.total("training.score_features", parent="training.train")),
    "training.valid_frac": ("ratio", ["training.train", "training.pad_batch"],
                            lambda tr: _ratio(tr.observed("training.pad_batch", "valid", parent="training.train"),
                                              tr.observed("training.pad_batch", "positions", parent="training.train"))),
}

# counted by the fake endpoint during the cold pass and by the replay clients;
# zero on the workloads that do not harvest
HARVEST_COUNTS = {
    "harvest.requests_per_q": ("count", lambda h: _ratio(h.get("requests", 0), h.get("questions", 0))),
    "harvest.prompt_chars_per_q": ("count", lambda h: _ratio(h.get("prompt_chars", 0), h.get("questions", 0))),
    "harvest.retries": ("count", lambda h: h.get("errors", 0)),
    "harvest.endpoint_busy_s": ("s", lambda h: h.get("busy_s", 0.0)),
    "harvest.inflight_max": ("count", lambda h: h.get("inflight_max", 0)),
    "harvest.cache_hits": ("count", lambda h: h.get("cache_hits", 0)),
}


def layer_metrics(tr: Tracer, harvest_counts: dict, micro: dict | None, overhead_s: float):
    """(metrics, missing names) of one traced iteration."""
    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for name, spans in SPAN_TOTALS.items():
        if all(n in tr.installed for n in spans):
            metrics[name] = (sum(tr.total(n) for n in spans), "s")
        else:
            missing.append(name)
    for name, (unit, spans, value) in SPAN_DERIVED.items():
        if all(n in tr.installed for n in spans):
            metrics[name] = (float(value(tr)), unit)
        else:
            missing.append(name)
    for name, (unit, value) in HARVEST_COUNTS.items():
        metrics[name] = (float(value(harvest_counts)), unit)
    for kind in ("fwd", "bwd"):
        for cell in MICRO_CELLS:
            name = f"model.{kind}_ms.{cell}"
            if micro is None:
                missing.append(name)
            else:
                metrics[name] = (micro[name], "ms")
    self_s = tr.layer_self_times()
    for layer in LAYERS:
        if any(n.startswith(layer + ".") for n in tr.installed):
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        else:
            missing.append(f"{layer}.self_s")
    metrics["trace.bench_self_s"] = (self_s["bench"], "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, missing
