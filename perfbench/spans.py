"""Spans around the public functions of each cotriage module.

Hooks are resolved when they are installed, by module and attribute name, in
the namespace where callers look the function up (``cotriage.training.forward``
is what ``train`` calls, ``cotriage.cli.assemble`` is what ``extract-features``
calls). A target that no longer exists is recorded as missing, and every
metric built on it is reported as missing instead of crashing the run.

A span records name, start, end, parent span and thread. Spans stay in memory
until the metrics are computed. A span's self time is its duration minus the
durations of its child spans; children run one after another on the parent's
thread, so they never overlap. Only spans on the thread that runs the stages
enter the self-time accounting. Spans on worker threads (the harvest scoring
pool) still count towards their function's time and call count.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "jsonl", "trajectory", "synth", "features", "model", "training",
          "calibration", "voting", "evaluation", "harvest")


def _valid_positions(args, kwargs, result):
    _, mask = result
    return {"valid": float(mask.sum()), "positions": float(mask.size)}


def _rows(args, kwargs, result):
    return {"rows": float(len(result.x))}


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": float(os.path.getsize(path))}


# (span name, module where callers look it up, attribute path, observer)
HOOKS = [
    ("cli.main", "cotriage.cli", "main", None),
    ("cli.write_manifest", "cotriage.cli", "write_manifest", None),
    ("synth.generate", "cotriage.cli", "generate", None),
    ("trajectory.read_trajectories", "cotriage.cli", "read_trajectories", None),
    ("trajectory.load_questions", "cotriage.cli", "load_questions", None),
    ("trajectory.write_trajectories", "cotriage.cli", "write_trajectories", None),
    ("trajectory.write_questions", "cotriage.cli", "write_questions", None),
    ("trajectory.segment_sentences", "cotriage.harvest", "segment_sentences", None),
    ("jsonl.write_jsonl", "cotriage.trajectory", "write_jsonl", _bytes_written),
    ("jsonl.write_jsonl", "cotriage.features", "write_jsonl", _bytes_written),
    ("jsonl.write_jsonl", "cotriage.voting", "write_jsonl", _bytes_written),
    ("jsonl.write_jsonl", "cotriage.evaluation", "write_jsonl", _bytes_written),
    ("jsonl.dumps_record", "cotriage.harvest", "dumps_record", None),
    ("features.assemble", "cotriage.cli", "assemble", _rows),
    ("features.read_features", "cotriage.cli", "read_features", None),
    ("features.read_labels", "cotriage.cli", "read_labels", None),
    ("features.write_features", "cotriage.cli", "write_features", None),
    ("features.write_labels", "cotriage.cli", "write_labels", None),
    ("model.forward", "cotriage.training", "forward", None),
    ("model.backward", "cotriage.training", "backward", None),
    ("model.init_params", "cotriage.training", "init_params", None),
    ("model.load_checkpoint", "cotriage.cli", "load_checkpoint", None),
    ("model.save_checkpoint", "cotriage.cli", "save_checkpoint", None),
    ("training.train", "cotriage.cli", "train", None),
    ("training.batch_loss", "cotriage.training", "batch_loss", None),
    ("training.adam_step", "cotriage.training", "adam_step", None),
    ("training.pad_batch", "cotriage.training", "pad_batch", _valid_positions),
    ("training.score_features", "cotriage.training", "score_features", None),
    ("training.score_features", "cotriage.cli", "score_features", None),
    ("calibration.sweep", "cotriage.cli", "sweep", None),
    ("calibration.select_threshold", "cotriage.cli", "select_threshold", None),
    ("calibration.profile_to_csv", "cotriage.cli", "profile_to_csv", None),
    ("calibration.write_selection_summary", "cotriage.cli", "write_selection_summary", None),
    ("evaluation.build_calibration_items", "cotriage.cli", "build_calibration_items", None),
    ("evaluation.route_outcomes", "cotriage.cli", "route_outcomes", None),
    ("evaluation.write_outcomes", "cotriage.cli", "write_outcomes", None),
    ("evaluation.read_outcomes", "cotriage.cli", "read_outcomes", None),
    ("evaluation.write_report", "cotriage.cli", "write_report", None),
    ("evaluation.paired_bootstrap", "cotriage.evaluation", "paired_bootstrap", None),
    ("voting.read_paths", "cotriage.cli", "read_paths", None),
    ("voting.write_paths", "cotriage.cli", "write_paths", None),
    ("voting.run_method", "cotriage.evaluation", "run_method", None),
    ("harvest.harvest_dataset", "cotriage.harvest", "harvest_dataset", None),
    ("harvest.harvest_greedy", "cotriage.harvest", "harvest_greedy", None),
    ("harvest.harvest_samples", "cotriage.harvest", "harvest_samples", None),
    ("harvest.post", "cotriage.harvest", "EndpointClient.post", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "data")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.data: dict | None = None
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions and from ``span`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(name, stack[-1] if stack else None)
        self.spans.append(sp)  # list.append is atomic, workers may append too
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    sp.data = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    tracer.missing.add(f"{name} (its result no longer has the observed shape)")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for name, module_name, attr_path, observe in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, self._wrap(name, original, observe))
            self._undo.append((owner, attr, original))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- reductions ---------------------------------------------------------

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (parent is None or (s.parent is not None and s.parent.name == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s.duration for s in self.named(name, parent))

    def observed(self, name: str, key: str, parent: str | None = None) -> float:
        return sum(s.data[key] for s in self.named(name, parent) if s.data)

    def stage_breakdown(self) -> list[dict]:
        """For each root span on the stage thread: its wall time and the self time of each layer under it."""
        mine = [s for s in self.spans if s.thread == self.main_thread]
        child_time: dict[int, float] = defaultdict(float)
        for s in mine:
            if s.parent is not None:
                child_time[id(s.parent)] += s.duration
        layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in mine:
            root = s
            while root.parent is not None:
                root = root.parent
            layer = s.name.split(".", 1)[0]
            layers[id(root)][layer if layer in LAYERS else "bench"] += s.duration - child_time[id(s)]
        return [
            {"stage": r.name, "wall_s": r.duration, "accounted_s": sum(layers[id(r)].values()),
             "self_s": dict(sorted(layers[id(r)].items()))}
            for r in mine if r.parent is None
        ]

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer, summed over the stages; ``bench`` is time outside every hook."""
        per_layer = dict.fromkeys((*LAYERS, "bench"), 0.0)
        for stage in self.stage_breakdown():
            for layer, t in stage["self_s"].items():
                per_layer[layer] += t
        return per_layer
