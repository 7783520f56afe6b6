"""Command-line pipeline: synth, harvest, extract-features, train, calibrate,
route, report.

Stages talk to each other only through files with versioned schema headers, so
any stage can be re-run in isolation. A stage's handler reads and names every
file through its Run, and main then writes a single
<subcommand>.manifest.json beside the outputs recording the resolved options,
exactly the files read and written, the schema versions and a wall-clock
stamp; reruns with the same seed produce byte-identical outputs, the manifest
timestamp aside.

Option resolution: each ``key = value`` line of the --config file becomes the
flag --key=value (a switch: its bare flag for true, nothing for false), placed
right after the subcommand, and one argparse parser reads the lot. The last
occurrence wins, so explicit flags beat the file and the file beats the
defaults, and a bad value gets its flag's own error wherever it came from.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import logging
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .calibration import (
    DEFAULT_MAX_REL_DROP,
    check_max_rel_drop,
    profile_to_csv,
    read_selection_summary,
    select_threshold,
    sweep,
    write_selection_summary,
)
from .errors import CotriageError, HarvestError
from .evaluation import (
    OUTCOMES_SCHEMA,
    REPORT_SCHEMA,
    build_calibration_items,
    check_resamples,
    read_outcomes,
    route_outcomes,
    summarize,
    write_outcomes,
    write_report,
)
from .features import (
    FEATURES_SCHEMA,
    LABELS_SCHEMA,
    LAYOUTS,
    assemble,
    linguistic_features,
    numeric_features,
    read_features,
    read_labels,
    write_features,
    write_labels,
)
from .harvest import EndpointClient, EndpointConfig, check_harvest_options, harvest_dataset
from .jsonl import first_undecodable_line, write_json
from .model import CKPT_SCHEMA, ModelConfig, check_geometry, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate
from .trajectory import (
    QUESTIONS_SCHEMA,
    TRAJ_SCHEMA,
    derive_signals,
    load_questions,
    read_trajectories,
    write_questions,
    write_trajectories,
)
from .training import TrainConfig, score_features, train, write_training_log
from .voting import METHODS, PATHS_SCHEMA, check_budget, read_paths, write_paths

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")


# --- config files -----------------------------------------------------------


# a quoted string or bare text, then an optional # comment
_VALUE = re.compile(r'\s*(?:"([^"]*)"|([^#]*?))\s*(?:#.*)?')


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value document of raw strings; # starts a comment, quotes protect strings.

    A key may appear once; a repeat is a ValueError, not a silent override.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            raise ValueError(f"config line {lineno}: sections are not supported, use flat keys")
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in first_line:
            raise ValueError(f"config line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        quoted, bare = _VALUE.fullmatch(value).groups()
        out[key] = bare if quoted is None else quoted
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = first_undecodable_line(path)
        raise ValueError(f"cannot read config file {path}: line {line} is not UTF-8: {exc.reason}") from exc
    return parse_config_text(text)


# --- manifests ---------------------------------------------------------------


class Run:
    """One stage's file access, recorded for its manifest.

    A handler passes every file it reads through reads() and names every file
    it writes through writes(), so the manifest lists exactly those files.
    extra holds the stage's own top-level manifest keys.
    """

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.extra: dict = {}

    def reads(self, path: str | Path) -> str | Path:
        self.inputs.append(str(path))
        return path

    def writes(self, name: str) -> Path:
        path = self.out_dir / name
        self.outputs.append(str(path))
        return path


@functools.cache  # the code a process runs does not change under it
def _git_revision() -> str:
    """HEAD of the checkout this package is loaded from, whatever the working directory."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_manifest(
    subcommand: str, opts: argparse.Namespace, run: Run, schemas: dict[str, str]
) -> Path:
    """Write <subcommand>.manifest.json into the run's output directory."""
    doc = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": opts.seed,
        "config": {k: v for k, v in sorted(vars(opts).items()) if k not in ("config", "subcommand")},
        "inputs": sorted(run.inputs),
        "outputs": sorted(run.outputs),
        "schemas": schemas,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_revision": _git_revision(),
        **run.extra,
    }
    path = run.out_dir / f"{subcommand}.manifest.json"
    write_json(path, doc)
    return path


# --- shared helpers -----------------------------------------------------------


def _config(cls, opts: argparse.Namespace, **given):
    """cls built from given and, for each of its other fields, the option of the same name."""
    named = {f.name: getattr(opts, f.name) for f in fields(cls) if f.name not in given}
    return cls(**named, **given)


def _load_split_features(run: Run, features_dir: str, split: str):
    fdir = Path(features_dir)
    seqs = read_features(run.reads(fdir / f"{split}.features.jsonl"))
    labels_path = run.reads(fdir / f"{split}.labels.jsonl")
    labels = read_labels(labels_path)
    ordered = []
    for seq in seqs:
        if seq.question_id not in labels:
            raise CotriageError(f"{labels_path}: no label for {seq.question_id!r}")
        ordered.append(labels[seq.question_id])
    return seqs, ordered


def _load_routing_items(opts, run: Run) -> list:
    data, split = Path(opts.data), opts.split
    trajectories = read_trajectories(run.reads(data / f"{split}.traj.jsonl"))
    qfile = run.reads(data / f"{split}.questions.jsonl")
    questions = {q.question_id: q for q in load_questions(qfile)}
    paths_by_qid = read_paths(run.reads(data / f"{split}.paths.jsonl"))
    features_path = run.reads(Path(opts.features) / f"{split}.features.jsonl")
    by_qid = {s.question_id: s for s in read_features(features_path)}
    _, p, _ = derive_signals(trajectories)
    for traj, traj_p in zip(trajectories, p):
        seq = by_qid.get(traj.question_id)
        if seq is None:
            raise CotriageError(f"{features_path}: no features for {traj.question_id!r}")
        layout = LAYOUTS[seq.layout_id]  # a row per sentence, and the trajectory's own p column
        if len(seq.x) != len(traj_p) or ("p" in layout and (seq.x[:, layout.index("p")] != traj_p).any()):
            raise CotriageError(f"features of {traj.question_id!r} do not match its trajectory: "
                                 f"{len(seq.x)} rows for {len(traj_p)} sentences, or another p column")
    params, mcfg = load_checkpoint(run.reads(opts.model))
    scores = score_features(params, mcfg, [by_qid[t.question_id] for t in trajectories])
    return build_calibration_items(
        trajectories, scores, paths_by_qid, questions, method=opts.method, budget=opts.budget
    )


# --- subcommands --------------------------------------------------------------
#
# A handler does all its file access through its Run and returns its stdout
# record, or None; main writes the manifest and prints the record.


def cmd_synth(opts, run: Run) -> None:
    sizes = {"train": opts.n_train, "val": opts.n_val, "test": opts.n_test}
    if min(sizes.values()) < 0 or max(sizes.values()) == 0:
        raise ValueError("synth: split sizes must be >= 0 and at least one must be positive")
    for offset, split in enumerate(SPLITS):
        if sizes[split] == 0:
            continue
        cfg = _config(
            SynthConfig, opts, n_questions=sizes[split], seed=opts.seed + offset,
            num_choices=opts.choices, samples_per_question=opts.samples, id_prefix=f"{split}-",
        )
        questions, trajectories, paths_by_qid = generate(cfg)
        write_questions(run.writes(f"{split}.questions.jsonl"), questions)
        write_trajectories(run.writes(f"{split}.traj.jsonl"), trajectories)
        paths = [p for qid in paths_by_qid for p in paths_by_qid[qid]]
        write_paths(run.writes(f"{split}.paths.jsonl"), paths)


def cmd_harvest(opts, run: Run) -> dict:
    client = EndpointClient(_config(EndpointConfig, opts))
    check_harvest_options(opts.n_samples, opts.temperature, opts.max_new_tokens, not opts.no_paths)
    questions = load_questions(run.reads(opts.questions))
    write_questions(run.writes(f"{opts.split}.questions.jsonl"), questions)
    harvested, failed = harvest_dataset(
        questions, client, run.writes(f"{opts.split}.traj.jsonl"),
        None if opts.no_paths else run.writes(f"{opts.split}.paths.jsonl"),
        n_samples=opts.n_samples, temperature=opts.temperature, max_new_tokens=opts.max_new_tokens,
    )
    skipped = len(questions) - harvested - failed
    return {"harvested": harvested, "failed": failed, "skipped_existing": skipped}


def cmd_extract_features(opts, run: Run) -> None:
    in_dir = Path(opts.in_dir)
    derived = []  # every split is read and checked before any file is written
    for split in SPLITS:
        traj_path = in_dir / f"{split}.traj.jsonl"
        if not traj_path.exists():
            continue
        trajectories = read_trajectories(run.reads(traj_path))
        qfile = run.reads(in_dir / f"{split}.questions.jsonl")
        questions = {q.question_id: q for q in load_questions(qfile)}
        for traj in trajectories:
            if traj.question_id not in questions:
                raise CotriageError(f"{qfile}: no question for trajectory {traj.question_id!r}")
            gold = questions[traj.question_id].gold_idx
            if None not in (traj.label, gold) and traj.label != (traj.greedy_answer == gold):
                raise CotriageError(f"{traj_path}: label of {traj.question_id!r} contradicts its "
                                    f"greedy answer {traj.greedy_answer} and gold answer {gold}")
        ordered = [questions[t.question_id] for t in trajectories]
        numeric = linguistic = [None] * len(trajectories)
        if opts.subset != "linguistic":
            numeric = numeric_features(trajectories)
        if opts.subset != "numeric":
            linguistic = linguistic_features([t.texts for t in trajectories], ordered)
        seqs = [assemble(traj, opts.subset, q, *blocks)
                for traj, q, *blocks in zip(trajectories, ordered, numeric, linguistic)]
        labels = {t.question_id: t.label for t in trajectories if t.label is not None}
        derived.append((split, seqs, labels))
    if not derived:
        raise CotriageError(f"no <split>.traj.jsonl files under {in_dir}")
    for split, seqs, labels in derived:
        write_features(run.writes(f"{split}.features.jsonl"), seqs)
        if labels:
            write_labels(run.writes(f"{split}.labels.jsonl"), labels)
    run.extra["columns"] = LAYOUTS[opts.subset]


def cmd_train(opts, run: Run) -> dict:
    tcfg = _config(TrainConfig, opts)
    check_geometry(opts.hidden, opts.heads, opts.head_hidden)
    train_seqs, train_labels = _load_split_features(run, opts.in_dir, "train")
    val_seqs, val_labels = _load_split_features(run, opts.in_dir, "val")
    if not train_seqs:
        raise CotriageError("training split is empty")
    mcfg = _config(
        ModelConfig, opts, input_dim=train_seqs[0].x.shape[1],
        use_feature_gate=not opts.no_feature_gate, use_mhsa=not opts.no_mhsa,
    )
    result = train(train_seqs, train_labels, val_seqs, val_labels, mcfg, tcfg)
    save_checkpoint(run.writes("model.ckpt"), result.params, mcfg)
    write_training_log(
        run.writes("training_log.csv"), run.writes("training_log.best.json"), result
    )
    return {"best_epoch": result.best_epoch, "best_val_auc": round(result.best_val_auc, 6)}


def cmd_calibrate(opts, run: Run) -> dict:
    check_budget(opts.budget)
    check_max_rel_drop(opts.max_rel_drop)
    items = _load_routing_items(opts, run)
    profile = sweep(items)
    tau = select_threshold(profile, max_rel_drop=opts.max_rel_drop)
    profile_to_csv(profile, run.writes("profile.csv"))
    point = write_selection_summary(
        profile, tau, run.writes("selection.json"), opts.max_rel_drop, opts.method, opts.budget
    )
    if point.token_reduction <= 0:
        log.warning("%s split, --out %s: the policy at tau %s spends at least always-multi's tokens "
                    "(token reduction %.4f)", opts.split, opts.out, tau, point.token_reduction)
    return {"selected_tau": tau, "token_reduction": point.token_reduction}


def cmd_route(opts, run: Run) -> dict:
    check_budget(opts.budget)
    if (opts.tau is None) == (opts.selection is None):
        raise ValueError("route: pass exactly one of --tau and --selection selection.json")
    if opts.tau is not None and not math.isfinite(opts.tau):
        raise ValueError(f"tau must be a finite number, got {opts.tau}")
    tau = opts.tau
    if tau is None:
        summary = read_selection_summary(run.reads(opts.selection))
        ours = {"baseline_method": opts.method, "budget": opts.budget}
        theirs = {key: summary[key] for key in ours}
        if theirs != ours:
            raise CotriageError(f"{opts.selection} was calibrated with {theirs}, not {ours}")
        tau = summary["selected_tau"]
    items = _load_routing_items(opts, run)
    outcomes = route_outcomes(items, tau)
    for name, vector in outcomes.items():
        write_outcomes(run.writes(f"outcomes.{name}.jsonl"), vector)
    policy = summarize(outcomes["policy"])
    n = len(outcomes["policy"])
    return {"tau": tau, "n": n, "accuracy": policy.accuracy, "mean_tokens": policy.mean_tokens}


def cmd_report(opts, run: Run) -> None:
    check_resamples(opts.resamples)
    in_dir = Path(opts.in_dir)
    inputs = sorted(in_dir.glob("outcomes.*.jsonl"))
    if not inputs:
        raise CotriageError(f"no outcomes.*.jsonl files under {in_dir}")
    methods = {
        path.name.removeprefix("outcomes.").removesuffix(".jsonl"): read_outcomes(run.reads(path))
        for path in inputs
    }
    write_report(
        methods, run.writes("summary.csv"), run.writes("significance.csv"),
        run.writes("outcomes.csv"), seed=opts.seed, resamples=opts.resamples,
    )


# --- option table -------------------------------------------------------------

# One row per option: (name, type, default, help). A bool row is a store-true
# flag and a tuple row lists the allowed choices; a default of ... marks a
# required option. The flag is the name with dashes, except in_dir is --in.
_COMMON = (
    ("config", str, None, "flat key = value option file"),
    ("seed", int, 0, "master seed for all randomness"),
)

_ROUTING = (
    ("data", str, ..., "directory with <split>.{questions,traj,paths}.jsonl"),
    ("features", str, ..., "directory from extract-features"),
    ("model", str, ..., "checkpoint file"),
    ("out", str, ..., "output directory"),
    ("method", METHODS, "sc", "voting method of the multi-path route"),
    ("budget", int, 10, "sampled paths consumed per escalation"),
)

_SPLIT_SCHEMAS = {"questions": QUESTIONS_SCHEMA, "traj": TRAJ_SCHEMA, "paths": PATHS_SCHEMA}

# One row per stage: (help, option rows, handler, the schemas of the files the
# stage writes).
COMMANDS: dict[str, tuple] = {
    "synth": ("generate a planted-signal synthetic dataset in three splits", (
        ("out", str, ..., "output directory"),
        ("n_train", int, 500, "questions in the train split"),
        ("n_val", int, 200, "questions in the val split"),
        ("n_test", int, 500, "questions in the test split"),
        ("beta", float, SynthConfig.beta, "planted signal strength in [0, 1]"),
        ("choices", int, SynthConfig.num_choices, "options per question"),
        ("base_rate", float, SynthConfig.base_rate, "fraction of questions whose greedy answer is correct"),
        ("samples", int, SynthConfig.samples_per_question, "sampled paths per question"),
        ("t_min", int, SynthConfig.t_min, "fewest sentences per trajectory"),
        ("t_max", int, SynthConfig.t_max, "most sentences per trajectory"),
    ), cmd_synth, _SPLIT_SCHEMAS),
    "harvest": ("harvest trajectories and sampled paths from an endpoint", (
        ("questions", str, ..., "questions jsonl file"),
        ("out", str, ..., "output directory"),
        ("split", str, "train", "split name used in output file names"),
        ("base_url", str, ..., "endpoint base url, e.g. http://localhost:8000/v1"),
        ("model", str, ..., "endpoint model name"),
        ("n_samples", int, 10, "sampled paths per question"),
        ("temperature", float, 1.0, "sampling temperature of the sampled paths"),
        ("max_new_tokens", int, 1024, "generation limit per request"),
        ("cache_dir", str, EndpointConfig.cache_dir, "response cache directory"),
        ("api_key_env", str, EndpointConfig.api_key_env, "environment variable holding the API key"),
        ("timeout", float, EndpointConfig.timeout, "seconds per HTTP request"),
        ("max_in_flight", int, EndpointConfig.max_in_flight, "concurrent sampled-generation requests per question"),
        ("max_retries", int, EndpointConfig.max_retries, "retries of a failed request"),
        ("backoff", float, EndpointConfig.backoff, "first retry delay in seconds, doubled per retry"),
        ("no_paths", bool, False, "skip sampled paths"),
    ), cmd_harvest, _SPLIT_SCHEMAS),
    "extract-features": ("turn trajectories into padded feature sequences", (
        ("in_dir", str, ..., "directory with <split>.traj.jsonl files"),
        ("out", str, ..., "output directory"),
        ("subset", tuple(LAYOUTS), "full", "feature columns to keep"),
    ), cmd_extract_features, {"features": FEATURES_SCHEMA, "labels": LABELS_SCHEMA}),
    "train": ("train the escalation detector on extracted features", (
        ("in_dir", str, ..., "directory from extract-features"),
        ("out", str, ..., "output directory for checkpoint and log"),
        ("hidden", int, ModelConfig.hidden, "GRU and attention width"),
        ("heads", int, ModelConfig.heads, "attention heads"),
        ("head_hidden", int, ModelConfig.head_hidden, "hidden width of the scoring head"),
        ("no_feature_gate", bool, False, "drop the channel gate"),
        ("no_mhsa", bool, False, "drop the self-attention block"),
        ("lr", float, TrainConfig.lr, "Adam learning rate"),
        ("batch_size", int, TrainConfig.batch_size, "trajectories per batch"),
        ("max_epochs", int, TrainConfig.max_epochs, "epoch limit"),
        ("patience", int, TrainConfig.patience, "epochs without val AUC gain before stopping"),
    ), cmd_train, {"checkpoint": CKPT_SCHEMA}),
    "calibrate": ("sweep the acceptance threshold on a validation split", _ROUTING + (
        ("split", str, "val", "split name"),
        ("max_rel_drop", float, DEFAULT_MAX_REL_DROP, "allowed relative accuracy drop from the best"),
    ), cmd_calibrate, {"profile": REPORT_SCHEMA}),
    "route": ("apply a threshold to a split and write outcome files", _ROUTING + (
        ("split", str, "test", "split name"),
        ("tau", float, None, "acceptance threshold (exclusive with --selection)"),
        ("selection", str, None, "selection.json from calibrate (exclusive with --tau)"),
    ), cmd_route, {"outcomes": OUTCOMES_SCHEMA}),
    "report": ("summary, significance and outcome tables for a routed run", (
        ("in_dir", str, ..., "directory with outcomes.*.jsonl"),
        ("out", str, ..., "output directory"),
        ("resamples", int, 2000, "bootstrap resamples"),
    ), cmd_report, {"report": REPORT_SCHEMA}),
}


def _flag(name: str) -> str:
    return "--in" if name == "in_dir" else "--" + name.replace("_", "-")


def resolve_options(argv: list[str] | None = None) -> argparse.Namespace:
    """argv parsed with the --config file's options as flags before it (see the module docstring)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    opts = parser.parse_args(argv)
    rows = _COMMON + COMMANDS[opts.subcommand][1]
    if opts.config is not None:
        file_opts = load_config(opts.config)
        kinds = {name: kind for name, kind, _, _ in rows if name != "config"}  # no nested files
        unknown = sorted(set(file_opts) - set(kinds))
        if unknown:
            raise ValueError(f"unknown config keys for {opts.subcommand}: {', '.join(unknown)}")
        flags = []
        for name, raw in file_opts.items():
            if kinds[name] is not bool or raw.lower() not in ("true", "false"):
                flags.append(f"{_flag(name)}={raw}")  # the = form keeps a value starting with - a value
            elif raw.lower() == "true":
                flags.append(_flag(name))
        at = argv.index(opts.subcommand) + 1
        opts = parser.parse_args(argv[:at] + flags + argv[at:])
    for name, _, default, _ in rows:
        if default is ... and getattr(opts, name) is None:
            raise ValueError(f"{opts.subcommand}: {_flag(name)} is required (flag or config file)")
    return opts


# --- parser -------------------------------------------------------------------


@functools.cache  # parse_args keeps no state; handlers are looked up in COMMANDS per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotriage",
        description="Decide per question whether a greedy chain of thought is "
        "trustworthy or must escalate to multi-path voting.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, rows, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt, kind, default, opt_help in _COMMON + rows:
            if kind is bool:
                kwargs = {"action": "store_true"}
            elif isinstance(kind, tuple):
                kwargs = {"choices": kind}
            else:
                kwargs = {"type": kind}
            p.add_argument(_flag(opt), dest=opt, default=None if default is ... else default,
                           help=opt_help, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        opts = resolve_options(argv)
        _, _, handler, schemas = COMMANDS[opts.subcommand]
        run = Run(opts.out)
        record = handler(opts, run)
        write_manifest(opts.subcommand, opts, run, schemas)
        if record is not None:
            print(json.dumps(record))
        return EXIT_OK
    except HarvestError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except (CotriageError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse's own error or --help/--version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
