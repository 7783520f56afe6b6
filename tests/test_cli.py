"""CLI pipeline tests: option resolution, exit codes, determinism, manifests.

Subcommands run in-process through main() so coverage and monkeypatching
work; the harvest test swaps the default HTTP transport for the fake endpoint
defined in test_harvest.
"""

import argparse
import base64
import dataclasses
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import requests

import cotriage
import cotriage.cli as cli
import cotriage.errors as errors
import cotriage.harvest as harvest_mod
from cotriage.cli import (
    EXIT_DATA,
    EXIT_ENDPOINT,
    EXIT_OK,
    EXIT_USAGE,
    Run,
    build_parser,
    main,
    parse_config_text,
    resolve_options,
    write_manifest,
)
from cotriage.evaluation import OutcomeVector, write_outcomes
from cotriage.features import LAYOUTS
from cotriage.harvest import EndpointConfig
from cotriage.model import CKPT_SCHEMA, ModelConfig, init_params, save_checkpoint
from cotriage.synth import SynthConfig
from cotriage.training import TrainConfig
from cotriage.trajectory import load_questions, write_questions
from test_harvest import Q1, Q2, make_fake


README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def option_names(stage: str) -> set[str]:
    """The keys a config file for stage may set: the common options and the stage's rows."""
    return {"config", "seed"} | {name for name, *_ in cli.COMMANDS[stage][1]}


def snapshot(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def manifest_without_timestamp(raw: bytes) -> dict:
    doc = json.loads(raw)
    doc.pop("created_at")
    return doc


def pipeline(base: Path, seed: int = 11):
    d, f, m, c, r, rep = (base / name for name in ("d", "f", "m", "c", "r", "rep"))
    steps = [
        ["synth", "--seed", seed, "--out", d, "--n-train", 48, "--n-val", 24,
         "--n-test", 32, "--samples", 5],
        ["extract-features", "--in", d, "--out", f],
        ["train", "--in", f, "--out", m, "--hidden", 8, "--heads", 2,
         "--max-epochs", 3, "--patience", 2, "--batch-size", 32, "--seed", seed],
        ["calibrate", "--data", d, "--features", f, "--model", m / "model.ckpt",
         "--out", c, "--budget", 5, "--seed", seed],
        ["route", "--data", d, "--features", f, "--model", m / "model.ckpt",
         "--selection", c / "selection.json", "--out", r, "--budget", 5, "--seed", seed],
        ["report", "--in", r, "--out", rep, "--resamples", 60, "--seed", seed],
    ]
    for argv in steps:
        assert run(*argv) == EXIT_OK, f"step failed: {argv[0]}"


def test_pipeline_reruns_byte_identically(tmp_path):
    base = tmp_path / "run"
    pipeline(base)
    before = snapshot(base)
    pipeline(base)
    after = snapshot(base)
    assert set(before) == set(after)
    for name in before:
        if name.endswith(".manifest.json"):
            assert manifest_without_timestamp(before[name]) == manifest_without_timestamp(
                after[name]
            ), name
        else:
            assert before[name] == after[name], f"{name} changed between reruns"


def test_each_manifest_lists_exactly_the_files_its_stage_read_and_wrote(tmp_path):
    base = tmp_path / "run"
    pipeline(base)
    for out in sorted(p for p in base.iterdir() if p.is_dir()):
        [manifest] = out.glob("*.manifest.json")
        doc = json.loads(manifest.read_text())
        written = sorted(str(p) for p in out.iterdir() if p != manifest)
        assert doc["outputs"] == written, manifest.name
        assert all(Path(p).is_file() for p in doc["inputs"]), manifest.name


def test_manifest_records_resolved_run(tmp_path):
    out = tmp_path / "d"
    assert run("synth", "--seed", 5, "--out", out, "--n-train", 10, "--n-val", 4,
               "--n-test", 6, "--samples", 3) == EXIT_OK
    doc = json.loads((out / "synth.manifest.json").read_text())
    assert doc["subcommand"] == "synth"
    assert doc["seed"] == 5
    assert doc["config"]["n_train"] == 10
    assert doc["schemas"] == {"paths": "paths/1", "questions": "questions/1", "traj": "traj/1"}
    assert "created_at" in doc and "git_revision" in doc
    for path in doc["outputs"]:
        assert Path(path).is_file()
    assert (out / "train.questions.jsonl").is_file()
    assert len(load_questions(out / "val.questions.jsonl")) == 4


def test_manifest_git_revision_is_the_package_checkout(tmp_path, monkeypatch):
    pkg_dir = Path(cotriage.__file__).resolve().parent
    try:
        head = subprocess.run(["git", "-C", str(pkg_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git is not available")
    if head.returncode != 0:
        pytest.skip("the package is not loaded from a git checkout")
    monkeypatch.chdir(tmp_path)
    path = write_manifest("synth", argparse.Namespace(seed=0), Run(tmp_path), {})
    assert json.loads(path.read_text())["git_revision"] == head.stdout.strip()


def test_route_at_tau_zero_equals_greedy(tmp_path):
    base = tmp_path / "run"
    pipeline(base, seed=4)
    d, f, m = base / "d", base / "f", base / "m"
    r0 = tmp_path / "r0"
    assert run("route", "--data", d, "--features", f, "--model", m / "model.ckpt",
               "--tau", 0, "--out", r0, "--budget", 5) == EXIT_OK
    policy = (r0 / "outcomes.policy.jsonl").read_bytes()
    greedy = (r0 / "outcomes.greedy.jsonl").read_bytes()
    assert policy == greedy


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "# synthetic data options\n"
        "n-train = 12\n"
        "n_val = 9\n"
        "samples = 3   # per question\n"
        'base_rate = 0.75\n'
        "n_test = 5\n"
    )
    out = tmp_path / "d"
    assert run("synth", "--config", cfg, "--out", out, "--n-val", 7, "--seed", 2) == EXIT_OK
    assert len(load_questions(out / "train.questions.jsonl")) == 12
    assert len(load_questions(out / "val.questions.jsonl")) == 7
    assert len(load_questions(out / "test.questions.jsonl")) == 5
    doc = json.loads((out / "synth.manifest.json").read_text())
    assert doc["config"]["base_rate"] == 0.75
    assert doc["config"]["n_val"] == 7


def test_config_rejects_unknown_keys_and_sections(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("typo_key = 1\n")
    assert run("synth", "--config", bad, "--out", tmp_path / "x") == EXIT_USAGE
    assert "typo_key" in capsys.readouterr().err

    sectioned = tmp_path / "sec.cfg"
    sectioned.write_text("[synth]\nn_train = 3\n")
    assert run("synth", "--config", sectioned, "--out", tmp_path / "x") == EXIT_USAGE

    malformed = tmp_path / "mal.cfg"
    malformed.write_text("just a line\n")
    assert run("synth", "--config", malformed, "--out", tmp_path / "x") == EXIT_USAGE

    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config = {bad}\n")
    assert run("synth", "--config", nested, "--out", tmp_path / "x", "--n-train", 2,
               "--n-val", 0, "--n-test", 0) == EXIT_USAGE
    assert "unknown config keys for synth: config" in capsys.readouterr().err

    bad_choice = tmp_path / "choice.cfg"
    bad_choice.write_text('subset = "all"\n')
    assert run("extract-features", "--config", bad_choice, "--in", tmp_path,
               "--out", tmp_path / "f") == EXIT_USAGE
    assert "argument --subset: invalid choice: 'all'" in capsys.readouterr().err

    deleted = tmp_path / "deleted.cfg"
    deleted.write_text('loss_variant = "final"\n')
    assert run("train", "--config", deleted, "--in", tmp_path, "--out", tmp_path / "m") == EXIT_USAGE
    assert "unknown config keys for train: loss_variant" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"n_train = 3\n\xff\n")
    out = tmp_path / "x"
    assert run("synth", "--config", bad, "--out", out) == EXIT_USAGE
    assert f"cannot read config file {bad}: line 2 is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_take_their_option_types(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text('no_mhsa = "false"\nno_feature_gate = TRUE\nlr = 1\nhidden = "16"\n')
    opts = resolve_options(["train", "--config", str(cfg), "--in", "f", "--out", "m"])
    assert opts.no_mhsa is False
    assert opts.no_feature_gate is True
    assert opts.lr == 1.0 and isinstance(opts.lr, float)
    assert opts.hidden == 16


@pytest.mark.parametrize("subcommand, line, message", [
    ("calibrate", 'budget = "ten"', "argument --budget: invalid int value: 'ten'"),
    ("train", "max_epochs = 1.5", "argument --max-epochs: invalid int value: '1.5'"),
    ("train", "lr = fast", "argument --lr: invalid float value: 'fast'"),
    ("train", "no_mhsa = yes", "argument --no-mhsa: ignored explicit argument 'yes'"),
])
def test_config_value_that_does_not_convert_is_a_usage_error(tmp_path, capsys, subcommand,
                                                              line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    required = {
        "calibrate": ["--data", tmp_path, "--features", tmp_path, "--model", tmp_path / "m.ckpt",
                      "--out", tmp_path / "c"],
        "train": ["--in", tmp_path, "--out", tmp_path / "m"],
    }[subcommand]
    assert run(subcommand, "--config", cfg, *required) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_bad_value_gets_the_same_error_from_the_file_as_from_the_flag(tmp_path, capsys):
    stages = {
        "calibrate": ["--data", tmp_path, "--features", tmp_path, "--model", tmp_path / "m.ckpt",
                      "--out", tmp_path / "c"],
        "train": ["--in", tmp_path, "--out", tmp_path / "m"],
        "extract-features": ["--in", tmp_path, "--out", tmp_path / "f"],
    }
    cases = [("calibrate", 'budget = "ten"'), ("train", "max_epochs = 1.5"), ("train", "lr = fast"),
             ("extract-features", 'subset = "all"')]
    cfg = tmp_path / "bad.cfg"
    for stage, line in cases:
        cfg.write_text(line + "\n")
        ((name, value),) = parse_config_text(line).items()
        flag = "--" + name.replace("_", "-")
        assert run(stage, "--config", cfg, *stages[stage]) == EXIT_USAGE
        from_file = capsys.readouterr().err.splitlines()[-1]
        assert run(stage, *stages[stage], flag, value) == EXIT_USAGE
        from_flag = capsys.readouterr().err.splitlines()[-1]
        assert from_file == from_flag, line
        assert f"argument {flag}: invalid" in from_file
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]  # no stage wrote anything


def test_every_readme_command_parses():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cotriage ")]
    assert len(commands) >= 7, commands  # the six quick-start stages and harvest
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit as exc:
            pytest.fail(f"README command does not parse (exit {exc.code}): {command}")


def test_parse_config_text_coercion():
    doc = parse_config_text(
        'name = "quoted # kept"\n'
        'method = "sc"   # trailing comment\n'
        "flag = true\n"
        "other = FALSE\n"
        "count = 40\n"
        "rate = 2.5e-1\n"
        "word = bare\n"
        "\n"
        "# comment only\n"
    )
    assert doc == {
        "name": "quoted # kept",
        "method": "sc",
        "flag": "true",
        "other": "FALSE",
        "count": "40",
        "rate": "2.5e-1",
        "word": "bare",
    }
    with pytest.raises(ValueError):
        parse_config_text("broken line")
    with pytest.raises(ValueError, match="line 3: n_train is already set on line 1"):
        parse_config_text("n_train = 3\n# again\nn-train = 5\n")


def test_usage_exit_codes(tmp_path, capsys):
    assert run("not-a-subcommand") == EXIT_USAGE
    assert run("synth", "--no-such-flag") == EXIT_USAGE
    assert run("synth") == EXIT_USAGE
    assert "--out" in capsys.readouterr().err
    assert run("route", "--data", tmp_path, "--features", tmp_path,
               "--model", tmp_path / "m.ckpt", "--out", tmp_path / "r") == EXIT_USAGE
    assert "--tau" in capsys.readouterr().err
    assert run("route", "--data", tmp_path, "--features", tmp_path,
               "--model", tmp_path / "m.ckpt", "--out", tmp_path / "r",
               "--tau", 0.5, "--selection", tmp_path / "s.json") == EXIT_USAGE
    assert "exactly one of --tau and --selection" in capsys.readouterr().err
    empty = tmp_path / "empty"
    for sizes in ((0, 0, 0), (4, -1, 4)):
        assert run("synth", "--out", empty, "--n-train", sizes[0], "--n-val", sizes[1],
                   "--n-test", sizes[2]) == EXIT_USAGE, sizes
        assert "split sizes" in capsys.readouterr().err
    assert not empty.exists()
    assert run("--version") == EXIT_OK


def test_data_error_exit_codes(tmp_path, capsys):
    assert run("route", "--data", tmp_path, "--features", tmp_path,
               "--model", tmp_path / "m.ckpt", "--out", tmp_path / "r",
               "--selection", tmp_path / "missing.json") == EXIT_DATA

    corrupt_dir = tmp_path / "corrupt"
    corrupt_dir.mkdir()
    (corrupt_dir / "outcomes.x.jsonl").write_text('{"schema": "wrong/9"}\n{"question_id": "a"}\n')
    assert run("report", "--in", corrupt_dir, "--out", tmp_path / "rep") == EXIT_DATA
    assert "data error" in capsys.readouterr().err

    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    assert run("report", "--in", empty_dir, "--out", tmp_path / "rep") == EXIT_DATA
    assert run("extract-features", "--in", empty_dir, "--out", tmp_path / "f") == EXIT_DATA

    selection = tmp_path / "selection.json"
    for text in ("{}", "not json", "[0.5]", '{"selected_tau": "0.5"}', '{"selected_tau": true}',
                 '{"selected_tau": NaN}', '{"selected_tau": -Infinity}', '{"selected_tau": 0.5}',
                 '{"selected_tau": 0.5, "baseline_method": 1, "budget": 10}',
                 '{"selected_tau": 0.5, "baseline_method": "sc", "budget": "10"}',
                 '{"selected_tau": 0.5, "baseline_method": "sc", "budget": true}',
                 '{"selected_tau": 0.5, "baseline_method": "sc", "sunk_greedy": true}'):
        selection.write_text(text)
        assert run("route", "--data", tmp_path, "--features", tmp_path,
                   "--model", tmp_path / "m.ckpt", "--out", tmp_path / "r",
                   "--selection", selection) == EXIT_DATA, text
        assert "bad selection summary" in capsys.readouterr().err

    run_dir = tmp_path / "run"
    assert run("synth", "--seed", 1, "--out", run_dir / "d", "--n-train", 4, "--n-val", 4,
               "--n-test", 0, "--samples", 2) == EXIT_OK
    assert run("extract-features", "--in", run_dir / "d", "--out", run_dir / "f") == EXIT_OK
    cfg = ModelConfig(input_dim=32, hidden=8, heads=2, head_hidden=4)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(cfg, 0), cfg)
    good = json.loads(ckpt.read_text())
    unknown_key = dict(good, config=dict(good["config"], dropout=0.1))
    short_tensor = json.loads(json.dumps(good))
    short_tensor["tensors"]["gru.b_hn"]["data"] = "AAAAAAAAAAA="
    float_width = dict(good, config=dict(good["config"], hidden=8.0))
    string_flag = dict(good, config=dict(good["config"], use_mhsa="false"))
    capsys.readouterr()
    for text in ("not json", json.dumps({"schema": CKPT_SCHEMA}), json.dumps(unknown_key),
                 json.dumps(short_tensor), json.dumps(float_width), json.dumps(string_flag)):
        ckpt.write_text(text)
        assert run("calibrate", "--data", run_dir / "d", "--features", run_dir / "f",
                   "--model", ckpt, "--out", tmp_path / "c", "--budget", 2) == EXIT_DATA, text
        assert "bad checkpoint" in capsys.readouterr().err
    ckpt.write_text(json.dumps(dict(good, schema="ckpt/1")))
    assert run("calibrate", "--data", run_dir / "d", "--features", run_dir / "f",
               "--model", ckpt, "--out", tmp_path / "c", "--budget", 2) == EXIT_DATA
    assert f"expected schema {CKPT_SCHEMA!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, name, message",
    [("route", "d/test.traj.jsonl", "test.traj.jsonl is not UTF-8 text: invalid start byte"),
     ("route", "f/test.features.jsonl", "test.features.jsonl is not UTF-8 text: invalid start byte"),
     ("calibrate", "m/model.ckpt", "bad checkpoint")],
    ids=["traj", "features", "checkpoint"],
)
def test_file_that_is_not_utf8_exits_2_naming_it(routed_run, tmp_path, capsys, stage, name,
                                                  message):
    base = tmp_path / "run"
    for sub in ("d", "f", "m"):
        shutil.copytree(routed_run / sub, base / sub)
    path = base / name
    last_line = len(path.read_bytes().splitlines())
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(stage, *_stage_argv(stage, base, tmp_path / "unused"), "--out", out) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err, err
    assert (f"line {last_line + 1}: " if name.endswith(".jsonl") else "UnicodeDecodeError") in err
    assert not out.exists()


def test_multi_path_route_costing_nothing_exits_2_writing_no_output(routed_run, tmp_path, capsys):
    base = tmp_path / "run"
    shutil.copytree(routed_run / "d", base / "d")
    paths = base / "d" / "val.paths.jsonl"
    lines = paths.read_text().splitlines(keepends=True)
    paths.write_text(lines[0] + "".join(re.sub(r'"token_cost":\d+', '"token_cost":0', line)
                                        for line in lines[1:]))
    argv = [*_stage_argv("calibrate", routed_run, tmp_path / "unused"), "--data", base / "d"]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("calibrate", *argv, "--out", out) == EXIT_DATA
    assert "every multi-path route costs 0 tokens" in capsys.readouterr().err
    assert not out.exists()


def test_each_error_class_has_one_exit_code(tmp_path, monkeypatch, capsys):
    assert sorted(n for n, v in vars(errors).items()
                  if isinstance(v, type) and v.__module__ == errors.__name__) == [
        "CotriageError", "HarvestError", "ParseError"]
    for cls, code in ((errors.CotriageError, EXIT_DATA), (errors.ParseError, EXIT_DATA),
                      (errors.HarvestError, EXIT_ENDPOINT)):
        def handler(*_, cls=cls):
            raise cls("boom")
        monkeypatch.setitem(cli.COMMANDS, "report", (*cli.COMMANDS["report"][:2], handler,
                                                     cli.COMMANDS["report"][3]))
        assert run("report", "--in", tmp_path, "--out", tmp_path / "rep") == code, cls
        assert "error: boom" in capsys.readouterr().err


def _edit_record(path: Path, lineno: int, edit) -> None:
    """Apply edit to the JSON record on 1-based line lineno of a JSONL file."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec)
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _rows(rec) -> np.ndarray:
    """A writable copy of a features/2 record's (T, D) matrix."""
    return np.frombuffer(base64.b64decode(rec["rows"]), "<f8").reshape(rec["shape"]).copy()


def _set_rows(rec, x: np.ndarray) -> None:
    """Store x in a features/2 record as the writer would."""
    rec["shape"], rec["rows"] = list(x.shape), base64.b64encode(x.tobytes()).decode("ascii")


def _drop_sentences(rec):
    rec["sentences"] = []


def _answer_nine(rec):
    rec["greedy_answer"] = 9


def _stale_p(rec):
    rec["sentences"][1]["p"] += 0.1


def _nan_row(rec):
    x = _rows(rec)
    x[0, 0] = np.nan
    _set_rows(rec, x)


def _string_log_scores(rec):
    rec["sentences"][0]["log_scores"] = [str(v) for v in rec["sentences"][0]["log_scores"]]


def _fractional_prefix_len(rec):
    rec["sentences"][0]["prefix_len"] = 3.7


def _string_options(rec):
    rec["options"] = "abcd"


def _int_option(rec):
    rec["options"][1] = 2


def _string_label(rec):
    rec["label"] = "false"


def _bogus_layout(rec):
    rec["layout_id"] = "bogus"
    _set_rows(rec, _rows(rec)[:, :5])


def _numeric_layout(rec):
    rec["layout_id"] = "numeric"
    _set_rows(rec, _rows(rec)[:, :12])


def _narrow_rows(rec):
    _set_rows(rec, _rows(rec)[:, :5])


def _true_prefix_len(rec):
    rec["sentences"][0]["prefix_len"] = True


def _true_log_score(rec):
    rec["sentences"][1]["log_scores"][0] = True


def _true_feature(rec):
    rec["rows"] = True


@pytest.mark.parametrize(
    "stage, name, edit, message",
    [
        ("extract-features", "train.traj.jsonl", _drop_sentences, "no sentences"),
        ("extract-features", "train.traj.jsonl", _answer_nine, "greedy_answer out of range"),
        ("extract-features", "train.traj.jsonl", _stale_p, "p/entropy disagree"),
        ("train", "train.features.jsonl", _nan_row, "NaN or infinity"),
        ("train", "train.features.jsonl", None, "duplicate features/2 key"),
        ("extract-features", "train.traj.jsonl", _string_log_scores, "need float64 values"),
        ("extract-features", "train.traj.jsonl", _fractional_prefix_len, "need int64 values"),
        ("extract-features", "train.questions.jsonl", _string_options, "options must be list"),
        ("extract-features", "train.questions.jsonl", _int_option, "options must be strings"),
        ("train", "train.labels.jsonl", _string_label, "label must be bool"),
        ("train", "train.features.jsonl", _bogus_layout, "unknown layout_id 'bogus'"),
        ("train", "train.features.jsonl", _numeric_layout, "differs from the file's 'full'"),
        ("train", "train.features.jsonl", _narrow_rows, "5 columns, layout 'full' has 32"),
        ("extract-features", "train.traj.jsonl", _true_prefix_len, "need int64 values, got a boolean"),
        ("extract-features", "train.traj.jsonl", _true_log_score, "need float64 values, got a boolean"),
        ("train", "train.features.jsonl", _true_feature, "rows must be str, not True"),
    ],
    ids=["traj_no_sentences", "traj_answer_9_of_4", "traj_stale_p", "features_nan",
         "features_duplicate", "traj_string_log_scores", "traj_prefix_len_3_7",
         "questions_options_string", "questions_option_2", "labels_string_false",
         "features_bogus_layout", "features_numeric_in_full", "features_5_of_32_columns",
         "traj_prefix_len_true", "traj_log_score_true", "features_row_true"],
)
def test_record_failing_the_writers_checks_exits_2_naming_its_line(
    tmp_path, capsys, stage, name, edit, message
):
    d, f = tmp_path / "d", tmp_path / "f"
    assert run("synth", "--seed", 2, "--out", d, "--n-train", 4, "--n-val", 4,
               "--n-test", 0, "--samples", 2) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    target = d / name if (d / name).exists() else f / name
    if edit is None:  # repeat the first record as line 6
        with open(target, "a") as fh:
            fh.write(target.read_text().splitlines()[1] + "\n")
        bad_line = 6
    else:
        _edit_record(target, 3, edit)
        bad_line = 3
    capsys.readouterr()
    if stage == "extract-features":
        code = run(stage, "--in", d, "--out", tmp_path / "f2")
    else:
        code = run(stage, "--in", f, "--out", tmp_path / "m", "--max-epochs", 1)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {bad_line}:" in err and message in err, err


@pytest.mark.parametrize(
    "field, value, message",
    [("correct", "no", "correct must be bool"), ("tokens", 12.9, "tokens must be int"),
     ("tokens", -5, "tokens must be >= 0, not -5")],
    ids=["correct_no", "tokens_12_9", "tokens_-5"],
)
def test_outcomes_field_of_the_wrong_type_exits_2_naming_its_line(
    tmp_path, capsys, field, value, message
):
    r = tmp_path / "r"
    path = r / "outcomes.policy.jsonl"
    write_outcomes(path, OutcomeVector(["a", "b"], [True, False], [10, 20]))
    _edit_record(path, 3, lambda rec: rec.update({field: value}))
    capsys.readouterr()
    assert run("report", "--in", r, "--out", tmp_path / "rep", "--resamples", 20) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 3:" in err and message in err, err


def test_features_1_file_exits_2_naming_the_expected_schema(tmp_path, capsys):
    d, f = tmp_path / "d", tmp_path / "f"
    assert run("synth", "--seed", 2, "--out", d, "--n-train", 4, "--n-val", 4,
               "--n-test", 0, "--samples", 2) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    path = f / "train.features.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    old = [{"question_id": rec["question_id"], "mask_len": rec["shape"][0],
            "layout_id": rec["layout_id"], "rows": _rows(rec).tolist()} for rec in records]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in [{"schema": "features/1"}, *old]))
    capsys.readouterr()
    assert run("train", "--in", f, "--out", tmp_path / "m", "--max-epochs", 1) == EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1: expected schema 'features/2', got 'features/1'" in err, err
    assert not (tmp_path / "m" / "model.ckpt").exists()


def test_extract_features_manifest_records_the_layout_columns(tmp_path):
    d, f = tmp_path / "d", tmp_path / "f"
    assert run("synth", "--seed", 1, "--out", d, "--n-train", 3, "--n-val", 0,
               "--n-test", 0, "--samples", 2) == EXIT_OK
    for subset, columns in LAYOUTS.items():
        assert run("extract-features", "--in", d, "--out", f / subset,
                   "--subset", subset) == EXIT_OK
        doc = json.loads((f / subset / "extract-features.manifest.json").read_text())
        assert doc["columns"] == columns
        assert doc["schemas"] == {"features": "features/2", "labels": "labels/1"}
        assert sorted(p.name for p in (f / subset).iterdir()) == [
            "extract-features.manifest.json", "train.features.jsonl", "train.labels.jsonl"
        ]


def test_report_names_each_method_by_its_whole_file_stem(tmp_path):
    r = tmp_path / "r"
    for method, tokens in (("policy", 10), ("policy.v2", 20)):
        write_outcomes(r / f"outcomes.{method}.jsonl",
                       OutcomeVector(["a", "b"], [True, False], [tokens, tokens]))
    assert run("report", "--in", r, "--out", tmp_path / "rep", "--resamples", 20) == EXIT_OK
    rows = (tmp_path / "rep" / "summary.csv").read_text().splitlines()[2:]
    assert [row.split(",")[:4] for row in rows] == [
        ["policy", "2", "0.5", "10.0"],
        ["policy.v2", "2", "0.5", "20.0"],
    ]


@pytest.fixture(scope="module")
def routed_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("routed")
    pipeline(base)
    return base


def _stage_argv(stage: str, base: Path, qfile: Path) -> list:
    d, f, m, c, r = (base / name for name in ("d", "f", "m", "c", "r"))
    routing = ["--data", d, "--features", f, "--model", m / "model.ckpt", "--budget", 5]
    return {
        "synth": ["--n-train", 4, "--n-val", 0, "--n-test", 0, "--samples", 2],
        "harvest": ["--questions", qfile, "--base-url", "http://fake/v1", "--model", "fake-model",
                    "--n-samples", 2],
        "extract-features": ["--in", d],
        "train": ["--in", f, "--hidden", 8, "--heads", 2, "--max-epochs", 1],
        "calibrate": routing,
        "route": [*routing, "--tau", 0.5],
        "report": ["--in", r, "--resamples", 20],
    }[stage]


@pytest.mark.parametrize("stage", list(cli.COMMANDS))
def test_out_under_a_regular_file_exits_2(routed_run, tmp_path, monkeypatch, capsys, stage):
    monkeypatch.setattr(harvest_mod, "_default_transport", lambda cfg: make_fake())
    qfile = tmp_path / "q.jsonl"
    write_questions(qfile, [Q1])
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    capsys.readouterr()
    assert run(stage, *_stage_argv(stage, routed_run, qfile), "--out", blocker / "sub") == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "q.jsonl"]


@pytest.mark.parametrize("stage", ["calibrate", "route"])
def test_budget_above_a_questions_sampled_paths_is_a_data_error(routed_run, tmp_path, capsys,
                                                                stage):
    argv = _stage_argv(stage, routed_run, tmp_path / "unused")
    assert run(stage, *argv, "--budget", 6, "--out", tmp_path / "c") == EXIT_DATA
    err = capsys.readouterr().err
    split = {"calibrate": "val", "route": "test"}[stage]
    assert f"question '{split}-00000' has 5 sampled paths, fewer than the budget of 6" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "flags, calibrated, routed",
    [(["--method", "dv"], "'baseline_method': 'sc'", "'baseline_method': 'dv'"),
     (["--budget", 3], "'budget': 5", "'budget': 3")],
    ids=["method", "budget"],
)
def test_route_refuses_a_selection_calibrated_under_other_options(routed_run, tmp_path, capsys,
                                                                   flags, calibrated, routed):
    d, f, m, c = (routed_run / name for name in ("d", "f", "m", "c"))
    out = tmp_path / "r"
    assert run("route", "--data", d, "--features", f, "--model", m / "model.ckpt", "--budget", 5,
               "--selection", c / "selection.json", *flags, "--out", out) == EXIT_DATA
    err = capsys.readouterr().err
    assert calibrated in err and routed in err, err
    assert not out.exists()


def test_a_table_whose_rows_fail_leaves_no_file_behind(tmp_path, capsys):
    r = tmp_path / "r"
    write_outcomes(r / "outcomes.policy.jsonl", OutcomeVector([], [], []))
    assert run("report", "--in", r, "--out", tmp_path / "rep", "--resamples", 20) == EXIT_DATA
    assert "cannot summarize an empty outcome vector" in capsys.readouterr().err
    assert list((tmp_path / "rep").iterdir()) == []

    write_outcomes(r / "outcomes.policy.jsonl", OutcomeVector(["a", "b"], [True, False], [1, 2]))
    write_outcomes(r / "outcomes.multi.jsonl", OutcomeVector(["a", "c"], [True, True], [3, 4]))
    assert run("report", "--in", r, "--out", tmp_path / "rep", "--resamples", 20) == EXIT_DATA
    assert "cover different question sets" in capsys.readouterr().err
    assert list((tmp_path / "rep").iterdir()) == []


def test_200_response_that_is_not_json_is_an_endpoint_error(tmp_path, monkeypatch, capsys):
    def html_post(self, url, **kwargs):
        resp = requests.Response()
        resp.status_code = 200
        resp._content = b"<html>gateway</html>"
        return resp

    monkeypatch.setattr(requests.Session, "post", html_post)
    qfile = tmp_path / "q.jsonl"
    write_questions(qfile, [Q1])
    code = run("harvest", "--questions", qfile, "--out", tmp_path / "h",
               "--base-url", "http://api.test/v1", "--model", "m")
    assert code == EXIT_ENDPOINT
    assert "endpoint response is not JSON: <html>gateway</html>" in capsys.readouterr().err


def test_endpoint_error_exit_code(tmp_path, capsys):
    qfile = tmp_path / "q.jsonl"
    write_questions(qfile, [Q1])
    code = run(
        "harvest", "--questions", qfile, "--out", tmp_path / "h",
        "--base-url", "http://127.0.0.1:1/v1", "--model", "m",
        "--max-retries", 0, "--backoff", 0, "--timeout", 2,
    )
    assert code == EXIT_ENDPOINT
    assert "endpoint error" in capsys.readouterr().err


def test_harvest_cli_with_fake_endpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harvest_mod, "_default_transport", lambda cfg: make_fake())
    qfile = tmp_path / "q.jsonl"
    write_questions(qfile, [Q1, Q2])
    out = tmp_path / "h"
    assert run(
        "harvest", "--questions", qfile, "--out", out, "--base-url", "http://fake/v1",
        "--model", "fake-model", "--n-samples", 2, "--cache-dir", tmp_path / "cache",
    ) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)
    assert counts == {"harvested": 2, "failed": 0, "skipped_existing": 0}
    assert (out / "train.traj.jsonl").is_file()
    assert (out / "train.paths.jsonl").is_file()
    assert (out / "harvest.manifest.json").is_file()

    feats = tmp_path / "hf"
    assert run("extract-features", "--in", out, "--out", feats) == EXIT_OK
    assert (feats / "train.features.jsonl").is_file()
    assert (feats / "train.labels.jsonl").is_file()

    # rerun resumes: everything already harvested
    assert run(
        "harvest", "--questions", qfile, "--out", out, "--base-url", "http://fake/v1",
        "--model", "fake-model", "--n-samples", 2, "--cache-dir", tmp_path / "cache",
    ) == EXIT_OK
    counts = json.loads(capsys.readouterr().out)
    assert counts == {"harvested": 0, "failed": 0, "skipped_existing": 2}


def test_importing_the_cli_does_not_import_requests():
    # "-c" puts the working directory first on sys.path, so this is the package under test
    code = "import sys, cotriage.cli; print('requests' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(cotriage.__file__).parents[1],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_exemplar_configs_match_option_tables():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    found = sorted(config_dir.glob("*.cfg"))
    assert {p.stem for p in found} == set(cli.COMMANDS)
    for path in found:
        parsed = parse_config_text(path.read_text())
        unknown = set(parsed) - option_names(path.stem)
        assert not unknown, f"{path.name} has unknown keys: {sorted(unknown)}"
        assert parsed, f"{path.name} documents no options"
        argv = [path.stem, "--config", str(path)]
        if path.stem == "synth":  # synth.cfg leaves --out to the command line
            argv += ["--out", "data/"]
        resolve_options(argv)


def test_exemplar_values_are_clean_and_allowed():
    subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    checked, choice_options = [], []
    for path in sorted(config_dir.glob("*.cfg")):
        parsed = parse_config_text(path.read_text())
        assert not [v for v in parsed.values() if isinstance(v, str) and "#" in v], path.name
        for action in subparsers.choices[path.stem]._actions:
            if action.choices is not None:
                choice_options.append((path.stem, action.dest))
            if action.choices is not None and action.dest in parsed:
                assert parsed[action.dest] in action.choices, (path.name, action.dest)
                checked.append((path.stem, action.dest))
    # every option with choices is set in its stage's exemplar
    assert checked == choice_options and len(checked) >= 3, checked


def test_train_rejects_bad_geometry(tmp_path, capsys):
    base = tmp_path / "run"
    assert run("synth", "--seed", 1, "--out", base / "d", "--n-train", 8, "--n-val", 4,
               "--n-test", 2, "--samples", 2) == EXIT_OK
    assert run("extract-features", "--in", base / "d", "--out", base / "f") == EXIT_OK
    code = run("train", "--in", base / "f", "--out", base / "m",
               "--hidden", 10, "--heads", 4, "--max-epochs", 1)
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["sc", "cer", "dv"])
@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected_before_any_file_is_read(tmp_path, capsys, method, budget):
    missing = tmp_path / "missing"
    assert run("calibrate", "--data", missing, "--features", missing, "--model",
               missing / "model.ckpt", "--method", method, "--budget", budget,
               "--out", tmp_path / "c") == EXIT_USAGE
    assert "budget must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("resamples", [0, -5])
def test_report_resamples_below_one_exits_1_writing_no_table(tmp_path, capsys, resamples):
    r = tmp_path / "r"
    write_outcomes(r / "outcomes.policy.jsonl", OutcomeVector(["a", "b"], [True, False], [10, 20]))
    write_outcomes(r / "outcomes.multi.jsonl", OutcomeVector(["a", "b"], [True, True], [30, 40]))
    rep = tmp_path / "rep"
    assert run("report", "--in", r, "--out", rep, "--resamples", resamples) == EXIT_USAGE
    assert "resamples must be positive" in capsys.readouterr().err
    assert not rep.exists() or list(rep.iterdir()) == []


@pytest.mark.parametrize("stage", ["calibrate", "route"])
def test_features_narrower_than_the_model_exit_2_writing_no_output(routed_run, tmp_path, capsys,
                                                                    stage):
    numeric = tmp_path / "numeric"
    assert run("extract-features", "--in", routed_run / "d", "--out", numeric,
               "--subset", "numeric") == EXIT_OK
    argv = [*_stage_argv(stage, routed_run, tmp_path / "unused"), "--features", numeric]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(stage, *argv, "--out", out) == EXIT_DATA
    assert "model expects 32 features, got 12" in capsys.readouterr().err
    written = [p.name for p in out.iterdir()] if out.exists() else []
    assert [n for n in written if n in ("profile.csv", "selection.json")
            or n.startswith("outcomes.")] == []


def _drop_last_row(rec):
    _set_rows(rec, _rows(rec)[:-1])


def _nudge_p(rec):
    x = _rows(rec)
    x[0, 0] += 1e-12
    _set_rows(rec, x)


@pytest.mark.parametrize("stage", ["calibrate", "route"])
@pytest.mark.parametrize(
    "subset, edit, message",
    [("full", None, "features of 'val-"), ("numeric", None, "features of 'val-"),
     ("linguistic", _drop_last_row, "features of 'val-00001'"),
     ("full", _nudge_p, "features of 'val-00001'")],
    ids=["other_corpus_full", "other_corpus_numeric", "dropped_row", "p_off_by_1e-12"],
)
def test_features_of_another_trajectory_exit_2_naming_the_question(tmp_path, capsys, stage,
                                                                   subset, edit, message):
    a, b, fa, fb = (tmp_path / name for name in ("a", "b", "fa", "fb"))
    sizes = ["--n-train", 4, "--n-val", 6, "--n-test", 0, "--samples", 2]
    assert run("synth", "--seed", 1, "--out", a, *sizes) == EXIT_OK
    assert run("synth", "--seed", 2, "--beta", 0.5, "--out", b, *sizes) == EXIT_OK
    assert run("extract-features", "--in", a, "--out", fa, "--subset", subset) == EXIT_OK
    assert run("extract-features", "--in", b, "--out", fb, "--subset", subset) == EXIT_OK
    features = fb
    if edit is not None:
        _edit_record(fa / "val.features.jsonl", 3, edit)
        features = fa
    cfg = ModelConfig(input_dim=len(LAYOUTS[subset]), hidden=8, heads=2, head_hidden=4)
    save_checkpoint(tmp_path / "m.ckpt", init_params(cfg, 0), cfg)
    argv = ["--data", a, "--features", features, "--model", tmp_path / "m.ckpt", "--split", "val",
            "--budget", 2]
    if stage == "route":
        argv += ["--tau", 0.5]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(stage, *argv, "--out", out) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "do not match its trajectory" in err, err
    assert not out.exists() or [p.name for p in out.iterdir()] == [f"{stage}.manifest.json"]


def _cut_line(path: Path, lineno: int, replacement: str = "") -> dict:
    """Replace 1-based line lineno of a JSONL file (by default with nothing); its record."""
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[lineno - 1])
    lines[lineno - 1] = replacement
    path.write_text("".join(lines))
    return rec


@pytest.mark.parametrize("case", ["no_label", "no_features", "no_question", "empty_train",
                                  "not_an_object", "stray_paths", "label_off_the_answers"])
def test_records_that_do_not_line_up_exit_2_naming_the_record(tmp_path, capsys, case):
    d, f, out = tmp_path / "d", tmp_path / "f", tmp_path / "out"
    assert run("synth", "--seed", 1, "--out", d, "--n-train", 4, "--n-val", 4, "--n-test", 0,
               "--samples", 2) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    train = ["train", "--in", f, "--out", out, "--hidden", 8, "--heads", 2, "--max-epochs", 1]
    if case == "no_label":
        qid = _cut_line(f / "train.labels.jsonl", 3)["question_id"]
        argv, message = train, f"no label for {qid!r}"
    elif case == "no_features":
        qid = _cut_line(f / "val.features.jsonl", 3)["question_id"]
        cfg = ModelConfig(input_dim=32, hidden=8, heads=2, head_hidden=4)
        save_checkpoint(tmp_path / "m.ckpt", init_params(cfg, 0), cfg)
        argv = ["calibrate", "--data", d, "--features", f, "--model", tmp_path / "m.ckpt",
                "--split", "val", "--budget", 2, "--out", out]
        message = f"no features for {qid!r}"
    elif case == "no_question":
        qid = _cut_line(d / "train.questions.jsonl", 3)["id"]
        argv = ["extract-features", "--in", d, "--out", out]
        message = f"no question for trajectory {qid!r}"
    elif case == "empty_train":
        for name in ("train.features.jsonl", "train.labels.jsonl"):
            for _ in range(4):
                _cut_line(f / name, 2)
        argv, message = train, "training split is empty"
    elif case == "not_an_object":
        _cut_line(d / "train.traj.jsonl", 3, "[1, 2]\n")
        argv = ["extract-features", "--in", d, "--out", out]
        message = "line 3: record is not a JSON object"
    elif case == "stray_paths":
        paths = d / "val.paths.jsonl"
        line = paths.read_text().splitlines()[1].replace('"val-00000"', '"val-00099"')
        paths.write_text(paths.read_text() + line + "\n")
        cfg = ModelConfig(input_dim=32, hidden=8, heads=2, head_hidden=4)
        save_checkpoint(tmp_path / "m.ckpt", init_params(cfg, 0), cfg)
        argv = ["calibrate", "--data", d, "--features", f, "--model", tmp_path / "m.ckpt",
                "--split", "val", "--budget", 2, "--out", out]
        message = "sampled paths for 'val-00099', which has no trajectory in the split"
    else:
        for lineno in (3, 4):
            _edit_record(d / "train.traj.jsonl", lineno,
                         lambda rec: rec.update(label=not rec["label"]))
        # the first flip is on a question without a gold answer, so nothing contradicts it
        _edit_record(d / "train.questions.jsonl", 3, lambda rec: rec.pop("answer_idx"))
        qid = json.loads((d / "train.traj.jsonl").read_text().splitlines()[3])["question_id"]
        argv = ["extract-features", "--in", d, "--out", out]
        message = f"train.traj.jsonl: label of {qid!r} contradicts its greedy answer"
    capsys.readouterr()
    assert run(*argv) == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tau", [-1, 1.5, 1e308])
def test_selection_tau_outside_zero_one_is_a_data_error(routed_run, tmp_path, capsys, tau):
    selection = tmp_path / "selection.json"
    doc = json.loads((routed_run / "c" / "selection.json").read_text())
    selection.write_text(json.dumps(dict(doc, selected_tau=tau)))
    argv = _stage_argv("route", routed_run, tmp_path / "unused")[:-2]  # without --tau
    capsys.readouterr()
    assert run("route", *argv, "--selection", selection, "--out", tmp_path / "r") == EXIT_DATA
    assert f"selected_tau is {float(tau)}, outside [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_calibrate_warns_when_its_policy_spends_more_than_always_multi(tmp_path, capsys, caplog):
    """At beta=0 the detector carries no signal; with greedy right on 3 questions in 10 the
    0.5% rule escalates every question, which also pays its greedy tokens."""
    d, f, c = tmp_path / "d", tmp_path / "f", tmp_path / "c"
    assert run("synth", "--seed", 4, "--out", d, "--n-train", 0, "--n-val", 60, "--n-test", 20,
               "--beta", 0, "--base-rate", 0.3, "--samples", 5) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    cfg = ModelConfig(input_dim=32, hidden=4, heads=1, head_hidden=4)
    save_checkpoint(tmp_path / "model.ckpt", init_params(cfg, 0), cfg)
    routing = ["--data", d, "--features", f, "--model", tmp_path / "model.ckpt", "--budget", 5]
    capsys.readouterr()
    with caplog.at_level("WARNING", logger="cotriage.cli"):
        assert run("calibrate", *routing, "--out", c) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    doc = json.loads((c / "selection.json").read_text())
    assert doc["token_reduction"] == printed["token_reduction"] <= 0
    assert doc["accept_rate"] == 0.0 and printed["selected_tau"] == doc["selected_tau"]
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "spends at least always-multi's tokens" in caplog.text

    older = tmp_path / "older.json"  # written before selection.json held the selected point's figures
    older.write_text(json.dumps({k: v for k, v in doc.items() if k not in ("token_reduction", "accept_rate")}))
    for selection in (c / "selection.json", older):
        assert run("route", *routing, "--selection", selection, "--out", tmp_path / "r") == EXIT_OK


def test_calibrate_max_rel_drop_outside_zero_one_exits_1(routed_run, tmp_path, capsys):
    argv = _stage_argv("calibrate", routed_run, tmp_path / "unused")
    assert run("calibrate", *argv, "--max-rel-drop", -0.1, "--out", tmp_path / "c") == EXIT_USAGE
    assert "max_rel_drop must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "c").exists() or list((tmp_path / "c").iterdir()) == []


@pytest.mark.parametrize(
    "stage, flags, message",
    [
        ("calibrate", ["--max-rel-drop", 2], "max_rel_drop must be in [0, 1]"),
        ("calibrate", ["--max-rel-drop", "nan"], "max_rel_drop must be in [0, 1]"),
        ("report", ["--resamples", 0], "resamples must be positive"),
        ("route", ["--tau", "nan"], "tau must be a finite number"),
        ("route", ["--tau", "inf"], "tau must be a finite number"),
    ],
    ids=["max_rel_drop_2", "max_rel_drop_nan", "resamples_0", "tau_nan", "tau_inf"],
)
def test_routing_value_that_cannot_work_exits_1_before_any_file_is_read(
    tmp_path, capsys, stage, flags, message
):
    missing = tmp_path / "missing"
    out = tmp_path / "out"
    inputs = ["--in", missing] if stage == "report" else [
        "--data", missing, "--features", missing, "--model", missing / "model.ckpt"]
    assert run(stage, *inputs, *flags, "--out", out) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


# config field of each option whose name differs from the field's; a no_* flag negates it
_RENAMED_FIELDS = {
    "choices": "num_choices", "samples": "samples_per_question",
    "no_feature_gate": "use_feature_gate", "no_mhsa": "use_mhsa",
}


def test_every_config_fed_option_defaults_to_its_fields_default():
    configs = {"synth": [SynthConfig], "harvest": [EndpointConfig], "train": [ModelConfig, TrainConfig]}
    checked = []
    for stage, classes in configs.items():
        for name, _, default, _ in cli.COMMANDS[stage][1]:
            wanted = _RENAMED_FIELDS.get(name, name)
            for field in (f for cls in classes for f in dataclasses.fields(cls) if f.name == wanted):
                if field.default is dataclasses.MISSING:
                    assert default is ..., name  # a field without default is a required option
                else:
                    expected = not field.default if name.startswith("no_") else field.default
                    assert (type(default), default) == (type(expected), expected), name
                checked.append(name)
    assert sorted(checked) == sorted([
        "beta", "choices", "base_rate", "samples", "t_min", "t_max",
        "base_url", "model", "cache_dir", "api_key_env", "timeout", "max_in_flight",
        "max_retries", "backoff",
        "hidden", "heads", "head_hidden", "no_feature_gate", "no_mhsa", "lr", "batch_size",
        "max_epochs", "patience",
    ])


def _no_request(route, payload):
    raise AssertionError(f"a request was sent to {route}")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-retries", -1], "max_retries must be non-negative"),
        (["--timeout", 0], "timeout must be a positive number"),
        (["--timeout", "inf"], "timeout must be a positive number"),
        (["--backoff", -0.5], "backoff must be a non-negative number"),
        (["--backoff", "nan"], "backoff must be a non-negative number"),
        (["--max-in-flight", 0], "max_in_flight must be positive"),
        (["--n-samples", 0], "n_samples must be positive"),
        (["--max-new-tokens", 0], "max_new_tokens must be positive"),
        (["--temperature", -0.5], "temperature must be a non-negative number"),
        (["--temperature", "nan"], "temperature must be a non-negative number"),
    ],
    ids=["max_retries_-1", "timeout_0", "timeout_inf", "backoff_-0_5", "backoff_nan",
         "max_in_flight_0", "n_samples_0", "max_new_tokens_0", "temperature_-0_5",
         "temperature_nan"],
)
def test_harvest_value_that_cannot_work_exits_1_before_any_file_or_request(
    tmp_path, monkeypatch, capsys, flags, message
):
    monkeypatch.setattr(harvest_mod, "_default_transport", lambda cfg: _no_request)
    out = tmp_path / "h"
    assert run("harvest", "--questions", tmp_path / "missing.jsonl", "--out", out,
               "--base-url", "http://fake/v1", "--model", "fake-model", *flags) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_harvest_without_paths_takes_any_n_samples(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harvest_mod, "_default_transport", lambda cfg: make_fake())
    qfile = tmp_path / "q.jsonl"
    write_questions(qfile, [Q1])
    assert run("harvest", "--questions", qfile, "--out", tmp_path / "h", "--base-url",
               "http://fake/v1", "--model", "fake-model", "--no-paths", "--n-samples", 0) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["harvested"] == 1
    assert not (tmp_path / "h" / "train.paths.jsonl").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lr", 0], "lr must be a positive number"),
        (["--lr", "nan"], "lr must be a positive number"),
        (["--lr", "inf"], "lr must be a positive number"),
        (["--batch-size", 0], "batch_size, max_epochs and patience must be positive"),
        (["--hidden", 0], "hidden sizes must be positive"),
        (["--head-hidden", 0], "hidden sizes must be positive"),
        (["--hidden", 10, "--heads", 4], "hidden must be divisible by heads"),
        (["--heads", 3], "hidden must be divisible by heads"),
    ],
    ids=["lr_0", "lr_nan", "lr_inf", "batch_size_0",
         "hidden_0", "head_hidden_0", "hidden_10_heads_4", "heads_3"],
)
def test_train_value_that_cannot_work_exits_1_before_any_file(tmp_path, capsys, flags, message):
    out = tmp_path / "m"
    assert run("train", "--in", tmp_path / "missing", "--out", out, *flags) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


class Captured(Exception):
    """Raised by a stand-in consumer once it has recorded its arguments."""


def test_every_synth_option_reaches_its_config_field(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "generate", lambda cfg: seen.append(cfg) or ([], [], {}))
    assert run("synth", "--out", tmp_path / "d", "--seed", 3, "--n-train", 5, "--n-val", 6,
               "--n-test", 7, "--beta", 0.5, "--choices", 3, "--base-rate", 0.6,
               "--samples", 4, "--t-min", 2, "--t-max", 5) == EXIT_OK
    shared = dict(beta=0.5, num_choices=3, base_rate=0.6, t_min=2, t_max=5, samples_per_question=4)
    assert seen == [
        SynthConfig(n_questions=5, seed=3, id_prefix="train-", **shared),
        SynthConfig(n_questions=6, seed=4, id_prefix="val-", **shared),
        SynthConfig(n_questions=7, seed=5, id_prefix="test-", **shared),
    ]


def test_every_harvest_option_reaches_its_config_field(tmp_path, monkeypatch):
    seen = {}
    monkeypatch.setattr(cli, "EndpointClient", lambda cfg: seen.setdefault("endpoint", cfg))

    def fake_harvest(questions, client, out_trajectories, out_paths, **kwargs):
        seen["harvest"] = kwargs
        raise Captured

    monkeypatch.setattr(cli, "harvest_dataset", fake_harvest)
    qfile = tmp_path / "q.jsonl"
    write_questions(qfile, [Q1])
    with pytest.raises(Captured):
        run("harvest", "--questions", qfile, "--out", tmp_path / "h",
            "--base-url", "http://fake/v1", "--model", "fake-model", "--api-key-env", "OTHER_KEY",
            "--timeout", 7.5, "--max-retries", 5, "--backoff", 0.25, "--max-in-flight", 2,
            "--cache-dir", tmp_path / "cache", "--n-samples", 3, "--temperature", 0.7,
            "--max-new-tokens", 99)
    assert seen["endpoint"] == EndpointConfig(
        base_url="http://fake/v1", model="fake-model", api_key_env="OTHER_KEY", timeout=7.5,
        max_retries=5, backoff=0.25, max_in_flight=2, cache_dir=str(tmp_path / "cache"),
    )
    assert seen["harvest"] == {"n_samples": 3, "temperature": 0.7, "max_new_tokens": 99}


def test_every_train_option_reaches_its_config_field(tmp_path, monkeypatch):
    d, f = tmp_path / "d", tmp_path / "f"
    assert run("synth", "--seed", 1, "--out", d, "--n-train", 3, "--n-val", 2,
               "--n-test", 0, "--samples", 2) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    seen = []

    def fake_train(train_seqs, train_labels, val_seqs, val_labels, mcfg, tcfg):
        seen.extend([mcfg, tcfg])
        raise Captured

    monkeypatch.setattr(cli, "train", fake_train)
    with pytest.raises(Captured):
        run("train", "--in", f, "--out", tmp_path / "m", "--seed", 9, "--hidden", 8, "--heads", 2,
            "--head-hidden", 4, "--no-feature-gate", "--no-mhsa", "--lr", 0.01,
            "--batch-size", 7, "--max-epochs", 3, "--patience", 2)
    assert seen == [
        ModelConfig(input_dim=len(LAYOUTS["full"]), hidden=8, heads=2, head_hidden=4,
                    use_feature_gate=False, use_mhsa=False),
        TrainConfig(lr=0.01, batch_size=7, max_epochs=3, patience=2, seed=9),
    ]
