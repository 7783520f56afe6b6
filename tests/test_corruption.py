"""Corruption sweep: every field of one record, set to each odd JSON value, is a data error.

One record of a questions/1, traj/2, features/2, paths/1, labels/1 and
outcomes/1 file has one field deleted or replaced; the stage that reads the
file runs in-process and must exit 2 with a message naming the file and the
record's line, writing nothing. A questions file goes through
extract-features and, as the questions_route case, through route; a labels
file through train; an outcomes file through report. A checkpoint (read by
calibrate) and a selection.json (read by route --selection) are single JSON
documents, read whole with the json module, so they have no record line to
name: there the message must name the file and, after it, the corrupted key
(the last key of the field's path, not a list index). A checkpoint's
tensors map holds 26 alike {shape, data} objects; like a list, only its first
is swept, which keeps that case within MAX_SECONDS.
ALLOWED lists the mutations the schemas permit, which must exit 0 instead,
and MISMATCHED the ones that only disagree with another file, which name the
question instead of the line: the two lists are the contract, written down.
A traj/2 record stores only each sentence's text and log-scores, so any
finite log-score is a valid trajectory; prefix_len, p and entropy are
derived from them and cannot disagree with them.
"""

import json
import math
import shutil
import time
from pathlib import Path

import pytest

from cotriage.cli import EXIT_DATA, EXIT_OK, main
from cotriage.model import ModelConfig, init_params, save_checkpoint

DELETED = object()
VALUES = {
    "deleted": DELETED, "null": None, "empty_str": "", "x": "x", "-1": -1, "0": 0, "1.5": 1.5,
    "2**63": 2**63, "10**400": 10**400, "1e308": 1e308, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "[]": [], "{}": {}, "true": True, "[1]": [1],
}

# (case, field path, value name): mutations the schema permits. The case is the file kind,
# or questions_route for a questions file read by route.
ALLOWED = {
    # label is optional; a missing or null one leaves the question unlabelled
    ("traj", "label", "deleted"), ("traj", "label", "null"),
    # the first sentence may go: the rest are a trajectory of their own
    ("traj", "sentences.0", "deleted"),
    # any non-blank text is a sentence, and any option a greedy answer
    ("traj", "sentences.0.text", "x"), ("traj", "greedy_answer", "0"),
    # any finite log-score scores an option
    *(("traj", "sentences.0.log_scores.0", v) for v in ("-1", "0", "1.5", "2**63", "1e308")),
    # a question needs a gold answer only where answers are scored, which route does
    ("questions", "answer_idx", "deleted"), ("questions", "answer_idx", "null"),
    # any option may be the gold one, and any string a question or an option
    *((case, field, v) for case in ("questions", "questions_route")
      for field, v in [("answer_idx", "0"), ("options.0", "empty_str"), ("options.0", "x"),
                       ("question", "empty_str"), ("question", "x")]),
    # train takes any label it is given: only extract-features compares labels with answers
    ("labels", "label", "true"),
    # an outcome may be correct or not, and cost nothing
    ("outcomes", "correct", "true"), ("outcomes", "tokens", "0"),
    # a sampled path's answer may be ABSTAIN (-1) or any option, and its cost any count
    ("paths", "answer", "-1"), ("paths", "answer", "0"), ("paths", "token_cost", "0"),
    # temperature is optional (1.0) and any finite non-negative number
    *(("paths", "temperature", v) for v in ("deleted", "null", "0", "1.5", "2**63", "1e308")),
    # true is what the checkpoint stores for both blocks
    ("checkpoint", "config.use_feature_gate", "true"), ("checkpoint", "config.use_mhsa", "true"),
    # tau 0 is a grid point calibrate may select (it accepts every greedy answer)
    ("selection", "selected_tau", "0"),
    # route reads only selected_tau, baseline_method and budget; the other fields report
    # calibrate's choice to a reader and may hold anything
    *(("selection", field, v) for field in ("max_accuracy", "max_rel_drop", "token_reduction",
                                            "accept_rate") for v in VALUES),
}

# Mutations that leave a record well formed on its own but at odds with another file:
# each must exit 2 with the message given, which names the question instead of a line.
MISMATCHED = {
    ("questions", "id", "empty_str"): "no question for trajectory 'test-00001'",
    ("questions", "id", "x"): "no question for trajectory 'test-00001'",
    ("questions_route", "id", "empty_str"): "no question for trajectory 'test-00001'",
    ("questions_route", "id", "x"): "no question for trajectory 'test-00001'",
    ("questions_route", "answer_idx", "deleted"): "question 'test-00001' has no gold answer",
    ("questions_route", "answer_idx", "null"): "question 'test-00001' has no gold answer",
    ("traj", "question_id", "empty_str"): "no question for trajectory ''",
    ("traj", "question_id", "x"): "no question for trajectory 'x'",
    ("traj", "label", "true"): "label of 'test-00001' contradicts its greedy answer",
    ("features", "question_id", "empty_str"): "no features for 'test-00001'",
    ("features", "question_id", "x"): "no features for 'test-00001'",
    ("paths", "question_id", "empty_str"): "sampled paths for '', which has no trajectory",
    ("paths", "question_id", "x"): "sampled paths for 'x', which has no trajectory",
    ("labels", "question_id", "empty_str"): "no label for 'train-00001'",
    ("labels", "question_id", "x"): "no label for 'train-00001'",
    ("outcomes", "question_id", "empty_str"): "different question sets: 'test-00001' is in only one",
    ("outcomes", "question_id", "x"): "different question sets: 'test-00001' is in only one",
}

MAX_SECONDS = 5.0


def run(*argv) -> int:
    return main([str(a) for a in argv])


def field_paths(value, prefix=(), depth=4):
    """Every key of every object and the first item of every list, up to depth levels down."""
    if depth == 0:
        return
    items = value.items() if isinstance(value, dict) else [(0, value[0])] if value else []
    for key, child in items:
        path = (*prefix, key)
        yield path
        if isinstance(child, (dict, list)):
            yield from field_paths(child, path, depth - 1)


def mutated(rec: dict, path: tuple, value) -> dict:
    rec = json.loads(json.dumps(rec))
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return rec


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    d, f = base / "d", base / "f"
    # three splits, so that extract-features must leave the good ones unwritten too
    assert run("synth", "--seed", 3, "--out", d, "--n-train", 3, "--n-val", 3, "--n-test", 3,
               "--samples", 2, "--t-min", 2, "--t-max", 3) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    cfg = ModelConfig(input_dim=32, hidden=4, heads=1, head_hidden=4)
    save_checkpoint(base / "model.ckpt", init_params(cfg, seed=0), cfg)
    assert run(*_route(base), "--out", base / "r") == EXIT_OK
    assert run(*_calibrate(base), "--out", base / "c") == EXIT_OK
    return base


def sweep(corpus: Path, tmp_path: Path, case: str, name: str, argv, capsys) -> list[str]:
    """Run every mutation of the record on line 3 of name, or of the whole document when name
    is a single JSON document; the list of broken contracts."""
    work = tmp_path / "work"
    shutil.copytree(corpus, work)
    target = next(work.rglob(name))
    original = target.read_text()
    lines = original.splitlines()
    document = not name.endswith(".jsonl")
    rec = json.loads(original if document else lines[2])
    paths = list(field_paths(rec))
    if case == "checkpoint":
        first = next(iter(rec["tensors"]))
        paths = [p for p in paths if p[0] != "tensors" or len(p) == 1 or p[1] == first]
    problems = []
    for path in paths:
        for value_name, value in VALUES.items():
            key = (case, ".".join(map(str, path)), value_name)
            text = json.dumps(mutated(rec, path, value))
            target.write_text("\n".join([text] if document else [*lines[:2], text, *lines[3:]]) + "\n")
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
            code = run(*argv(work), "--out", out)
            err = capsys.readouterr().err
            if document:
                field = next(str(k) for k in reversed(path) if isinstance(k, str))
                named = field in err.partition(str(target))[2]
            else:
                named = MISMATCHED.get(key, f"{target}: line 3:") in err
            if key in ALLOWED:
                if code != EXIT_OK:
                    problems.append(f"{key}: allowed, but exit {code}: {err.strip()}")
            elif code != EXIT_DATA or not named or out.exists():
                problems.append(f"{key}: exit {code}, out written {out.exists()}: {err.strip()}")
    target.write_text(original)
    return problems


def _extract(work: Path) -> list:
    return ["extract-features", "--in", work / "d"]


def _route(work: Path) -> list:
    return ["route", "--data", work / "d", "--features", work / "f", "--model",
            work / "model.ckpt", "--budget", 2, "--tau", 0.5]


def _train(work: Path) -> list:
    return ["train", "--in", work / "f", "--max-epochs", 1, "--hidden", 4, "--heads", 1,
            "--head-hidden", 4]


def _report(work: Path) -> list:
    return ["report", "--in", work / "r", "--resamples", 20]


def _calibrate(work: Path) -> list:
    return ["calibrate", "--data", work / "d", "--features", work / "f", "--model",
            work / "model.ckpt", "--budget", 2, "--split", "test"]


def _route_selection(work: Path) -> list:
    return ["route", "--data", work / "d", "--features", work / "f", "--model",
            work / "model.ckpt", "--budget", 2, "--selection", work / "c" / "selection.json"]


@pytest.mark.parametrize(
    "case, name, argv",
    [("traj", "test.traj.jsonl", _extract), ("features", "test.features.jsonl", _route),
     ("paths", "test.paths.jsonl", _route), ("questions", "test.questions.jsonl", _extract),
     ("questions_route", "test.questions.jsonl", _route),
     ("labels", "train.labels.jsonl", _train), ("outcomes", "outcomes.policy.jsonl", _report),
     ("checkpoint", "model.ckpt", _calibrate), ("selection", "selection.json", _route_selection)],
    ids=["traj_extract_features", "features_route", "paths_route", "questions_extract_features",
         "questions_route", "labels_train", "outcomes_report", "checkpoint_calibrate",
         "selection_route"],
)
def test_every_corrupted_field_exits_2_naming_its_line(corpus, tmp_path, capsys, case, name, argv):
    start = time.perf_counter()
    problems = sweep(corpus, tmp_path, case, name, argv, capsys)
    assert not problems, "\n".join(problems)
    assert time.perf_counter() - start < MAX_SECONDS
