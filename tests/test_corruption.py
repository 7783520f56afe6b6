"""Corruption sweep: every field of one record, set to each odd JSON value, is a data error.

One record of a traj/1, features/2 and paths/1 file has one field deleted or
replaced; the stage that reads the file runs in-process and must exit 2 with
a message naming the record's line, writing nothing. ALLOWED lists the
mutations the schemas permit, which must exit 0 instead, and MISMATCHED the
ones that only disagree with another file, which name the question instead
of the line: the two lists are the contract, written down.
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

# (file kind, field path, value name): mutations the schema permits.
ALLOWED = {
    # label is optional; a missing or null one leaves the question unlabelled
    ("traj", "label", "deleted"), ("traj", "label", "null"),
    # the first sentence may go: the rest still carry their own p, entropy and prefix_len
    ("traj", "sentences.0", "deleted"),
    # any non-blank text is a sentence, and any option a greedy answer
    ("traj", "sentences.0.text", "x"), ("traj", "greedy_answer", "0"),
    # a sampled path's answer may be ABSTAIN (-1) or any option, and its cost any count
    ("paths", "answer", "-1"), ("paths", "answer", "0"), ("paths", "token_cost", "0"),
    # temperature is optional (1.0) and any finite non-negative number
    *(("paths", "temperature", v) for v in ("deleted", "null", "0", "1.5", "2**63", "1e308")),
}

# Mutations that leave a record well formed on its own but at odds with another file:
# each must exit 2 with the message given, which names the question instead of a line.
MISMATCHED = {
    ("traj", "question_id", "empty_str"): "no question for trajectory ''",
    ("traj", "question_id", "x"): "no question for trajectory 'x'",
    ("traj", "label", "true"): "label of 'test-00001' contradicts its greedy answer",
    ("features", "question_id", "empty_str"): "no features for 'test-00001'",
    ("features", "question_id", "x"): "no features for 'test-00001'",
    ("paths", "question_id", "empty_str"): "sampled paths for '', which has no trajectory",
    ("paths", "question_id", "x"): "sampled paths for 'x', which has no trajectory",
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
    assert run("synth", "--seed", 3, "--out", d, "--n-train", 0, "--n-val", 0, "--n-test", 3,
               "--samples", 2, "--t-min", 2, "--t-max", 3) == EXIT_OK
    assert run("extract-features", "--in", d, "--out", f) == EXIT_OK
    cfg = ModelConfig(input_dim=32, hidden=4, heads=1, head_hidden=4)
    save_checkpoint(base / "model.ckpt", init_params(cfg, seed=0), cfg)
    return base


def sweep(corpus: Path, tmp_path: Path, kind: str, name: str, argv, capsys) -> list[str]:
    """Run every mutation of the record on line 3 of name; the list of broken contracts."""
    work = tmp_path / "work"
    shutil.copytree(corpus, work)
    target = next(work.rglob(name))
    lines = target.read_text().splitlines()
    rec = json.loads(lines[2])
    problems = []
    for path in field_paths(rec):
        for value_name, value in VALUES.items():
            case = (kind, ".".join(map(str, path)), value_name)
            target.write_text("\n".join([*lines[:2], json.dumps(mutated(rec, path, value)),
                                         *lines[3:]]) + "\n")
            out = tmp_path / "out"
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
            code = run(*argv(work), "--out", out)
            err = capsys.readouterr().err
            if case in ALLOWED:
                if code != EXIT_OK:
                    problems.append(f"{case}: allowed, but exit {code}: {err.strip()}")
            elif code != EXIT_DATA or MISMATCHED.get(case, "line 3:") not in err or out.exists():
                problems.append(f"{case}: exit {code}, out written {out.exists()}: {err.strip()}")
    target.write_text("\n".join(lines) + "\n")
    return problems


def _extract(work: Path) -> list:
    return ["extract-features", "--in", work / "d"]


def _route(work: Path) -> list:
    return ["route", "--data", work / "d", "--features", work / "f", "--model",
            work / "model.ckpt", "--budget", 2, "--tau", 0.5]


@pytest.mark.parametrize(
    "kind, name, argv",
    [("traj", "test.traj.jsonl", _extract), ("features", "test.features.jsonl", _route),
     ("paths", "test.paths.jsonl", _route)],
    ids=["traj_extract_features", "features_route", "paths_route"],
)
def test_every_corrupted_field_exits_2_naming_its_line(corpus, tmp_path, capsys, kind, name, argv):
    start = time.perf_counter()
    problems = sweep(corpus, tmp_path, kind, name, argv, capsys)
    assert not problems, "\n".join(problems)
    assert time.perf_counter() - start < MAX_SECONDS
