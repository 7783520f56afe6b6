import json
from dataclasses import replace

import numpy as np
import orjson
import pytest

from cotriage.cli import main
from cotriage.synth import SynthConfig, generate
from cotriage.trajectory import derive_signals, read_trajectories, write_questions, write_trajectories
from cotriage.training import roc_auc
from cotriage.voting import read_paths, write_paths


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_questions=0)
    with pytest.raises(ValueError):
        SynthConfig(n_questions=1, beta=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_questions=1, base_rate=1.0)
    with pytest.raises(ValueError):
        SynthConfig(n_questions=1, t_min=5, t_max=3)
    with pytest.raises(ValueError):
        SynthConfig(n_questions=1, num_choices=1)


def test_generation_is_deterministic(tmp_path):
    cfg = SynthConfig(n_questions=40, seed=13, beta=0.6)
    q1, t1, p1 = generate(cfg)
    q2, t2, p2 = generate(cfg)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trajectories(a, t1)
    write_trajectories(b, t2)
    assert a.read_bytes() == b.read_bytes()
    write_paths(a, [p for qid in sorted(p1) for p in p1[qid]])
    write_paths(b, [p for qid in sorted(p2) for p in p2[qid]])
    assert a.read_bytes() == b.read_bytes()
    assert [q.question_id for q in q1] == [q.question_id for q in q2]


def test_different_seeds_differ():
    a = generate(SynthConfig(n_questions=20, seed=0))[1]
    b = generate(SynthConfig(n_questions=20, seed=1))[1]
    assert any(
        x.greedy_token_cost != y.greedy_token_cost or x.texts[0] != y.texts[0]
        for x, y in zip(a, b)
    )


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_base_rate_is_stratified(seed):
    _, trajs, _ = generate(SynthConfig(n_questions=1000, seed=seed))
    rate = np.mean([t.label for t in trajs])
    assert rate == pytest.approx(0.8, abs=1e-12)
    _, trajs, _ = generate(SynthConfig(n_questions=997, seed=seed))
    rate = np.mean([t.label for t in trajs])
    assert abs(rate - 0.8) < 0.03


def test_everything_validates_and_aligns():
    cfg = SynthConfig(n_questions=50, seed=3, t_min=2, t_max=9, num_choices=3)
    questions, trajs, paths = generate(cfg)
    assert len(questions) == len(trajs) == len(paths) == 50
    _, ps, _ = derive_signals(trajs)
    for q, t, p_series in zip(questions, trajs, ps):
        # building a record runs its checks, so a rebuilt copy must build cleanly
        replace(q)
        replace(t)
        assert q.question_id == t.question_id
        assert t.label == (t.greedy_answer == q.gold_idx)
        assert 2 <= len(t.texts) <= 9
        assert t.log_scores.shape == (len(t.texts), 3)
        assert np.all((0.2 <= p_series) & (p_series <= 0.975))
        qp = paths[q.question_id]
        assert [p.sample_idx for p in qp] == list(range(10))
        for p in qp:
            replace(p)
            assert 0 <= p.answer < 3  # the generator never abstains
            assert p.token_cost >= 20


def _probe_auc(trajs, feature):
    _, p, entropy = derive_signals(trajs)
    vals = np.array([feature(*signals) for signals in zip(p, entropy)])
    labels = np.array([t.label for t in trajs])
    return roc_auc(labels, vals)


PROBES = {
    "mean_p": lambda p, entropy: np.mean(p),
    "final_p": lambda p, entropy: p[-1],
    "mean_entropy": lambda p, entropy: -np.mean(entropy),
}


def test_beta_zero_has_no_feature_signal():
    _, trajs, _ = generate(SynthConfig(n_questions=800, seed=11, beta=0.0))
    for name, probe in PROBES.items():
        auc = _probe_auc(trajs, probe)
        assert abs(auc - 0.5) < 0.05, f"probe {name} leaked signal: AUC={auc:.3f}"


def test_beta_one_is_nearly_separable():
    _, trajs, _ = generate(SynthConfig(n_questions=800, seed=11, beta=1.0))
    assert _probe_auc(trajs, PROBES["mean_p"]) > 0.9


def test_path_agreement_tracks_beta():
    questions, trajs, paths = generate(SynthConfig(n_questions=600, seed=5, beta=1.0))
    gold = {q.question_id: q.gold_idx for q in questions}
    agree_correct, agree_wrong = [], []
    for t in trajs:
        rate = np.mean([p.answer == gold[t.question_id] for p in paths[t.question_id]])
        (agree_correct if t.label else agree_wrong).append(rate)
    assert np.mean(agree_correct) == pytest.approx(0.95, abs=0.03)
    assert np.mean(agree_wrong) == pytest.approx(0.35, abs=0.05)


def test_outputs_roundtrip_through_files(tmp_path):
    questions, trajs, paths = generate(SynthConfig(n_questions=12, seed=9))
    write_questions(tmp_path / "questions.jsonl", questions)
    write_trajectories(tmp_path / "traj.jsonl", trajs)
    write_paths(tmp_path / "paths.jsonl", [p for qid in sorted(paths) for p in paths[qid]])
    back = read_trajectories(tmp_path / "traj.jsonl")
    assert [t.question_id for t in back] == [t.question_id for t in trajs]
    grouped = read_paths(tmp_path / "paths.jsonl")
    assert set(grouped) == set(paths)


def _same_values(a, b) -> bool:
    """a == b, with the same type at every leaf (1 and 1.0 differ)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_values(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_values, a, b))
    return a == b


def test_orjson_and_json_decode_every_line_of_a_corpus_alike(tmp_path):
    """The readers decode with orjson and the writers encode with json: equal values both ways."""
    d, f = tmp_path / "d", tmp_path / "f"
    assert main(["synth", "--seed", "5", "--out", str(d), "--n-train", "30", "--n-val", "10",
                 "--n-test", "10"]) == 0
    assert main(["extract-features", "--in", str(d), "--out", str(f)]) == 0
    files = sorted([*d.glob("*.jsonl"), *f.glob("*.jsonl")])
    kinds = {p.name.split(".")[1] for p in files}
    assert kinds == {"questions", "traj", "paths", "features", "labels"}
    for path in files:
        for line in path.read_bytes().splitlines():
            assert _same_values(orjson.loads(line), json.loads(line)), (path.name, line[:80])
