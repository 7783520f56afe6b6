import csv
import itertools

import numpy as np
import pytest

from cotriage.calibration import CalibrationItem
from cotriage.errors import CotriageError, ParseError
from cotriage.evaluation import (
    BootstrapResult,
    OutcomeVector,
    build_calibration_items,
    paired_bootstrap,
    read_outcomes,
    route_outcomes,
    summarize,
    write_report,
)
from cotriage.trajectory import McQuestion, Trajectory
from cotriage.voting import SampledPath


def vec(ids, correct, tokens):
    return OutcomeVector(list(ids), np.array(correct, dtype=bool), np.array(tokens))


def test_summarize_quartiles():
    s = summarize(vec(["a", "b", "c", "d"], [1, 0, 1, 1], [1, 2, 3, 4]))
    assert s.accuracy == 0.75
    assert s.mean_tokens == 2.5
    assert (s.tokens_q1, s.tokens_median, s.tokens_q3) == (1.75, 2.5, 3.25)
    with pytest.raises(CotriageError, match="cannot summarize an empty outcome vector"):
        summarize(vec([], [], []))


def test_outcome_vector_rejects_duplicates(tmp_path):
    with pytest.raises(CotriageError, match="outcome vector repeats a question id"):
        vec(["a", "a"], [1, 0], [1, 2])
    path = tmp_path / "outcomes.x.jsonl"
    rec = '{"question_id": "a", "correct": true, "tokens": 3}\n'
    path.write_text('{"schema": "outcomes/1"}\n' + rec + rec)
    with pytest.raises(ParseError, match="line 3: duplicate outcomes/1 key 'a'"):
        read_outcomes(path)


def test_identical_vectors_give_p_one():
    ids = [f"q{i}" for i in range(50)]
    rng = np.random.default_rng(0)
    correct = rng.integers(0, 2, 50)
    tokens = rng.integers(100, 500, 50)
    a = vec(ids, correct, tokens)
    b = vec(ids, correct.copy(), tokens.copy())
    res = paired_bootstrap(a, b, resamples=500, seed=1)
    assert res.delta_accuracy == 0.0
    assert res.delta_tokens == 0.0
    assert res.p_accuracy == 1.0
    assert res.p_tokens == 1.0


def test_consistent_dominance_is_significant():
    ids = [f"q{i}" for i in range(100)]
    a = vec(ids, [True] * 100, [100] * 100)
    b = vec(ids, [False] * 100, [200] * 100)
    res = paired_bootstrap(a, b, resamples=2000, seed=2)
    assert res.p_accuracy < 0.05
    assert res.p_tokens < 0.05
    assert res.delta_accuracy == 1.0
    assert res.delta_tokens == -100.0


def test_swap_symmetry():
    ids = [f"q{i}" for i in range(40)]
    rng = np.random.default_rng(3)
    a = vec(ids, rng.integers(0, 2, 40), rng.integers(50, 400, 40))
    b = vec(ids, rng.integers(0, 2, 40), rng.integers(50, 400, 40))
    ab = paired_bootstrap(a, b, resamples=400, seed=4)
    ba = paired_bootstrap(b, a, resamples=400, seed=4)
    assert ab.p_accuracy == ba.p_accuracy
    assert ab.p_tokens == ba.p_tokens
    assert ab.delta_accuracy == -ba.delta_accuracy
    assert ab.delta_tokens == -ba.delta_tokens


def test_order_of_b_does_not_matter():
    ids = ["a", "b", "c", "d"]
    a = vec(ids, [1, 0, 1, 0], [10, 20, 30, 40])
    b1 = vec(ids, [0, 0, 1, 1], [40, 30, 20, 10])
    b2 = vec(["d", "c", "b", "a"], [1, 1, 0, 0], [10, 20, 30, 40])
    r1 = paired_bootstrap(a, b1, resamples=100, seed=5)
    r2 = paired_bootstrap(a, b2, resamples=100, seed=5)
    assert r1 == r2


def test_mismatched_question_sets_rejected():
    a = vec(["a", "b"], [1, 0], [1, 2])
    b = vec(["a", "c"], [1, 0], [1, 2])
    with pytest.raises(CotriageError, match="outcome vectors cover different question sets: 'b' is"):
        paired_bootstrap(a, b)
    with pytest.raises(CotriageError, match="different question sets: 'c' is in only one"):
        paired_bootstrap(vec(["a"], [1], [1]), vec(["c", "a"], [1, 0], [1, 2]))


@pytest.mark.parametrize("resamples", [0, -5])
def test_resamples_below_one_are_rejected(resamples):
    a = vec(["a", "b"], [1, 0], [1, 2])
    with pytest.raises(ValueError, match="resamples must be positive"):
        paired_bootstrap(a, a, resamples=resamples)


def _float_bootstrap(a, b, resamples, seed):
    """The per-pair float loop the shared-draw bootstrap replaced, kept as its oracle."""
    pos = {qid: i for i, qid in enumerate(b.question_ids)}
    order = np.array([pos[qid] for qid in a.question_ids])
    acc_a, acc_b = a.correct.astype(np.float64), b.correct[order].astype(np.float64)
    tok_a, tok_b = a.tokens.astype(np.float64), b.tokens[order].astype(np.float64)
    n = len(a)
    obs_acc = float(acc_a.mean() - acc_b.mean())
    obs_tok = float(tok_a.mean() - tok_b.mean())
    d_acc = np.empty(resamples)
    d_tok = np.empty(resamples)
    for i in range(resamples):
        idx = np.random.default_rng([seed, i]).integers(0, n, size=n)
        d_acc[i] = acc_a[idx].mean() - acc_b[idx].mean()
        d_tok[i] = tok_a[idx].mean() - tok_b[idx].mean()

    def p(observed, deltas):
        if observed == 0.0:
            return 1.0
        return min(1.0, 2.0 * int(np.sum(np.sign(deltas) != np.sign(observed))) / len(deltas))

    return BootstrapResult(obs_acc, obs_tok, p(obs_acc, d_acc), p(obs_tok, d_tok))


def _random_pair(rng, n):
    ids = [f"q{i}" for i in range(n)]
    a = vec(ids, rng.integers(0, 2, n), rng.integers(0, 100_001, n))
    # b near a, so that small deltas and p-values strictly inside (0, 1) are common
    correct = np.where(rng.random(n) < 0.8, a.correct, rng.integers(0, 2, n))
    tokens = np.where(rng.random(n) < 0.5, a.tokens, rng.integers(0, 100_001, n))
    perm = rng.permutation(n)
    b = vec([ids[i] for i in perm], correct[perm], tokens[perm])
    return a, b


def test_paired_bootstrap_equals_the_float_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, b = _random_pair(rng, int(rng.integers(1, 300)))
        resamples, seed = int(rng.integers(1, 300)), int(rng.integers(0, 1000))
        assert paired_bootstrap(a, b, resamples, seed) == _float_bootstrap(a, b, resamples, seed)


def test_report_pairs_share_draws_and_equal_the_float_oracle(tmp_path):
    rng = np.random.default_rng(12)
    a, b = _random_pair(rng, 150)
    _, c = _random_pair(rng, 150)
    c = vec(list(reversed(c.question_ids)), c.correct[::-1], c.tokens[::-1])
    methods = {"x": a, "y": b, "z": c}
    paths = [tmp_path / f"{name}.csv" for name in ("summary", "significance", "outcomes")]
    write_report(methods, *paths, seed=3, resamples=120)
    rows = list(csv.reader(paths[1].read_text().splitlines()[2:]))
    assert [row[:2] for row in rows] == [["x", "y"], ["x", "z"], ["y", "z"]]
    for row in rows:
        expected = _float_bootstrap(methods[row[0]], methods[row[1]], 120, 3)
        assert BootstrapResult(*map(float, row[2:6])) == expected


def _exhaustive_p(a_vals, b_vals):
    a_vals = np.asarray(a_vals, dtype=np.float64)
    b_vals = np.asarray(b_vals, dtype=np.float64)
    obs = a_vals.mean() - b_vals.mean()
    if obs == 0.0:
        return 1.0
    flips = 0
    total = 0
    for combo in itertools.product(range(3), repeat=3):
        idx = np.array(combo)
        d = a_vals[idx].mean() - b_vals[idx].mean()
        flips += np.sign(d) != np.sign(obs)
        total += 1
    return min(1.0, 2.0 * flips / total)


def test_sampled_bootstrap_matches_exhaustive_oracle_n3():
    ids = ["a", "b", "c"]
    a = vec(ids, [1, 1, 0], [100, 300, 200])
    b = vec(ids, [0, 1, 0], [150, 250, 400])
    res = paired_bootstrap(a, b, resamples=2000, seed=6)
    p_acc = _exhaustive_p(a.correct, b.correct)
    p_tok = _exhaustive_p(a.tokens, b.tokens)
    assert abs(res.p_accuracy - p_acc) < 0.05
    assert abs(res.p_tokens - p_tok) < 0.05


def _items(n, rng):
    return [
        CalibrationItem(
            question_id=f"q{i}",
            score=float(rng.uniform(0, 1)),
            greedy_correct=bool(rng.integers(0, 2)),
            greedy_tokens=int(rng.integers(50, 400)),
            multi_correct=bool(rng.integers(0, 2)),
            multi_tokens=int(rng.integers(500, 4000)),
        )
        for i in range(n)
    ]


def test_route_outcomes_boundaries():
    items = _items(500, np.random.default_rng(9))
    outs = route_outcomes(items, 0.0)
    np.testing.assert_array_equal(outs["policy"].correct, outs["greedy"].correct)
    np.testing.assert_array_equal(outs["policy"].tokens, outs["greedy"].tokens)

    above = max(it.score for it in items) + 1e-9
    outs = route_outcomes(items, above)
    np.testing.assert_array_equal(outs["policy"].correct, outs["multi"].correct)
    np.testing.assert_array_equal(
        outs["policy"].tokens, outs["multi"].tokens + outs["greedy"].tokens
    )


def _tiny_traj(qid, answer, final_p=0.8, k=4):
    probs = np.full((1, k), (1.0 - final_p) / (k - 1))
    probs[0, answer] = final_p
    return Trajectory(
        qid, ["Only one step here."], np.log(probs), greedy_answer=answer, greedy_token_cost=100,
        label=None,
    )


def test_build_calibration_items_joins_everything():
    questions = {
        "q0": McQuestion("q0", "?", ["a", "b", "c", "d"], gold_idx=1),
        "q1": McQuestion("q1", "?", ["a", "b", "c", "d"], gold_idx=0),
    }
    trajs = [_tiny_traj("q0", answer=1), _tiny_traj("q1", answer=2)]
    paths = {
        "q0": [SampledPath("q0", i, 3, 50, 0.9) for i in range(3)],
        "q1": [SampledPath("q1", i, 0, 60, 0.9) for i in range(3)],
    }
    items = build_calibration_items(trajs, [0.9, 0.2], paths, questions, method="sc", budget=3)
    assert items[0].greedy_correct and not items[0].multi_correct
    assert not items[1].greedy_correct and items[1].multi_correct
    assert items[0].greedy_tokens == 100
    assert items[0].multi_tokens == 150
    assert items[1].multi_tokens == 180
    assert items[0].score == 0.9


def test_build_calibration_items_alignment_errors():
    questions = {"q0": McQuestion("q0", "?", ["a", "b"], gold_idx=None)}
    trajs = [_tiny_traj("q0", answer=0, k=2)]
    paths = {"q0": [SampledPath("q0", 0, 0, 50, 0.5)]}
    with pytest.raises(CotriageError, match="question 'q0' has no gold answer"):
        build_calibration_items(trajs, [0.5], paths, questions)
    with pytest.raises(CotriageError, match="need exactly one score per trajectory"):
        build_calibration_items(trajs, [], paths, questions)
    with pytest.raises(CotriageError, match="no question for trajectory 'q0'"):
        build_calibration_items(trajs, [0.5], paths, {})
    q_ok = {"q0": McQuestion("q0", "?", ["a", "b"], gold_idx=0)}
    with pytest.raises(CotriageError, match="no sampled paths for 'q0'"):
        build_calibration_items(trajs, [0.5], {}, q_ok)


def test_write_report_files(tmp_path):
    items = _items(60, np.random.default_rng(10))
    methods = route_outcomes(items, 0.5)
    names = ("summary.csv", "significance.csv", "outcomes.csv")
    write_report(methods, *(tmp_path / "report" / n for n in names), seed=11, resamples=200)
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == sorted(names)
    for name in names:
        first = (tmp_path / "report" / name).read_text().splitlines()[0]
        assert first == "# schema=report/1 seed=11"
    sig = (tmp_path / "report" / "significance.csv").read_text().splitlines()
    assert len(sig) == 2 + 3  # comment, header, 3 method pairs
    out = (tmp_path / "report" / "outcomes.csv").read_text().splitlines()
    assert len(out) == 2 + 3 * 60
