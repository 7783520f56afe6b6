import json
import math
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriage.errors import CotriageError, ParseError
from cotriage.trajectory import (
    McQuestion,
    Trajectory,
    answer_logscore,
    check_trajectories,
    load_questions,
    normalize_choices,
    prefix_lengths,
    read_trajectories,
    segment_sentences,
    sentence_signals,
    unchecked,
    write_questions,
    write_trajectories,
)

DATA = Path(__file__).parent / "data"

with open(DATA / "segmentation_cases.json") as fh:
    SEGMENTATION_CASES = json.load(fh)


@pytest.mark.parametrize(
    "case", SEGMENTATION_CASES, ids=[c["text"][:30] for c in SEGMENTATION_CASES]
)
def test_segmentation_regression_corpus(case):
    assert segment_sentences(case["text"]) == case["expected"]


@pytest.mark.parametrize("text", ["", "   ", "\n\n", " \t \n "])
def test_segmentation_rejects_empty_text(text):
    with pytest.raises(CotriageError, match="no sentences in reasoning text"):
        segment_sentences(text)


_text_alphabet = st.sampled_from(list("abcXYz 123.?!\n:,"))
_texts = st.text(alphabet=_text_alphabet, min_size=1, max_size=120)


@given(_texts)
@settings(max_examples=300)
def test_segmentation_idempotent(text):
    try:
        sentences = segment_sentences(text)
    except CotriageError:
        return
    for s in sentences:
        assert segment_sentences(s) == [s]


@given(_texts)
@settings(max_examples=300)
def test_segmentation_preserves_non_whitespace(text):
    try:
        sentences = segment_sentences(text)
    except CotriageError:
        assert not text.strip()
        return
    assert all(s == s.strip() and s for s in sentences)
    joined = "".join("".join(s.split()) for s in sentences)
    assert joined == "".join(text.split())


def test_normalize_choices_worked_example():
    dist = normalize_choices([0.0, -math.log(3.0)])
    assert np.allclose(dist.probs, [0.75, 0.25], atol=1e-12)


def test_normalize_choices_rejects_non_finite():
    for bad in ([0.0, float("nan")], [float("inf"), 0.0], [0.0, -float("inf")]):
        with pytest.raises(CotriageError, match="log-scores contain NaN or infinity"):
            normalize_choices(bad)


def test_normalize_choices_rejects_short_vectors():
    with pytest.raises(ValueError):
        normalize_choices([0.0])


_logscore_vectors = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=8,
)


@given(_logscore_vectors)
@settings(max_examples=300)
def test_normalize_choices_sums_to_one(scores):
    dist = normalize_choices(scores)
    assert abs(float(dist.probs.sum()) - 1.0) < 1e-9
    assert np.all(dist.probs >= 0)


@given(_logscore_vectors, st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=300)
def test_normalize_choices_shift_invariant(scores, shift):
    base = normalize_choices(scores)
    shifted = normalize_choices([s + shift for s in scores])
    assert np.max(np.abs(base.probs - shifted.probs)) < 1e-9


@pytest.mark.parametrize("k", range(2, 9))
def test_uniform_distribution_signals(k):
    dist = normalize_choices([0.0] * k)
    p, entropy = sentence_signals(dist)
    assert abs(p - 1.0 / k) < 1e-9
    assert abs(entropy - math.log(k)) < 1e-9


def test_entropy_worked_example():
    dist = normalize_choices([math.log(0.75), math.log(0.25)])
    _, entropy = sentence_signals(dist)
    assert abs(entropy - 0.5623) < 1e-4


@given(_logscore_vectors)
@settings(max_examples=300)
def test_entropy_bounds(scores):
    dist = normalize_choices(scores)
    p, entropy = sentence_signals(dist)
    k = len(scores)
    assert -1e-12 <= entropy <= math.log(k) + 1e-9
    assert 1.0 / k - 1e-9 <= p <= 1.0


def test_answer_logscore_sums():
    assert answer_logscore([-0.5, -1.25]) == pytest.approx(-1.75)


def test_answer_logscore_rejects_empty():
    with pytest.raises(CotriageError, match="answer span has no tokens"):
        answer_logscore([])


def test_prefix_lengths_cumulative():
    assert prefix_lengths(["a b", "c", "d e f"]) == [2, 3, 6]


def _make_trajectory(qid="q0", k=4, t=3, label=True, seed=0):
    rng = np.random.default_rng(seed)
    texts = [f"Sentence number {i} has some words." for i in range(t)]
    return Trajectory(
        question_id=qid,
        texts=texts,
        log_scores=rng.normal(size=(t, k)),
        prefix_len=prefix_lengths(texts),
        greedy_answer=1,
        greedy_token_cost=120,
        label=label,
    )


@pytest.mark.parametrize("k", [2, 3, 4, 7, 16, 63])
def test_columns_equal_the_per_row_results(k):
    rng = np.random.default_rng(k)
    scores = rng.normal(scale=3.0, size=(12, k))
    dist = normalize_choices(scores)
    p, entropy = sentence_signals(dist)
    for t, row in enumerate(scores):
        one = normalize_choices(row)
        assert np.array_equal(dist.probs[t], one.probs)
        assert (p[t], entropy[t]) == sentence_signals(one)
    traj = Trajectory("q", ["x."] * 12, scores, range(1, 13), 0, 10)
    assert np.array_equal(traj.p, p) and np.array_equal(traj.entropy, entropy)


def test_trajectory_roundtrip(tmp_path):
    trajs = [
        _make_trajectory(f"q{i}", seed=i, label=None if i == 3 else i % 2 == 0) for i in range(5)
    ]
    path = tmp_path / "out.jsonl"
    write_trajectories(path, trajs)

    with open(path) as fh:
        header = json.loads(fh.readline())
    assert header == {"schema": "traj/1"}

    loaded = read_trajectories(path)
    assert len(loaded) == len(trajs)
    for orig, back in zip(trajs, loaded):
        assert back.question_id == orig.question_id
        assert back.greedy_answer == orig.greedy_answer
        assert back.greedy_token_cost == orig.greedy_token_cost
        assert back.label == orig.label
        assert back.texts == orig.texts
        assert np.array_equal(back.prefix_len, orig.prefix_len)
        assert np.array_equal(back.log_scores, orig.log_scores)
        assert np.array_equal(back.p, orig.p) and np.array_equal(back.entropy, orig.entropy)


def test_trajectory_read_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_trajectories(path, [_make_trajectory("q0"), _make_trajectory("q0", seed=1)])
    with pytest.raises(ParseError, match="line 3: duplicate traj/1 key 'q0'"):
        read_trajectories(path)


def test_trajectory_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "other/1"}\n')
    with pytest.raises(ParseError) as err:
        read_trajectories(path)
    assert err.value.line == 1


def test_trajectory_read_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "traj/1"}\nnot json\n')
    with pytest.raises(ParseError) as err:
        read_trajectories(path)
    assert err.value.line == 2


def test_trajectory_read_names_the_first_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "traj.jsonl"
    write_trajectories(path, [_make_trajectory(f"q{i}", seed=i) for i in range(60)])
    lines = path.read_bytes().splitlines(keepends=True)
    assert sum(map(len, lines[:40])) > 8192  # well past the first block the reader decodes
    lines[40] = lines[40].replace(b'"q39"', b'"q\xff9"')
    lines[50] = lines[50].replace(b'"q49"', b'"q\xfe9"')
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as err:
        read_trajectories(path)
    assert err.value.line == 41
    assert str(err.value) == f"line 41: {path} is not UTF-8 text: invalid start byte"


def _rewrite_second_record(path, edit):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    edit(rec)
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _stale_p(rec):
    rec["sentences"][1]["p"] += 0.1


def _stale_entropy(rec):
    rec["sentences"][0]["entropy"] -= 1e-8


def _no_sentences(rec):
    rec["sentences"] = []


def _answer_out_of_range(rec):
    rec["greedy_answer"] = 9


def _ragged_scores(rec):
    rec["sentences"][0]["log_scores"].append(0.0)


def _int_text(rec):
    rec["sentences"][1]["text"] = 5


def _bool_greedy_answer(rec):
    rec["greedy_answer"] = True


def _string_label(rec):
    rec["label"] = "false"


def _true_p(rec):
    rec["sentences"][0]["p"] = True


def _string_p(rec):
    rec["sentences"][0]["p"] = str(rec["sentences"][0]["p"])


def _null_entropy(rec):
    rec["sentences"][1]["entropy"] = None


def _nan_p(rec):
    rec["sentences"][2]["p"] = float("nan")


def _true_p_where_p_is_one(rec):
    # The derived p of this row is exactly 1.0, so a bool read as a number would pass.
    rec["sentences"][0]["log_scores"] = [0.0] + [-1000.0] * 3
    rec["sentences"][0]["entropy"] = 0.0
    rec["sentences"][0]["p"] = True


@pytest.mark.parametrize(
    "edit, message",
    [
        (_stale_p, "p/entropy disagree"),
        (_stale_entropy, "p/entropy disagree"),
        (_no_sentences, "no sentences"),
        (_answer_out_of_range, "greedy_answer out of range"),
        (_ragged_scores, "bad traj/1 record"),
        (_int_text, "text must be str"),
        (_bool_greedy_answer, "greedy_answer must be int"),
        (_string_label, "label must be bool"),
        (_true_p, "p must be float"),
        (_string_p, "p must be float"),
        (_null_entropy, "entropy must be float"),
        (_nan_p, "p/entropy disagree"),
        (_true_p_where_p_is_one, "p must be float"),
    ],
    ids=["stale_p", "stale_entropy", "no_sentences", "answer_out_of_range", "ragged_scores",
         "text_5", "greedy_answer_true", "label_string", "p_true", "p_string", "entropy_null",
         "p_nan", "p_true_where_p_is_one"],
)
def test_read_applies_the_writers_checks(tmp_path, edit, message):
    path = tmp_path / "t.jsonl"
    write_trajectories(path, [_make_trajectory("q0"), _make_trajectory("q1", seed=1)])
    _rewrite_second_record(path, edit)
    with pytest.raises(ParseError, match=message) as err:
        read_trajectories(path)
    assert err.value.line == 3


def _split(n=160, seed=0):
    """The fields of n trajectories: T 1..16 by K 2..5, some rows with p = 1.0 or log-scores of +-700."""
    rng = np.random.default_rng(seed)
    fields = []
    for i in range(n):
        t, k = 1 + i % 16, 2 + i // 16 % 4
        scores = rng.normal(scale=3.0, size=(t, k))
        if i % 3 == 0:
            scores[rng.integers(t)] = [0.0] + [-1000.0] * (k - 1)  # p is exactly 1.0
        if i % 5 == 0:
            scores[rng.integers(t)] = rng.choice([-700.0, 700.0], size=k)
        texts = [f"Sentence {j} of item {i}." for j in range(t)]
        fields.append(dict(question_id=f"q{i}", texts=texts, log_scores=scores,
                           prefix_len=prefix_lengths(texts), greedy_answer=i % k,
                           greedy_token_cost=10 + i, label=None if i % 7 == 0 else i % 2 == 0))
    return fields


def _same_bytes(got, alone):
    for name in ("log_scores", "prefix_len", "p", "entropy"):
        a, b = getattr(got, name), getattr(alone, name)
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and a.shape == b.shape, name
        assert not a.flags.writeable, name


def test_a_split_checked_in_one_call_equals_each_trajectory_built_alone(tmp_path):
    fields = _split()
    alone = [Trajectory(**f) for f in fields]
    assert any((t.p == 1.0).any() for t in alone) and any((abs(t.log_scores) == 700).any() for t in alone)
    together = [unchecked(Trajectory, **f) for f in fields]
    assert check_trajectories(together) is None
    path = tmp_path / "split.jsonl"
    write_trajectories(path, alone)
    for got, back, one in zip(together, read_trajectories(path), alone):
        _same_bytes(got, one)
        _same_bytes(back, one)
        assert (back.texts, back.greedy_answer, back.greedy_token_cost, back.label) == (
            one.texts, one.greedy_answer, one.greedy_token_cost, one.label)


def test_a_file_mixing_three_and_five_options_reads(tmp_path):
    trajs = [_make_trajectory(f"q{i}", k=(3, 5)[i % 2], t=1 + i, seed=i) for i in range(6)]
    path = tmp_path / "mixed.jsonl"
    write_trajectories(path, trajs)
    back = read_trajectories(path)
    assert [t.log_scores.shape for t in back] == [(1 + i, (3, 5)[i % 2]) for i in range(6)]
    for got, one in zip(back, trajs):
        _same_bytes(got, one)


@pytest.mark.parametrize(
    "line, first, fifth, message",
    [(3, _stale_p, _no_sentences, "q1: stored p/entropy disagree"),
     (3, _answer_out_of_range, _ragged_scores, "q1: greedy_answer out of range"),
     (3, _null_entropy, _no_sentences, "entropy must be float"),
     (3, _nan_p, _int_text, "q1: stored p/entropy disagree"),
     (2, _null_entropy, _stale_p, "entropy must be float")],
    ids=["stale_p_then_no_sentences", "answer_9_then_ragged", "entropy_null_then_no_sentences",
         "p_nan_then_text_5", "entropy_null_on_the_first_record_then_stale_p"],
)
def test_the_first_of_two_bad_records_names_the_error(tmp_path, line, first, fifth, message):
    path = tmp_path / "t.jsonl"
    write_trajectories(path, [_make_trajectory(f"q{i}", seed=i) for i in range(5)])
    lines = path.read_text().splitlines()
    for lineno, edit in ((line, first), (5, fifth)):
        rec = json.loads(lines[lineno - 1])
        edit(rec)
        lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as err:
        read_trajectories(path)
    assert err.value.line == line


def test_validate_catches_non_increasing_prefix():
    traj = _make_trajectory()
    with pytest.raises(ValueError, match="read-only"):
        traj.prefix_len[2] = traj.prefix_len[1]
    plen = traj.prefix_len.copy()
    plen[2] = plen[1]
    with pytest.raises(ValueError, match="strictly increasing"):
        replace(traj, prefix_len=plen)


def test_array_fields_are_read_only_views_of_the_callers_arrays():
    scores = np.random.default_rng(1).normal(size=(3, 4))
    plen = np.array([3, 7, 9])
    traj = Trajectory("q", ["a b c.", "d e f g.", "h i."], scores, plen, 1, 10)
    for name in ("log_scores", "prefix_len", "p", "entropy"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 1
    assert np.shares_memory(traj.log_scores, scores) and np.shares_memory(traj.prefix_len, plen)
    assert scores.flags.writeable and plen.flags.writeable


def test_construction_validates():
    with pytest.raises(ValueError, match="no sentences"):
        Trajectory("q", [], np.zeros((0, 3)), [], 0, 10)
    with pytest.raises(ValueError, match="greedy_answer"):
        Trajectory("q", ["a b."], np.zeros((1, 3)), [2], 3, 10)
    with pytest.raises(ValueError, match="NaN"):
        Trajectory("q", ["a b."], [[0.0, float("nan")]], [2], 0, 10)


def test_validate_catches_bad_answer_index():
    traj = _make_trajectory(k=4)
    with pytest.raises(ValueError, match="greedy_answer out of range"):
        replace(traj, greedy_answer=4)
    with pytest.raises(FrozenInstanceError):
        traj.greedy_answer = 4


def test_questions_roundtrip(tmp_path):
    qs = [
        McQuestion("a", "Pick one.", ["opt A", "opt B", "opt C"], gold_idx=2),
        McQuestion("b", "Pick again.", ["yes", "no"], gold_idx=None),
    ]
    path = tmp_path / "qs.jsonl"
    write_questions(path, qs)
    loaded = load_questions(path)
    assert [q.question_id for q in loaded] == ["a", "b"]
    assert loaded[0].gold_idx == 2
    assert loaded[1].gold_idx is None
    assert loaded[0].options == ["opt A", "opt B", "opt C"]


def test_questions_read_a_null_or_absent_answer_idx(tmp_path):
    path = tmp_path / "qs.jsonl"
    path.write_text(
        '{"schema": "questions/1"}\n'
        '{"id": "a", "question": "?", "options": ["x", "y"], "answer_idx": null}\n'
        '{"id": "b", "question": "?", "options": ["x", "y"]}\n'
    )
    assert [q.gold_idx for q in load_questions(path)] == [None, None]


def test_questions_reject_single_option(tmp_path):
    path = tmp_path / "qs.jsonl"
    path.write_text(
        '{"schema": "questions/1"}\n{"id": "a", "question": "?", "options": ["only"]}\n'
    )
    with pytest.raises(ParseError) as err:
        load_questions(path)
    assert err.value.line == 2


def test_questions_reject_duplicate_ids(tmp_path):
    path = tmp_path / "qs.jsonl"
    rec = '{"id": "a", "question": "?", "options": ["x", "y"]}\n'
    path.write_text('{"schema": "questions/1"}\n' + rec + rec)
    with pytest.raises(ParseError, match="line 3: duplicate questions/1 key 'a'"):
        load_questions(path)
