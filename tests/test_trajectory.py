import json
import math
from dataclasses import FrozenInstanceError, fields, replace
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
    derive_signals,
    load_questions,
    normalize_choices,
    read_trajectories,
    segment_sentences,
    sentence_signals,
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


_SPACES = [" ", "\t", "\n", "\xa0", "\u3000", " \t\xa0\u3000\n"]


def _signals(trajs):
    """Each trajectory's (log_scores, prefix_len, p, entropy), its signals from one derive_signals call."""
    return [(traj.log_scores, *derived) for traj, *derived in zip(trajs, *derive_signals(trajs))]


def test_prefix_len_counts_whitespace_tokens():
    """The cumulative len(text.split()), in a split derived in one call and in each trajectory alone."""
    traj = Trajectory("q", ["a\tb", "c\nd\xa0e", "\u3000f  "], np.zeros((3, 2)), 0, 1)
    (plen,), _, _ = derive_signals([traj])
    assert plen.tolist() == [2, 5, 6] and plen.dtype == np.int64
    rng = np.random.default_rng(0)
    split, counts = [], []
    for i in range(50):
        words = [[f"w{j}." for j in range(1, 1 + rng.integers(1, 6))] for _ in range(1 + i % 7)]
        texts = ["".join(str(rng.choice(_SPACES)) + w for w in ws) + str(rng.choice(_SPACES))
                 for ws in words]
        split.append(dict(question_id=f"q{i}", texts=texts, log_scores=rng.normal(size=(len(texts), 3)),
                          greedy_answer=0, greedy_token_cost=1))
        counts.append(np.cumsum([len(ws) for ws in words]).tolist())
    trajs = [Trajectory(**f) for f in split]
    for got, traj, expected in zip(derive_signals(trajs)[0], trajs, counts):
        assert got.tolist() == derive_signals([traj])[0][0].tolist() == expected
    # a text made only of such whitespace, or of nothing, has no token and is no sentence
    for blank in ["", *_SPACES, "".join(_SPACES)]:
        assert blank.split() == []
        split[17]["texts"] = [*split[17]["texts"][:-1], blank]
        with pytest.raises(ValueError, match="q17: sentence text is empty"):
            Trajectory(**split[17])


def _make_trajectory(qid="q0", k=4, t=3, label=True, seed=0):
    rng = np.random.default_rng(seed)
    texts = [f"Sentence number {i} has some words." for i in range(t)]
    return Trajectory(
        question_id=qid,
        texts=texts,
        log_scores=rng.normal(size=(t, k)),
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
    _, (traj_p,), (traj_entropy,) = derive_signals([Trajectory("q", ["x."] * 12, scores, 0, 10)])
    assert np.array_equal(traj_p, p) and np.array_equal(traj_entropy, entropy)


def test_trajectory_roundtrip(tmp_path):
    trajs = [
        _make_trajectory(f"q{i}", seed=i, label=None if i == 3 else i % 2 == 0) for i in range(5)
    ]
    path = tmp_path / "out.jsonl"
    write_trajectories(path, trajs)

    with open(path) as fh:
        header, first = map(json.loads, fh.readlines()[:2])
    assert header == {"schema": "traj/2"}
    assert all(set(sent) == {"text", "log_scores"} for sent in first["sentences"])

    loaded = read_trajectories(path)
    assert len(loaded) == len(trajs)
    for orig, back in zip(trajs, loaded):
        assert back.question_id == orig.question_id
        assert back.greedy_answer == orig.greedy_answer
        assert back.greedy_token_cost == orig.greedy_token_cost
        assert back.label == orig.label
        assert back.texts == orig.texts
        assert np.array_equal(back.log_scores, orig.log_scores)


def test_trajectory_read_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_trajectories(path, [_make_trajectory("q0"), _make_trajectory("q0", seed=1)])
    with pytest.raises(ParseError, match="line 3: duplicate traj/2 key 'q0'"):
        read_trajectories(path)


def test_trajectory_read_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "other/1"}\n')
    with pytest.raises(ParseError) as err:
        read_trajectories(path)
    assert err.value.line == 1


def test_trajectory_read_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": "traj/2"}\nnot json\n')
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
    assert str(err.value) == f"{path}: line 41: not UTF-8 text: invalid start byte"


def _rewrite_second_record(path, edit):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    edit(rec)
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


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


def _blank_text(rec):
    rec["sentences"][1]["text"] = "\xa0\u3000\t"


def _nan_score(rec):
    rec["sentences"][2]["log_scores"][0] = float("nan")


def _token_cost_2_64(rec):
    rec["greedy_token_cost"] = 2**64  # decoded as a float, which is not an int


def _lone_surrogate(rec):
    rec["sentences"][1]["text"] = "\ud800"  # written as the escape \ud800, which is not JSON text


@pytest.mark.parametrize(
    "edit, message",
    [
        (_no_sentences, "no sentences"),
        (_answer_out_of_range, "greedy_answer out of range"),
        (_ragged_scores, "bad traj/2 record"),
        (_int_text, "text must be str"),
        (_bool_greedy_answer, "greedy_answer must be int"),
        (_string_label, "label must be bool"),
        (_blank_text, "q1: sentence text is empty"),
        (_nan_score, "invalid JSON: unexpected character"),
        (_token_cost_2_64, "greedy_token_cost must be int"),
        (_lone_surrogate, "invalid JSON: "),
    ],
    ids=["no_sentences", "answer_out_of_range", "ragged_scores", "text_5", "greedy_answer_true",
         "label_string", "text_blank", "log_score_nan", "greedy_token_cost_2_64",
         "text_lone_surrogate"],
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
        fields.append(dict(question_id=f"q{i}", texts=texts, log_scores=scores, greedy_answer=i % k,
                           greedy_token_cost=10 + i, label=None if i % 7 == 0 else i % 2 == 0))
    return fields


def _same_bytes(got, alone):
    for name, a, b in zip(("log_scores", "prefix_len", "p", "entropy"), got, alone):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and a.shape == b.shape, name
        assert not a.flags.writeable, name


def test_a_split_derived_in_one_call_equals_each_trajectory_built_alone(tmp_path):
    trajs = [Trajectory(**f) for f in _split()]
    alone = [_signals([traj])[0] for traj in trajs]
    assert any((p == 1.0).any() for _, _, p, _ in alone) and any((abs(s) == 700).any() for s, *_ in alone)
    path = tmp_path / "split.jsonl"
    write_trajectories(path, trajs)
    back = read_trajectories(path)
    for got, reread, one in zip(_signals(trajs), _signals(back), alone):
        _same_bytes(got, one)
        _same_bytes(reread, one)
    for traj, reread in zip(trajs, back):
        assert (reread.texts, reread.greedy_answer, reread.greedy_token_cost, reread.label) == (
            traj.texts, traj.greedy_answer, traj.greedy_token_cost, traj.label)


def test_a_file_mixing_three_and_five_options_reads(tmp_path):
    trajs = [_make_trajectory(f"q{i}", k=(3, 5)[i % 2], t=1 + i, seed=i) for i in range(6)]
    path = tmp_path / "mixed.jsonl"
    write_trajectories(path, trajs)
    back = read_trajectories(path)
    assert [t.log_scores.shape for t in back] == [(1 + i, (3, 5)[i % 2]) for i in range(6)]
    for got, traj in zip(_signals(back), trajs):
        _same_bytes(got, _signals([traj])[0])


def test_every_derived_view_is_read_only():
    trajs = [Trajectory(**f) for f in _split(20)]
    for name, views in zip(("prefix_len", "p", "entropy"), derive_signals(trajs)):
        assert [v.shape for v in views] == [(len(t.texts),) for t in trajs], name
        for view in views:
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1
    assert derive_signals([]) == ([], [], [])


@pytest.mark.parametrize(
    "line, first, fifth, message",
    [(3, _blank_text, _no_sentences, "q1: sentence text is empty"),
     (3, _answer_out_of_range, _ragged_scores, "q1: greedy_answer out of range"),
     (3, _nan_score, _no_sentences, "invalid JSON: unexpected character"),
     (3, _blank_text, _int_text, "q1: sentence text is empty"),
     (2, _nan_score, _blank_text, "invalid JSON: unexpected character")],
    ids=["blank_then_no_sentences", "answer_9_then_ragged", "nan_then_no_sentences",
         "blank_then_text_5", "nan_on_line_2_then_blank"],
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


def test_an_integer_log_score_beyond_uint64_reads_as_a_float(tmp_path):
    """An integer outside [-2**63, 2**64) is read as a float64, like any finite log-score."""
    path = tmp_path / "t.jsonl"
    write_trajectories(path, [_make_trajectory("q0"), _make_trajectory("q1", seed=1)])

    def big_score(rec):
        rec["sentences"][0]["log_scores"][0] = 10**20

    _rewrite_second_record(path, big_score)
    assert '"log_scores": [100000000000000000000,' in path.read_text().splitlines()[2]
    traj = read_trajectories(path)[1]
    assert traj.log_scores.dtype == np.float64 and traj.log_scores[0, 0] == 1e20


def test_array_fields_are_read_only_views_of_the_callers_arrays():
    scores = np.random.default_rng(1).normal(size=(3, 4))
    traj = Trajectory("q", ["a b c.", "d e f g.", "h i."], scores, 1, 10)
    with pytest.raises(ValueError, match="read-only"):
        traj.log_scores[0] = 1
    assert np.shares_memory(traj.log_scores, scores) and scores.flags.writeable
    assert [f.name for f in fields(traj)] == ["question_id", "texts", "log_scores", "greedy_answer",
                                              "greedy_token_cost", "label"]


def test_construction_validates():
    with pytest.raises(ValueError, match="no sentences"):
        Trajectory("q", [], np.zeros((0, 3)), 0, 10)
    with pytest.raises(ValueError, match="greedy_answer"):
        Trajectory("q", ["a b."], np.zeros((1, 3)), 3, 10)
    with pytest.raises(ValueError, match="NaN"):
        Trajectory("q", ["a b."], [[0.0, float("nan")]], 0, 10)


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
