import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriage import lexicons
from cotriage.features import (
    LINGUISTIC_LAYOUT,
    NUMERIC_LAYOUT,
    LAYOUTS,
    assemble,
    linguistic_features,
    numeric_features,
    read_features,
    read_labels,
    write_features,
    write_labels,
)
from cotriage.errors import DuplicateId, ParseError
from cotriage.trajectory import McQuestion, Trajectory, prefix_lengths

def col(name, subset="full"):
    return LAYOUTS[subset].index(name)


def make_traj(p_series, texts=None, k=None, qid="q0"):
    """Trajectory whose top-choice probability follows p_series exactly."""
    if k is None:
        # max prob can never drop below 1/K, so pick K to fit the series
        k = max(4, math.ceil(1.0 / min(p_series)))
    t = len(p_series)
    if texts is None:
        texts = [f"Reasoning step {i} considers the options." for i in range(t)]
    probs = np.full((t, k), (1.0 - np.asarray(p_series)[:, None]) / (k - 1))
    probs[:, 0] = p_series
    return Trajectory(
        qid, texts, np.log(probs), prefix_lengths(texts), greedy_answer=0, greedy_token_cost=100,
        label=True,
    )


QUESTION = McQuestion(
    "q0",
    "Is the dose low or high for this patient?",
    ["low dose", "high dose", "unchanged dose", "unknown"],
    gold_idx=0,
)


def test_layout_sizes():
    assert len(NUMERIC_LAYOUT) == 12
    assert len(LINGUISTIC_LAYOUT) == 20
    assert len(LAYOUTS["full"]) == 32
    assert LAYOUTS["full"] == NUMERIC_LAYOUT + LINGUISTIC_LAYOUT
    assert len(set(LAYOUTS["full"])) == 32


def test_subset_shapes():
    traj = make_traj([0.5, 0.6, 0.7])
    assert assemble(traj, "full", QUESTION).x.shape == (3, 32)
    assert assemble(traj, "numeric").x.shape == (3, 12)
    assert assemble(traj, "linguistic", QUESTION).x.shape == (3, 20)


def test_unknown_subset_rejected():
    with pytest.raises(ValueError, match="unknown feature subset"):
        assemble(make_traj([0.5, 0.6]), "everything", QUESTION)


def test_full_subset_requires_question():
    traj = make_traj([0.5, 0.6])
    with pytest.raises(ValueError):
        assemble(traj, "full")


def test_question_id_mismatch_rejected():
    traj = make_traj([0.5, 0.6], qid="q1")
    with pytest.raises(ValueError):
        assemble(traj, "full", QUESTION)


def test_ema_worked_example():
    traj = make_traj([0.2, 0.8])
    x = numeric_features(traj)
    np.testing.assert_allclose(x[:, col("p_ema")], [0.2, 0.38], atol=1e-12)


def test_first_row_deltas_are_zero():
    traj = make_traj([0.3, 0.5, 0.4])
    x = numeric_features(traj)
    for name in ("delta_p", "delta_entropy", "delta_ema"):
        assert x[0, col(name)] == 0.0


def test_rolling_window_hand_computed():
    traj = make_traj([0.2, 0.5, 0.9, 0.4])
    x = numeric_features(traj)
    exp_std = [0.0, 0.15, math.sqrt(0.246666666666667 / 3), math.sqrt(0.14 / 3)]
    exp_rng = [0.0, 0.3, 0.7, 0.5]
    np.testing.assert_allclose(x[:, col("p_roll_std")], exp_std, atol=1e-9)
    np.testing.assert_allclose(x[:, col("p_roll_range")], exp_rng, atol=1e-9)


def test_p_over_log_len_column():
    traj = make_traj([0.5, 0.6])
    x = numeric_features(traj)
    plens = traj.prefix_len
    expected = [0.5 / math.log(1 + plens[0]), 0.6 / math.log(1 + plens[1])]
    np.testing.assert_allclose(x[:, col("p_over_log_len")], expected, atol=1e-12)


@given(
    st.lists(st.floats(min_value=0.3, max_value=0.97), min_size=2, max_size=12),
)
@settings(max_examples=100)
def test_zscore_columns_centered(p_series):
    traj = make_traj(p_series)
    x = numeric_features(traj)
    for name in ("p_zscore", "ema_zscore"):
        assert abs(x[:, col(name)].mean()) < 1e-6


def test_linguistic_worked_example():
    row = linguistic_features("Hello.", 1, 1, QUESTION)
    get = lambda n: row[LINGUISTIC_LAYOUT.index(n)]
    assert get("tok_count") == 1
    assert get("char_count") == 6
    assert get("avg_tok_len") == 6.0
    assert get("period_count") == 1
    assert get("upper_ratio") == pytest.approx(1 / 6)
    assert get("punct_density") == pytest.approx(1 / 6)
    assert get("digit_ratio") == 0.0
    assert get("is_final") == 1.0
    assert get("position_frac") == 1.0


def test_overlap_features():
    row = linguistic_features("the dose is low", 1, 2, QUESTION)
    get = lambda n: row[LINGUISTIC_LAYOUT.index(n)]
    assert get("q_overlap_count") == 4
    assert get("q_overlap_ratio") == 1.0
    # "dose" and "low" appear in the options
    assert get("opt_overlap_count") == 2
    assert get("opt_overlap_ratio") == 0.5
    assert get("position_frac") == 0.5
    assert get("is_final") == 0.0


def test_lexicon_counts():
    row = linguistic_features(
        "Maybe it could be right, but this is definitely unclear.", 1, 1, QUESTION
    )
    get = lambda n: row[LINGUISTIC_LAYOUT.index(n)]
    assert get("hedge_count") == 3  # maybe, could, unclear
    assert get("certainty_count") == 1  # definitely
    assert get("connector_count") == 1  # but
    assert get("comma_count") == 1


def test_punctuation_only_sentence_is_finite():
    row = linguistic_features("...", 1, 1, QUESTION)
    assert np.all(np.isfinite(row))
    assert row[LINGUISTIC_LAYOUT.index("tok_count")] == 1
    assert row[LINGUISTIC_LAYOUT.index("punct_density")] == 1.0


def test_option_permutation_invariance():
    traj = make_traj([0.4, 0.7, 0.9])
    base = assemble(traj, "full", QUESTION).x
    shuffled = McQuestion(
        QUESTION.question_id,
        QUESTION.question,
        [QUESTION.options[i] for i in (2, 0, 3, 1)],
        gold_idx=1,
    )
    np.testing.assert_array_equal(base, assemble(traj, "full", shuffled).x)


def test_assemble_mask_and_determinism():
    traj = make_traj([0.3, 0.6, 0.8, 0.9])
    a = assemble(traj, "full", QUESTION)
    b = assemble(traj, "full", QUESTION)
    np.testing.assert_array_equal(a.x, b.x)
    assert a.layout_id == "full"
    assert np.all(np.isfinite(a.x))


def test_lexicons_are_nonempty_and_lowercase():
    for lex in (lexicons.HEDGES, lexicons.CERTAINTY, lexicons.CONNECTORS, lexicons.STOPWORDS):
        assert lex
        assert all(w and w == w.lower() for w in lex)


def test_feature_dump_roundtrip(tmp_path):
    trajs = [make_traj([0.4, 0.6, 0.8], qid="a"), make_traj([0.3, 0.9], qid="b")]
    qs = [
        McQuestion("a", QUESTION.question, QUESTION.options, 0),
        McQuestion("b", QUESTION.question, QUESTION.options, 1),
    ]
    seqs = [assemble(t, "full", q) for t, q in zip(trajs, qs)]
    path = tmp_path / "feat.jsonl"
    write_features(path, seqs)
    loaded = read_features(path)
    assert [s.question_id for s in loaded] == ["a", "b"]
    for orig, back in zip(seqs, loaded):
        np.testing.assert_allclose(back.x, orig.x, atol=0)
        assert back.layout_id == orig.layout_id


def test_features_read_applies_the_writers_checks(tmp_path):
    path = tmp_path / "feat.jsonl"
    path.write_text(
        '{"schema": "features/1"}\n'
        '{"question_id": "a", "mask_len": 1, "layout_id": "numeric", "rows": [[NaN, 1.0]]}\n'
    )
    with pytest.raises(ParseError, match="NaN") as err:
        read_features(path)
    assert err.value.line == 2


def test_keyed_readers_reject_a_repeated_id_naming_its_line(tmp_path):
    path = tmp_path / "feat.jsonl"
    write_features(path, [assemble(make_traj([0.5, 0.7], qid=q), "numeric") for q in "aba"])
    with pytest.raises(DuplicateId, match="line 4: duplicate features/1 key 'a'"):
        read_features(path)
    path = tmp_path / "labels.jsonl"
    path.write_text(
        '{"schema": "labels/1"}\n\n'
        '{"question_id": "a", "label": true}\n{"question_id": "a", "label": false}\n'
    )
    with pytest.raises(DuplicateId, match="line 4: duplicate labels/1 key 'a'"):
        read_labels(path)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_labels(path, {"a": True, "b": False})
    assert read_labels(path) == {"a": True, "b": False}


def test_header_may_follow_blank_lines(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text('\n{"schema": "labels/1"}\n{"question_id": "a", "label": true}\n')
    assert read_labels(path) == {"a": True}


@pytest.mark.parametrize("text", ["", "\n\n", '{"question_id": "a", "label": true}\n'])
def test_file_without_header_rejected(tmp_path, text):
    path = tmp_path / "labels.jsonl"
    path.write_text(text)
    with pytest.raises(ParseError, match="labels/1"):
        read_labels(path)
