import base64
import json
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriage import lexicons
from cotriage.features import (
    LINGUISTIC_CHUNK,
    LINGUISTIC_LAYOUT,
    FeatureSequence,
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
from cotriage.errors import ParseError
from cotriage.jsonl import dumps_record
from cotriage.trajectory import McQuestion, Trajectory, derive_signals, normalize_choices, sentence_signals

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
        qid, texts, np.log(probs), greedy_answer=0, greedy_token_cost=100, label=True
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
    x = numeric_features([traj])[0]
    np.testing.assert_allclose(x[:, col("p_ema")], [0.2, 0.38], atol=1e-12)


def test_first_row_deltas_are_zero():
    traj = make_traj([0.3, 0.5, 0.4])
    x = numeric_features([traj])[0]
    for name in ("delta_p", "delta_entropy", "delta_ema"):
        assert x[0, col(name)] == 0.0


def test_rolling_window_hand_computed():
    traj = make_traj([0.2, 0.5, 0.9, 0.4])
    x = numeric_features([traj])[0]
    exp_std = [0.0, 0.15, math.sqrt(0.246666666666667 / 3), math.sqrt(0.14 / 3)]
    exp_rng = [0.0, 0.3, 0.7, 0.5]
    np.testing.assert_allclose(x[:, col("p_roll_std")], exp_std, atol=1e-9)
    np.testing.assert_allclose(x[:, col("p_roll_range")], exp_rng, atol=1e-9)


def test_p_over_log_len_column():
    traj = make_traj([0.5, 0.6])
    x = numeric_features([traj])[0]
    (plens,), _, _ = derive_signals([traj])
    expected = [0.5 / math.log(1 + plens[0]), 0.6 / math.log(1 + plens[1])]
    np.testing.assert_allclose(x[:, col("p_over_log_len")], expected, atol=1e-12)


@given(
    st.lists(st.floats(min_value=0.3, max_value=0.97), min_size=2, max_size=12),
)
@settings(max_examples=100)
def test_zscore_columns_centered(p_series):
    traj = make_traj(p_series)
    x = numeric_features([traj])[0]
    for name in ("p_zscore", "ema_zscore"):
        assert abs(x[:, col(name)].mean()) < 1e-6


def test_linguistic_worked_example():
    row = linguistic_features([["Hello."]], [QUESTION])[0][0]
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
    row = linguistic_features([["the dose is low", "Next."]], [QUESTION])[0][0]
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
        [["Maybe it could be right, but this is definitely unclear."]], [QUESTION]
    )[0][0]
    get = lambda n: row[LINGUISTIC_LAYOUT.index(n)]
    assert get("hedge_count") == 3  # maybe, could, unclear
    assert get("certainty_count") == 1  # definitely
    assert get("connector_count") == 1  # but
    assert get("comma_count") == 1


def test_punctuation_only_sentence_is_finite():
    row = linguistic_features([["..."]], [QUESTION])[0][0]
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


def test_feature_matrix_is_a_read_only_view_of_the_callers_array():
    x = np.zeros((2, 3))
    seq = FeatureSequence("a", x, "numeric")
    with pytest.raises(ValueError, match="read-only"):
        seq.x[0, 0] = np.nan
    assert np.shares_memory(seq.x, x) and x.flags.writeable


def _features_file(path, rec):
    """A features/2 file holding rec after its header."""
    path.write_text(dumps_record({"schema": "features/2"}) + "\n" + json.dumps(rec) + "\n")


def _encoded(x):
    return base64.b64encode(np.asarray(x, dtype="<f8").tobytes()).decode("ascii")


def test_features_read_applies_the_writers_checks(tmp_path):
    path = tmp_path / "feat.jsonl"
    row = [np.nan] + [1.0] * 11
    _features_file(path, {"question_id": "a", "layout_id": "numeric", "shape": [1, 12],
                          "rows": _encoded([row])})
    with pytest.raises(ParseError, match="NaN") as err:
        read_features(path)
    assert err.value.line == 2


def test_feature_rows_round_trip_bit_for_bit(tmp_path):
    x = np.full((3, 12), 0.1)
    x[0, :4] = [-0.0, 5e-324, 1e308, -1e308]  # negative zero, the smallest subnormal, near max
    x[1] = np.arange(12) / 3
    path = tmp_path / "feat.jsonl"
    write_features(path, [FeatureSequence("a", x, "numeric")])
    (back,) = read_features(path)
    assert back.x.tobytes() == x.tobytes() and back.x.shape == (3, 12)
    rec = json.loads(path.read_text().splitlines()[1])
    assert sorted(rec) == ["layout_id", "question_id", "rows", "shape"] and rec["shape"] == [3, 12]
    decoded = np.frombuffer(base64.b64decode(rec["rows"]), "<f8").reshape(rec["shape"])
    assert decoded.tobytes() == x.tobytes()


@pytest.mark.parametrize(
    "field, value, message",
    [("rows", _encoded(np.ones((2, 12)))[:-4], "rows hold 189 bytes, not the 192 of shape"),
     ("rows", "not base64!", "Only base64 data is allowed"),
     ("rows", _encoded(np.ones((2, 12))).replace("A", "-"), "Only base64 data is allowed"),
     ("shape", [2, 11], "rows have 11 columns, layout 'numeric' has 12"),
     ("shape", [2, 12.0], "shape must be two ints, not \\[2, 12.0\\]"),
     ("shape", [2, True], "shape must be two ints"),
     ("shape", [2, 12, 1], "shape must be two ints"),
     ("shape", [3, 12], "rows hold 192 bytes, not the 288 of shape"),
     ("shape", [-2, 12], "rows hold 192 bytes, not the -192 of shape"),
     ("shape", "2x12", "shape must be list")],
    ids=["truncated_rows", "rows_not_base64", "rows_url_safe_alphabet", "shape_11_columns",
         "shape_float_columns", "shape_bool_columns", "shape_three_dims", "shape_extra_row",
         "shape_negative_rows", "shape_string"],
)
def test_malformed_feature_record_is_a_parse_error_naming_its_line(tmp_path, field, value,
                                                                   message):
    rec = {"question_id": "a", "layout_id": "numeric", "shape": [2, 12],
           "rows": _encoded(np.ones((2, 12)))}
    path = tmp_path / "feat.jsonl"
    _features_file(path, {**rec, field: value})
    with pytest.raises(ParseError, match=message) as err:
        read_features(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "edits, line, message",
    [({40: np.full((2, 12), np.nan), 45: "{not json"}, 40, "NaN or infinity"),
     ({60: np.ones((0, 12)), 65: np.full((2, 12), np.inf)}, 60, "feature matrix has no rows")],
    ids=["nan_then_invalid_json", "no_rows_then_inf"],
)
def test_a_features_file_names_its_first_bad_line(tmp_path, edits, line, message):
    """Of 70 records, the first bad one is named even when a later line holds another error;
    a good file reads back bit for bit as read-only views."""
    seqs = [FeatureSequence(f"q{i}", np.full((2, 12), i / 7), "numeric") for i in range(70)]
    path = tmp_path / "feat.jsonl"
    write_features(path, seqs)
    back = read_features(path)
    assert [b.x.tobytes() for b in back] == [s.x.tobytes() for s in seqs]
    assert not any(b.x.flags.writeable for b in back)
    lines = path.read_text().splitlines()
    for lineno, edit in edits.items():
        rec = json.loads(lines[lineno - 1])
        lines[lineno - 1] = edit if isinstance(edit, str) else json.dumps(
            {**rec, "shape": list(edit.shape), "rows": _encoded(edit)})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as err:
        read_features(path)
    assert err.value.line == line


def test_keyed_readers_reject_a_repeated_id_naming_its_line(tmp_path):
    path = tmp_path / "feat.jsonl"
    write_features(path, [assemble(make_traj([0.5, 0.7], qid=q), "numeric") for q in "aba"])
    with pytest.raises(ParseError, match="line 4: duplicate features/2 key 'a'"):
        read_features(path)
    path = tmp_path / "labels.jsonl"
    path.write_text(
        '{"schema": "labels/1"}\n\n'
        '{"question_id": "a", "label": true}\n{"question_id": "a", "label": false}\n'
    )
    with pytest.raises(ParseError, match="line 4: duplicate labels/1 key 'a'"):
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


# --- bit-for-bit oracle ------------------------------------------------------
# The per-trajectory numeric and per-sentence linguistic code the columns were
# first computed with, kept as the reference that the split-wide code must
# reproduce byte for byte.


_REF_PUNCT = set(string.punctuation)


def _ref_rolling(values):
    t = len(values)
    std = np.empty(t)
    rng = np.empty(t)
    for i in range(t):
        lo = max(0, i - 3 + 1)
        win = values[lo : i + 1]
        std[i] = win.std()
        rng[i] = win.max() - win.min()
    return std, rng


def _ref_zscore(values):
    return (values - values.mean()) / (values.std() + 1e-8)


def _ref_numeric(traj):
    p, entropy = sentence_signals(normalize_choices(traj.log_scores))
    plen = np.cumsum([len(s.split()) for s in traj.texts]).astype(np.float64)
    delta_p = np.diff(p, prepend=p[:1])
    delta_h = np.diff(entropy, prepend=entropy[:1])
    roll_std, roll_rng = _ref_rolling(p)
    ema = np.empty_like(p)
    ema[0] = p[0]
    for i in range(1, len(p)):
        ema[i] = 0.3 * p[i] + (1.0 - 0.3) * ema[i - 1]
    delta_ema = np.diff(ema, prepend=ema[:1])
    cols = [p, entropy, p / np.log1p(plen), delta_p, delta_h, roll_std, roll_rng, plen, ema,
            delta_ema, _ref_zscore(p), _ref_zscore(ema)]
    return np.stack(cols, axis=1)


def _ref_norm_tokens(text):
    out = []
    for tok in text.split():
        t = tok.lower().strip(string.punctuation)
        if t:
            out.append(t)
    return out


def _ref_linguistic(sentence, t_index, t_total, question):
    raw_tokens = sentence.split()
    n_tok = len(raw_tokens)
    n_char = len(sentence)
    norm = _ref_norm_tokens(sentence)
    q_ref = set(_ref_norm_tokens(question.question))
    opt_ref = set()
    for opt in question.options:
        opt_ref.update(_ref_norm_tokens(opt))
    q_overlap = sum(1 for t in norm if t in q_ref)
    opt_overlap = sum(1 for t in norm if t in opt_ref)
    n_punct = sum(1 for c in sentence if c in _REF_PUNCT)
    n_digit = sum(1 for c in sentence if c.isdigit())
    n_upper = sum(1 for c in sentence if c.isupper())
    return np.array(
        [
            n_tok,
            n_char,
            sum(len(t) for t in raw_tokens) / n_tok if n_tok else 0.0,
            sum(1 for t in norm if t in lexicons.STOPWORDS) / n_tok if n_tok else 0.0,
            sentence.count(","),
            sentence.count("."),
            sentence.count("?"),
            sentence.count("!"),
            n_punct / n_char if n_char else 0.0,
            n_digit / n_char if n_char else 0.0,
            n_upper / n_char if n_char else 0.0,
            q_overlap,
            q_overlap / n_tok if n_tok else 0.0,
            opt_overlap,
            opt_overlap / n_tok if n_tok else 0.0,
            sum(1 for t in norm if t in lexicons.HEDGES),
            sum(1 for t in norm if t in lexicons.CERTAINTY),
            sum(1 for t in norm if t in lexicons.CONNECTORS),
            t_index / t_total,
            1.0 if t_index == t_total else 0.0,
        ],
        dtype=np.float64,
    )


def _ref_full(traj, question):
    ling = np.stack([_ref_linguistic(s, i + 1, len(traj.texts), question)
                     for i, s in enumerate(traj.texts)])
    return np.concatenate([_ref_numeric(traj), ling], axis=1)


_WORDS = (
    "the dose is low high maybe perhaps clearly definitely however so because option A B "
    "Step 3.5 mg, (b). well?! 12% É über Ⅻ ² ٣ -- ... 'quoted' x=4; THEREFORE unclear Dose"
).split()


def _mixed_split(seed, n_per_length=3):
    """Trajectories of every length 1..16 in a shuffled order, with their questions."""
    rng = np.random.default_rng(seed)
    lengths = [t for t in range(1, 17) for _ in range(n_per_length)]
    rng.shuffle(lengths)
    trajs, questions = [], []
    for i, t in enumerate(lengths):
        k = int(rng.integers(2, 7))
        texts = [" ".join(rng.choice(_WORDS, size=int(rng.integers(1, 12)))) for _ in range(t)]
        qid = f"q{i}"
        trajs.append(Trajectory(qid, texts, rng.normal(scale=3.0, size=(t, k)), 0, 100, label=bool(i % 2)))
        words = rng.choice(_WORDS, size=8)
        questions.append(McQuestion(qid, " ".join(words), [" ".join(rng.choice(_WORDS, size=2))
                                                          for _ in range(k)]))
    return trajs, questions


def test_numeric_columns_equal_the_per_trajectory_reference_bit_for_bit():
    # both splits use the ids q0, q1, ... for different content
    for seed in (0, 1):
        trajs, _ = _mixed_split(seed)
        blocks = numeric_features(trajs)
        assert len(blocks) == len(trajs)
        for traj, block in zip(trajs, blocks):
            ref = _ref_numeric(traj)
            assert block.shape == ref.shape
            assert block.tobytes() == ref.tobytes(), traj.question_id


# Sentences no Trajectory holds but the columns must still count as str does:
# a lone surrogate, code points above U+FFFF, a digit run longer than 255, tab,
# newline and no-break-space whitespace, a punctuation-only and a blank sentence.
_EDGE_TEXTS = [
    ["a\ud800b \U0001F600 Ⅻ² É.", "1" * 300 + " x", "tab\tand\nnew\xa0line?!", "...", ""],
    ["", "   "],
    ["\U0010FFFF\udfff"],
]


def test_linguistic_columns_equal_the_per_sentence_reference_bit_for_bit():
    for seed in (2, 3):
        trajs, questions = _mixed_split(seed, n_per_length=9)  # 144 trajectories, two chunks
        texts = [traj.texts for traj in trajs] + _EDGE_TEXTS
        questions += [questions[0]] * len(_EDGE_TEXTS)
        assert len(texts) > LINGUISTIC_CHUNK
        blocks = linguistic_features(texts, questions)
        assert len(blocks) == len(texts)
        for sents, q, block in zip(texts, questions, blocks):
            ref = np.stack([_ref_linguistic(s, i + 1, len(sents), q) for i, s in enumerate(sents)])
            assert block.tobytes() == ref.tobytes()
    blank = linguistic_features([[""]], [QUESTION])[0][0]
    assert blank.tolist() == [0.0] * 18 + [1.0, 1.0]


def test_assembled_split_equals_the_reference_bytes():
    for seed in (4, 5):
        trajs, questions = _mixed_split(seed, n_per_length=2)
        blocks = numeric_features(trajs)
        for traj, q, block in zip(trajs, questions, blocks):
            ref = _ref_full(traj, q)
            assert assemble(traj, "full", q, block).x.tobytes() == ref.tobytes()
            assert assemble(traj, "full", q).x.tobytes() == ref.tobytes()
            assert assemble(traj, "numeric", None, block).x.tobytes() == ref[:, :12].tobytes()


def test_dumps_record_is_the_bytes_of_json_dumps():
    records = [
        {"schema": "traj/1"},
        {"z": 1, "a": [0.1, -0.0, 1e-300, 2.5e16, 1 / 3], "m": {"y": True, "b": None}},
        {"question_id": "é \"q\"\\", "rows": [[0.5, 1.0], [float("inf"), -1.5]],
         "label": False, "nested": [{"k": "ünï", "j": [True, 3, "x"]}]},
        {"small": [1e-5, 4.27e-5, 9.99e-5], "big": [1e16, 2.5e17, 1.7976931348623157e308]},
        {"beyond_int64": [2**63, -(2**64) - 1, 10**30]},
        {"\x00\x1f": "tab\t nul\x00 del\x7f sep\u2028 face\U0001f600"},
        {"np": np.float64(0.1), "rows": [np.float64(-2.5e-5), np.float64(3e16)]},
    ]
    for rec in records:
        assert dumps_record(rec) == json.dumps(rec, sort_keys=True, separators=(",", ":"))
    for rec in ({"n": np.int64(3)}, {"s": {1, 2}}, {"deep": [{"x": np.int64(1)}]}):
        with pytest.raises(TypeError) as want:
            json.dumps(rec, sort_keys=True, separators=(",", ":"))
        with pytest.raises(TypeError) as got:
            dumps_record(rec)
        assert str(got.value) == str(want.value)
