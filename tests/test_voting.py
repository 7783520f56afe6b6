import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotriage.errors import ParseError
from cotriage.voting import (
    ABSTAIN,
    SampledPath,
    confidence_weighted_vote,
    dynamic_vote,
    majority_vote,
    read_paths,
    run_method,
    write_paths,
)


def mk_path(i, answer, cost=100, conf=0.5, qid="q0"):
    return SampledPath(qid, i, answer, cost, conf)


def test_majority_basic():
    assert majority_vote([0, 1, 1, 2], [0.5] * 4) == 1
    assert majority_vote([3], [0.5]) == 3
    # the count decides before summed confidence does
    assert majority_vote([5, 3, 3], [0.9, 0.1, 0.1]) == 3
    with pytest.raises(ValueError):
        majority_vote([0, 1], [0.5])


def test_majority_tie_breaks_on_confidence_then_index():
    # counts tie 2-2; summed confidence favors answer 2
    assert majority_vote([2, 2, 0, 0], [0.9, 0.9, 0.1, 0.1]) == 2
    # everything ties; lowest index wins
    assert majority_vote([5, 3], [0.5, 0.5]) == 3


def test_abstains_excluded_from_tallies():
    assert majority_vote([ABSTAIN, ABSTAIN, 1], [0.9, 0.9, 0.1]) == 1
    assert majority_vote([ABSTAIN, ABSTAIN], [0.5, 0.5]) == ABSTAIN
    assert confidence_weighted_vote([ABSTAIN], [0.9]) == ABSTAIN


def test_confidence_weighted_vote():
    # one high-confidence vote beats two low-confidence ones
    assert confidence_weighted_vote([0, 1, 1], [0.9, 0.3, 0.3]) == 0
    assert confidence_weighted_vote([0, 1, 1], [0.9, 0.4, 0.6]) == 1
    assert confidence_weighted_vote([0, 1], [0.5, 0.5]) == 0  # tie -> lowest index
    with pytest.raises(ValueError):
        confidence_weighted_vote([0, 1], [0.5])


def test_dynamic_vote_stops_at_consensus():
    paths = [mk_path(i, a, cost=10) for i, a in enumerate([2, 0, 2, 1, 2, 2, 2])]
    res = dynamic_vote(paths, budget=5)
    assert res.answer == 2
    assert res.tokens_used == 50  # the fifth path gives answer 2 its 5 // 2 + 1 = 3 votes


def test_dynamic_vote_falls_back_to_weighted_vote():
    paths = [
        mk_path(0, 0, cost=10, conf=0.2),
        mk_path(1, 1, cost=10, conf=0.9),
        mk_path(2, 2, cost=10, conf=0.3),
    ]
    res = dynamic_vote(paths, budget=3)
    assert res.answer == 1
    assert res.tokens_used == 30  # every path of the budget


def test_dynamic_vote_counts_abstain_tokens():
    paths = [
        mk_path(0, ABSTAIN, cost=50), mk_path(1, 1, cost=10), mk_path(2, 1, cost=10),
        mk_path(3, 1, cost=10), mk_path(4, 0, cost=1000),
    ]
    res = dynamic_vote(paths, budget=5)
    assert res.answer == 1
    assert res.tokens_used == 80  # stopped before the fifth path


def test_dynamic_vote_default_needs_majority_of_budget():
    paths = [mk_path(i, 1, cost=1) for i in range(10)]
    res = dynamic_vote(paths, budget=10)
    assert res.tokens_used == 6  # 10 // 2 + 1 paths of cost 1


def test_run_method_token_accounting():
    paths = [mk_path(i, i % 2, cost=100 + i) for i in range(12)]
    sc = run_method(paths, "sc", budget=10)
    assert sc.tokens_used == sum(100 + i for i in range(10))
    cer = run_method(paths, "cer", budget=10)
    assert cer.tokens_used == sc.tokens_used
    with pytest.raises(ValueError):
        run_method(paths, "vote-twice")


@pytest.mark.parametrize("method", ["sc", "cer", "dv"])
@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected(method, budget):
    paths = [mk_path(i, 1) for i in range(10)]
    with pytest.raises(ValueError, match="budget must be positive"):
        run_method(paths, method, budget=budget)


_streams = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=3),
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.01, max_value=1.0),
    ),
    min_size=1,
    max_size=12,
)


@given(_streams, st.integers(min_value=1, max_value=12))
@settings(max_examples=300)
def test_vote_invariants(stream, budget):
    paths = [mk_path(i, a, cost=c, conf=f) for i, (a, c, f) in enumerate(stream)]
    window = paths[:budget]
    cast = {p.answer for p in window if p.answer != ABSTAIN}

    for method in ("sc", "cer"):
        res = run_method(paths, method, budget=budget)
        assert res.tokens_used == sum(p.token_cost for p in window)
        if cast:
            assert res.answer in cast
        else:
            assert res.answer == ABSTAIN

    dv = dynamic_vote(paths, budget=budget)
    if cast:
        assert dv.answer in cast
    else:
        assert dv.answer == ABSTAIN
    # dv stops at the first path that gives an answer budget // 2 + 1 votes,
    # else it spends the whole window on a confidence-weighted vote
    votes = [p.answer for p in window]
    stop = next(
        (k for k, a in enumerate(votes) if a != ABSTAIN and votes[: k + 1].count(a) == budget // 2 + 1),
        None,
    )
    if stop is None:
        assert dv.answer == confidence_weighted_vote(votes, [p.confidence for p in window])
        assert dv.tokens_used == sum(p.token_cost for p in window)
    else:
        assert dv.answer == votes[stop]
        assert dv.tokens_used == sum(p.token_cost for p in window[: stop + 1])


@given(_streams, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_set_methods_are_order_invariant(stream, rnd):
    paths = [mk_path(i, a, cost=c, conf=f) for i, (a, c, f) in enumerate(stream)]
    shuffled = list(paths)
    rnd.shuffle(shuffled)
    budget = len(paths)
    for method in ("sc", "cer"):
        a = run_method(paths, method, budget=budget)
        b = run_method(shuffled, method, budget=budget)
        assert a.answer == b.answer
        assert a.tokens_used == b.tokens_used


@given(_streams)
@settings(max_examples=200)
def test_uniform_confidence_makes_cer_match_sc(stream):
    answers = [a for a, _, _ in stream]
    conf = [0.37] * len(answers)
    assert confidence_weighted_vote(answers, conf) == majority_vote(answers, conf)


def test_path_validation():
    with pytest.raises(ValueError):
        mk_path(0, -2)
    with pytest.raises(ValueError):
        mk_path(0, 0, conf=0.0)
    with pytest.raises(ValueError):
        mk_path(0, 0, conf=1.5)
    with pytest.raises(ValueError):
        mk_path(0, 0, cost=-1)
    with pytest.raises(ValueError):
        mk_path(-1, 0)
    mk_path(0, ABSTAIN, conf=1.0)


def test_paths_roundtrip(tmp_path):
    paths = [mk_path(i, i % 3 - 1, cost=10 * i + 5, conf=0.1 + 0.05 * i, qid=f"q{i % 2}") for i in range(8)]
    file = tmp_path / "paths.jsonl"
    write_paths(file, paths)
    grouped = read_paths(file)
    assert set(grouped) == {"q0", "q1"}
    assert [p.sample_idx for p in grouped["q0"]] == [0, 2, 4, 6]
    assert grouped["q1"][0].temperature == 1.0
    assert grouped["q0"][1].token_cost == 25


def test_paths_reject_duplicates(tmp_path):
    file = tmp_path / "paths.jsonl"
    write_paths(file, [mk_path(0, 1), mk_path(0, 2)])
    with pytest.raises(ParseError, match="line 3: duplicate paths/1 key"):
        read_paths(file)


_PATH_FIELDS = '"question_id": "q0", "sample_idx": 0, "answer": 1, "token_cost": 12'


@pytest.mark.parametrize(
    "fields, message",
    [
        ('"question_id": "q0", "sample_idx": 0', "KeyError"),
        (_PATH_FIELDS + ', "confidence": "0.5"', "confidence must be float"),
        (_PATH_FIELDS.replace('"sample_idx": 0', '"sample_idx": true') + ', "confidence": 0.5',
         "sample_idx must be int"),
        (_PATH_FIELDS.replace('"answer": 1', '"answer": 1.0') + ', "confidence": 0.5',
         "answer must be int"),
        (_PATH_FIELDS + ', "confidence": 0.5, "temperature": "1"', "temperature must be float"),
        (_PATH_FIELDS + ', "confidence": ' + "9" * 400, "confidence is too large for a float"),
        (_PATH_FIELDS.replace('"token_cost": 12', f'"token_cost": {10**30}') + ', "confidence": 0.5',
         "token_cost does not fit in int64"),
        (_PATH_FIELDS + ', "confidence": 0.5, "temperature": NaN', "temperature must be"),
        (_PATH_FIELDS + ', "confidence": 0.5, "temperature": -1.0', "temperature must be"),
        (_PATH_FIELDS + ', "confidence": 0.5, "temperature": Infinity', "temperature must be"),
    ],
    ids=["missing_fields", "confidence_string", "sample_idx_true", "answer_float",
         "temperature_string", "confidence_400_digits", "token_cost_1e30", "temperature_nan",
         "temperature_negative", "temperature_infinity"],
)
def test_paths_reject_bad_records(tmp_path, fields, message):
    file = tmp_path / "paths.jsonl"
    file.write_text(f'{{"schema": "paths/1"}}\n{{{fields}}}\n')
    with pytest.raises(ParseError, match=message) as err:
        read_paths(file)
    assert err.value.line == 2


def test_paths_read_integer_confidence_and_temperature_and_no_temperature(tmp_path):
    file = tmp_path / "paths.jsonl"
    second_fields = _PATH_FIELDS.replace('"sample_idx": 0', '"sample_idx": 1')
    file.write_text(
        '{"schema": "paths/1"}\n'
        f'{{{_PATH_FIELDS}, "confidence": 1, "temperature": 2}}\n'
        f'{{{second_fields}, "confidence": 0.5}}\n'
    )
    first, second = read_paths(file)["q0"]
    assert (first.confidence, first.temperature) == (1.0, 2.0)
    assert type(first.confidence) is float and type(first.temperature) is float
    assert second.temperature == 1.0


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"a": 1} {"b": 2}', "Extra data"),
        ('{"a": 1}x', "Extra data"),
        ('{"a": ' + "1" * 5000 + "}", "Exceeds the limit"),
    ],
    ids=["two_values", "trailing_text", "int_over_digit_limit"],
)
def test_undecodable_line_is_a_parse_error_naming_it(tmp_path, line, message):
    file = tmp_path / "paths.jsonl"
    file.write_text(f'{{"schema": "paths/1"}}\n{{{_PATH_FIELDS}, "confidence": 0.5}}\n\n{line}\n')
    with pytest.raises(ParseError, match=f"invalid JSON: {message}") as err:
        read_paths(file)
    assert err.value.line == 4


def test_bad_record_line_counts_blank_lines(tmp_path):
    file = tmp_path / "paths.jsonl"
    file.write_text('{"schema": "paths/1"}\n\n\n{"question_id": "q0", "sample_idx": 0}\n')
    with pytest.raises(ParseError, match="bad paths/1 record") as err:
        read_paths(file)
    assert err.value.line == 4
