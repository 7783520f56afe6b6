"""Harvester tests against a deterministic in-process fake endpoint.

The fake implements both wire routes: chat generations come from a canned
table keyed by (question, temperature, seed), and echo scoring returns
log-probabilities equal to ln(target_prob) so the assembled per-sentence
distributions can be asserted against the target table exactly.
"""

import json
import math
import os
import shutil
import sys
import threading
import time

import numpy as np
import pytest

import cotriage.harvest as harvest_mod
from cotriage.errors import HarvestError, ParseError
from cotriage.harvest import (
    TEMPLATES,
    EndpointClient,
    EndpointConfig,
    TransportError,
    harvest_dataset,
    harvest_greedy,
    harvest_samples,
    parse_answer,
    probe_scoring_capability,
)
from cotriage.trajectory import (
    McQuestion,
    normalize_choices,
    read_trajectories,
    segment_sentences,
    traj_record,
)
from cotriage.voting import ABSTAIN, read_paths

Q1 = McQuestion("h001", "What is 2 + 2?", ["3", "4", "5", "22"], gold_idx=1)
Q2 = McQuestion("h002", "Pick the vowel.", ["b", "e", "k"], gold_idx=1)
Q3 = McQuestion("h003", "Is water wet?", ["no", "yes"], gold_idx=1)

ROWS = {
    "h001": [
        [0.30, 0.40, 0.20, 0.10],
        [0.15, 0.60, 0.15, 0.10],
        [0.10, 0.80, 0.05, 0.05],
        [0.02, 0.95, 0.02, 0.01],
    ],
    "h002": [
        [0.20, 0.50, 0.30],
        [0.10, 0.80, 0.10],
    ],
    "h003": [
        [0.30, 0.70],
        [0.10, 0.90],
    ],
}

GENERATIONS = {
    ("h001", 0.0, 0): "First I add the numbers. Two plus two gives four. That matches option B. Answer: B",
    ("h001", 1.0, 0): "Two and two make four. Answer: B",
    ("h001", 1.0, 1): "Maybe five? No wait. It is four",
    ("h001", 1.0, 2): "Simple arithmetic. Answer: A",
    ("h002", 0.0, 0): "Letters b and k are consonants. The vowel must be e",
    ("h002", 1.0, 0): "Vowels are a e i o u. Answer: B",
    ("h002", 1.0, 1): "It is e. Answer: B",
    ("h003", 0.0, 0): "Yes is correct. Answer: B",
    ("h003", 1.0, 0): "Clearly yes. Answer: B",
    ("h003", 1.0, 1): "I pick yes. Answer: B",
}

QUESTIONS = {q.question_id: q for q in (Q1, Q2, Q3)}

# h002's greedy generation reports no usage so the whitespace estimate kicks in
USAGE = {"h001": 42, "h003": 17}


def make_fake():
    """Transport callable covering both routes for the canned questions.

    A list-valued completions prompt gets one choice per prompt, each
    carrying its "index"; a single prompt's choice carries none.
    """

    def find_question(text: str) -> McQuestion:
        for q in QUESTIONS.values():
            if q.question in text:
                return q
        raise TransportError("unknown prompt")

    def call(route: str, payload: dict) -> dict:
        if route == "chat/completions":
            q = find_question(payload["messages"][1]["content"])
            key = (q.question_id, payload["temperature"], payload["seed"])
            if key not in GENERATIONS:
                raise TransportError(f"no canned generation for {key}")
            text = GENERATIONS[key]
            resp = {"choices": [{"message": {"content": text}}]}
            if q.question_id in USAGE:
                resp["usage"] = {"completion_tokens": USAGE[q.question_id] + payload["seed"]}
            return resp
        assert route == "completions"
        assert payload["max_tokens"] == 0 and payload["echo"] is True
        prompt = payload["prompt"]
        if isinstance(prompt, list):
            return {"choices": [{**score(p), "index": i} for i, p in enumerate(prompt)]}
        return {"choices": [score(prompt)]}

    def score(prompt: str) -> dict:
        context, letter = prompt[:-2], prompt[-1]
        if context == "probe:":
            lp = -1.0
        else:
            q = find_question(context)
            reasoning = context.rsplit("\nAnswer:", 1)[0].split("Reasoning: ", 1)[1]
            s = len(segment_sentences(reasoning))
            rows = ROWS[q.question_id]
            row = rows[min(s, len(rows)) - 1]
            lp = math.log(row[ord(letter) - ord("A")])
        return {
            "text": prompt,
            "logprobs": {
                "tokens": [context, " ", letter],
                "token_logprobs": [None, -0.01, lp],
                "text_offset": [0, len(context), len(context) + 1],
            },
        }

    return call


def make_client(tmp_path=None, transport=None, **kw):
    cfg = EndpointConfig(
        base_url="http://fake.test/v1",
        model="fake-model",
        cache_dir=None if tmp_path is None else str(tmp_path / "cache"),
        max_in_flight=kw.pop("max_in_flight", 1),
        **kw,
    )
    sleeps = []
    client = EndpointClient(cfg, transport=transport or make_fake(), sleep=sleeps.append)
    return client, sleeps


def test_greedy_trajectory_matches_target_table():
    client, _ = make_client()
    traj = harvest_greedy(Q1, client)
    assert traj.question_id == "h001"
    assert traj.texts == segment_sentences(GENERATIONS[("h001", 0.0, 0)])
    assert traj.greedy_answer == 1
    assert traj.label is True
    assert traj.greedy_token_cost == 42
    assert np.allclose(normalize_choices(traj.log_scores).probs, ROWS["h001"], atol=1e-12)
    assert np.allclose(traj.p, np.max(ROWS["h001"], axis=1), atol=1e-12)


def test_greedy_falls_back_to_argmax_without_marker():
    client, _ = make_client()
    traj = harvest_greedy(Q2, client)
    assert traj.greedy_answer == 1
    assert traj.label is True
    assert traj.greedy_token_cost == len(GENERATIONS[("h002", 0.0, 0)].split())


def test_samples_parse_abstain_and_confidence():
    client, _ = make_client()
    paths = harvest_samples(Q1, client, n_samples=3)
    assert [p.sample_idx for p in paths] == [0, 1, 2]
    assert [p.answer for p in paths] == [1, ABSTAIN, 0]
    assert paths[0].confidence == pytest.approx(0.60, abs=1e-9)
    assert paths[1].confidence == pytest.approx(0.80, abs=1e-9)
    assert paths[2].confidence == pytest.approx(0.15, abs=1e-9)
    assert [p.token_cost for p in paths] == [42, 43, 44]


def test_cache_replays_without_new_requests(tmp_path):
    client1, _ = make_client(tmp_path)
    traj1 = harvest_greedy(Q1, client1)
    assert client1.requests_made > 0

    calls = []

    def refuse(route, payload):
        calls.append(route)
        raise AssertionError("cache miss reached the endpoint")

    client2, _ = make_client(tmp_path, transport=refuse)
    traj2 = harvest_greedy(Q1, client2)
    assert calls == []
    assert client2.requests_made == 0
    # one entry per request: the generation and the list of T x K scoring prompts
    assert client2.cache_hits == len(list((tmp_path / "cache").glob("*.json")))
    assert client2.cache_hits == 2
    assert traj_record(traj1) == traj_record(traj2)


def test_identical_requests_in_flight_share_one_cache_entry(tmp_path, monkeypatch):
    inner = make_fake()
    both_sent = threading.Barrier(2, timeout=5)
    both_replacing = threading.Barrier(2, timeout=5)
    real_replace = os.replace

    def together(route, payload):
        both_sent.wait()  # neither call can see the other's cache entry
        return inner(route, payload)

    def replace_together(src, dst):
        both_replacing.wait()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_together)
    client, _ = make_client(tmp_path, transport=together)
    payload = {"model": "fake-model", "prompt": "probe: A", "max_tokens": 0, "echo": True, "logprobs": 0}
    expected = inner("completions", payload)
    results, errors = [], []

    def post():
        try:
            results.append(client.post("completions", payload, lambda response: response))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=post) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert results == [expected, expected]
    cache = tmp_path / "cache"
    assert len(list(cache.glob("*.json"))) == 1
    assert [p.name for p in cache.iterdir() if not p.name.endswith(".json")] == []


def test_transient_failures_retry_with_backoff():
    inner = make_fake()
    state = {"fails": 2}

    def flaky(route, payload):
        if state["fails"] > 0:
            state["fails"] -= 1
            raise TransportError("boom")
        return inner(route, payload)

    client, sleeps = make_client(transport=flaky, max_retries=3, backoff=0.5)
    traj = harvest_greedy(Q2, client)
    assert traj.greedy_answer == 1
    assert sleeps == [0.5, 1.0]


def test_exhausted_retries_raise_harvest_error():
    attempts = []

    def broken(route, payload):
        attempts.append(route)
        raise TransportError("down")

    client, sleeps = make_client(transport=broken, max_retries=2, backoff=0.25)
    with pytest.raises(HarvestError):
        client.post("chat/completions", {"x": 1}, lambda response: response)
    assert len(attempts) == 3
    assert sleeps == [0.25, 0.5]


def test_rejection_is_not_retried():
    attempts = []

    def reject(route, payload):
        attempts.append(route)
        raise HarvestError("bad request")

    client, sleeps = make_client(transport=reject, max_retries=3)
    with pytest.raises(HarvestError):
        client.post("completions", {"x": 1}, lambda response: response)
    assert len(attempts) == 1
    assert sleeps == []


def test_missing_logprobs_fails_capability_probe():
    def no_logprobs(route, payload):
        return {"choices": [{"text": payload.get("prompt", "")}]}

    client, _ = make_client(transport=no_logprobs)
    with pytest.raises(HarvestError, match="scoring endpoint returned no log-probabilities"):
        probe_scoring_capability(client)


def test_concurrency_stays_within_bound_and_is_deterministic():
    inner = make_fake()
    lock = threading.Lock()
    state = {"current": 0, "peak": 0}

    def tracked(route, payload):
        with lock:
            state["current"] += 1
            state["peak"] = max(state["peak"], state["current"])
        time.sleep(0.003)
        try:
            return inner(route, payload)
        finally:
            with lock:
                state["current"] -= 1

    client, _ = make_client(transport=tracked, max_in_flight=2)
    paths_parallel = harvest_samples(Q1, client, n_samples=3)
    assert state["peak"] == 2

    serial_client, _ = make_client(max_in_flight=1)
    assert paths_parallel == harvest_samples(Q1, serial_client, n_samples=3)


def _refuse(route, payload):
    raise AssertionError("cache miss reached the endpoint")


def _harvest_all(tmp_path, name, transport=None, **kw):
    """Harvest Q1..Q3 with two paths each under tmp_path/name.

    Returns the two outputs' bytes, {cache file name: bytes} and the client.
    """
    root = tmp_path / name
    client, _ = make_client(root, transport=transport, **kw)
    assert harvest_dataset([Q1, Q2, Q3], client, root / "traj.jsonl", root / "paths.jsonl", n_samples=2) == (3, 0)
    outputs = [(root / f).read_bytes() for f in ("traj.jsonl", "paths.jsonl")]
    cache = {p.name: p.read_bytes() for p in (root / "cache").iterdir()}
    return outputs, cache, client


def test_dataset_harvest_sends_n_plus_3_requests_per_question(tmp_path):
    _, cache, client = _harvest_all(tmp_path, "lists")
    # the probe, then per question: greedy generation and its scoring, n generations, their scoring
    assert client.requests_made == 1 + 3 * (2 + 2 + 1)
    # one entry per request, retries not counted
    assert len(cache) == 1 + 3 * (2 + 2 + 1)


def test_batch_choices_are_matched_by_index_not_position(tmp_path):
    inner = make_fake()

    def reversed_choices(route, payload):
        response = inner(route, payload)
        response["choices"].reverse()
        return response

    expected, expected_cache, _ = _harvest_all(tmp_path, "in_order")
    got, cache, _ = _harvest_all(tmp_path, "reversed", reversed_choices)
    assert got == expected
    assert cache == expected_cache


@pytest.mark.parametrize("mishandle", ["rejects", "drops_a_choice"])
def test_endpoint_that_mishandles_lists_gets_one_prompt_per_request(tmp_path, caplog, mishandle):
    inner = make_fake()
    lists_sent = []

    def string_only(route, payload):
        batched = isinstance(payload.get("prompt"), list)
        if batched:
            lists_sent.append(len(payload["prompt"]))
            if mishandle == "rejects":
                raise HarvestError("endpoint rejected request: 400 prompt must be a string")
        response = inner(route, payload)
        if batched:
            response["choices"].pop()
        return response

    expected, expected_cache, _ = _harvest_all(tmp_path, "lists")
    with caplog.at_level("WARNING", logger="cotriage.harvest"):
        got, cache, _ = _harvest_all(tmp_path, "fallback", string_only)
    assert got == expected
    assert sorted(cache) == sorted(expected_cache)
    assert len(lists_sent) == 1  # the first list switched the client to single prompts
    assert caplog.text.count("one prompt per request") == 1


def test_list_whose_retries_run_out_does_not_switch_to_single_prompts():
    inner = make_fake()
    state = {"down": True}
    sent = []

    def outage(route, payload):
        sent.append(payload["prompt"])
        if state["down"]:
            raise TransportError("down")
        return inner(route, payload)

    client, _ = make_client(transport=outage, max_retries=1)
    payload = {"model": "fake-model", "prompt": ["probe: A", "probe: B"], "max_tokens": 0, "echo": True, "logprobs": 0}
    with pytest.raises(HarvestError):
        client.post("completions", payload, lambda response: response)
    state["down"] = False
    sent.clear()
    response = client.post("completions", payload, lambda response: response)
    assert sent == [["probe: A", "probe: B"]]
    assert [c["text"] for c in response["choices"]] == ["probe: A", "probe: B"]


def test_dataset_harvest_at_three_in_flight_equals_one_in_flight(tmp_path):
    serial = _harvest_all(tmp_path, "serial", max_in_flight=1)[:2]
    assert _harvest_all(tmp_path, "parallel", max_in_flight=3)[:2] == serial


def test_client_counters_match_the_transport_at_three_in_flight(tmp_path):
    inner = make_fake()
    lock = threading.Lock()
    calls = []

    def counted(route, payload):
        with lock:
            calls.append(route)
            fail = len(calls) % 7 == 0
        if fail:
            raise TransportError("injected")
        return inner(route, payload)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, cache, client = _harvest_all(tmp_path, "warm", counted, max_in_flight=3)
        replay, _ = make_client(tmp_path / "warm", transport=_refuse, max_in_flight=3)
        harvest_dataset([Q1, Q2, Q3], replay, tmp_path / "replay.traj.jsonl", tmp_path / "replay.paths.jsonl", n_samples=2)
    finally:
        sys.setswitchinterval(interval)
    assert client.requests_made == len(calls)
    assert replay.requests_made == 0
    serial_replay, _ = make_client(tmp_path / "warm", transport=_refuse)
    harvest_dataset([Q1, Q2, Q3], serial_replay, tmp_path / "serial.traj.jsonl", tmp_path / "serial.paths.jsonl", n_samples=2)
    assert replay.cache_hits == serial_replay.cache_hits == len(cache)  # no request repeats


def test_cache_of_either_harvest_replays_under_either_endpoint(tmp_path):
    inner = make_fake()
    sent = []

    def lists_taken(route, payload):
        sent.append(payload)
        return inner(route, payload)

    def lists_rejected(route, payload):
        sent.append(payload)
        if isinstance(payload.get("prompt"), list):
            raise HarvestError("endpoint rejected request: 400 prompt must be a string")
        return inner(route, payload)

    expected = _harvest_all(tmp_path, "batched", lists_taken)[0]
    assert _harvest_all(tmp_path, "fallback", lists_rejected)[0] == expected
    for source in ("batched", "fallback"):
        for transport in (lists_taken, lists_rejected):
            name = f"{source}-{transport.__name__}"
            shutil.copytree(tmp_path / source / "cache", tmp_path / name / "cache")
            sent.clear()
            got, _, replay = _harvest_all(tmp_path, name, transport)
            assert (sent, replay.requests_made) == ([], 0)
            assert got == expected


def test_corrupt_cache_entry_is_a_miss_that_is_sent_again_and_overwritten(tmp_path, caplog):
    expected, expected_cache, _ = _harvest_all(tmp_path, "first")
    root = tmp_path / "first"
    victim = sorted((root / "cache").iterdir())[0]
    # one entry that does not decode, then one that decodes but no parser accepts
    for k, entry in enumerate(['{"choices": [', '{"choices": []}']):
        victim.write_text(entry)
        client, _ = make_client(root)
        out = tmp_path / f"second{k}"
        caplog.clear()
        with caplog.at_level("WARNING", logger="cotriage.harvest"):
            assert harvest_dataset(
                [Q1, Q2, Q3], client, out / "traj.jsonl", out / "paths.jsonl", n_samples=2
            ) == (3, 0)
        assert [(out / f).read_bytes() for f in ("traj.jsonl", "paths.jsonl")] == expected
        assert client.requests_made == 1
        assert victim.read_bytes() == expected_cache[victim.name]
        assert caplog.text.count(str(victim)) == 1


def test_dataset_harvest_resumes_and_skips_failures(tmp_path, caplog):
    out_traj = tmp_path / "traj.jsonl"
    out_paths = tmp_path / "paths.jsonl"
    client, _ = make_client()
    done, failed = harvest_dataset([Q1, Q2], client, out_traj, out_paths, n_samples=2)
    assert (done, failed) == (2, 0)
    assert len(read_trajectories(out_traj)) == 2

    # rerun with one new question and one the endpoint cannot serve
    q_bad = McQuestion("h999", "No canned data here?", ["a", "b"], gold_idx=0)
    client2, _ = make_client(max_retries=0)
    with caplog.at_level("WARNING", logger="cotriage.harvest"):
        done, failed = harvest_dataset([Q1, Q2, Q3, q_bad], client2, out_traj, out_paths, n_samples=2)
    assert (done, failed) == (1, 1)
    assert "h999" in caplog.text

    trajs = read_trajectories(out_traj)
    assert [t.question_id for t in trajs] == ["h001", "h002", "h003"]
    grouped = read_paths(out_paths)
    assert sorted(grouped) == ["h001", "h002", "h003"]
    assert all(len(v) == 2 for v in grouped.values())

    with open(out_traj, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert first == {"schema": "traj/1"}


def test_dataset_harvest_survives_blank_generation(tmp_path, caplog):
    fake = make_fake()

    def blank_greedy_for_q3(route, payload):
        resp = fake(route, payload)
        if route == "chat/completions" and Q3.question in payload["messages"][1]["content"]:
            resp["choices"][0]["message"]["content"] = "   "
        return resp

    client, _ = make_client(transport=blank_greedy_for_q3)
    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    with caplog.at_level("WARNING", logger="cotriage.harvest"):
        done, failed = harvest_dataset([Q1, Q3, Q2], client, out_traj, out_paths, n_samples=2)
    assert (done, failed) == (2, 1)
    assert "h003" in caplog.text
    assert [t.question_id for t in read_trajectories(out_traj)] == ["h001", "h002"]
    assert sorted(read_paths(out_paths)) == ["h001", "h002"]


@pytest.mark.parametrize(
    "response",
    [
        {"choices": []},
        {"choices": [{"text": "no message"}]},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": "Yes. Answer: B"}}], "usage": ["tokens"]},
    ],
    ids=["no_choice", "no_message", "null_content", "list_usage"],
)
def test_malformed_generation_response_fails_only_its_question(tmp_path, caplog, response):
    fake = make_fake()

    def malformed_greedy_for_q3(route, payload):
        if route == "chat/completions" and Q3.question in payload["messages"][1]["content"]:
            return response
        return fake(route, payload)

    client, _ = make_client(transport=malformed_greedy_for_q3)
    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    with caplog.at_level("WARNING", logger="cotriage.harvest"):
        done, failed = harvest_dataset([Q1, Q3, Q2], client, out_traj, out_paths, n_samples=2)
    assert (done, failed) == (2, 1)
    assert "malformed generation response for 'h003'" in caplog.text
    assert [t.question_id for t in read_trajectories(out_traj)] == ["h001", "h002"]
    assert sorted(read_paths(out_paths)) == ["h001", "h002"]


def test_responses_the_harvester_rejects_are_not_cached(tmp_path):
    def no_logprobs(route, payload):
        return {"choices": [{"text": payload.get("prompt", "")}]}

    client, _ = make_client(tmp_path, transport=no_logprobs)
    with pytest.raises(HarvestError, match="scoring endpoint returned no log-probabilities"):
        probe_scoring_capability(client)
    fixed, _ = make_client(tmp_path)
    probe_scoring_capability(fixed)
    assert (fixed.requests_made, fixed.cache_hits) == (1, 0)

    fake = make_fake()

    def no_choice_for_h001(route, payload):
        if route == "chat/completions" and Q1.question in payload["messages"][1]["content"]:
            return {"choices": []}
        return fake(route, payload)

    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    client, _ = make_client(tmp_path, transport=no_choice_for_h001)
    assert harvest_dataset([Q1], client, out_traj, out_paths, n_samples=2) == (0, 1)
    fixed, _ = make_client(tmp_path)
    assert harvest_dataset([Q1], fixed, out_traj, out_paths, n_samples=2) == (1, 0)
    assert fixed.requests_made == 5  # all of h001's requests; the probe is a cache hit


def _string_logprob(logprobs):
    logprobs["token_logprobs"][2] = str(logprobs["token_logprobs"][2])


def _bool_logprob(logprobs):
    logprobs["token_logprobs"][2] = True


def _extra_offset(logprobs):
    logprobs["text_offset"].append(logprobs["text_offset"][-1] + 1)


def _string_offset(logprobs):
    logprobs["text_offset"][1] = str(logprobs["text_offset"][1])


def _huge_int_logprob(logprobs):
    logprobs["token_logprobs"][2] = -10**400


@pytest.mark.parametrize(
    "corrupt", [_string_logprob, _bool_logprob, _extra_offset, _string_offset, _huge_int_logprob]
)
def test_malformed_scoring_choice_fails_only_its_question(tmp_path, caplog, corrupt):
    fake = make_fake()

    def corrupt_h001_scoring(route, payload):
        response = fake(route, payload)
        prompt = payload.get("prompt")
        if isinstance(prompt, list) and Q1.question in prompt[0]:
            corrupt(response["choices"][0]["logprobs"])
        return response

    client, _ = make_client(tmp_path, transport=corrupt_h001_scoring)
    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    with caplog.at_level("WARNING", logger="cotriage.harvest"):
        assert harvest_dataset([Q1, Q2, Q3], client, out_traj, out_paths, n_samples=2) == (2, 1)
    assert "skipping h001" in caplog.text
    assert [t.question_id for t in read_trajectories(out_traj)] == ["h002", "h003"]
    assert sorted(read_paths(out_paths)) == ["h002", "h003"]
    # the probe, h001's greedy generation and the five requests of h002 and of h003
    assert len(list((tmp_path / "cache").iterdir())) == 1 + 1 + 2 * 5


def test_cached_scoring_entry_a_float_cannot_hold_is_a_miss(tmp_path):
    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    client, _ = make_client(tmp_path)
    assert harvest_dataset([Q1], client, out_traj, out_paths, n_samples=2) == (1, 0)
    expected = (out_traj.read_bytes(), out_paths.read_bytes())
    scoring = [p for p in (tmp_path / "cache").iterdir() if "logprobs" in p.read_text()]
    for entry in scoring:
        response = json.loads(entry.read_text())
        response["choices"][0]["logprobs"]["token_logprobs"][2] = -10**400
        entry.write_text(json.dumps(response))
    out_traj.unlink()
    out_paths.unlink()
    client, _ = make_client(tmp_path)
    assert harvest_dataset([Q1], client, out_traj, out_paths, n_samples=2) == (1, 0)
    assert (out_traj.read_bytes(), out_paths.read_bytes()) == expected
    assert client.requests_made == len(scoring) == 3  # the probe and h001's two scoring lists


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
def test_blank_generation_is_not_cached(tmp_path, greedy):
    fake = make_fake()

    def blank_h003(route, payload):
        resp = fake(route, payload)
        if route == "chat/completions" and Q3.question in payload["messages"][1]["content"]:
            if (payload["temperature"], payload["seed"]) == ((0.0, 0) if greedy else (1.0, 1)):
                resp["choices"][0]["message"]["content"] = "   " if greedy else ""
        return resp

    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    client, _ = make_client(tmp_path, transport=blank_h003)
    assert harvest_dataset([Q3], client, out_traj, out_paths, n_samples=2) == (0, 1)
    fixed, _ = make_client(tmp_path)
    assert harvest_dataset([Q3], fixed, out_traj, out_paths, n_samples=2) == (1, 0)
    assert fixed.requests_made == (5 if greedy else 2)  # h003's requests from the blank one on


@pytest.mark.parametrize("tokens", [True, 0, 2**63, 2**70])
def test_usage_count_that_is_no_positive_int64_falls_back_to_the_word_count(tmp_path, tokens):
    fake = make_fake()

    def odd_usage(route, payload):
        resp = fake(route, payload)
        if route == "chat/completions":
            resp["usage"] = {"completion_tokens": tokens}
        return resp

    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    client, _ = make_client(transport=odd_usage)
    assert harvest_dataset([Q1], client, out_traj, out_paths, n_samples=2) == (1, 0)
    words = {seed: len(GENERATIONS[("h001", 1.0, seed)].split()) for seed in (0, 1)}
    (traj,) = read_trajectories(out_traj)
    assert traj.greedy_token_cost == len(GENERATIONS[("h001", 0.0, 0)].split())
    assert {p.sample_idx: p.token_cost for p in read_paths(out_paths)["h001"]} == words


def test_dataset_harvest_resumes_after_torn_line(tmp_path):
    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    client, _ = make_client()
    assert harvest_dataset([Q1], client, out_traj, out_paths, n_samples=2) == (1, 0)
    # a crash mid-append leaves a partial last line in either output
    with open(out_traj, "a", encoding="utf-8") as fh:
        fh.write('{"question_id":"h002","sen')
    with open(out_paths, "a", encoding="utf-8") as fh:
        fh.write('{"question_id":"h002","sam')
    assert harvest_dataset([Q1, Q2], client, out_traj, out_paths, n_samples=2) == (1, 0)
    assert [t.question_id for t in read_trajectories(out_traj)] == ["h001", "h002"]
    assert sorted(read_paths(out_paths)) == ["h001", "h002"]

    torn_header = tmp_path / "torn_header.jsonl"
    torn_header.write_text('{"sche')
    assert harvest_dataset([Q3], client, torn_header) == (1, 0)
    assert [t.question_id for t in read_trajectories(torn_header)] == ["h003"]


def test_dataset_harvest_resumes_after_crash_between_appends(tmp_path, monkeypatch):
    out_traj, out_paths = tmp_path / "traj.jsonl", tmp_path / "paths.jsonl"
    real_append = harvest_mod._append_records
    calls = []

    def crash_in_h002_second_append(path, schema, records):
        records = list(records)
        calls.append(records[0]["question_id"])
        if calls.count("h002") == 2:
            raise RuntimeError("killed between the two appends")
        real_append(path, schema, records)

    monkeypatch.setattr(harvest_mod, "_append_records", crash_in_h002_second_append)
    client, _ = make_client()
    with pytest.raises(RuntimeError):
        harvest_dataset([Q1, Q2, Q3], client, out_traj, out_paths, n_samples=2)
    monkeypatch.setattr(harvest_mod, "_append_records", real_append)

    assert harvest_dataset([Q1, Q2, Q3], client, out_traj, out_paths, n_samples=2) == (2, 0)
    assert [t.question_id for t in read_trajectories(out_traj)] == ["h001", "h002", "h003"]
    grouped = read_paths(out_paths)
    assert sorted(grouped) == ["h001", "h002", "h003"]
    assert all([p.sample_idx for p in v] == [0, 1] for v in grouped.values())

    fresh_traj, fresh_paths = tmp_path / "fresh_traj.jsonl", tmp_path / "fresh_paths.jsonl"
    harvest_dataset([Q1, Q2, Q3], client, fresh_traj, fresh_paths, n_samples=2)
    assert out_traj.read_bytes() == fresh_traj.read_bytes()
    assert out_paths.read_bytes() == fresh_paths.read_bytes()


def _no_sentences(rec):
    rec["sentences"] = []


def _string_confidence(rec):
    rec["confidence"] = str(rec["confidence"])


@pytest.mark.parametrize("target, edit", [("traj", _no_sentences), ("paths", _string_confidence)])
def test_dataset_harvest_resume_reads_its_outputs_through_the_readers(tmp_path, target, edit):
    outputs = {"traj": tmp_path / "traj.jsonl", "paths": tmp_path / "paths.jsonl"}
    client, _ = make_client()
    assert harvest_dataset([Q1], client, outputs["traj"], outputs["paths"], n_samples=2) == (1, 0)
    path = outputs[target]
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    bad = "\n".join(lines) + "\n"
    path.write_text(bad)
    with pytest.raises(ParseError) as err:
        harvest_dataset([Q1, Q2], client, outputs["traj"], outputs["paths"], n_samples=2)
    assert err.value.line == 2
    assert path.read_text() == bad


def test_dataset_harvest_rejects_wrong_schema_output(tmp_path):
    out_traj = tmp_path / "traj.jsonl"
    out_traj.write_text('{"schema":"paths/1"}\n')
    client, _ = make_client()
    with pytest.raises(ParseError):
        harvest_dataset([Q1], client, out_traj)
    assert out_traj.read_text() == '{"schema":"paths/1"}\n'


def test_dataset_harvest_requires_scoring_capability(tmp_path):
    def no_logprobs(route, payload):
        return {"choices": [{"text": payload.get("prompt", ""), "message": {"content": "x."}}]}

    client, _ = make_client(transport=no_logprobs)
    with pytest.raises(HarvestError, match="scoring endpoint returned no log-probabilities"):
        harvest_dataset([Q1], client, tmp_path / "t.jsonl")


def test_parse_answer_variants():
    assert parse_answer("blah Answer: B", "Answer:", 4) == 1
    assert parse_answer("Answer: (c)", "Answer:", 4) == 2
    assert parse_answer("Answer: A then Answer: D", "Answer:", 4) == 3
    assert parse_answer("Answer: E", "Answer:", 4) is None
    assert parse_answer("no marker here", "Answer:", 4) is None
    assert parse_answer("Answer:B", "Answer:", 4) == 1
    assert parse_answer("Answer: D.", "Answer:", 4) == 3
    assert parse_answer("Answer: (b).", "Answer:", 4) == 1
    # a word after the marker names no option, whatever its first letter
    assert parse_answer("Answer: After checking, D", "Answer:", 4) is None
    assert parse_answer("Answer: Based on the table", "Answer:", 4) is None
    assert parse_answer("Answer: C. Answer: Because", "Answer:", 4) == 2


class _DummyResp:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body or {}
        self.text = text

    def json(self):
        return self._body


def test_default_transport_maps_http_errors(monkeypatch):
    import requests as requests_lib

    captured = {}

    def fake_post(self, url, json=None, headers=None, timeout=None):
        captured.update(url=url, headers=headers, timeout=timeout)
        return fake_post.next_resp

    monkeypatch.setattr(requests_lib.Session, "post", fake_post)
    monkeypatch.setenv("COTRIAGE_API_KEY", "sk-test")
    cfg = EndpointConfig(base_url="http://api.test/v1/", model="m", timeout=9.0)
    transport = harvest_mod._default_transport(cfg)

    fake_post.next_resp = _DummyResp(200, {"ok": True})
    assert transport("chat/completions", {"a": 1}) == {"ok": True}
    assert captured["url"] == "http://api.test/v1/chat/completions"
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    assert captured["timeout"] == 9.0

    fake_post.next_resp = _DummyResp(503)
    with pytest.raises(TransportError):
        transport("completions", {})

    fake_post.next_resp = _DummyResp(404, text="missing")
    with pytest.raises(HarvestError):
        transport("completions", {})

    def raising_post(self, *a, **k):
        raise requests_lib.ConnectionError("refused")

    monkeypatch.setattr(requests_lib.Session, "post", raising_post)
    transport2 = harvest_mod._default_transport(cfg)
    with pytest.raises(TransportError):
        transport2("completions", {})
