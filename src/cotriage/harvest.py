"""Harvesting trajectories from an OpenAI-compatible endpoint.

One generation request produces the greedy chain of thought; one teacher-
forced scoring request (echo + logprobs on the completions route) with a
list of T x K prompts produces the per-sentence answer distributions. Scoring
a prefix never re-generates text: max_tokens is 0 and the endpoint echoes
each prompt with per-token log-probabilities, from which the answer span is
summed. With n sampled paths a question costs n + 3 requests: the greedy
generation and its scoring request, the n sampled generations and one
scoring request for all of them.

The HTTP transport is a plain callable so tests substitute a fake endpoint;
everything above it (caching, retries, concurrency, parsing) is exercised for
real. Responses are cached on disk, one entry per request, keyed by a hash of
the model, template and full payload. A response is stored only once the
caller's parser accepts it; an entry that does not decode or parse is a miss:
it is logged, sent again and overwritten. Entries are written atomically
through a temp file unique to the writing thread, so concurrent workers, even
two sending the same request, cannot corrupt a cache entry or abort on each
other's rename.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import requests

from .errors import CotriageError, HarvestError
from .jsonl import dumps_record, replace_atomically
from .trajectory import (
    TRAJ_SCHEMA,
    ChoiceDistribution,
    McQuestion,
    Trajectory,
    answer_logscore,
    normalize_choices,
    prefix_lengths,
    read_trajectories,
    segment_sentences,
    traj_record,
)
from .voting import ABSTAIN, PATHS_SCHEMA, SampledPath, path_record, read_paths, write_paths

log = logging.getLogger(__name__)


class TransportError(Exception):
    """Transient failure worth retrying (connection trouble, 5xx)."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key_env: str = "COTRIAGE_API_KEY"
    timeout: float = 120.0
    max_retries: int = 3
    backoff: float = 0.5
    max_in_flight: int = 4
    cache_dir: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be a positive number of seconds")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not (math.isfinite(self.backoff) and self.backoff >= 0):
            raise ValueError("backoff must be a non-negative number of seconds")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    system: str
    answer_marker: str = "Answer:"

    def option_letter(self, idx: int) -> str:
        return chr(ord("A") + idx)

    def question_block(self, q: McQuestion) -> str:
        lines = [q.question]
        for i, opt in enumerate(q.options):
            lines.append(f"({self.option_letter(i)}) {opt}")
        return "\n".join(lines)

    def generation_messages(self, q: McQuestion) -> list[dict]:
        user = (
            f"{self.question_block(q)}\n\n"
            f"Think step by step, then finish with a final line "
            f"'{self.answer_marker} <letter>'."
        )
        return [
            {"role": "system", "content": self.system},
            {"role": "user", "content": user},
        ]

    def scoring_context(self, q: McQuestion, prefix_sentences: Sequence[str]) -> str:
        return (
            f"{self.question_block(q)}\n"
            f"Reasoning: {' '.join(prefix_sentences)}\n"
            f"{self.answer_marker}"
        )

    def answer_continuation(self, idx: int) -> str:
        return f" {self.option_letter(idx)}"


TEMPLATES: dict[str, PromptTemplate] = {
    "mc-cot/1": PromptTemplate(
        template_id="mc-cot/1",
        system=(
            "You answer multiple-choice questions. Reason carefully in full "
            "sentences before committing to an option."
        ),
    ),
}


def parse_answer(text: str, marker: str, num_options: int) -> int | None:
    """Option index from the last 'Answer: <letter>' line, None if absent.

    The letter may stand in parentheses but must not start a word ("Answer:
    Based on ..." names no option).
    """
    matches = re.findall(re.escape(marker) + r"\s*\(?([A-Za-z])(?![A-Za-z])\)?", text)
    idx = ord(matches[-1].upper()) - ord("A") if matches else -1
    return idx if 0 <= idx < num_options else None


def _default_transport(cfg: EndpointConfig) -> Callable[[str, dict], dict]:
    session = requests.Session()

    def call(route: str, payload: dict) -> dict:
        url = cfg.base_url.rstrip("/") + "/" + route.lstrip("/")
        headers = {}
        key = os.environ.get(cfg.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        try:
            resp = session.post(url, json=payload, headers=headers, timeout=cfg.timeout)
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code >= 500:
            raise TransportError(f"endpoint returned {resp.status_code}")
        if resp.status_code != 200:
            raise HarvestError(f"endpoint rejected request: {resp.status_code} {resp.text[:200]}")
        try:
            return resp.json()
        except requests.JSONDecodeError as exc:
            raise HarvestError(f"endpoint response is not JSON: {resp.text[:200]}") from exc

    return call


class EndpointClient:
    """Caching, retrying front end over a transport callable.

    requests_made counts every attempt handed to the transport, retries
    included, and cache_hits every post answered from the cache, a list of
    prompts once; worker threads may share one client.
    """

    def __init__(
        self,
        cfg: EndpointConfig,
        transport: Callable[[str, dict], dict] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.template = TEMPLATES["mc-cot/1"]
        self._transport = transport or _default_transport(cfg)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._list_prompts = True  # until the endpoint mishandles a list-valued prompt
        self.requests_made = 0
        self.cache_hits = 0

    def _cache_path(self, route: str, payload: dict) -> Path | None:
        if self.cfg.cache_dir is None:
            return None
        key = dumps_record(
            {
                "model": self.cfg.model,
                "template": self.template.template_id,
                "route": route,
                "payload": payload,
            }
        )
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return Path(self.cfg.cache_dir) / f"{digest}.json"

    def _load(self, cache_path: Path | None, parse: Callable):
        """parse(the cached response), or None when there is none or it does not decode or parse."""
        if cache_path is None or not cache_path.exists():
            return None
        try:
            with open(cache_path, encoding="utf-8") as fh:
                parsed = parse(json.load(fh))
        except (ValueError, CotriageError) as exc:  # JSONDecodeError, UnicodeDecodeError, parse's rejection
            log.warning("unusable cache entry %s (%s); sending the request again", cache_path, exc)
            return None
        with self._lock:
            self.cache_hits += 1
        return parsed

    def _send(self, route: str, payload: dict) -> dict:
        """The transport's response, retrying transient failures with backoff."""
        for attempt in range(self.cfg.max_retries + 1):
            with self._lock:
                self.requests_made += 1
            try:
                return self._transport(route, payload)
            except TransportError as exc:
                if attempt == self.cfg.max_retries:
                    raise HarvestError(
                        f"{route} failed after {self.cfg.max_retries + 1} attempts: {exc}"
                    ) from exc
                self._sleep(self.cfg.backoff * (2.0**attempt))

    def _send_list(self, route: str, payload: dict) -> list | None:
        """Each prompt's choice, in prompt order, from one list-valued request.

        None when the endpoint rejects the list or answers it with choices
        whose indices are not exactly 0..m-1; the client then sends one
        prompt per request for the rest of its life.
        """
        try:
            choices = self._send(route, payload)["choices"]
            by_index = {choice["index"]: choice for choice in choices}
            if len(choices) == len(payload["prompt"]):
                return [by_index[i] for i in range(len(choices))]
            reason = f"{len(choices)} choices"
        except HarvestError as exc:
            if isinstance(exc.__cause__, TransportError):
                raise  # the retries ran out: the endpoint is failing, not refusing lists
            reason = str(exc)
        except (KeyError, TypeError) as exc:
            reason = f"malformed choices ({exc!r})"
        with self._lock:
            first, self._list_prompts = self._list_prompts, False
        if first:
            log.warning(
                "%s mishandled a list of %d prompts (%s); sending one prompt per request",
                route, len(payload["prompt"]), reason,
            )
        return None

    def post(self, route: str, payload: dict, parse: Callable):
        """parse(the endpoint's response to payload), from the cache when it holds one.

        parse returns anything but None and raises a CotriageError for a
        response it cannot use, which is then neither stored nor, if cached,
        used. The cache holds one entry per request, keyed by payload as
        given. A list-valued payload["prompt"] is answered as {"choices":
        [...]}, choice i being prompt i's: from one request whose choices are
        matched to the prompts by "index", or from one request per prompt
        once the endpoint has mishandled a list (see _send_list).
        """
        cache_path = self._cache_path(route, payload)
        parsed = self._load(cache_path, parse)
        if parsed is not None:
            return parsed
        prompts = payload.get("prompt")
        if not isinstance(prompts, list):
            response = self._send(route, payload)
        else:
            choices = self._send_list(route, payload) if self._list_prompts else None
            if choices is None:
                choices = [_first_choice(self._send(route, {**payload, "prompt": p})) for p in prompts]
            response = {"choices": choices}
        parsed = parse(response)
        if cache_path is not None:
            with replace_atomically(cache_path) as fh:
                json.dump(response, fh, sort_keys=True)
        return parsed


def _first_choice(response):
    try:
        return response["choices"][0]
    except (KeyError, IndexError, TypeError):
        return None


def _generate(
    client: EndpointClient, q: McQuestion, temperature: float, seed: int, max_new_tokens: int
) -> tuple[str, list[str], int]:
    """(text, its sentences, token cost) of one generation; blank text fails the parse, so is never cached."""
    payload = {
        "model": client.cfg.model,
        "messages": client.template.generation_messages(q),
        "temperature": temperature,
        "max_tokens": max_new_tokens,
        "seed": seed,
    }

    def parse(response) -> tuple[str, list[str], int]:
        try:
            text = response["choices"][0]["message"]["content"]
            words = len(text.split())
            tokens = (response.get("usage") or {}).get("completion_tokens")
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            raise HarvestError(f"malformed generation response for {q.question_id!r}") from exc
        sentences = segment_sentences(text)
        return text, sentences, tokens if type(tokens) is int and 0 < tokens < 2**63 else max(1, words)

    return client.post("chat/completions", payload, parse)


def _scoring_payload(client: EndpointClient, prompt: str | list[str]) -> dict:
    return {"model": client.cfg.model, "prompt": prompt, "max_tokens": 0, "echo": True, "logprobs": 0}


def _answer_span_logscore(choice, context: str) -> float:
    """Log-score of the tokens after context in one echoed scoring choice.

    HarvestError when the choice has no log-probabilities, or unless
    token_logprobs and text_offset have one length, each offset is a number
    and each summed log-prob a JSON number (a bool is not) whose sum a float
    can hold.
    """
    try:
        lp = choice["logprobs"]
        token_logprobs = lp["token_logprobs"]
        offsets = lp["text_offset"]
    except (KeyError, IndexError, TypeError) as exc:
        raise HarvestError(
            "scoring endpoint returned no log-probabilities; it cannot be used for harvesting"
        ) from exc
    try:
        span = [v for v, o in zip(token_logprobs, offsets, strict=True) if o >= len(context) and v is not None]
    except (TypeError, ValueError) as exc:
        raise HarvestError(f"malformed scoring log-probabilities ({exc})") from exc
    if any(type(v) not in (int, float) for v in span):
        raise HarvestError(f"scoring log-probabilities are not all numbers: {span!r:.200}")
    try:
        return answer_logscore(span)
    except OverflowError as exc:
        raise HarvestError(f"scoring log-probabilities overflow a float: {span!r:.200}") from exc


def probe_scoring_capability(client: EndpointClient) -> None:
    """Fail fast (HarvestError) if the endpoint cannot score tokens."""
    client.post("completions", _scoring_payload(client, "probe: A"),
                lambda response: _answer_span_logscore(_first_choice(response), "probe:"))


def _score_prefixes(
    client: EndpointClient, q: McQuestion, prefixes: Sequence[Sequence[str]]
) -> ChoiceDistribution:
    """The answer distribution after each reasoning prefix, one row each.

    All K x len(prefixes) scoring prompts go to the endpoint as one
    list-valued request (see EndpointClient.post for the cache and the
    fallback to one prompt per request); row t, column i scores option i
    after prefix t.
    """
    k = len(q.options)
    contexts = [client.template.scoring_context(q, prefix) for prefix in prefixes]
    continuations = [client.template.answer_continuation(i) for i in range(k)]
    prompts = [context + continuation for context in contexts for continuation in continuations]

    def parse(response) -> ChoiceDistribution:
        choices = response.get("choices") if isinstance(response, dict) else None
        if not isinstance(choices, list) or len(choices) != len(prompts):
            raise HarvestError(f"scoring response for {q.question_id!r} does not hold {len(prompts)} choices")
        flat = [_answer_span_logscore(choice, contexts[j // k]) for j, choice in enumerate(choices)]
        return normalize_choices(np.reshape(flat, (len(prefixes), k)))

    return client.post("completions", _scoring_payload(client, prompts), parse)


def harvest_greedy(
    q: McQuestion, client: EndpointClient, max_new_tokens: int = 1024
) -> Trajectory:
    """Greedy trajectory for one question: 1 generation + 1 scoring request of T x K prompts.

    Results are deterministic given deterministic endpoint responses. When
    the answer marker is missing from the generation, the final sentence's
    argmax choice stands in for the parsed answer.
    """
    text, sentences, token_cost = _generate(client, q, temperature=0.0, seed=0, max_new_tokens=max_new_tokens)
    dist = _score_prefixes(client, q, [sentences[:s] for s in range(1, len(sentences) + 1)])
    parsed = parse_answer(text, client.template.answer_marker, len(q.options))
    if parsed is None:
        parsed = int(dist.probs[-1].argmax())
    return Trajectory(
        question_id=q.question_id,
        texts=sentences,
        log_scores=dist.log_scores,
        prefix_len=prefix_lengths(sentences),
        greedy_answer=parsed,
        greedy_token_cost=token_cost,
        label=None if q.gold_idx is None else parsed == q.gold_idx,
    )


def harvest_samples(
    q: McQuestion,
    client: EndpointClient,
    n_samples: int = 10,
    temperature: float = 1.0,
    max_new_tokens: int = 1024,
) -> list[SampledPath]:
    """Sampled paths for one question; seed=j makes sample j reproducible.

    confidence is the scored probability of the path's own answer at the end
    of its reasoning, or of the top choice when the path gave no parsable
    answer. The n generations come first, up to cfg.max_in_flight of them in
    flight at once and landing by sample index, then one scoring request of
    K x n prompts.
    """

    def generate(j: int) -> tuple[str, list[str], int]:
        return _generate(client, q, temperature=temperature, seed=j, max_new_tokens=max_new_tokens)

    if client.cfg.max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=client.cfg.max_in_flight) as pool:
            generations = list(pool.map(generate, range(n_samples)))
    else:
        generations = [generate(j) for j in range(n_samples)]
    dist = _score_prefixes(client, q, [sentences for _, sentences, _ in generations])
    paths = []
    for j, ((text, _, token_cost), probs) in enumerate(zip(generations, dist.probs)):
        answer = parse_answer(text, client.template.answer_marker, len(q.options))
        conf = float(probs[answer]) if answer is not None else float(probs.max())
        paths.append(
            SampledPath(
                question_id=q.question_id,
                sample_idx=j,
                answer=ABSTAIN if answer is None else answer,
                token_cost=token_cost,
                confidence=min(max(conf, 1e-6), 1.0),
                temperature=temperature,
            )
        )
    return paths


def _drop_torn_tail(path: Path) -> bool:
    """Cut the partial line a crash mid-append leaves; True when whole lines are left."""
    if not path.exists():
        return False
    with open(path, "rb+") as fh:
        size = fh.read().rfind(b"\n") + 1
        fh.truncate(size)
    return size > 0


def _append_records(path: Path, schema: str, records: Iterable[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(dumps_record({"schema": schema}) + "\n")
        for rec in records:
            fh.write(dumps_record(rec) + "\n")


def check_harvest_options(
    n_samples: int, temperature: float, max_new_tokens: int, with_paths: bool = True
) -> None:
    """ValueError for a value no harvest can use; n_samples counts only when with_paths."""
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be positive")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError("temperature must be a non-negative number")
    if with_paths and n_samples < 1:
        raise ValueError("n_samples must be positive when sampled paths are harvested")


def harvest_dataset(
    questions: Sequence[McQuestion],
    client: EndpointClient,
    out_trajectories: str | Path,
    out_paths: str | Path | None = None,
    n_samples: int = 10,
    temperature: float = 1.0,
    max_new_tokens: int = 1024,
) -> tuple[int, int]:
    """Harvest every question, appending as it goes so a rerun resumes.

    A question's paths are appended before its trajectory, which commits
    it. A rerun first cuts a torn last line (left by a crash) off each
    output and drops the paths of uncommitted questions, then skips the
    questions already in the trajectories output; an output cut back to
    nothing (a torn header) starts afresh. The outputs are read through their
    readers, so a record they reject stops the rerun with a ParseError. A
    question whose requests keep failing or whose generation cannot be used
    (blank text, for one) is logged and skipped, never aborting the job.
    Returns (harvested, failed); check_harvest_options runs before any request.
    """
    check_harvest_options(n_samples, temperature, max_new_tokens, out_paths is not None)
    probe_scoring_capability(client)
    out_trajectories = Path(out_trajectories)
    done = set()
    if _drop_torn_tail(out_trajectories):
        done = {traj.question_id for traj in read_trajectories(out_trajectories)}
    if out_paths is not None:
        out_paths = Path(out_paths)
        # a crash between a question's two appends leaves paths without a trajectory
        if _drop_torn_tail(out_paths):
            grouped = read_paths(out_paths)
            if any(qid not in done for qid in grouped):
                write_paths(out_paths, [p for q, ps in grouped.items() if q in done for p in ps])
    harvested = 0
    failed = 0
    for q in questions:
        if q.question_id in done:
            continue
        try:
            traj = harvest_greedy(q, client, max_new_tokens=max_new_tokens)
            records = [traj_record(traj)]
            path_records = []
            if out_paths is not None:
                samples = harvest_samples(
                    q,
                    client,
                    n_samples=n_samples,
                    temperature=temperature,
                    max_new_tokens=max_new_tokens,
                )
                path_records = [path_record(p) for p in samples]
        except CotriageError as exc:
            log.warning("skipping %s: %s", q.question_id, exc)
            failed += 1
            continue
        # the trajectory commits the question, so it goes last
        if out_paths is not None:
            _append_records(out_paths, PATHS_SCHEMA, path_records)
        _append_records(out_trajectories, TRAJ_SCHEMA, records)
        harvested += 1
    return harvested, failed
