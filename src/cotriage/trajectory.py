"""Core data types for scored chain-of-thought trajectories.

A trajectory is the greedy reasoning for one multiple-choice question, split
into sentences and held as columns: the sentence texts and a (T, K) array of
per-choice log-scores (row t scores every answer option against the prefix
ending at sentence t), the two things a traj/2 record stores per sentence.
A Trajectory is exactly the record: building one checks it, and
read_trajectories and synth build each one as they make it, so a bad file is
reported at its first bad line. The prefix lengths (cumulative
whitespace-token counts), the top-choice probability p and the entropy of
each row are not stored: derive_signals computes them for a whole split in
one pass where they are used. The readers check every field's JSON type
instead of casting it. A traj/1 file, which also stored prefix_len, p and
entropy, fails the schema check: synthesise it again, or delete it and
harvest again (with the same cache directory, a harvest sends no request).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CotriageError
from .jsonl import read_unique_jsonl, typed, write_jsonl

TRAJ_SCHEMA = "traj/2"
QUESTIONS_SCHEMA = "questions/1"

_BY_ID = attrgetter("question_id")
_TERMINALS = ".?!"
# A bare list marker like "1." or "A." at the head of a fragment.
_LIST_MARKER = re.compile(r"^(?:\d+|[A-Za-z])\.$")


def numeric_array(values) -> np.ndarray:
    """values as a float64 array; TypeError unless np.asarray infers an int or float dtype.

    numpy reads a bool among numbers as 0 or 1, so a 1-D or 2-D list that
    holds a bool anywhere is a TypeError too. An empty array passes, so that
    "no sentences" keeps its own message.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "fiu":
        raise TypeError(f"need float64 values, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and 1 <= arr.ndim <= 2:
        items = chain.from_iterable(values) if arr.ndim == 2 else values
        if bool in map(type, items):
            raise TypeError("need float64 values, got a boolean")
    return arr.astype(np.float64, copy=False)


def read_only(arr: np.ndarray) -> np.ndarray:
    """A view of arr that cannot be written through; arr itself stays writable."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class McQuestion:
    """One multiple-choice question, checked when built; gold_idx is None for unlabeled items."""

    question_id: str
    question: str
    options: list[str]
    gold_idx: int | None = None

    def __post_init__(self) -> None:
        if not all(type(o) is str for o in self.options):
            raise TypeError(f"{self.question_id}: options must be strings")
        if len(self.options) < 2:
            raise ValueError(f"{self.question_id}: need at least 2 options")
        if self.gold_idx is not None and not 0 <= self.gold_idx < len(self.options):
            raise ValueError(f"{self.question_id}: gold_idx {self.gold_idx} out of range")


@dataclass
class ChoiceDistribution:
    """Per-choice probabilities (softmax over the last axis) beside the raw log-scores."""

    probs: np.ndarray
    log_scores: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Greedy reasoning for one question, held as per-sentence columns: a traj/2 record.

    Row t of log_scores (T, K) scores the K options after sentence t. The
    whole record is checked when it is built. The fields cannot be reassigned
    afterwards, and log_scores is a read-only view, so the record cannot be
    written through it either. derive_signals gives its per-sentence signals.
    """

    question_id: str
    texts: list[str]
    log_scores: np.ndarray
    greedy_answer: int
    greedy_token_cost: int
    label: bool | None = None

    def __post_init__(self) -> None:
        """Raise the first failed check; log_scores becomes a read-only float64 array.

        A text is empty when it holds no whitespace-separated token, which is
        when s.split() would be [].
        """
        qid, t = self.question_id, len(self.texts)
        scores = numeric_array(self.log_scores)
        if t == 0:
            raise ValueError(f"{qid}: trajectory has no sentences")
        if scores.ndim != 2 or len(scores) != t or scores.shape[1] < 2:
            raise ValueError(f"{qid}: log_scores must be (T, K) with T={t} and K >= 2")
        if "" in self.texts or any(map(str.isspace, self.texts)):
            raise ValueError(f"{qid}: sentence text is empty")
        if not np.isfinite(scores).all():
            raise ValueError(f"{qid}: log-scores contain NaN or infinity")
        if not 0 <= self.greedy_answer < scores.shape[1]:
            raise ValueError(f"{qid}: greedy_answer out of range")
        if self.greedy_token_cost <= 0:
            raise ValueError(f"{qid}: greedy_token_cost must be positive")
        object.__setattr__(self, "log_scores", read_only(scores))


def derive_signals(trajs: Sequence[Trajectory]) -> tuple[list[np.ndarray], ...]:
    """(prefix_len, p, entropy) of trajectories, each a list of one read-only view per trajectory.

    prefix_len[t] is the whitespace-token length of the reasoning up to
    sentence t: each sentence's count is taken once (len(s.split())) and
    summed per trajectory. p (top-choice probability) and entropy come from
    the softmax of each log-score row, once per option count K. Each list
    holds slices of one array over all rows, and a trajectory's values are
    the same derived alone or in a split.
    """
    if not trajs:
        return [], [], []
    sizes, ks = [len(traj.texts) for traj in trajs], [traj.log_scores.shape[1] for traj in trajs]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    p, entropy = np.empty(ends[-1]), np.empty(ends[-1])
    with np.errstate(over="ignore"):  # a finite row may still span more than the float range
        for k in dict.fromkeys(ks):
            rows = np.repeat(np.equal(ks, k), sizes)
            scores = np.concatenate([traj.log_scores for traj in trajs if traj.log_scores.shape[1] == k])
            p[rows], entropy[rows] = sentence_signals(ChoiceDistribution(_softmax(scores), scores))
    texts = chain.from_iterable(traj.texts for traj in trajs)
    tokens = np.fromiter(map(len, map(str.split, texts)), np.int64, ends[-1])
    prefix_len = np.cumsum(tokens)
    prefix_len -= np.repeat(prefix_len[starts] - tokens[starts], sizes)
    bounds = list(zip(starts.tolist(), ends.tolist()))
    return tuple([arr[lo:hi] for lo, hi in bounds] for arr in map(read_only, (prefix_len, p, entropy)))


def segment_sentences(cot_text: str) -> list[str]:
    """Split reasoning text into sentences.

    Boundaries are '.', '?' or '!' followed by whitespace or end of text, and
    newlines. Two guards suppress spurious splits: a period between digits
    (decimals) and a bare list marker ("1.", "A.") continued by a lowercase
    word. Returned sentences are stripped and non-empty.
    """
    sentences: list[str] = []
    buf: list[str] = []

    def flush() -> None:
        text = "".join(buf).strip()
        if text:
            sentences.append(text)
        buf.clear()

    n = len(cot_text)
    for i, ch in enumerate(cot_text):
        if ch == "\n":
            flush()
            continue
        buf.append(ch)
        if ch not in _TERMINALS:
            continue
        nxt = cot_text[i + 1] if i + 1 < n else ""
        if nxt and not nxt.isspace():
            continue  # mid-token punctuation, e.g. the dot in "2.5" or "e.g."
        if ch == "." and _LIST_MARKER.match("".join(buf).strip()):
            rest = cot_text[i + 1 :].lstrip()
            if rest and rest[0].islower():
                continue  # "1. apples" style list item
        flush()
    flush()

    if not sentences:
        raise CotriageError("no sentences in reasoning text")
    return sentences


def answer_logscore(token_logprobs: Sequence[float]) -> float:
    """Sum the log-probabilities of an answer's tokens."""
    if len(token_logprobs) == 0:
        raise CotriageError("answer span has no tokens")
    return float(sum(token_logprobs))


def normalize_choices(log_scores: Sequence[float] | np.ndarray) -> ChoiceDistribution:
    """Softmax per-choice log-scores, (K,) or (T, K), along the last axis.

    Invariant to adding a constant to every log-score; the max is subtracted
    before exponentiation so large magnitudes stay finite.
    """
    arr = np.asarray(log_scores, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise ValueError("need (K,) or (T, K) log-scores with K >= 2")
    if not np.isfinite(arr).all():
        raise CotriageError("log-scores contain NaN or infinity")
    return ChoiceDistribution(probs=_softmax(arr), log_scores=arr)


def _softmax(arr: np.ndarray) -> np.ndarray:
    unnorm = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return unnorm / unnorm.sum(axis=-1, keepdims=True)


def sentence_signals(dist: ChoiceDistribution) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(top-choice probability, entropy in nats) along the last axis of a distribution.

    Scalars for a (K,) distribution, (T,) arrays for a (T, K) one. Entropy
    terms use a 1e-12 probability floor so zero-probability choices
    contribute zero rather than NaN.
    """
    probs = dist.probs
    entropy = -(probs * np.log(np.maximum(probs, 1e-12))).sum(axis=-1)
    return probs.max(axis=-1), entropy


# --- serialization ---------------------------------------------------------


def traj_record(traj: Trajectory) -> dict:
    """The traj/2 record of one trajectory: its texts and log-scores, not what derives from them."""
    rec = {
        "question_id": traj.question_id,
        "sentences": [{"text": t, "log_scores": row} for t, row in zip(traj.texts, traj.log_scores.tolist())],
        "greedy_answer": traj.greedy_answer,
        "greedy_token_cost": traj.greedy_token_cost,
    }
    if traj.label is not None:
        rec["label"] = bool(traj.label)
    return rec


def _traj_from_record(rec: dict) -> Trajectory:
    sentences = typed(rec, "sentences", list)
    return Trajectory(
        question_id=typed(rec, "question_id", str),
        texts=[typed(s, "text", str) for s in sentences],
        greedy_answer=typed(rec, "greedy_answer", int),
        greedy_token_cost=typed(rec, "greedy_token_cost", int),
        label=typed(rec, "label", bool, None),
        log_scores=[s["log_scores"] for s in sentences],
    )


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    """Write a traj/2 file; a Trajectory was validated when it was built."""
    write_jsonl(path, TRAJ_SCHEMA, map(traj_record, trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a traj/2 file, applying the writer's checks to every record.

    Every field must hold its JSON type, and each record is checked on its own
    line, so a bad file is a ParseError naming its first bad line.
    """
    return list(read_unique_jsonl(path, TRAJ_SCHEMA, _traj_from_record, _BY_ID))


def write_questions(path: str | Path, questions: Iterable[McQuestion]) -> None:
    def records():
        for q in questions:
            rec = {"id": q.question_id, "question": q.question, "options": q.options}
            if q.gold_idx is not None:
                rec["answer_idx"] = q.gold_idx
            yield rec

    write_jsonl(path, QUESTIONS_SCHEMA, records())


def _question_from_record(rec: dict) -> McQuestion:
    return McQuestion(
        question_id=typed(rec, "id", str),
        question=typed(rec, "question", str),
        options=typed(rec, "options", list),
        gold_idx=typed(rec, "answer_idx", int, None),
    )


def load_questions(path: str | Path) -> list[McQuestion]:
    """Load a questions/1 file; rejects items with fewer than two string options."""
    return list(read_unique_jsonl(path, QUESTIONS_SCHEMA, _question_from_record, _BY_ID))
