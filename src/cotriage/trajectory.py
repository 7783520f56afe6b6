"""Core data types for scored chain-of-thought trajectories.

A trajectory is the greedy reasoning for one multiple-choice question, split
into sentences. Each sentence carries the model's per-choice answer
distribution at that point in the reasoning, obtained by scoring every answer
option against the prefix ending at that sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateId, EmptyTrajectory, InvalidAnswerTokens, NonFiniteScore
from .jsonl import read_jsonl, write_jsonl

TRAJ_SCHEMA = "traj/1"
QUESTIONS_SCHEMA = "questions/1"

_TERMINALS = ".?!"
# A bare list marker like "1." or "A." at the head of a fragment.
_LIST_MARKER = re.compile(r"^(?:\d+|[A-Za-z])\.$")


@dataclass
class McQuestion:
    """One multiple-choice question; gold_idx is None for unlabeled items."""

    question_id: str
    question: str
    options: list[str]
    gold_idx: int | None = None

    def validate(self) -> None:
        if len(self.options) < 2:
            raise ValueError(f"{self.question_id}: need at least 2 options")
        if self.gold_idx is not None and not 0 <= self.gold_idx < len(self.options):
            raise ValueError(f"{self.question_id}: gold_idx {self.gold_idx} out of range")


@dataclass
class ChoiceDistribution:
    """Normalized per-choice probabilities together with the raw log-scores."""

    probs: np.ndarray
    log_scores: np.ndarray

    def validate(self) -> None:
        if self.probs.shape != self.log_scores.shape or self.probs.ndim != 1:
            raise ValueError("probs and log_scores must be 1-d and congruent")
        if len(self.probs) < 2:
            raise ValueError("need at least 2 choices")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probs do not sum to 1")
        ref = _softmax(self.log_scores)
        if np.max(np.abs(ref - self.probs)) > 1e-9:
            raise ValueError("probs are not the softmax of log_scores")


@dataclass
class SentenceRecord:
    """One reasoning sentence plus the answer distribution after it."""

    text: str
    distribution: ChoiceDistribution
    p: float
    entropy: float
    prefix_len: int

    def validate(self) -> None:
        if not self.text.strip():
            raise ValueError("sentence text is empty")
        self.distribution.validate()
        p, entropy = sentence_signals(self.distribution)
        if abs(p - self.p) > 1e-9 or abs(entropy - self.entropy) > 1e-9:
            raise ValueError("stored (p, entropy) disagree with the distribution")
        if self.prefix_len < 1:
            raise ValueError("prefix_len must be positive")


@dataclass
class Trajectory:
    """Greedy reasoning for one question, one record per sentence."""

    question_id: str
    sentences: list[SentenceRecord]
    greedy_answer: int
    greedy_token_cost: int
    label: bool | None = None

    @property
    def num_choices(self) -> int:
        return len(self.sentences[0].distribution.probs)

    def validate(self) -> None:
        if not self.sentences:
            raise ValueError(f"{self.question_id}: trajectory has no sentences")
        k = self.num_choices
        prev = 0
        for rec in self.sentences:
            rec.validate()
            if len(rec.distribution.probs) != k:
                raise ValueError(f"{self.question_id}: inconsistent choice count")
            if rec.prefix_len <= prev:
                raise ValueError(f"{self.question_id}: prefix_len not strictly increasing")
            prev = rec.prefix_len
        if not 0 <= self.greedy_answer < k:
            raise ValueError(f"{self.question_id}: greedy_answer out of range")
        if self.greedy_token_cost <= 0:
            raise ValueError(f"{self.question_id}: greedy_token_cost must be positive")


def _softmax(log_scores: np.ndarray) -> np.ndarray:
    shifted = log_scores - np.max(log_scores)
    unnorm = np.exp(shifted)
    return unnorm / unnorm.sum()


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
        raise EmptyTrajectory("no sentences in reasoning text")
    return sentences


def answer_logscore(token_logprobs: Sequence[float]) -> float:
    """Sum the log-probabilities of an answer's tokens."""
    if len(token_logprobs) == 0:
        raise InvalidAnswerTokens("answer span has no tokens")
    return float(sum(token_logprobs))


def normalize_choices(log_scores: Sequence[float]) -> ChoiceDistribution:
    """Softmax the per-choice log-scores into a distribution.

    Invariant to adding a constant to every log-score; the max is subtracted
    before exponentiation so large magnitudes stay finite.
    """
    arr = np.asarray(log_scores, dtype=np.float64)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError("need a 1-d vector of at least 2 log-scores")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteScore("log-scores contain NaN or infinity")
    return ChoiceDistribution(probs=_softmax(arr), log_scores=arr)


def sentence_signals(dist: ChoiceDistribution) -> tuple[float, float]:
    """Return (top-choice probability, entropy in nats) of a distribution.

    Entropy terms use a 1e-12 probability floor so zero-probability choices
    contribute zero rather than NaN.
    """
    probs = np.maximum(dist.probs, 1e-12)
    entropy = float(-np.sum(dist.probs * np.log(probs)))
    return float(np.max(dist.probs)), entropy


def prefix_lengths(sentences: Sequence[str]) -> list[int]:
    """Cumulative whitespace-token counts of the reasoning prefix."""
    total = 0
    out = []
    for s in sentences:
        total += len(s.split())
        out.append(total)
    return out


# --- serialization ---------------------------------------------------------


def _traj_to_record(traj: Trajectory) -> dict:
    rec = {
        "question_id": traj.question_id,
        "sentences": [
            {
                "text": s.text,
                "log_scores": [float(v) for v in s.distribution.log_scores],
                "p": s.p,
                "entropy": s.entropy,
                "prefix_len": s.prefix_len,
            }
            for s in traj.sentences
        ],
        "greedy_answer": traj.greedy_answer,
        "greedy_token_cost": traj.greedy_token_cost,
    }
    if traj.label is not None:
        rec["label"] = bool(traj.label)
    return rec


def _traj_from_record(rec: dict) -> Trajectory:
    sentences = [
        SentenceRecord(
            text=s["text"],
            distribution=normalize_choices(s["log_scores"]),
            p=float(s["p"]),
            entropy=float(s["entropy"]),
            prefix_len=int(s["prefix_len"]),
        )
        for s in rec["sentences"]
    ]
    label = rec.get("label")
    return Trajectory(
        question_id=str(rec["question_id"]),
        sentences=sentences,
        greedy_answer=int(rec["greedy_answer"]),
        greedy_token_cost=int(rec["greedy_token_cost"]),
        label=None if label is None else bool(label),
    )


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    """Write a traj/1 file; every trajectory is validated before writing."""

    def records():
        for traj in trajectories:
            traj.validate()
            yield _traj_to_record(traj)

    write_jsonl(path, TRAJ_SCHEMA, records())


def read_trajectories(path: str | Path) -> list[Trajectory]:
    out = []
    seen: set[str] = set()
    for traj in read_jsonl(path, TRAJ_SCHEMA, _traj_from_record):
        if traj.question_id in seen:
            raise DuplicateId(f"duplicate trajectory for {traj.question_id!r}")
        seen.add(traj.question_id)
        out.append(traj)
    return out


def write_questions(path: str | Path, questions: Iterable[McQuestion]) -> None:
    def records():
        for q in questions:
            q.validate()
            rec = {"id": q.question_id, "question": q.question, "options": q.options}
            if q.gold_idx is not None:
                rec["answer_idx"] = q.gold_idx
            yield rec

    write_jsonl(path, QUESTIONS_SCHEMA, records())


def _question_from_record(rec: dict) -> McQuestion:
    q = McQuestion(
        question_id=str(rec["id"]),
        question=str(rec["question"]),
        options=[str(o) for o in rec["options"]],
        gold_idx=int(rec["answer_idx"]) if rec.get("answer_idx") is not None else None,
    )
    q.validate()
    return q


def load_questions(path: str | Path) -> list[McQuestion]:
    """Load a questions/1 file; rejects items with fewer than two options."""
    out = []
    seen: set[str] = set()
    for q in read_jsonl(path, QUESTIONS_SCHEMA, _question_from_record):
        if q.question_id in seen:
            raise DuplicateId(f"duplicate question id {q.question_id!r}")
        seen.add(q.question_id)
        out.append(q)
    return out
