"""Core data types for scored chain-of-thought trajectories.

A trajectory is the greedy reasoning for one multiple-choice question, split
into sentences and held as columns: the sentence texts, a (T, K) array of
per-choice log-scores (row t scores every answer option against the prefix
ending at sentence t) and the prefix lengths. The top-choice probability p
and the entropy of each row are derived from the log-scores once, when the
trajectory is built, which also checks it, as building a question does. The
readers check every field's JSON type instead of casting it. A traj/1
record's stored p and entropy are read as typed JSON numbers, and a record
whose stored value is off the derived one by more than 1e-9 is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CotriageError
from .jsonl import read_unique_jsonl, typed, write_jsonl

TRAJ_SCHEMA = "traj/1"
QUESTIONS_SCHEMA = "questions/1"

_BY_ID = attrgetter("question_id")
_TERMINALS = ".?!"
# A bare list marker like "1." or "A." at the head of a fragment.
_LIST_MARKER = re.compile(r"^(?:\d+|[A-Za-z])\.$")


def numeric_array(values, kinds: str, dtype) -> np.ndarray:
    """values as a dtype array; TypeError unless np.asarray infers a kind in kinds.

    numpy reads a bool among numbers as 0 or 1, so a 1-D or 2-D list that
    holds a bool anywhere is a TypeError too. An empty array passes, so that
    "no sentences" keeps its own message.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in kinds:
        raise TypeError(f"need {np.dtype(dtype).name} values, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and 1 <= arr.ndim <= 2:
        items = chain.from_iterable(values) if arr.ndim == 2 else values
        if bool in map(type, items):
            raise TypeError(f"need {np.dtype(dtype).name} values, got a boolean")
    return arr.astype(dtype, copy=False)


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
    """Greedy reasoning for one question, held as per-sentence columns.

    Row t of log_scores (T, K) scores the K options after sentence t, and
    prefix_len[t] is the whitespace-token length of the reasoning up to it.
    p (top-choice probability) and entropy are derived from log_scores at
    construction, which also validates the whole record. The fields cannot
    be reassigned afterwards, and the arrays are read-only views, so the
    record cannot be written through them either.
    """

    question_id: str
    texts: list[str]
    log_scores: np.ndarray
    prefix_len: np.ndarray
    greedy_answer: int
    greedy_token_cost: int
    label: bool | None = None
    p: np.ndarray = field(init=False, repr=False)
    entropy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        log_scores = read_only(numeric_array(self.log_scores, "fiu", np.float64))
        object.__setattr__(self, "log_scores", log_scores)
        object.__setattr__(self, "prefix_len", read_only(numeric_array(self.prefix_len, "iu", np.int64)))
        qid, t = self.question_id, len(self.texts)
        plen = self.prefix_len
        if t == 0:
            raise ValueError(f"{qid}: trajectory has no sentences")
        if self.log_scores.ndim != 2 or len(self.log_scores) != t or self.log_scores.shape[1] < 2:
            raise ValueError(f"{qid}: log_scores must be (T, K) with T={t} and K >= 2")
        if plen.shape != (t,):
            raise ValueError(f"{qid}: need one prefix_len per sentence")
        if not all(map(str.strip, self.texts)):
            raise ValueError(f"{qid}: sentence text is empty")
        if not np.isfinite(self.log_scores).all():
            raise ValueError(f"{qid}: log-scores contain NaN or infinity")
        if plen[0] < 1 or (plen[1:] <= plen[:-1]).any():
            raise ValueError(f"{qid}: prefix_len must be positive and strictly increasing")
        if not 0 <= self.greedy_answer < self.log_scores.shape[1]:
            raise ValueError(f"{qid}: greedy_answer out of range")
        if self.greedy_token_cost <= 0:
            raise ValueError(f"{qid}: greedy_token_cost must be positive")
        p, entropy = sentence_signals(ChoiceDistribution(_softmax(log_scores), log_scores))
        object.__setattr__(self, "p", read_only(p))
        object.__setattr__(self, "entropy", read_only(entropy))


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


def prefix_lengths(sentences: Sequence[str]) -> list[int]:
    """Cumulative whitespace-token counts of the reasoning prefix."""
    total = 0
    out = []
    for s in sentences:
        total += len(s.split())
        out.append(total)
    return out


# --- serialization ---------------------------------------------------------


def traj_record(traj: Trajectory) -> dict:
    """The traj/1 record of one trajectory."""
    columns = zip(
        traj.texts,
        traj.log_scores.tolist(),
        traj.p.tolist(),
        traj.entropy.tolist(),
        traj.prefix_len.tolist(),
    )
    rec = {
        "question_id": traj.question_id,
        "sentences": [
            {"text": text, "log_scores": row, "p": p, "entropy": h, "prefix_len": plen}
            for text, row, p, h, plen in columns
        ],
        "greedy_answer": traj.greedy_answer,
        "greedy_token_cost": traj.greedy_token_cost,
    }
    if traj.label is not None:
        rec["label"] = bool(traj.label)
    return rec


def _traj_from_record(rec: dict) -> Trajectory:
    sentences = typed(rec, "sentences", list)
    traj = Trajectory(
        question_id=typed(rec, "question_id", str),
        texts=[typed(s, "text", str) for s in sentences],
        log_scores=[s["log_scores"] for s in sentences],
        prefix_len=[s["prefix_len"] for s in sentences],
        greedy_answer=typed(rec, "greedy_answer", int),
        greedy_token_cost=typed(rec, "greedy_token_cost", int),
        label=typed(rec, "label", bool, None),
    )
    stored = [typed(s, "p", float) for s in sentences]
    stored += [typed(s, "entropy", float) for s in sentences]
    derived = traj.p.tolist() + traj.entropy.tolist()
    if not all(abs(a - b) <= 1e-9 for a, b in zip(stored, derived)):
        raise ValueError(f"{traj.question_id}: stored p/entropy disagree with log_scores")
    return traj


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    """Write a traj/1 file; a Trajectory was validated when it was built."""
    write_jsonl(path, TRAJ_SCHEMA, map(traj_record, trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a traj/1 file, applying the writer's checks to every record.

    Every field must hold its JSON type, and a record's stored p and entropy
    must match the values derived from its log_scores to within 1e-9.
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
