"""Multi-path voting rules: self-consistency, confidence-weighted voting, and
dynamic voting with an early-consensus stop.

Paths that failed to produce a parsable answer carry the abstain sentinel -1.
Abstaining paths never receive votes but their tokens were still spent, so
they count toward cost. Tie-breaking is deterministic everywhere: higher
summed confidence first, then the lowest answer index, which also makes the
set-based voters invariant to path order.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .jsonl import read_unique_jsonl, typed, write_jsonl

PATHS_SCHEMA = "paths/1"
ABSTAIN = -1
METHODS = ("sc", "cer", "dv")


@dataclass(frozen=True)
class SampledPath:
    question_id: str
    sample_idx: int
    answer: int  # ABSTAIN when the sample produced no parsable answer
    token_cost: int
    confidence: float
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.sample_idx < 0:
            raise ValueError("sample_idx must be non-negative")
        if self.answer < ABSTAIN:
            raise ValueError("answer must be an option index or the abstain sentinel")
        if self.token_cost < 0:
            raise ValueError("token_cost must be non-negative")
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError("confidence must lie in (0, 1]")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a non-negative number")


@dataclass(frozen=True)
class VoteResult:
    answer: int  # ABSTAIN when every consumed path abstained
    tokens_used: int


def _tally(
    answers: Sequence[int], confidences: Sequence[float]
) -> tuple[dict[int, int], dict[int, float]]:
    if len(answers) != len(confidences):
        raise ValueError("answers and confidences must align")
    counts: dict[int, int] = defaultdict(int)
    conf: dict[int, float] = defaultdict(float)
    for a, c in zip(answers, confidences):
        if a != ABSTAIN:
            counts[a] += 1
            conf[a] += c
    return counts, conf


def majority_vote(answers: Sequence[int], confidences: Sequence[float]) -> int:
    """Most-voted answer; ties by summed confidence, then lowest index."""
    counts, conf = _tally(answers, confidences)
    if not counts:
        return ABSTAIN
    return min(counts, key=lambda a: (-counts[a], -conf[a], a))


def confidence_weighted_vote(answers: Sequence[int], confidences: Sequence[float]) -> int:
    """Answer with the largest summed confidence; ties to the lowest index."""
    _, conf = _tally(answers, confidences)
    if not conf:
        return ABSTAIN
    return min(conf, key=lambda a: (-conf[a], a))


def dynamic_vote(paths: Sequence[SampledPath], budget: int = 10) -> VoteResult:
    """Consume paths in order, stopping once an answer has budget // 2 + 1 votes.

    Without early consensus the drawn paths fall back to confidence-weighted
    voting. Tokens are counted for every consumed path, abstains included.
    ValueError for a budget below 1.
    """
    check_budget(budget)
    majority = budget // 2 + 1
    window = paths[:budget]
    counts: dict[int, int] = defaultdict(int)
    tokens = 0
    for path in window:
        tokens += path.token_cost
        if path.answer != ABSTAIN:
            counts[path.answer] += 1
            if counts[path.answer] >= majority:
                return VoteResult(path.answer, tokens)
    answer = confidence_weighted_vote([p.answer for p in window], [p.confidence for p in window])
    return VoteResult(answer, tokens)


def check_budget(budget: int) -> None:
    """ValueError for a budget below 1."""
    if budget < 1:
        raise ValueError("budget must be positive")


def run_method(paths: Sequence[SampledPath], method: str, budget: int = 10) -> VoteResult:
    """Answer one question with a voting method over its first budget sampled paths."""
    check_budget(budget)
    if method == "dv":
        return dynamic_vote(paths, budget=budget)
    window = paths[:budget]
    answers = [p.answer for p in window]
    confidences = [p.confidence for p in window]
    if method == "sc":
        answer = majority_vote(answers, confidences)
    elif method == "cer":
        answer = confidence_weighted_vote(answers, confidences)
    else:
        raise ValueError(f"unknown voting method {method!r}")
    return VoteResult(answer, sum(p.token_cost for p in window))


# --- serialization -----------------------------------------------------------


def path_record(p: SampledPath) -> dict:
    """The paths/1 record of one sampled path."""
    return {
        "question_id": p.question_id,
        "sample_idx": p.sample_idx,
        "answer": p.answer,
        "token_cost": p.token_cost,
        "confidence": p.confidence,
        "temperature": p.temperature,
    }


def write_paths(path: str | Path, paths: Iterable[SampledPath]) -> None:
    write_jsonl(path, PATHS_SCHEMA, map(path_record, paths))


def _path_from_record(rec: dict) -> SampledPath:
    return SampledPath(
        question_id=typed(rec, "question_id", str),
        sample_idx=typed(rec, "sample_idx", int),
        answer=typed(rec, "answer", int),
        token_cost=typed(rec, "token_cost", int),
        confidence=typed(rec, "confidence", float),
        temperature=typed(rec, "temperature", float, 1.0),
    )


def read_paths(path: str | Path) -> dict[str, list[SampledPath]]:
    """Paths grouped by question, ordered by sample index; an absent temperature is 1.0."""
    grouped: dict[str, list[SampledPath]] = defaultdict(list)
    key = attrgetter("question_id", "sample_idx")
    for p in read_unique_jsonl(path, PATHS_SCHEMA, _path_from_record, key):
        grouped[p.question_id].append(p)
    for qid in grouped:
        grouped[qid].sort(key=lambda p: p.sample_idx)
    return dict(grouped)
