"""Routing evaluation: per-question outcome vectors, summary statistics,
paired bootstrap significance, and the report stage's three tables, the one
place these numbers are written.

Bootstrap p-values use the two-sided sign-flip convention: resample question
indices with replacement (the same draws for both metrics of a pair, keeping
the comparison paired), count mean-differences whose sign disagrees with the
observed difference, double, and clamp to [0, 1]. Resample i uses the rng
seeded with [seed, i] so any resample can be reproduced in isolation; a
report draws each resample once and applies it to every method pair.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .calibration import CalibrationItem, RoutingArrays, route_at_tau
from .errors import CotriageError
from .jsonl import read_unique_jsonl, typed, write_csv, write_jsonl
from .trajectory import McQuestion, Trajectory
from .voting import ABSTAIN, SampledPath, run_method

REPORT_SCHEMA = "report/1"
OUTCOMES_SCHEMA = "outcomes/1"


@dataclass
class OutcomeVector:
    """Aligned per-question correctness and token cost for one method."""

    question_ids: list[str]
    correct: np.ndarray  # bool
    tokens: np.ndarray  # int64

    def __post_init__(self):
        if len(self.question_ids) != len(self.correct) or len(self.correct) != len(self.tokens):
            raise ValueError("outcome arrays must align")
        if len(set(self.question_ids)) != len(self.question_ids):
            raise CotriageError("outcome vector repeats a question id")
        self.correct = np.asarray(self.correct, dtype=bool)
        self.tokens = np.asarray(self.tokens, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.question_ids)


@dataclass(frozen=True)
class Summary:
    accuracy: float
    mean_tokens: float
    tokens_q1: float
    tokens_median: float
    tokens_q3: float


def summarize(v: OutcomeVector) -> Summary:
    if len(v) == 0:
        raise CotriageError("cannot summarize an empty outcome vector")
    q1, med, q3 = np.percentile(v.tokens, [25, 50, 75], method="linear")
    return Summary(
        accuracy=float(v.correct.mean()),
        mean_tokens=float(v.tokens.mean()),
        tokens_q1=float(q1),
        tokens_median=float(med),
        tokens_q3=float(q3),
    )


@dataclass(frozen=True)
class BootstrapResult:
    delta_accuracy: float
    delta_tokens: float
    p_accuracy: float
    p_tokens: float


def _align(a: OutcomeVector, b: OutcomeVector) -> OutcomeVector:
    """Reorder b to a's question order."""
    only = set(a.question_ids) ^ set(b.question_ids)
    if only:
        qid = next(q for q in [*a.question_ids, *b.question_ids] if q in only)
        raise CotriageError(f"outcome vectors cover different question sets: {qid!r} is in only one")
    pos = {qid: i for i, qid in enumerate(b.question_ids)}
    idx = np.array([pos[qid] for qid in a.question_ids])
    return OutcomeVector(list(a.question_ids), b.correct[idx], b.tokens[idx])


def check_resamples(resamples: int) -> None:
    """ValueError when resamples < 1."""
    if resamples < 1:
        raise ValueError("resamples must be positive")


def _bootstrap_pairs(
    pairs: Sequence[tuple[OutcomeVector, OutcomeVector]], resamples: int, seed: int
) -> list[BootstrapResult]:
    """paired_bootstrap of every (a, b) pair, all pairs sharing each resample's draw.

    Each pair contributes two rows of integer per-question differences in a's
    question order, correctness then tokens. A resample's row sum is exact, so
    its sign is the sign of the float mean difference.
    """
    if any(len(a) == 0 for a, _ in pairs):
        raise CotriageError("cannot bootstrap empty outcome vectors")
    pairs = [(a, _align(a, b)) for a, b in pairs]
    if not pairs:
        return []
    diffs = np.stack([
        row for a, b in pairs
        for row in (a.correct.astype(np.int64) - b.correct.astype(np.int64), a.tokens - b.tokens)
    ])
    n = diffs.shape[1]
    observed = np.sign(diffs.sum(axis=1))
    flips = np.zeros(len(diffs), dtype=np.int64)
    for i in range(resamples):
        idx = np.random.default_rng([seed, i]).integers(0, n, size=n)
        flips += np.sign(diffs.take(idx, axis=1).sum(axis=1)) != observed
    p = np.where(observed == 0, 1.0, np.minimum(1.0, 2.0 * flips / resamples))
    return [
        BootstrapResult(
            delta_accuracy=_mean_diff(a.correct, b.correct),
            delta_tokens=_mean_diff(a.tokens, b.tokens),
            p_accuracy=float(p[2 * k]),
            p_tokens=float(p[2 * k + 1]),
        )
        for k, (a, b) in enumerate(pairs)
    ]


def _mean_diff(x: np.ndarray, y: np.ndarray) -> float:
    return float(x.astype(np.float64).mean() - y.astype(np.float64).mean())


def paired_bootstrap(
    a: OutcomeVector,
    b: OutcomeVector,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapResult:
    """Two-sided significance of accuracy and token-cost differences (a - b).

    Swapping a and b negates the deltas and leaves both p-values unchanged:
    the index draws depend only on (seed, i), not on the operand order.
    ValueError when resamples < 1.
    """
    check_resamples(resamples)
    return _bootstrap_pairs([(a, b)], resamples, seed)[0]


# --- building routing inputs -------------------------------------------------


def build_calibration_items(
    trajectories: Sequence[Trajectory],
    scores: Sequence[float],
    paths_by_qid: Mapping[str, Sequence[SampledPath]],
    questions: Mapping[str, McQuestion],
    method: str = "sc",
    budget: int = 10,
) -> list[CalibrationItem]:
    """Join trajectories, detector scores, sampled paths and gold answers.

    Correctness of the multi-path route comes from replaying the voting
    method on the archived paths; an abstaining vote is simply incorrect.
    CotriageError for a question with fewer than budget sampled paths, and for
    sampled paths of a question that has no trajectory in the split.
    """
    if len(trajectories) != len(scores):
        raise CotriageError("need exactly one score per trajectory")
    if stray := set(paths_by_qid).difference(t.question_id for t in trajectories):
        raise CotriageError(f"sampled paths for {min(stray)!r}, which has no trajectory in the split")
    items = []
    for traj, score in zip(trajectories, scores):
        qid = traj.question_id
        if qid not in questions:
            raise CotriageError(f"no question for trajectory {qid!r}")
        gold = questions[qid].gold_idx
        if gold is None:
            raise CotriageError(f"question {qid!r} has no gold answer")
        if qid not in paths_by_qid:
            raise CotriageError(f"no sampled paths for {qid!r}")
        paths = paths_by_qid[qid]
        if len(paths) < budget:
            raise CotriageError(f"question {qid!r} has {len(paths)} sampled paths, "
                                f"fewer than the budget of {budget}")
        vote = run_method(paths, method, budget=budget)
        items.append(
            CalibrationItem(
                question_id=qid,
                score=float(score),
                greedy_correct=traj.greedy_answer == gold,
                greedy_tokens=traj.greedy_token_cost,
                multi_correct=vote.answer != ABSTAIN and vote.answer == gold,
                multi_tokens=vote.tokens_used,
            )
        )
    return items


def route_outcomes(items: Sequence[CalibrationItem], tau: float) -> dict[str, OutcomeVector]:
    """Outcome vectors for the greedy route, the multi-path route, and the
    threshold policy that accepts the greedy answer when score >= tau."""
    arrays = RoutingArrays.of(items)
    ids = [it.question_id for it in items]
    _, correct, tokens = route_at_tau(arrays, tau)
    return {
        "greedy": OutcomeVector(ids, arrays.greedy_correct, arrays.greedy_tokens),
        "multi": OutcomeVector(ids, arrays.multi_correct, arrays.multi_tokens),
        "policy": OutcomeVector(ids, correct, tokens),
    }


def write_outcomes(path: str | Path, v: OutcomeVector) -> None:
    records = (
        {"question_id": qid, "correct": bool(c), "tokens": int(t)}
        for qid, c, t in zip(v.question_ids, v.correct, v.tokens)
    )
    write_jsonl(path, OUTCOMES_SCHEMA, records)


def _outcome_from_record(rec: dict) -> tuple[str, bool, int]:
    if typed(rec, "tokens", int) < 0:
        raise ValueError(f"tokens must be >= 0, not {rec['tokens']}")
    return typed(rec, "question_id", str), typed(rec, "correct", bool), rec["tokens"]


def read_outcomes(path: str | Path) -> OutcomeVector:
    rows = list(read_unique_jsonl(path, OUTCOMES_SCHEMA, _outcome_from_record, itemgetter(0)))
    return OutcomeVector(*([row[i] for row in rows] for i in range(3)))


# --- report files -------------------------------------------------------------


def write_report(
    methods: Mapping[str, OutcomeVector],
    summary_path: str | Path,
    significance_path: str | Path,
    outcomes_path: str | Path,
    seed: int = 0,
    resamples: int = 2000,
) -> None:
    """Write the summary, significance and outcomes tables.

    The significance table holds one row per unordered method pair, marked '*'
    when p < 0.05. Every table starts with a comment line naming the schema
    version and the bootstrap seed. The bootstrap runs before any table is
    written, so ValueError for resamples < 1 and CotriageError for outcome
    files that cover different questions leave no table behind.
    """
    check_resamples(resamples)
    if not methods:
        raise CotriageError("no methods to report")
    names = sorted(methods)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    results = _bootstrap_pairs([(methods[a], methods[b]) for a, b in pairs], resamples, seed)
    comment = f"schema={REPORT_SCHEMA} seed={seed}"
    write_csv(
        summary_path,
        ["method", "n", *(f.name for f in fields(Summary))],
        ([name, len(methods[name]), *astuple(summarize(methods[name]))] for name in names),
        comment,
    )
    write_csv(
        significance_path,
        ["method_a", "method_b", *(f.name for f in fields(BootstrapResult)), "marker"],
        (
            [a, b, *astuple(res), "*" if min(res.p_accuracy, res.p_tokens) < 0.05 else "n.s."]
            for (a, b), res in zip(pairs, results)
        ),
        comment,
    )
    write_csv(
        outcomes_path,
        ["method", "question_id", "correct", "tokens"],
        (
            [name, qid, int(c), int(t)]
            for name, v in sorted(methods.items())
            for qid, c, t in zip(v.question_ids, v.correct, v.tokens)
        ),
        comment,
    )
