"""Threshold calibration for the accept-or-escalate policy.

Simulates routing on held-out items across a grid of thresholds and picks the
most token-frugal threshold whose accuracy stays within a relative drop of
the best grid accuracy. An item routed to multi-path reasoning still pays for
its greedy pass: that cost is sunk by the time the decision is made.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import CotriageError, ParseError
from .jsonl import typed, write_csv, write_json

DEFAULT_MAX_REL_DROP = 0.005


@dataclass(frozen=True)
class CalibrationItem:
    """Per-question outcomes of both routes plus the detector score."""

    question_id: str
    score: float
    greedy_correct: bool
    greedy_tokens: int
    multi_correct: bool
    multi_tokens: int


@dataclass(frozen=True)
class CalibrationPoint:
    tau: float
    accuracy: float
    mean_tokens: float
    token_reduction: float
    accept_rate: float


@dataclass(frozen=True)
class CalibrationProfile:
    points: list[CalibrationPoint]


def default_grid() -> list[float]:
    return [i / 20 for i in range(21)]


class RoutingArrays(NamedTuple):
    """CalibrationItem fields as aligned per-item arrays."""

    score: np.ndarray
    greedy_correct: np.ndarray
    greedy_tokens: np.ndarray
    multi_correct: np.ndarray
    multi_tokens: np.ndarray

    @classmethod
    def of(cls, items: Sequence[CalibrationItem]) -> RoutingArrays:
        if not items:
            raise CotriageError("cannot route zero items")
        return cls(*(np.array([getattr(it, f) for it in items]) for f in cls._fields))


def route_at_tau(arrays: RoutingArrays, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The accept-or-escalate rule: per-item (accepted, correct, tokens).

    An item whose score is >= tau keeps its greedy answer and cost; any other
    item takes the multi-path answer and pays the multi-path tokens on top of
    the greedy ones.
    """
    accepted = arrays.score >= tau
    escalated = arrays.multi_tokens + arrays.greedy_tokens
    correct = np.where(accepted, arrays.greedy_correct, arrays.multi_correct)
    return accepted, correct, np.where(accepted, arrays.greedy_tokens, escalated)


def _point(arrays: RoutingArrays, tau: float) -> CalibrationPoint:
    """CotriageError when every multi-path route costs 0 tokens: then no reduction is defined."""
    accepted, correct, tokens = route_at_tau(arrays, tau)
    n = len(accepted)
    mean_tokens = int(tokens.sum()) / n
    baseline = int(arrays.multi_tokens.sum())
    if baseline == 0:
        raise CotriageError("every multi-path route costs 0 tokens, so token reduction is undefined")
    return CalibrationPoint(
        tau=tau,
        accuracy=int(correct.sum()) / n,
        mean_tokens=mean_tokens,
        token_reduction=1.0 - mean_tokens / (baseline / n),
        accept_rate=int(accepted.sum()) / n,
    )


def simulate_at_tau(items: Sequence[CalibrationItem], tau: float) -> CalibrationPoint:
    """Route every item at threshold tau and aggregate accuracy and cost.

    token_reduction is relative to always running the multi-path baseline.
    """
    return _point(RoutingArrays.of(items), tau)


def sweep(items: Sequence[CalibrationItem]) -> CalibrationProfile:
    """Route the items at every threshold of default_grid()."""
    arrays = RoutingArrays.of(items)
    return CalibrationProfile([_point(arrays, tau) for tau in default_grid()])


def check_max_rel_drop(max_rel_drop: float) -> None:
    """ValueError unless 0 <= max_rel_drop <= 1."""
    if not 0.0 <= max_rel_drop <= 1.0:
        raise ValueError(f"max_rel_drop must be in [0, 1], got {max_rel_drop}")


def select_threshold(
    profile: CalibrationProfile, max_rel_drop: float = DEFAULT_MAX_REL_DROP
) -> float:
    """Most token-frugal feasible threshold; ties go to the smaller tau.

    Feasible means accuracy >= (1 - max_rel_drop) * best grid accuracy.
    The best-accuracy point is always feasible, so a selection always exists;
    ValueError unless 0 <= max_rel_drop <= 1.
    """
    check_max_rel_drop(max_rel_drop)
    if not profile.points:
        raise CotriageError("profile has no grid points")
    floor = (1.0 - max_rel_drop) * max(pt.accuracy for pt in profile.points)
    feasible = (pt for pt in profile.points if pt.accuracy >= floor)
    return max(feasible, key=attrgetter("token_reduction")).tau


def profile_to_csv(profile: CalibrationProfile, path: str | Path) -> None:
    header = [f.name for f in fields(CalibrationPoint)]
    write_csv(path, header, map(astuple, profile.points))


def write_selection_summary(
    profile: CalibrationProfile, tau: float, path: str | Path, max_rel_drop: float,
    baseline_method: str, budget: int,
) -> None:
    """selection.json: the tau that select_threshold(profile, max_rel_drop) chose, in context:
    the profile's voting method and path budget."""
    doc = {
        "selected_tau": tau,
        "max_accuracy": max(pt.accuracy for pt in profile.points),
        "max_rel_drop": max_rel_drop,
        "baseline_method": baseline_method,
        "budget": budget,
    }
    write_json(path, doc)


def read_selection_summary(path: str | Path) -> dict:
    """The selection.json document, selected_tau a float; ParseError unless it is a finite
    number, baseline_method a string and budget an int."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            doc["selected_tau"] = typed(doc, "selected_tau", float)
            if not math.isfinite(doc["selected_tau"]):
                raise ValueError(f"selected_tau is {doc['selected_tau']}")
            typed(doc, "baseline_method", str)
            typed(doc, "budget", int)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad selection summary {path}: {exc!r}") from exc
    return doc
