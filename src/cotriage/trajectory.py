"""Core data types for scored chain-of-thought trajectories.

A trajectory is the greedy reasoning for one multiple-choice question, split
into sentences and held as columns: the sentence texts, a (T, K) array of
per-choice log-scores (row t scores every answer option against the prefix
ending at sentence t) and the prefix lengths. The top-choice probability p
and the entropy of each row are derived from the log-scores once, when the
trajectory is checked, as building a question checks it. One function,
check_trajectories, checks many trajectories in one pass over all their rows
and derives p and entropy once per option count K: building one trajectory
runs it on a split of one, synth on a whole split and read_trajectories on a
file, a chunk of records at a time, so a bad file is reported at its first
bad line. The readers check every field's JSON type instead of casting it. A
traj/1 record's stored p and entropy are read as typed JSON numbers, and a
record whose stored value is off the derived one by more than 1e-9 is
rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CotriageError
from .jsonl import read_unique_jsonl, typed, write_jsonl

TRAJ_SCHEMA = "traj/1"
QUESTIONS_SCHEMA = "questions/1"

# Records a reader checks per pass: about 60 KB of float64 rows (a synth trajectory has
# 7.5 x 4 log-scores, a features record 8 times as many values), small enough to come
# from memory the process already holds. One features buffer per file raised the peak
# RSS of the triage workload's route stage by 1.2-2.0 MB.
RECORDS_PER_PASS = 256

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
        bad = check_trajectories([self])
        if bad is not None:
            raise bad[1]


def unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, its checks not run: for code
    that checks many records in one pass (check_trajectories) before handing any out."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def check_trajectories(
    trajs: Sequence[Trajectory], stored: Sequence | None = None
) -> tuple[int, Exception] | None:
    """Run Trajectory's checks on many trajectories in one pass; None, or the first failure.

    Each trajectory's arrays are converted alone (numeric_array); every other
    check runs once over all rows, and p and entropy are derived once per
    option count K. stored, from a file, holds each trajectory's stored (2, T)
    p and entropy rows, or the error reading them, checked after the rest:
    they must match the derived values to within 1e-9. A failure is
    (position, the error that trajectory gives checked alone). If none fails,
    each gets read-only arrays, p and entropy views of one array over all rows.
    """
    arrays, bad = [], None
    for i, traj in enumerate(trajs):
        qid, t = traj.question_id, len(traj.texts)
        try:
            scores = numeric_array(traj.log_scores, "fiu", np.float64)
            plen = numeric_array(traj.prefix_len, "iu", np.int64)
            if t == 0:
                raise ValueError(f"{qid}: trajectory has no sentences")
            if scores.ndim != 2 or len(scores) != t or scores.shape[1] < 2:
                raise ValueError(f"{qid}: log_scores must be (T, K) with T={t} and K >= 2")
            if plen.shape != (t,):
                raise ValueError(f"{qid}: need one prefix_len per sentence")
        except (TypeError, ValueError) as exc:
            bad = i, exc
            break
        arrays.append((scores, plen))
    if not arrays:
        return bad
    n, sizes, ks = len(arrays), [len(plen) for _, plen in arrays], [a.shape[1] for a, _ in arrays]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    p, entropy, finite = np.empty(ends[-1]), np.empty(ends[-1]), np.empty(ends[-1], bool)
    with np.errstate(all="ignore"):  # a row that fails a check below may hold NaN or infinity
        for k in dict.fromkeys(ks):
            rows = np.repeat(np.equal(ks, k), sizes)
            scores = np.concatenate([a for a, _ in arrays if a.shape[1] == k])
            finite[rows] = np.isfinite(scores).all(axis=1)
            p[rows], entropy[rows] = sentence_signals(ChoiceDistribution(_softmax(scores), scores))
    plens = np.concatenate([plen for _, plen in arrays])
    plen_bad = np.empty(len(plens), bool)
    plen_bad[1:] = plens[1:] <= plens[:-1]
    plen_bad[starts] = plens[starts] < 1
    texts = chain.from_iterable(traj.texts for traj in trajs[:n])

    def first(row_bad: np.ndarray) -> int:  # the trajectory holding the first bad row, or n
        bad_rows = np.flatnonzero(row_bad)
        return int(np.searchsorted(ends, bad_rows[0], "right")) if len(bad_rows) else n

    checks = [  # in the order one trajectory's checks run
        (first(~np.fromiter(map(bool, map(str.strip, texts)), bool, len(plens))), "sentence text is empty"),
        (first(~finite), "log-scores contain NaN or infinity"),
        (first(plen_bad), "prefix_len must be positive and strictly increasing"),
        (next((j for j, k in enumerate(ks) if not 0 <= trajs[j].greedy_answer < k), n),
         "greedy_answer out of range"),
        (next((j for j in range(n) if trajs[j].greedy_token_cost <= 0), n),
         "greedy_token_cost must be positive"),
    ]
    if stored is not None:
        read = next((j for j in range(n) if isinstance(stored[j], Exception)), n)
        given = np.hstack([np.empty((2, 0)), *stored[:read]])  # the rows of trajectories before read
        off = ~(np.abs(given - np.stack([p, entropy])[:, : given.shape[1]]) <= 1e-9).all(axis=0)
        checks += [(read, stored[read] if read < n else None),
                   (first(off), "stored p/entropy disagree with log_scores")]
    i, what = min(checks, key=itemgetter(0))  # on a tie, the check that runs first
    if i < n:
        return i, what if isinstance(what, Exception) else ValueError(f"{trajs[i].question_id}: {what}")
    if bad is None:
        p, entropy = read_only(p), read_only(entropy)
        for traj, (scores, plen), lo, hi in zip(trajs, arrays, starts.tolist(), ends.tolist()):
            traj.__dict__.update(log_scores=read_only(scores), prefix_len=read_only(plen),
                                 p=p[lo:hi], entropy=entropy[lo:hi])
    return bad


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


def _traj_from_record(rec: dict) -> tuple[Trajectory, np.ndarray | Exception]:
    """A record's trajectory, unchecked, and its stored (2, T) p and entropy rows, or the error reading them.

    The JSON lists become arrays here, at the point where building the trajectory alone would
    convert them, so a chunk of records waiting for check_trajectories holds no per-sentence
    lists: held, they made the garbage collector run about twice as often.
    """
    sentences = typed(rec, "sentences", list)
    traj = unchecked(
        Trajectory,
        question_id=typed(rec, "question_id", str),
        texts=[typed(s, "text", str) for s in sentences],
        log_scores=[s["log_scores"] for s in sentences],
        prefix_len=[s["prefix_len"] for s in sentences],
        greedy_answer=typed(rec, "greedy_answer", int),
        greedy_token_cost=typed(rec, "greedy_token_cost", int),
        label=typed(rec, "label", bool, None),
    )
    traj.__dict__["log_scores"] = numeric_array(traj.log_scores, "fiu", np.float64)
    traj.__dict__["prefix_len"] = numeric_array(traj.prefix_len, "iu", np.int64)
    try:  # an error here counts after the trajectory's own checks, as it did when built alone
        return traj, np.array([[typed(s, key, float) for s in sentences] for key in ("p", "entropy")])
    except (KeyError, TypeError, ValueError) as exc:
        return traj, exc


def write_trajectories(path: str | Path, trajectories: Iterable[Trajectory]) -> None:
    """Write a traj/1 file; a Trajectory was validated when it was built."""
    write_jsonl(path, TRAJ_SCHEMA, map(traj_record, trajectories))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a traj/1 file, applying the writer's checks to every record.

    Every field must hold its JSON type, and a record's stored p and entropy
    must match the values derived from its log_scores to within 1e-9. The
    records are checked together, a chunk at a time (check_trajectories); a
    bad file is a ParseError naming its first bad line.
    """
    items = read_unique_jsonl(path, TRAJ_SCHEMA, _traj_from_record, lambda item: item[0].question_id,
                              settle=lambda items: check_trajectories(*zip(*items)), chunk=RECORDS_PER_PASS)
    return [traj for traj, _ in items]


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
