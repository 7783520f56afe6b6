"""Per-sentence feature extraction.

Turns a scored trajectory into a T x D float64 matrix: 12 numeric columns
derived from the per-sentence answer distributions, and 20 linguistic columns
derived from the sentence text and the question it answers. Column order is
frozen by the layout lists below; the extract-features manifest records the
order a feature dump was written with under "columns".
"""

from __future__ import annotations

import base64
import string
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import lexicons
from .jsonl import read_unique_jsonl, typed, write_jsonl
from .trajectory import McQuestion, Trajectory, numeric_array, read_only

FEATURES_SCHEMA = "features/2"
LABELS_SCHEMA = "labels/1"

NUMERIC_LAYOUT = [
    "p",
    "entropy",
    "p_over_log_len",
    "delta_p",
    "delta_entropy",
    "p_roll_std",
    "p_roll_range",
    "prefix_len",
    "p_ema",
    "delta_ema",
    "p_zscore",
    "ema_zscore",
]

LINGUISTIC_LAYOUT = [
    "tok_count",
    "char_count",
    "avg_tok_len",
    "stopword_ratio",
    "comma_count",
    "period_count",
    "question_count",
    "exclam_count",
    "punct_density",
    "digit_ratio",
    "upper_ratio",
    "q_overlap_count",
    "q_overlap_ratio",
    "opt_overlap_count",
    "opt_overlap_ratio",
    "hedge_count",
    "certainty_count",
    "connector_count",
    "position_frac",
    "is_final",
]

# layout id -> column order
LAYOUTS = {
    "full": NUMERIC_LAYOUT + LINGUISTIC_LAYOUT,
    "numeric": NUMERIC_LAYOUT,
    "linguistic": LINGUISTIC_LAYOUT,
}

EMA_DECAY = 0.3
ROLL_WINDOW = 3
ZSCORE_EPS = 1e-8

_PUNCT = set(string.punctuation)


@dataclass(frozen=True)
class FeatureSequence:
    question_id: str
    x: np.ndarray  # (T, D) float64, one row per sentence; a read-only view
    layout_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", read_only(numeric_array(self.x, "fiu", np.float64)))
        if self.x.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if self.x.shape[0] < 1:
            raise ValueError("feature matrix has no rows")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("feature matrix contains NaN or infinity")


def _rolling(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Std and range of each row's trailing ROLL_WINDOW-sentence window, per column."""
    std = np.empty_like(values)
    rng = np.empty_like(values)
    for i in range(values.shape[1]):
        win = values[:, max(0, i - ROLL_WINDOW + 1) : i + 1]
        std[:, i] = win.std(axis=1)
        rng[:, i] = win.max(axis=1) - win.min(axis=1)
    return std, rng


def _zscore(values: np.ndarray) -> np.ndarray:
    mean = values.mean(axis=1, keepdims=True)
    return (values - mean) / (values.std(axis=1, keepdims=True) + ZSCORE_EPS)


def _numeric_block(p: np.ndarray, entropy: np.ndarray, plen: np.ndarray) -> np.ndarray:
    """(n, T, 12) from (n, T) C-contiguous columns of n equal-length trajectories."""
    delta_p = np.diff(p, axis=1, prepend=p[:, :1])
    delta_h = np.diff(entropy, axis=1, prepend=entropy[:, :1])
    roll_std, roll_rng = _rolling(p)

    ema = np.empty_like(p)
    ema[:, 0] = p[:, 0]
    for i in range(1, p.shape[1]):
        ema[:, i] = EMA_DECAY * p[:, i] + (1.0 - EMA_DECAY) * ema[:, i - 1]
    delta_ema = np.diff(ema, axis=1, prepend=ema[:, :1])

    cols = [
        p,
        entropy,
        p / np.log1p(plen),
        delta_p,
        delta_h,
        roll_std,
        roll_rng,
        plen,
        ema,
        delta_ema,
        _zscore(p),
        _zscore(ema),
    ]
    return np.stack(cols, axis=2)


def numeric_features(trajectories: Sequence[Trajectory]) -> list[np.ndarray]:
    """One (T, 12) block per trajectory, in order; column order is NUMERIC_LAYOUT.

    Trajectories of equal length T are computed together as (n, T) arrays,
    reduced along axis 1. numpy reduces each C-contiguous row the way it
    reduces a 1-D array of T values, so every block equals the one the
    trajectory gets on its own, bit for bit; a padded or column-major layout
    would regroup the additions of the longer rows.
    """
    by_len: dict[int, list[int]] = defaultdict(list)
    for i, traj in enumerate(trajectories):
        by_len[len(traj.p)].append(i)
    blocks: dict[int, np.ndarray] = {}
    for idx in by_len.values():
        group = [trajectories[i] for i in idx]
        x = _numeric_block(
            np.stack([traj.p for traj in group]),
            np.stack([traj.entropy for traj in group]),
            np.stack([traj.prefix_len for traj in group]).astype(np.float64),
        )
        blocks.update(zip(idx, x))
    return [blocks[i] for i in range(len(trajectories))]


def _norm_tokens(text: str) -> list[str]:
    out = []
    for tok in text.split():
        t = tok.lower().strip(string.punctuation)
        if t:
            out.append(t)
    return out


def linguistic_features(texts: Sequence[str], question: McQuestion) -> np.ndarray:
    """Shape (T, 20), one row per sentence; column order is LINGUISTIC_LAYOUT.

    The question and its options are tokenised once; each sentence's tokens
    are normalised and counted against the six word sets in one pass.
    """
    q_ref = set(_norm_tokens(question.question))
    opt_ref = set(chain.from_iterable(map(_norm_tokens, question.options)))
    stop, hedges, certain, connect = (
        lexicons.STOPWORDS, lexicons.HEDGES, lexicons.CERTAINTY, lexicons.CONNECTORS
    )
    t_total = len(texts)
    rows = []
    for t_index, sentence in enumerate(texts, start=1):
        raw_tokens = sentence.split()
        n_tok = len(raw_tokens)
        n_char = len(sentence)
        n_stop = q_overlap = opt_overlap = n_hedge = n_certain = n_connect = 0
        for t in _norm_tokens(sentence):
            if t in stop:
                n_stop += 1
            if t in q_ref:
                q_overlap += 1
            if t in opt_ref:
                opt_overlap += 1
            if t in hedges:
                n_hedge += 1
            if t in certain:
                n_certain += 1
            if t in connect:
                n_connect += 1
        n_punct = sum(map(_PUNCT.__contains__, sentence))
        n_digit = sum(map(str.isdigit, sentence))
        n_upper = sum(map(str.isupper, sentence))
        rows.append(
            [
                n_tok,
                n_char,
                sum(map(len, raw_tokens)) / n_tok if n_tok else 0.0,
                n_stop / n_tok if n_tok else 0.0,
                sentence.count(","),
                sentence.count("."),
                sentence.count("?"),
                sentence.count("!"),
                n_punct / n_char if n_char else 0.0,
                n_digit / n_char if n_char else 0.0,
                n_upper / n_char if n_char else 0.0,
                q_overlap,
                q_overlap / n_tok if n_tok else 0.0,
                opt_overlap,
                opt_overlap / n_tok if n_tok else 0.0,
                n_hedge,
                n_certain,
                n_connect,
                t_index / t_total,
                1.0 if t_index == t_total else 0.0,
            ]
        )
    return np.array(rows, dtype=np.float64)


def assemble(
    traj: Trajectory,
    subset: str,
    question: McQuestion | None = None,
    numeric: np.ndarray | None = None,
) -> FeatureSequence:
    """Build the feature matrix of one trajectory with the columns of LAYOUTS[subset].

    numeric is the trajectory's block from numeric_features, which computes a
    whole split at once; without it the block is computed here. The question
    is required whenever the subset includes linguistic columns, because the
    overlap features compare sentence tokens against the question and its
    answer options.
    """
    if subset not in LAYOUTS:
        raise ValueError(f"unknown feature subset {subset!r}")
    blocks = []
    if subset in ("full", "numeric"):
        blocks.append(numeric_features([traj])[0] if numeric is None else numeric)
    if subset in ("full", "linguistic"):
        if question is None:
            raise ValueError(f"subset {subset!r} needs the question for overlap features")
        if question.question_id != traj.question_id:
            raise ValueError(
                f"question {question.question_id!r} does not match trajectory "
                f"{traj.question_id!r}"
            )
        blocks.append(linguistic_features(traj.texts, question))
    x = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
    return FeatureSequence(question_id=traj.question_id, x=x, layout_id=subset)


# --- serialization ---------------------------------------------------------


def write_features(path: str | Path, seqs: Iterable[FeatureSequence]) -> None:
    def records():
        for seq in seqs:
            yield {
                "question_id": seq.question_id,
                "layout_id": seq.layout_id,
                "shape": list(seq.x.shape),
                "rows": base64.b64encode(seq.x.astype("<f8", copy=False).tobytes()).decode("ascii"),
            }

    write_jsonl(path, FEATURES_SCHEMA, records())


def read_features(path: str | Path) -> list[FeatureSequence]:
    """Read a features/2 file, applying the writer's checks; question ids must be unique.

    Every record has the first record's layout; its "rows" is the base64 of
    "shape" = [rows, layout columns] little-endian float64 values, row-major.
    """
    first_layout = None

    def parse(rec: dict) -> FeatureSequence:
        nonlocal first_layout
        layout_id = typed(rec, "layout_id", str)
        first_layout = first_layout or layout_id
        if layout_id not in LAYOUTS:
            raise ValueError(f"unknown layout_id {layout_id!r}")
        if layout_id != first_layout:
            raise ValueError(f"layout {layout_id!r} differs from the file's {first_layout!r}")
        shape, n_cols = typed(rec, "shape", list), len(LAYOUTS[layout_id])
        if len(shape) != 2 or any(type(n) is not int for n in shape):
            raise ValueError(f"shape must be two ints, not {shape!r}")
        if shape[1] != n_cols:
            raise ValueError(f"rows have {shape[1]} columns, layout {layout_id!r} has {n_cols}")
        raw = base64.b64decode(typed(rec, "rows", str), validate=True)
        if len(raw) != shape[0] * n_cols * 8:
            raise ValueError(f"rows hold {len(raw)} bytes, not the {shape[0] * n_cols * 8} of shape {shape}")
        x = np.frombuffer(raw, "<f8").reshape(shape)
        return FeatureSequence(typed(rec, "question_id", str), x, layout_id)

    return list(read_unique_jsonl(path, FEATURES_SCHEMA, parse, attrgetter("question_id")))


def write_labels(path: str | Path, labels: dict[str, bool]) -> None:
    write_jsonl(
        path,
        LABELS_SCHEMA,
        [{"question_id": k, "label": bool(v)} for k, v in labels.items()],
    )


def _label_from_record(rec: dict) -> tuple[str, bool]:
    return typed(rec, "question_id", str), typed(rec, "label", bool)


def read_labels(path: str | Path) -> dict[str, bool]:
    return dict(read_unique_jsonl(path, LABELS_SCHEMA, _label_from_record, itemgetter(0)))
