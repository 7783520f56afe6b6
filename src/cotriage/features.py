"""Per-sentence feature extraction.

Turns a scored trajectory into a T x D float64 matrix: 12 numeric columns
derived from the per-sentence answer distributions, and 20 linguistic columns
derived from the sentence text and the question it answers, each kind computed
for a whole split in array passes; assemble joins a trajectory's blocks. Column order is
frozen by the layout lists below; the extract-features manifest records the
order a feature dump was written with under "columns". read_features checks
each record's rows as it parses its line, so a bad file is reported at its
first bad line.
"""

from __future__ import annotations

import base64
import string
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import lexicons
from .jsonl import read_unique_jsonl, typed, write_jsonl
from .trajectory import McQuestion, Trajectory, derive_signals, numeric_array, read_only

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
        object.__setattr__(self, "x", read_only(numeric_array(self.x)))
        if self.x.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not len(self.x):
            raise ValueError("feature matrix has no rows")
        if not np.isfinite(self.x).all():
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

    The per-sentence p, entropy and prefix lengths are derived for the whole
    split in one derive_signals call. Trajectories of equal length T are then
    computed together as (n, T) arrays, reduced along axis 1. numpy reduces
    each C-contiguous row the way it reduces a 1-D array of T values, so every
    block equals the one the trajectory gets on its own, bit for bit; a padded
    or column-major layout would regroup the additions of the longer rows.
    """
    prefix_len, p, entropy = derive_signals(trajectories)
    by_len: dict[int, list[int]] = defaultdict(list)
    for i, traj in enumerate(trajectories):
        by_len[len(traj.texts)].append(i)
    blocks: dict[int, np.ndarray] = {}
    for idx in by_len.values():
        x = _numeric_block(
            np.stack([p[i] for i in idx]),
            np.stack([entropy[i] for i in idx]),
            np.stack([prefix_len[i] for i in idx]).astype(np.float64),
        )
        blocks.update(zip(idx, x))
    return [blocks[i] for i in range(len(trajectories))]


# Trajectories per array pass. One pass over a whole split holds every token string
# and per-character array of the split at once (19 MB traced for 2,000 synth
# trajectories); a chunk of 128 needs 1 MB and is no slower.
LINGUISTIC_CHUNK = 128


def _segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Int32 sums of values over consecutive segments of the given sizes; an empty one sums to 0."""
    sums = np.zeros(len(sizes), np.int32)
    full = sizes > 0  # reduceat gives an empty segment the next value, and rejects a start at the end
    sums[full] = np.add.reduceat(values, (np.cumsum(sizes) - sizes)[full], dtype=np.int32)
    return sums


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def _linguistic_blocks(texts: Sequence[Sequence[str]], questions: Sequence[McQuestion]) -> list:
    """The blocks of one chunk of trajectories; see linguistic_features."""
    sents = list(chain.from_iterable(texts))
    per_traj = np.fromiter(map(len, texts), np.int64, len(texts))
    n_char = np.fromiter(map(len, sents), np.int64, len(sents))
    cps = np.frombuffer("".join(sents).encode("utf-32-le", "surrogatepass"), np.uint32)
    classes = np.zeros(int(cps.max(initial=0)) + 1, np.uint8)
    classes[cps] = 1
    uniq = np.flatnonzero(classes).tolist()  # bits: punctuation, digit, upper case, whitespace
    classes[uniq] = [(c in _PUNCT) | c.isdigit() << 1 | c.isupper() << 2 | c.isspace() << 3
                     for c in map(chr, uniq)]
    char_bits = classes[cps]
    n_punct, n_digit, n_upper, n_space = (_segment_sums(char_bits & 1 << k > 0, n_char) for k in range(4))
    marks = [_segment_sums(cps == ord(m), n_char) for m in ",.?!"]

    split = list(map(str.split, sents))
    refs = ([q.question.split() for q in questions],
            [list(chain.from_iterable(map(str.split, q.options))) for q in questions])
    vocab = dict(zip(dict.fromkeys(chain.from_iterable(chain(split, *refs))), count()))
    norms = [t.lower().strip(string.punctuation) for t in vocab]  # each distinct raw token once
    norm_ids = dict(zip(dict.fromkeys(norms), count()))
    norm_of = np.fromiter(map(norm_ids.__getitem__, norms), np.int32, len(norms))
    word_bits = np.array([(n in lexicons.STOPWORDS) | (n in lexicons.HEDGES) << 1
                          | (n in lexicons.CERTAINTY) << 2 | (n in lexicons.CONNECTORS) << 3
                          for n in norm_ids], np.uint8)[norm_of]

    def coded(token_lists, owners):  # per token: its vocab id, and (owner, normal form) as one code
        ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(token_lists)), np.int32)
        return ids, np.repeat(owners, list(map(len, token_lists))) * len(norm_ids) + norm_of[ids]

    n_tok = np.fromiter(map(len, split), np.int64, len(split))
    tok, tok_code = coded(split, np.repeat(np.arange(len(texts)), per_traj))
    n_stop, n_hedge, n_certain, n_connect = (_segment_sums(word_bits[tok] & 1 << k > 0, n_tok)
                                             for k in range(4))
    q_overlap, opt_overlap = (  # an empty normal form is no token of the question or options
        _segment_sums(np.isin(tok_code, code[norm_of[ids] != norm_ids.get("", -1)]), n_tok)
        for ids, code in (coded(ref, np.arange(len(texts))) for ref in refs))
    t_total = np.repeat(per_traj, per_traj)
    t_index = np.arange(1, len(sents) + 1) - np.repeat(np.cumsum(per_traj) - per_traj, per_traj)
    rows = np.column_stack([
        n_tok, n_char, _ratio(n_char - n_space, n_tok), _ratio(n_stop, n_tok), *marks,
        _ratio(n_punct, n_char), _ratio(n_digit, n_char), _ratio(n_upper, n_char),
        q_overlap, _ratio(q_overlap, n_tok), opt_overlap, _ratio(opt_overlap, n_tok),
        n_hedge, n_certain, n_connect, t_index / t_total, t_index == t_total,
    ])
    return np.split(rows, np.cumsum(per_traj)[:-1])


def linguistic_features(texts: Sequence[Sequence[str]],
                        questions: Sequence[McQuestion]) -> list[np.ndarray]:
    """One (T, 20) block per trajectory, in order, from its T sentences and its question;
    column order is LINGUISTIC_LAYOUT.

    Trajectories are counted LINGUISTIC_CHUNK at a time in array passes: a chunk's
    distinct code points are classed once, and its distinct raw tokens normalised
    and looked up in the word sets once. Counts are exact integers and each ratio
    is one float64 division of two of them, the value Python's int / int gives.
    """
    if len(texts) != len(questions):
        raise ValueError("need one question per trajectory")
    return [block for lo in range(0, len(texts), LINGUISTIC_CHUNK) for block in
            _linguistic_blocks(texts[lo : lo + LINGUISTIC_CHUNK], questions[lo : lo + LINGUISTIC_CHUNK])]


def assemble(
    traj: Trajectory,
    subset: str,
    question: McQuestion | None = None,
    numeric: np.ndarray | None = None,
    linguistic: np.ndarray | None = None,
) -> FeatureSequence:
    """Build the feature matrix of one trajectory with the columns of LAYOUTS[subset].

    numeric and linguistic are the trajectory's blocks from numeric_features and
    linguistic_features, which compute a whole split at once; a block not given
    is computed here. The question
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
        blocks.append(linguistic_features([traj.texts], [question])[0] if linguistic is None
                      else linguistic)
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
    Each record is checked on its own line, so a bad file is a ParseError
    naming its first bad line, and each FeatureSequence holds a read-only view
    of its record's decoded bytes.
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
        return FeatureSequence(question_id=typed(rec, "question_id", str), x=x, layout_id=layout_id)

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
