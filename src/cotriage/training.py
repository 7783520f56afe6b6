"""Training loop for the decision model.

Class-weighted binary cross-entropy on the trajectory score, Adam updates,
early stopping on validation ROC-AUC (after `patience` epochs without a new
best, or at once when it reaches 1.0).

Each shuffled minibatch is padded once and takes one Adam step. The loss,
like scoring, runs the model's tail at each row's last sentence only, and
the model's packed GRU skips the padded steps. Scoring pads SCORE_BATCH
chunks in length order, runs ``forward``'s last-position pass on each and
returns the scores in input order. The model's masking makes padding inert,
so regrouping rows changes a score or a gradient only up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CotriageError
from .features import FeatureSequence
from .jsonl import write_csv, write_json
from .model import ModelConfig, backward, forward, init_params

_CLIP_LO = 1e-7
_CLIP_HI = 1.0 - 1e-7

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SCORE_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be a positive number")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be positive")


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    log: list[dict]
    best_epoch: int
    best_val_auc: float


def bce(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise BCE with probabilities clipped to [1e-7, 1 - 1e-7]."""
    qc = np.clip(q, _CLIP_LO, _CLIP_HI)
    return -(y * np.log(qc) + (1.0 - y) * np.log(1.0 - qc))


def _bce_dq(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d BCE(clip(q), y) / dq: zero where the clip is active."""
    qc = np.clip(q, _CLIP_LO, _CLIP_HI)
    inside = (q > _CLIP_LO) & (q < _CLIP_HI)
    return np.where(inside, -y / qc + (1.0 - y) / (1.0 - qc), 0.0)


def pad_batch(seqs: Sequence[FeatureSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Stack sequences into (B, Tmax, D) features and a (B, Tmax) mask."""
    if not seqs:
        raise CotriageError("cannot pad an empty batch")
    t_max = max(s.x.shape[0] for s in seqs)
    d = seqs[0].x.shape[1]
    x = np.zeros((len(seqs), t_max, d))
    mask = np.zeros((len(seqs), t_max))
    for i, s in enumerate(seqs):
        t = s.x.shape[0]
        x[i, :t] = s.x
        mask[i, :t] = 1.0
    return x, mask


def batch_loss(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    x: np.ndarray,
    mask: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    with_grads: bool = True,
):
    """Weighted mean BCE of the trajectory scores of a padded batch, optionally with gradients.

    The model's tail runs at each row's last valid position only.
    """
    y = np.asarray(y, dtype=np.float64)
    _, scores, cache = forward(params, cfg, x, mask, want_cache=with_grads, last_only=True)
    loss = float(np.mean(weights * bce(scores, y)))
    if not with_grads:
        return loss, None
    return loss, backward(params, cfg, cache, weights * _bce_dq(scores, y) / len(y))


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    if not state.m:
        for name, p in params.items():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name in sorted(params):
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        params[name] -= lr * (state.m[name] / bc1) / (np.sqrt(state.v[name] / bc2) + ADAM_EPS)


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC with average ranks for ties; 0.5 if a class is absent."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    # a tie group filling sorted positions start..end-1 shares rank (start + 1 + end) / 2
    ranks = (0.5 * (ends - counts + 1 + ends))[group]
    pos_rank_sum = ranks[labels].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def class_weight_vector(labels: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights normalized to mean 1; uniform if one class."""
    labels = np.asarray(labels, dtype=bool)
    n = len(labels)
    n_pos = int(labels.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.ones(n)
    return np.where(labels, n / (2.0 * n_pos), n / (2.0 * n_neg))


def score_features(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    seqs: Sequence[FeatureSequence],
) -> np.ndarray:
    """Trajectory scores in input order, SCORE_BATCH at a time in length order."""
    order = np.argsort([s.x.shape[0] for s in seqs], kind="stable")
    out = np.empty(len(seqs))
    for lo in range(0, len(seqs), SCORE_BATCH):
        chunk = order[lo : lo + SCORE_BATCH]
        x, mask = pad_batch([seqs[i] for i in chunk])
        out[chunk] = forward(params, cfg, x, mask, last_only=True)[1]
    return out


def train(
    train_seqs: Sequence[FeatureSequence],
    train_labels: Sequence[bool],
    val_seqs: Sequence[FeatureSequence],
    val_labels: Sequence[bool],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> TrainResult:
    if not train_seqs or not val_seqs:
        raise CotriageError("training and validation sets must be non-empty")
    if len(train_seqs) != len(train_labels) or len(val_seqs) != len(val_labels):
        raise ValueError("labels must align with sequences")

    n = len(train_seqs)
    y_train = np.asarray(train_labels, dtype=np.float64)
    y_val = np.asarray(val_labels, dtype=bool)
    weights = class_weight_vector(y_train.astype(bool))

    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(model_cfg, train_cfg.seed)
    state = AdamState()

    best_auc = -np.inf
    best_epoch = -1
    best_params = {k: v.copy() for k, v in params.items()}
    log: list[dict] = []
    stale = 0

    for epoch in range(1, train_cfg.max_epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, train_cfg.batch_size):
            idx = perm[lo : lo + train_cfg.batch_size]
            x, mask = pad_batch([train_seqs[i] for i in idx])
            loss, grads = batch_loss(params, model_cfg, x, mask, y_train[idx], weights[idx])
            adam_step(params, grads, state, train_cfg.lr)
            total += loss * len(idx)

        val_scores = score_features(params, model_cfg, val_seqs)
        auc = roc_auc(y_val, val_scores)
        acc = float(np.mean((val_scores >= 0.5) == y_val))
        log.append(
            {
                "epoch": epoch,
                "train_loss": total / n,
                "val_auc": auc,
                "val_acc_at_0.5": acc,
            }
        )
        if auc > best_auc:
            best_auc = auc
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
            if auc >= 1.0:  # nothing can beat it, so no later epoch can be kept
                break
        else:
            stale += 1
            if stale >= train_cfg.patience:
                break

    return TrainResult(params=best_params, log=log, best_epoch=best_epoch, best_val_auc=best_auc)


def write_training_log(path: str | Path, best_path: str | Path, result: TrainResult) -> None:
    """CSV of per-epoch metrics at path, and a JSON pointer to the selected epoch at best_path."""
    header = ["epoch", "train_loss", "val_auc", "val_acc_at_0.5"]
    write_csv(path, header, ([row[k] for k in header] for row in result.log))
    write_json(best_path, {"best_epoch": result.best_epoch, "best_val_auc": result.best_val_auc})
