import csv
import json

import numpy as np
import pytest

from cotriage import model, training
from cotriage.errors import CotriageError
from cotriage.features import FeatureSequence
from cotriage.model import ModelConfig, backward, forward, init_params
from cotriage.training import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_loss,
    bce,
    class_weight_vector,
    pad_batch,
    roc_auc,
    score_features,
    train,
    write_training_log,
)


def test_bce_worked_example():
    assert bce(np.array([0.9]), np.array([1.0]))[0] == pytest.approx(0.1054, abs=1e-4)


def test_bce_clips_extremes():
    vals = bce(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(-np.log(1e-7))


def test_adam_first_step_moves_by_lr():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    adam_step(params, grads, AdamState(), lr=0.1)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-6)


def _pairwise_auc(labels, scores):
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


def test_roc_auc_against_pair_counting():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            continue
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        assert roc_auc(labels, scores) == pytest.approx(_pairwise_auc(labels, scores))


def test_roc_auc_edge_cases():
    assert roc_auc(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.2, 0.1])) == 1.0
    assert roc_auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0
    assert roc_auc(np.array([1, 0]), np.array([0.5, 0.5])) == 0.5
    assert roc_auc(np.array([1, 1]), np.array([0.5, 0.4])) == 0.5  # single class


def test_class_weights_mean_one():
    labels = np.array([True, True, True, False])
    w = class_weight_vector(labels)
    assert w.mean() == pytest.approx(1.0)
    assert w[3] / w[0] == pytest.approx(3.0)
    np.testing.assert_array_equal(class_weight_vector(np.array([True, True])), [1.0, 1.0])


def test_pad_batch_layout():
    seqs = [
        FeatureSequence("a", np.ones((3, 2)), "numeric"),
        FeatureSequence("b", 2 * np.ones((5, 2)), "numeric"),
    ]
    x, mask = pad_batch(seqs)
    assert x.shape == (2, 5, 2)
    np.testing.assert_array_equal(mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
    assert np.all(x[0, 3:] == 0)
    with pytest.raises(CotriageError, match="cannot pad an empty batch"):
        pad_batch([])


def _planted_dataset(rng, n, d=4):
    """Feature 0 carries the label, the rest is noise."""
    seqs, labels = [], []
    for i in range(n):
        label = bool(rng.integers(0, 2))
        t = int(rng.integers(2, 7))
        x = rng.normal(size=(t, d))
        x[:, 0] = (1.0 if label else -1.0) + 0.3 * rng.normal(size=t)
        seqs.append(FeatureSequence(f"q{i}", x, "numeric"))
        labels.append(label)
    return seqs, labels


def test_training_learns_planted_signal():
    rng = np.random.default_rng(42)
    train_seqs, train_labels = _planted_dataset(rng, 120)
    val_seqs, val_labels = _planted_dataset(rng, 40)
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    result = train(
        train_seqs,
        train_labels,
        val_seqs,
        val_labels,
        model_cfg,
        TrainConfig(batch_size=16, max_epochs=30, patience=30, seed=0),
    )
    assert result.best_val_auc >= 0.95
    assert result.log[0]["epoch"] == 1
    assert result.best_epoch >= 1
    scores = score_features(result.params, model_cfg, val_seqs)
    assert roc_auc(np.array(val_labels), scores) == pytest.approx(result.best_val_auc)


@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("mhsa", [True, False])
def test_final_loss_matches_the_all_positions_pass(gate, mhsa):
    """The final loss runs the tail at each row's last position only; its loss
    and gradients are the all-positions pass's with dq at those positions."""
    rng = np.random.default_rng(21)
    cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4,
                      use_feature_gate=gate, use_mhsa=mhsa)
    params = init_params(cfg, seed=21)
    seqs = [FeatureSequence(f"q{i}", rng.normal(size=(int(t), 4)), "numeric")
            for i, t in enumerate(rng.integers(1, 10, size=33))]
    labels = rng.random(33) < 0.4
    y, w = labels.astype(np.float64), class_weight_vector(labels)
    x, mask = pad_batch(seqs)

    q, scores, cache = forward(params, cfg, x, mask, want_cache=True)
    want_loss = float(np.mean(w * bce(scores, y)))
    dq = np.zeros_like(q)
    dq[np.arange(33), cache["lengths"] - 1] = w * training._bce_dq(scores, y) / 33
    want = backward(params, cfg, cache, dq)

    got_loss, got = batch_loss(params, cfg, x, mask, y, w)
    assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert got.keys() == want.keys()
    for name in want:
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(got[name] - want[name]).max() <= 1e-10 * scale, name


def test_training_is_deterministic():
    rng = np.random.default_rng(1)
    train_seqs, train_labels = _planted_dataset(rng, 40)
    val_seqs, val_labels = _planted_dataset(rng, 16)
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=7)
    a = train(train_seqs, train_labels, val_seqs, val_labels, model_cfg, cfg)
    b = train(train_seqs, train_labels, val_seqs, val_labels, model_cfg, cfg)
    assert a.log == b.log
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])


def test_early_stopping_uses_patience():
    rng = np.random.default_rng(2)
    train_seqs, train_labels = _planted_dataset(rng, 20)
    val_seqs, _ = _planted_dataset(rng, 8)
    # single-class validation pins AUC at 0.5, so epoch 1 stays the best
    val_labels = [True] * 8
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    cfg = TrainConfig(batch_size=8, max_epochs=50, patience=2, seed=3)
    result = train(train_seqs, train_labels, val_seqs, val_labels, model_cfg, cfg)
    assert len(result.log) == 3  # best at epoch 1 plus two stale epochs
    assert result.best_epoch == 1


def test_training_stops_at_perfect_val_auc():
    rng = np.random.default_rng(3)
    train_seqs, train_labels = _planted_dataset(rng, 40)
    val_seqs, val_labels = _planted_dataset(rng, 16)
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    cfg = TrainConfig(batch_size=8, max_epochs=30, patience=5, seed=3)
    result = train(train_seqs, train_labels, val_seqs, val_labels, model_cfg, cfg)
    aucs = [row["val_auc"] for row in result.log]
    assert aucs[-1] == 1.0 and max(aucs[:-1]) < 1.0  # reaches 1.0 after epoch 1
    assert result.best_epoch == len(result.log) and result.best_val_auc == 1.0
    rerun = train(
        train_seqs, train_labels, val_seqs, val_labels, model_cfg,
        TrainConfig(batch_size=8, max_epochs=result.best_epoch, patience=5, seed=3),
    )
    assert rerun.log == result.log
    for name in result.params:
        np.testing.assert_array_equal(result.params[name], rerun.params[name])


def test_empty_datasets_rejected():
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    seqs, labels = _planted_dataset(np.random.default_rng(0), 4)
    with pytest.raises(CotriageError, match="training and validation sets must be non-empty"):
        train([], [], seqs, labels, model_cfg, TrainConfig())
    with pytest.raises(CotriageError, match="training and validation sets must be non-empty"):
        train(seqs, labels, [], [], model_cfg, TrainConfig())


def test_training_log_files(tmp_path):
    rng = np.random.default_rng(3)
    train_seqs, train_labels = _planted_dataset(rng, 20)
    val_seqs, val_labels = _planted_dataset(rng, 8)
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    result = train(
        train_seqs, train_labels, val_seqs, val_labels, model_cfg,
        TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=4),
    )
    log_path = tmp_path / "log.csv"
    write_training_log(log_path, tmp_path / "log.best.json", result)
    with open(log_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.log)
    assert set(rows[0]) == {"epoch", "train_loss", "val_auc", "val_acc_at_0.5"}
    best = json.loads((tmp_path / "log.best.json").read_text())
    assert best["best_epoch"] == result.best_epoch


def _record_pad_shapes(monkeypatch):
    """Wrap training.pad_batch; the returned list gets each padded batch's mask."""
    masks = []

    def recording(seqs):
        x, mask = pad_batch(seqs)
        masks.append(mask)
        return x, mask

    monkeypatch.setattr(training, "pad_batch", recording)
    return masks


def _mixed_length_batch(rng, b, d=4):
    seqs = [
        FeatureSequence(f"q{i}", rng.normal(size=(int(rng.integers(1, 13)), d)), "numeric")
        for i in range(b)
    ]
    labels = rng.random(b) < 0.3
    return seqs, labels.astype(np.float64), class_weight_vector(labels)


def _unsorted_seqs(rng, lengths=(2, 7, 5, 1), d=4):
    return [FeatureSequence(f"q{i}", rng.normal(size=(t, d)), "numeric") for i, t in enumerate(lengths)]


def test_packed_gru_steps_only_the_rows_still_valid():
    rng = np.random.default_rng(30)
    cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    params = init_params(cfg, seed=30)
    seqs = _unsorted_seqs(rng)
    x, mask = pad_batch(seqs)
    rows = []

    class RecordingWeight(np.ndarray):
        """gru.w_h, recording the row count of each recurrent product it takes part in."""

        def __rmatmul__(self, other):
            rows.append(len(other))
            return other @ self.view(np.ndarray)

    recording = {**params, "gru.w_h": params["gru.w_h"].view(RecordingWeight)}
    h_seq, ctx = model._gru_forward(recording, cfg, x, mask)
    assert rows == [4, 3, 2, 2, 2, 1, 1]  # the rows still valid at steps 0..6
    rows.clear()
    model._gru_backward(recording, ctx, np.ones_like(h_seq), {})
    assert rows == [1, 1, 2, 2, 2, 3, 4]


@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("mhsa", [True, False])
def test_packed_batch_equals_its_rows_run_alone(gate, mhsa):
    """An unsorted padded batch's loss and gradients are the weighted sum of
    each row's own, up to float rounding."""
    rng = np.random.default_rng(31)
    cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4,
                      use_feature_gate=gate, use_mhsa=mhsa)
    params = init_params(cfg, seed=31)
    seqs = _unsorted_seqs(rng)
    y, w = np.array([1.0, 0.0, 1.0, 1.0]), np.array([0.7, 2.1, 0.7, 0.7])
    got_loss, got = batch_loss(params, cfg, *pad_batch(seqs), y, w)

    want_loss, want = 0.0, {}
    for i, seq in enumerate(seqs):
        loss_i, grads_i = batch_loss(params, cfg, *pad_batch([seq]), y[i : i + 1], w[i : i + 1])
        want_loss += loss_i / len(seqs)
        for name, g in grads_i.items():
            want[name] = want.get(name, 0.0) + g / len(seqs)
    assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert got.keys() == want.keys()
    for name in want:
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name


def test_train_with_a_one_row_last_batch(monkeypatch):
    rng = np.random.default_rng(5)
    train_seqs, train_labels = _planted_dataset(rng, 17)
    val_seqs, val_labels = _planted_dataset(rng, 6)
    model_cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    masks = _record_pad_shapes(monkeypatch)
    result = train(
        train_seqs, train_labels, val_seqs, val_labels, model_cfg,
        TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=5),
    )
    assert len(result.log) == 1 and np.isfinite(result.log[0]["train_loss"])
    # two 8-row batches and the 1-row batch, each padded once, then one val chunk
    assert [len(m) for m in masks] == [8, 8, 1, 6]
    assert len(masks) == 2 + 1 + 1


def test_score_features_returns_input_order(monkeypatch):
    rng = np.random.default_rng(9)
    cfg = ModelConfig(input_dim=4, hidden=8, heads=2, head_hidden=4)
    params = init_params(cfg, seed=9)
    seqs, _, _ = _mixed_length_batch(rng, 23)
    monkeypatch.setattr(training, "SCORE_BATCH", 5)
    masks = _record_pad_shapes(monkeypatch)
    scores = score_features(params, cfg, seqs)
    assert len(masks) == 5  # 23 sequences, 5 at a time
    chunk_lengths = np.concatenate([m.sum(axis=1) for m in masks])
    assert np.all(np.diff(chunk_lengths) >= 0)
    alone = [score_features(params, cfg, [s])[0] for s in seqs]
    np.testing.assert_allclose(scores, alone, rtol=1e-12, atol=0)
