import numpy as np
import pytest

from cotriage import model
from cotriage.errors import CotriageError, ParseError
from cotriage.features import FeatureSequence
from cotriage.model import (
    ModelConfig,
    _gate_forward,
    _gru_backward,
    _gru_forward,
    _sigmoid,
    backward,
    forward,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from cotriage.training import batch_loss, pad_batch, score_features

SMALL = dict(input_dim=6, hidden=8, heads=2, head_hidden=4)

# the two passes that take raw (x, mask): forward's scores at every position
# and the scoring pass at the last one only
SCORERS = pytest.mark.parametrize(
    "scores_of",
    [lambda *args: forward(*args)[1], lambda *args: forward(*args, last_only=True)[1]],
    ids=["forward", "score"],
)


def small_cfg(**over):
    return ModelConfig(**{**SMALL, **over})


def make_batch(rng, b=2, t=5, d=6, lengths=(5, 3)):
    x = rng.normal(size=(b, t, d))
    mask = np.zeros((b, t))
    for i, ln in enumerate(lengths):
        mask[i, :ln] = 1.0
    y = rng.integers(0, 2, size=b).astype(np.float64)
    w = rng.uniform(0.5, 1.5, size=b)
    return x, mask, y, w


def finite_difference_check(cfg, step=1e-5, seed=0):
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=seed + 1)
    x, mask, y, w = make_batch(rng, d=cfg.input_dim)
    _, grads = batch_loss(params, cfg, x, mask, y, weights=w)

    worst = 0.0
    for name in sorted(params):
        flat = params[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp, _ = batch_loss(params, cfg, x, mask, y, weights=w, with_grads=False)
            flat[idx] = orig - step
            lm, _ = batch_loss(params, cfg, x, mask, y, weights=w, with_grads=False)
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * step)
            an = grads[name].reshape(-1)[idx]
            rel = abs(an - fd) / max(abs(an) + abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("mhsa", [True, False])
def test_gradients_match_finite_differences(gate, mhsa):
    cfg = small_cfg(use_feature_gate=gate, use_mhsa=mhsa)
    assert finite_difference_check(cfg) < 1e-4


@SCORERS
def test_padding_cannot_change_scores(scores_of):
    rng = np.random.default_rng(3)
    cfg = small_cfg()
    params = init_params(cfg, seed=5)
    for trial in range(100):
        t = int(rng.integers(1, 12))
        x = rng.normal(size=(1, t, cfg.input_dim))
        base_q, _, _ = forward(params, cfg, x, np.ones((1, t)))
        base_s = scores_of(params, cfg, x, np.ones((1, t)))
        extra = int(rng.integers(1, 6))
        x_pad = np.concatenate([x, rng.normal(size=(1, extra, cfg.input_dim)) * 100.0], axis=1)
        mask = np.concatenate([np.ones((1, t)), np.zeros((1, extra))], axis=1)
        got_q, _, _ = forward(params, cfg, x_pad, mask)
        assert abs(scores_of(params, cfg, x_pad, mask)[0] - base_s[0]) < 1e-6
        np.testing.assert_allclose(got_q[:, :t], base_q, atol=1e-12)


def test_scores_are_probabilities_and_deterministic():
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    params = init_params(cfg, seed=1)
    x, mask, _, _ = make_batch(rng, b=4, t=7, lengths=(7, 5, 2, 1))
    q1, s1, _ = forward(params, cfg, x, mask)
    q2, s2, _ = forward(params, cfg, x, mask)
    assert np.all((s1 > 0) & (s1 < 1))
    assert np.all((q1 > 0) & (q1 < 1))
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(s1, s2)


def _feature_seqs(rng, lengths, d):
    return [FeatureSequence(f"q{i}", rng.normal(size=(t, d)), "test")
            for i, t in enumerate(lengths)]


@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("mhsa", [True, False])
def test_score_matches_forward(gate, mhsa):
    """The last_only pass computes the tail at the last position only; its
    scores are forward's up to float rounding, and score_features keeps input
    order."""
    rng = np.random.default_rng(17)
    cfg = small_cfg(use_feature_gate=gate, use_mhsa=mhsa)
    params = init_params(cfg, seed=17)
    batches = [rng.integers(1, 13, size=b) for b in (1, 2, 3, 257)]
    batches += [np.arange(1, 13), np.ones(5, dtype=int)]  # every length; every row T = 1
    for lengths in batches:
        seqs = _feature_seqs(rng, lengths, cfg.input_dim)
        x, mask = pad_batch(seqs)
        _, want, _ = forward(params, cfg, x, mask)
        got = forward(params, cfg, x, mask, last_only=True)[1]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(score_features(params, cfg, seqs), want, rtol=0, atol=1e-12)


def test_scoring_runs_the_head_once_per_sequence(monkeypatch):
    rng = np.random.default_rng(18)
    cfg = small_cfg()
    params = init_params(cfg, seed=18)
    seqs = _feature_seqs(rng, rng.integers(1, 9, size=7), cfg.input_dim)
    head_forward = model._head_forward
    leading = []

    def recording_head(params, cfg, h, mask, pos):
        leading.append(h.shape[:-1])
        return head_forward(params, cfg, h, mask, pos)

    monkeypatch.setattr(model, "_head_forward", recording_head)
    score_features(params, cfg, seqs)
    assert leading == [(len(seqs),)]


@pytest.mark.parametrize("mhsa", [True, False])
def test_final_loss_runs_the_head_once_on_last_positions(monkeypatch, mhsa):
    """With the final loss the tail runs at each row's last position only:
    one head call that yields (B,) q, after attention on a (B, H) input."""
    rng = np.random.default_rng(19)
    cfg = small_cfg(use_mhsa=mhsa)
    params = init_params(cfg, seed=19)
    x, mask, y, w = make_batch(rng, b=5, t=7, lengths=(7, 4, 1, 6, 2))
    head_forward = model._head_forward
    calls = []

    def recording_head(params, cfg, h, mask, pos):
        q, ctx = head_forward(params, cfg, h, mask, pos)
        calls.append((h.shape[:-1], q.shape))
        return q, ctx

    monkeypatch.setattr(model, "_head_forward", recording_head)
    batch_loss(params, cfg, x, mask, y, weights=w)
    assert calls == [((5,) if mhsa else (5, 7), (5,))]


def test_score_reads_last_valid_position():
    rng = np.random.default_rng(2)
    cfg = small_cfg()
    params = init_params(cfg, seed=2)
    x, mask, _, _ = make_batch(rng, b=2, t=5, lengths=(5, 3))
    q, s, _ = forward(params, cfg, x, mask)
    assert s[0] == q[0, 4]
    assert s[1] == q[1, 2]


def test_gate_pools_valid_rows_hand_example():
    cfg = small_cfg(input_dim=2)
    params = init_params(cfg, seed=4)
    x = np.array([[[1.0, 2.0], [3.0, 4.0], [100.0, 200.0]]])
    _, (_, s, _, _, _) = _gate_forward(params, cfg, x, np.array([[1.0, 1.0, 0.0]]))
    np.testing.assert_allclose(s, [[2.0, 3.0]])


@SCORERS
def test_empty_mask_rejected(scores_of):
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    with pytest.raises(CotriageError, match="every trajectory needs at least one valid row"):
        scores_of(params, cfg, np.zeros((2, 3, cfg.input_dim)),
                  np.array([[1.0, 1.0, 0.0], [0.0] * 3]))


@SCORERS
def test_non_suffix_padding_rejected(scores_of):
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    with pytest.raises(ValueError, match="suffix"):
        scores_of(params, cfg, np.zeros((1, 3, cfg.input_dim)), np.array([[1.0, 0.0, 1.0]]))


def test_feature_gate_range():
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    x, mask, _, _ = make_batch(rng, b=3, t=5, lengths=(5, 3, 1))
    _, (_, _, _, _, g) = _gate_forward(params, cfg, x, mask)
    assert g.shape == (3, cfg.input_dim)
    assert np.all((g > 0) & (g < 1))


def test_gru_state_carries_through_padding():
    rng = np.random.default_rng(6)
    cfg = small_cfg()
    params = init_params(cfg, seed=6)
    x = rng.normal(size=(1, 6, cfg.input_dim))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
    xg, _ = _gate_forward(params, cfg, x, mask)
    h_seq, _ = _gru_forward(params, cfg, xg, mask)
    h = h_seq[0]
    np.testing.assert_array_equal(h[3], h[2])
    np.testing.assert_array_equal(h[5], h[2])


def test_gru_gradient_at_padded_steps_reaches_the_last_valid_state():
    """A padded step's output is the carried last valid state, so its gradient
    counts as that state's: moving it there leaves every gradient unchanged."""
    rng = np.random.default_rng(7)
    cfg = small_cfg(use_feature_gate=False)
    params = init_params(cfg, seed=7)
    x, mask, _, _ = make_batch(rng, b=4, t=7, lengths=(2, 7, 5, 1))
    h_seq, ctx = _gru_forward(params, cfg, x, mask)
    dh = rng.normal(size=h_seq.shape)
    moved = dh * mask[:, :, None]
    for row, length in enumerate(mask.sum(axis=1).astype(int)):
        moved[row, length - 1] += dh[row, length:].sum(axis=0)
    ctx = ctx[:-1] + (True,)
    got, want = {}, {}
    dx_got = _gru_backward(params, ctx, dh, got)
    dx_want = _gru_backward(params, ctx, moved, want)
    np.testing.assert_allclose(dx_got, dx_want, rtol=1e-12, atol=1e-14)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("mhsa", [True, False])
def test_first_block_gru_skips_its_input_gradient_bit_for_bit(mhsa):
    """Without the gate the GRU's input gradient is never read: skipping it
    must leave every parameter gradient bit-identical."""
    rng = np.random.default_rng(8)
    cfg = small_cfg(use_feature_gate=False, use_mhsa=mhsa)
    params = init_params(cfg, seed=8)
    x, mask, _, _ = make_batch(rng, b=4, t=7, lengths=(7, 5, 2, 1))
    q, _, cache = forward(params, cfg, x, mask, want_cache=True)
    dq = rng.normal(size=q.shape) * mask
    gru_backward, gru_ctx = cache["blocks"][0]
    assert gru_backward is _gru_backward
    assert gru_backward(params, gru_ctx, np.zeros(gru_ctx[2].shape), {}) is None
    computing = {**cache, "blocks": [(gru_backward, gru_ctx[:-1] + (True,)), *cache["blocks"][1:]]}
    got = backward(params, cfg, cache, dq)
    want = backward(params, cfg, computing, dq)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[name], want[name]) for name in want)


def test_sigmoid_matches_two_branch_reference():
    x = np.concatenate([np.linspace(-800.0, 800.0, 1_100_001), [0.0, -0.0]])
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    # exp(-|x|) flushing to 0 is the intended value; overflow or NaN would not be
    with np.errstate(all="raise", under="ignore"):
        out = _sigmoid(x)
    np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))


def test_init_params_deterministic_and_complete():
    cfg = small_cfg()
    a = init_params(cfg, seed=11)
    b = init_params(cfg, seed=11)
    c = init_params(cfg, seed=12)
    assert set(a) == set(param_shapes(cfg))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
        assert a[name].shape == param_shapes(cfg)[name]
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = small_cfg(use_mhsa=False)
    params = init_params(cfg, seed=13)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg)
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])


def test_checkpoint_rejects_mismatches(tmp_path):
    import json

    cfg = small_cfg()
    params = init_params(cfg, seed=14)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg)

    doc = json.loads(path.read_text())
    doc["config"]["hidden"] = 16
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CotriageError, match="shape .* != expected"):
        load_checkpoint(bad)

    doc = json.loads(path.read_text())
    del doc["tensors"]["gru.w_x"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(CotriageError, match="checkpoint tensors do not match the config"):
        load_checkpoint(bad)

    doc = json.loads(path.read_text())
    doc["schema"] = "ckpt/0"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CotriageError, match="expected schema 'ckpt/2', got 'ckpt/0'"):
        load_checkpoint(bad)

    for field, value, message in (("hidden", 8.0, "hidden must be int, not 8.0"),
                                  ("use_mhsa", "false", "use_mhsa must be bool, not 'false'"),
                                  ("dropout", 0.1, "unknown config fields \\['dropout'\\]")):
        doc = json.loads(path.read_text())
        doc["config"][field] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load_checkpoint(bad)


@SCORERS
def test_forward_checks_feature_dim(scores_of):
    cfg = small_cfg()
    params = init_params(cfg, seed=15)
    with pytest.raises(CotriageError, match="model expects 6 features, got 7"):
        scores_of(params, cfg, np.zeros((1, 3, cfg.input_dim + 1)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="expected x of shape"):
        scores_of(params, cfg, np.zeros((1, 3, cfg.input_dim)), np.ones((1, 4)))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(input_dim=6, hidden=9, heads=2)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=6, heads=0)
