"""Gated recurrent decision model scoring trajectory trustworthiness.

Pipeline per trajectory: a feature gate (masked mean-pool over valid rows,
two-layer MLP, sigmoid) reweights feature columns; a single-layer
unidirectional GRU consumes the gated rows; a pre-norm multi-head
self-attention block with a key-padding mask refines the hidden states; a
position-wise head (LayerNorm + two-layer MLP + sigmoid) emits a
trustworthiness value q_t per sentence. The trajectory score is q at the last
valid position.

Only attention mixes positions; the gate pools once per trajectory, the GRU
runs left to right, and everything after attention's softmax is
position-wise. So the tail has one query-position choice ``pos``: every
position (``...``), or each row's last valid one. The gate, the GRU and
attention's keys and values cover every position; attention's queries,
out-projection and feed-forward, and the head, only ``pos``. Scoring and the
training loss run the last-position path (``forward(..., last_only=True)``).
Both paths give the same scores up to float rounding: BLAS rounds a row by
its place in the block it is given.

Parallel projections are stacked column-wise in the order [reset | update |
candidate] for the GRU (``gru.w_x`` (D, 3H), ``gru.w_h`` (H, 3H), ``gru.b_x``
(3H); ``gru.b_hn`` is the candidate's recurrent bias inside the reset
product) and [query | key | value] for attention (``attn.w_qkv`` (H, 3H),
``attn.b_qkv`` (3H)).

Everything is float64 numpy. The backward pass is written by hand and must
mirror the forward pass exactly; finite-difference tests hold it to that.
Each block is an adjacent pair ``_<block>_forward``/``_<block>_backward``:
the forward takes ``(params, cfg, input, mask, pos)`` and returns ``(out,
ctx)``, and that ``ctx`` tuple is all its backward sees. ``_blocks`` picks the
pairs the ablation flags enable; ``forward`` runs them in order and
``backward`` in reverse.
Padded rows cannot influence any valid position: pooling is masked, the
packed GRU skips padded steps and carries its state through them, attention
masks padded keys, and the score reads only the last valid index.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, get_type_hints

import numpy as np

from .errors import CotriageError, ParseError
from .jsonl import typed, write_json

CKPT_SCHEMA = "ckpt/2"
_LN_EPS = 1e-5
_NEG_INF = -1e30


def check_geometry(hidden: int, heads: int, head_hidden: int) -> None:
    """ValueError unless both widths are positive and heads divides hidden."""
    if hidden < 1 or head_hidden < 1:
        raise ValueError("hidden sizes must be positive")
    if heads < 1 or hidden % heads != 0:
        raise ValueError("hidden must be divisible by heads")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden: int = 64
    heads: int = 4
    head_hidden: int = 32
    use_feature_gate: bool = True
    use_mhsa: bool = True

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        check_geometry(self.hidden, self.heads, self.head_hidden)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, h, p = cfg.input_dim, cfg.hidden, cfg.head_hidden
    g, f = max(1, d // 2), 4 * h
    return {
        "gate.w1": (d, g),
        "gate.b1": (g,),
        "gate.w2": (g, d),
        "gate.b2": (d,),
        "gru.w_x": (d, 3 * h),
        "gru.w_h": (h, 3 * h),
        "gru.b_x": (3 * h,),
        "gru.b_hn": (h,),
        "attn.ln1_g": (h,),
        "attn.ln1_b": (h,),
        "attn.w_qkv": (h, 3 * h),
        "attn.b_qkv": (3 * h,),
        "attn.w_o": (h, h),
        "attn.b_o": (h,),
        "attn.ln2_g": (h,),
        "attn.ln2_b": (h,),
        "attn.w_f1": (h, f),
        "attn.b_f1": (f,),
        "attn.w_f2": (f, h),
        "attn.b_f2": (h,),
        "head.ln_g": (h,),
        "head.ln_b": (h,),
        "head.w1": (h, p),
        "head.b1": (p,),
        "head.w2": (p, 1),
        "head.b2": (1,),
    }


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform(-1/sqrt(fan_in), +) weights, zero biases, identity LayerNorm.

    All tensors exist regardless of the ablation flags so checkpoints and
    optimizer state keep one layout across configurations.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        base = name.rsplit(".", 1)[1]
        if base.startswith("w"):
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        elif base.endswith("_g"):
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    return params


def _inputs(cfg: ModelConfig, x, mask):
    """x and mask as float64 and the valid lengths (B,): forward's input checks."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if x.ndim != 3 or mask.shape != x.shape[:2]:
        raise ValueError("expected x of shape (B, T, D) and mask (B, T)")
    if x.shape[2] != cfg.input_dim:
        raise CotriageError(f"model expects {cfg.input_dim} features, got {x.shape[2]}")
    lengths = mask.sum(axis=-1)
    if np.any(lengths < 1):
        raise CotriageError("every trajectory needs at least one valid row")
    if np.any(mask[..., :-1] < mask[..., 1:]):
        raise ValueError("mask padding must be a suffix")
    return x, mask, lengths.astype(np.int64)


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def _ln_backward(dy: np.ndarray, cache):
    xhat, inv, g = cache
    h = xhat.shape[-1]
    dxhat = dy * g
    dg = _lead_sum(dy * xhat)
    db = _lead_sum(dy)
    dx = (
        inv
        / h
        * (
            h * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
    )
    return dx, dg, db


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _wgrad(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Weight gradient of y = a @ w: a^T d summed over every leading axis."""
    return a.reshape(-1, a.shape[-1]).T @ d.reshape(-1, d.shape[-1])


def _lead_sum(d: np.ndarray) -> np.ndarray:
    """Bias gradient: d summed over every leading axis."""
    return d.sum(axis=tuple(range(d.ndim - 1)))


def _gate_forward(params, cfg: ModelConfig, x: np.ndarray, mask: np.ndarray, pos=...):
    """Masked mean-pool over valid rows, two-layer MLP, sigmoid: one weight per column."""
    denom = mask.sum(axis=1, keepdims=True)
    s = (x * mask[:, :, None]).sum(axis=1) / denom
    z1 = s @ params["gate.w1"] + params["gate.b1"]
    a1 = np.maximum(z1, 0.0)
    g = _sigmoid(a1 @ params["gate.w2"] + params["gate.b2"])
    return x * g[:, None, :], (x, s, z1, a1, g)


def _gate_backward(params, ctx, dxg: np.ndarray, grads) -> None:
    """The first block: the input features need no gradient."""
    x, s, z1, a1, g = ctx
    dg = (dxg * x).sum(axis=1)
    du2 = dg * g * (1.0 - g)
    grads["gate.w2"] = a1.T @ du2
    grads["gate.b2"] = du2.sum(axis=0)
    da1 = du2 @ params["gate.w2"].T
    dz1 = da1 * (z1 > 0.0)
    grads["gate.w1"] = s.T @ dz1
    grads["gate.b1"] = dz1.sum(axis=0)


def _gru_forward(params, cfg: ModelConfig, xg: np.ndarray, mask: np.ndarray, pos=...):
    """Packed GRU, as PyTorch's pack_padded_sequence runs it.

    The rows are stable-sorted longest first, so step i runs only the first
    active[i] rows, the ones still valid; a finished row keeps its state.
    Without the gate the GRU is the first block, so its input needs no gradient.
    """
    b, t, _ = xg.shape
    h = cfg.hidden
    order = np.argsort(-mask.sum(axis=1), kind="stable")
    active = mask.sum(axis=0).astype(np.int64)
    xs = xg[order]
    x_pre = xs @ params["gru.w_x"] + params["gru.b_x"]  # every timestep at once
    h_prev = np.zeros((b, h))
    h_seq = np.empty((b, t, h))  # in sorted row order, like gates and hnlin
    gates = np.empty((b, t, 3 * h))  # [r | z | n] activations; unset where padded
    hnlin = np.empty((b, t, h))
    for i, n_i in enumerate(active):
        hp = h_prev[:n_i]
        h_pre = hp @ params["gru.w_h"]
        gates[:n_i, i, : 2 * h] = _sigmoid(x_pre[:n_i, i, : 2 * h] + h_pre[:, : 2 * h])
        r, z = gates[:n_i, i, :h], gates[:n_i, i, h : 2 * h]
        hnlin[:n_i, i] = h_pre[:, 2 * h :] + params["gru.b_hn"]
        n = np.tanh(x_pre[:n_i, i, 2 * h :] + r * hnlin[:n_i, i])
        gates[:n_i, i, 2 * h :] = n
        h_prev[:n_i] = (1.0 - z) * n + z * hp
        h_seq[:, i, :] = h_prev
    return h_seq[np.argsort(order)], (xs, order, h_seq, gates, hnlin, active, cfg.use_feature_gate)


def _gru_backward(params, ctx, dh_seq: np.ndarray, grads) -> np.ndarray | None:
    """Backprop through time over the packed rows: the loop carries only
    dh_prev, and a finished row's carry gathers its padded steps' gradients;
    the weight gradients come from the stored pre-activation gradients afterwards."""
    xs, order, h_seq, gates, hnlin, active, want_dx = ctx
    b, t, h = h_seq.shape
    dh_seq = dh_seq[order]
    hprev = np.concatenate([np.zeros((b, 1, h)), h_seq[:, :-1]], axis=1)
    d_x = np.zeros((b, t, 3 * h))  # d(input-side pre-activation), [r | z | n]
    d_h = np.zeros((b, t, 3 * h))  # d(recurrent pre-activation), [r | z | hnlin]
    carry = np.zeros((b, h))
    for i in range(t - 1, -1, -1):
        n_i = active[i]
        carry[n_i:] += dh_seq[n_i:, i]
        dh = dh_seq[:n_i, i] + carry[:n_i]
        r, z, n = gates[:n_i, i, :h], gates[:n_i, i, h : 2 * h], gates[:n_i, i, 2 * h :]
        da_n = dh * (1.0 - z) * (1.0 - n * n)
        d_x[:n_i, i, :h] = da_n * hnlin[:n_i, i] * r * (1.0 - r)
        d_x[:n_i, i, h : 2 * h] = dh * (hprev[:n_i, i] - n) * z * (1.0 - z)
        d_x[:n_i, i, 2 * h :] = da_n
        d_h[:n_i, i, : 2 * h] = d_x[:n_i, i, : 2 * h]
        d_h[:n_i, i, 2 * h :] = da_n * r
        carry[:n_i] = dh * z + d_h[:n_i, i] @ params["gru.w_h"].T
    grads["gru.w_x"] = _wgrad(xs, d_x)
    grads["gru.b_x"] = d_x.sum(axis=(0, 1))
    grads["gru.w_h"] = _wgrad(hprev, d_h)
    grads["gru.b_hn"] = d_h[:, :, 2 * h :].sum(axis=(0, 1))
    return (d_x @ params["gru.w_x"].T)[np.argsort(order)] if want_dx else None


def _attn_forward(params, cfg: ModelConfig, h_seq: np.ndarray, mask: np.ndarray, pos=...):
    """Pre-norm multi-head self-attention and feed-forward, both residual.

    Keys and values cover every position; queries, and everything after the
    softmax, only the query positions pos (see forward): (B, T, H) or (B, H).
    """
    b, t, h = h_seq.shape
    nh = cfg.heads
    dk = h // nh
    w, bias = params["attn.w_qkv"], params["attn.b_qkv"]
    a_norm, ln1 = _ln_forward(h_seq, params["attn.ln1_g"], params["attn.ln1_b"])
    h_q, a_q = h_seq[pos], a_norm[pos]
    q = a_q @ w[:, :h] + bias[:h]
    kv = a_norm @ w[:, h:] + bias[h:]
    # (B, Tq, H) -> (B, heads, Tq, dk) and (B, T, 2H) -> two (B, heads, T, dk) views
    q_h = q.reshape(b, -1, nh, dk).transpose(0, 2, 1, 3)
    k_h, v_h = kv.reshape(b, t, 2, nh, dk).transpose(2, 0, 3, 1, 4)
    scores = q_h @ k_h.swapaxes(-1, -2) / np.sqrt(dk)
    scores = np.where(mask[:, None, None, :] > 0.0, scores, _NEG_INF)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    o_cat = (attn @ v_h).transpose(0, 2, 1, 3).reshape(h_q.shape)
    h1 = h_q + (o_cat @ params["attn.w_o"] + params["attn.b_o"])
    a2, ln2 = _ln_forward(h1, params["attn.ln2_g"], params["attn.ln2_b"])
    f_pre = a2 @ params["attn.w_f1"] + params["attn.b_f1"]
    f_act = np.maximum(f_pre, 0.0)
    h2 = h1 + (f_act @ params["attn.w_f2"] + params["attn.b_f2"])
    return h2, (pos, a_norm, a_q, ln1, q_h, k_h, v_h, attn, o_cat, a2, ln2, f_pre, f_act)


def _attn_backward(params, ctx, dh2: np.ndarray, grads) -> np.ndarray:
    pos, a_norm, a_q, ln1, q_h, k_h, v_h, attn, o_cat, a2, ln2, f_pre, f_act = ctx
    b, nh, t, dk = k_h.shape
    h = nh * dk
    w = params["attn.w_qkv"]
    grads["attn.w_f2"] = _wgrad(f_act, dh2)
    grads["attn.b_f2"] = _lead_sum(dh2)
    df_pre = (dh2 @ params["attn.w_f2"].T) * (f_pre > 0.0)
    grads["attn.w_f1"] = _wgrad(a2, df_pre)
    grads["attn.b_f1"] = _lead_sum(df_pre)
    da2 = df_pre @ params["attn.w_f1"].T
    dh1_ln, grads["attn.ln2_g"], grads["attn.ln2_b"] = _ln_backward(da2, ln2)
    dh1 = dh2 + dh1_ln

    grads["attn.w_o"] = _wgrad(o_cat, dh1)
    grads["attn.b_o"] = _lead_sum(dh1)
    do_cat = dh1 @ params["attn.w_o"].T
    do_head = do_cat.reshape(b, -1, nh, dk).transpose(0, 2, 1, 3)
    dattn = do_head @ v_h.swapaxes(-1, -2)
    dv_h = attn.swapaxes(-1, -2) @ do_head
    dscore = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dq = (dscore @ k_h / np.sqrt(dk)).transpose(0, 2, 1, 3).reshape(dh1.shape)
    dk_h = dscore.swapaxes(-1, -2) @ q_h / np.sqrt(dk)
    # inverse of the forward split: two (B, heads, T, dk) -> (B, T, 2H)
    dkv = np.stack([dk_h, dv_h]).transpose(1, 3, 0, 2, 4).reshape(b, t, 2 * h)
    grads["attn.w_qkv"] = np.concatenate([_wgrad(a_q, dq), _wgrad(a_norm, dkv)], axis=1)
    grads["attn.b_qkv"] = np.concatenate([_lead_sum(dq), _lead_sum(dkv)])
    da_norm = dkv @ w[:, h:].T
    da_norm[pos] += dq @ w[:, :h].T
    dh_seq, grads["attn.ln1_g"], grads["attn.ln1_b"] = _ln_backward(da_norm, ln1)
    dh_seq[pos] += dh1
    return dh_seq


def _head_forward(params, cfg: ModelConfig, h2: np.ndarray, mask: np.ndarray, pos=...):
    """Position-wise LayerNorm + two-layer MLP + sigmoid: q at the query positions.

    After attention h2 is already at those positions; without attention the
    head reads the GRU's states at them.
    """
    seq_shape = None if cfg.use_mhsa or pos is ... else h2.shape
    h2 = h2 if seq_shape is None else h2[pos]
    c_norm, ln3 = _ln_forward(h2, params["head.ln_g"], params["head.ln_b"])
    z1h_pre = c_norm @ params["head.w1"] + params["head.b1"]
    z1h = np.maximum(z1h_pre, 0.0)
    q = _sigmoid((z1h @ params["head.w2"] + params["head.b2"])[..., 0])
    return q, (seq_shape, pos, c_norm, ln3, z1h_pre, z1h, q)


def _head_backward(params, ctx, dq: np.ndarray, grads) -> np.ndarray:
    seq_shape, pos, c_norm, ln3, z1h_pre, z1h, q = ctx
    dlogit = dq * q * (1.0 - q)
    grads["head.w2"] = _wgrad(z1h, dlogit[..., None])
    grads["head.b2"] = np.array([dlogit.sum()])
    dz1h_pre = (dlogit[..., None] * params["head.w2"][:, 0]) * (z1h_pre > 0.0)
    grads["head.w1"] = _wgrad(c_norm, dz1h_pre)
    grads["head.b1"] = _lead_sum(dz1h_pre)
    dc = dz1h_pre @ params["head.w1"].T
    dh2, grads["head.ln_g"], grads["head.ln_b"] = _ln_backward(dc, ln3)
    if seq_shape is None:
        return dh2
    dh_seq = np.zeros(seq_shape)
    dh_seq[pos] = dh2
    return dh_seq


def _blocks(cfg: ModelConfig):
    """The (forward, backward) pairs the config enables, in forward order."""
    blocks = [(_gate_forward, _gate_backward)] if cfg.use_feature_gate else []
    blocks.append((_gru_forward, _gru_backward))
    if cfg.use_mhsa:
        blocks.append((_attn_forward, _attn_backward))
    blocks.append((_head_forward, _head_backward))
    return blocks


def forward(params: dict[str, np.ndarray], cfg: ModelConfig, x: np.ndarray, mask: np.ndarray,
            want_cache: bool = False, last_only: bool = False):
    """Batched forward pass.

    x: (B, T, D) float64, mask: (B, T) of 0/1 with padding as a suffix.
    Returns (q, scores, cache): q is (B, T), or (B,) at each row's last valid
    index when last_only; scores (B,) = q at those indices. cache is None
    unless want_cache; then it holds the valid ``lengths`` (B,) and
    ``blocks``, each enabled block's backward with the context its forward
    returned.
    """
    x, mask, lengths = _inputs(cfg, x, mask)
    last = np.arange(len(x)), lengths - 1
    pos = last if last_only else ...
    q, blocks = x, []  # each block's output feeds the next; the head's is q
    for block_forward, block_backward in _blocks(cfg):
        q, ctx = block_forward(params, cfg, q, mask, pos)
        if want_cache:
            blocks.append((block_backward, ctx))
    scores = q if last_only else q[last]
    return q, scores, ({"lengths": lengths, "blocks": blocks} if want_cache else None)


def backward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    cache: dict[str, Any],
    dq: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given dq = dL/dq, shaped like forward's q.

    Runs the forward's blocks in reverse; a disabled block's parameters keep
    zero gradients. Callers must put zeros at padded positions of dq; the
    loss only reads valid positions, so that holds by construction.
    """
    grads = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    d = dq
    for block_backward, ctx in reversed(cache["blocks"]):
        d = block_backward(params, ctx, d, grads)
    return grads


# --- checkpoint io -----------------------------------------------------------


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    shapes = param_shapes(cfg)
    if set(params) != set(shapes):
        raise CotriageError("parameter names do not match the config")
    tensors = {}
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        if arr.shape != shapes[name]:
            raise CotriageError(f"{name}: shape {arr.shape} != expected {shapes[name]}")
        tensors[name] = {
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    write_json(path, {"schema": CKPT_SCHEMA, "config": asdict(cfg), "tensors": tensors})


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Parameters and config of a checkpoint.

    CotriageError when the schema, tensor names or shapes disagree with the
    stored config; ParseError when the file is not UTF-8 JSON or a config
    field is unknown or not of its field's JSON type.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["schema"] != CKPT_SCHEMA:
            raise CotriageError(f"expected schema {CKPT_SCHEMA!r}, got {doc['schema']!r}")
        conf, kinds = doc["config"], get_type_hints(ModelConfig)
        if set(conf) - set(kinds):
            raise ValueError(f"unknown config fields {sorted(set(conf) - set(kinds))}")
        cfg = ModelConfig(**{key: typed(conf, key, kinds[key]) for key in conf})
        shapes = param_shapes(cfg)
        tensors = doc["tensors"]
        if set(tensors) != set(shapes):
            raise CotriageError("checkpoint tensors do not match the config")
        params = {}
        for name, entry in tensors.items():
            shape = tuple(entry["shape"])
            if shape != shapes[name]:
                raise CotriageError(f"{name}: shape {shape} != expected {shapes[name]}")
            raw = base64.b64decode(entry["data"], validate=True)
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad checkpoint {path}: {exc!r}") from exc
    return params, cfg
