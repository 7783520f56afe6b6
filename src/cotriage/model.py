"""Gated recurrent decision model scoring trajectory trustworthiness.

Pipeline per trajectory: a feature gate (masked mean-pool over valid rows,
two-layer MLP, sigmoid) reweights feature columns; a single-layer
unidirectional GRU consumes the gated rows; a pre-norm multi-head
self-attention block with a key-padding mask refines the hidden states; a
position-wise head (LayerNorm + two-layer MLP + sigmoid) emits a
trustworthiness value q_t per sentence. The trajectory score is q at the last
valid position.

Everything is float64 numpy. The backward pass is written by hand and must
mirror the forward pass exactly; finite-difference tests hold it to that.
Padded rows cannot influence any valid position: pooling is masked, the GRU
carries its state through padding, attention masks padded keys, and the score
reads only the last valid index.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigMismatch, EmptyMask, ParseError
from .jsonl import write_json

CKPT_SCHEMA = "ckpt/1"
_LN_EPS = 1e-5
_NEG_INF = -1e30


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden: int = 64
    heads: int = 4
    head_hidden: int = 32
    gate_hidden: int | None = None
    use_feature_gate: bool = True
    use_mhsa: bool = True

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.hidden < 1 or self.head_hidden < 1:
            raise ValueError("hidden sizes must be positive")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")
        if self.gate_hidden is not None and self.gate_hidden < 1:
            raise ValueError("gate_hidden must be positive")

    @property
    def gate_dim(self) -> int:
        return self.gate_hidden if self.gate_hidden is not None else max(1, self.input_dim // 2)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, h, g, p = cfg.input_dim, cfg.hidden, cfg.gate_dim, cfg.head_hidden
    f = 4 * h
    return {
        "gate.w1": (d, g),
        "gate.b1": (g,),
        "gate.w2": (g, d),
        "gate.b2": (d,),
        "gru.w_xr": (d, h),
        "gru.w_hr": (h, h),
        "gru.b_r": (h,),
        "gru.w_xz": (d, h),
        "gru.w_hz": (h, h),
        "gru.b_z": (h,),
        "gru.w_xn": (d, h),
        "gru.b_xn": (h,),
        "gru.w_hn": (h, h),
        "gru.b_hn": (h,),
        "attn.ln1_g": (h,),
        "attn.ln1_b": (h,),
        "attn.w_q": (h, h),
        "attn.b_q": (h,),
        "attn.w_k": (h, h),
        "attn.b_k": (h,),
        "attn.w_v": (h, h),
        "attn.b_v": (h,),
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


def _check_mask(mask: np.ndarray) -> np.ndarray:
    lengths = mask.sum(axis=-1)
    if np.any(lengths < 1):
        raise EmptyMask("every trajectory needs at least one valid row")
    if np.any(mask[..., :-1] < mask[..., 1:]):
        raise ValueError("mask padding must be a suffix")
    return lengths.astype(np.int64)


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
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    x: np.ndarray,
    mask: np.ndarray,
    want_cache: bool = False,
):
    """Batched forward pass.

    x: (B, T, D) float64, mask: (B, T) of 0/1 with padding as a suffix.
    Returns (q, scores, cache): q is (B, T), scores (B,) = q at each row's
    last valid index.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if x.ndim != 3 or mask.shape != x.shape[:2]:
        raise ValueError("expected x of shape (B, T, D) and mask (B, T)")
    if x.shape[2] != cfg.input_dim:
        raise ConfigMismatch(f"model expects {cfg.input_dim} features, got {x.shape[2]}")
    lengths = _check_mask(mask)
    b, t, d = x.shape
    h = cfg.hidden
    cache: dict[str, Any] = {"x": x, "mask": mask, "lengths": lengths}

    # --- feature gate -----------------------------------------------------
    if cfg.use_feature_gate:
        denom = mask.sum(axis=1, keepdims=True)
        s = (x * mask[:, :, None]).sum(axis=1) / denom
        z1 = s @ params["gate.w1"] + params["gate.b1"]
        a1 = np.maximum(z1, 0.0)
        g_pre = a1 @ params["gate.w2"] + params["gate.b2"]
        g = _sigmoid(g_pre)
        xg = x * g[:, None, :]
        cache.update(s=s, z1=z1, a1=a1, g=g)
    else:
        xg = x
    cache["xg"] = xg

    # --- GRU with mask-carry ------------------------------------------------
    h_prev = np.zeros((b, h))
    h_seq = np.empty((b, t, h))
    r_all = np.empty((b, t, h))
    z_all = np.empty((b, t, h))
    n_all = np.empty((b, t, h))
    hnlin_all = np.empty((b, t, h))
    hprev_all = np.empty((b, t, h))
    for i in range(t):
        xt = xg[:, i, :]
        hprev_all[:, i, :] = h_prev
        r = _sigmoid(xt @ params["gru.w_xr"] + h_prev @ params["gru.w_hr"] + params["gru.b_r"])
        z = _sigmoid(xt @ params["gru.w_xz"] + h_prev @ params["gru.w_hz"] + params["gru.b_z"])
        hnlin = h_prev @ params["gru.w_hn"] + params["gru.b_hn"]
        n = np.tanh(xt @ params["gru.w_xn"] + params["gru.b_xn"] + r * hnlin)
        h_new = (1.0 - z) * n + z * h_prev
        m = mask[:, i, None]
        h_prev = m * h_new + (1.0 - m) * h_prev
        h_seq[:, i, :] = h_prev
        r_all[:, i, :] = r
        z_all[:, i, :] = z
        n_all[:, i, :] = n
        hnlin_all[:, i, :] = hnlin
    cache.update(h_seq=h_seq, r=r_all, z=z_all, n=n_all, hnlin=hnlin_all, hprev=hprev_all)

    # --- pre-norm self-attention block --------------------------------------
    if cfg.use_mhsa:
        h2, attn_cache = _attn_block(params, cfg, h_seq, mask)
        cache.update(attn_cache)
    else:
        h2 = h_seq
    cache["h2"] = h2

    # --- position-wise head --------------------------------------------------
    q, head_cache = _head_block(params, h2)
    cache.update(head_cache)

    scores_out = q[np.arange(b), lengths - 1]
    return (q, scores_out, cache) if want_cache else (q, scores_out, None)


def _attn_block(params, cfg: ModelConfig, h_seq: np.ndarray, mask: np.ndarray):
    b, t, h = h_seq.shape
    nh = cfg.heads
    dk = h // nh
    a_norm, ln1_cache = _ln_forward(h_seq, params["attn.ln1_g"], params["attn.ln1_b"])

    def split(m2):
        return m2.reshape(b, t, nh, dk).transpose(0, 2, 1, 3)

    q_h = split(a_norm @ params["attn.w_q"] + params["attn.b_q"])
    k_h = split(a_norm @ params["attn.w_k"] + params["attn.b_k"])
    v_h = split(a_norm @ params["attn.w_v"] + params["attn.b_v"])
    scores = np.einsum("bntk,bnsk->bnts", q_h, k_h) / np.sqrt(dk)
    scores = np.where(mask[:, None, None, :] > 0.0, scores, _NEG_INF)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    attn = exps / exps.sum(axis=-1, keepdims=True)
    o_head = np.einsum("bnts,bnsk->bntk", attn, v_h)
    o_cat = o_head.transpose(0, 2, 1, 3).reshape(b, t, h)
    o_proj = o_cat @ params["attn.w_o"] + params["attn.b_o"]
    h1 = h_seq + o_proj
    a2, ln2_cache = _ln_forward(h1, params["attn.ln2_g"], params["attn.ln2_b"])
    f_pre = a2 @ params["attn.w_f1"] + params["attn.b_f1"]
    f_act = np.maximum(f_pre, 0.0)
    f_out = f_act @ params["attn.w_f2"] + params["attn.b_f2"]
    h2 = h1 + f_out
    attn_cache = dict(
        a_norm=a_norm,
        ln1=ln1_cache,
        q_h=q_h,
        k_h=k_h,
        v_h=v_h,
        attn=attn,
        o_cat=o_cat,
        h1=h1,
        a2=a2,
        ln2=ln2_cache,
        f_pre=f_pre,
        f_act=f_act,
    )
    return h2, attn_cache


def _head_block(params, h2: np.ndarray):
    c_norm, ln3_cache = _ln_forward(h2, params["head.ln_g"], params["head.ln_b"])
    z1h_pre = c_norm @ params["head.w1"] + params["head.b1"]
    z1h = np.maximum(z1h_pre, 0.0)
    logit = (z1h @ params["head.w2"] + params["head.b2"])[..., 0]
    q = _sigmoid(logit)
    return q, dict(c_norm=c_norm, ln3=ln3_cache, z1h_pre=z1h_pre, z1h=z1h, q=q)


def zero_grads(cfg: ModelConfig) -> dict[str, np.ndarray]:
    return {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}


def backward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    cache: dict[str, Any],
    dq: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given dq = dL/dq, shape (B, T).

    Callers must put zeros at padded positions of dq; the loss only reads
    valid positions, so that holds by construction.
    """
    grads = zero_grads(cfg)
    x, mask = cache["x"], cache["mask"]
    b, t, _ = x.shape
    h = cfg.hidden

    # head
    q = cache["q"]
    dlogit = dq * q * (1.0 - q)
    z1h = cache["z1h"]
    grads["head.w2"] = np.einsum("btp,bt->p", z1h, dlogit)[:, None]
    grads["head.b2"] = np.array([dlogit.sum()])
    dz1h = dlogit[:, :, None] * params["head.w2"][:, 0]
    dz1h_pre = dz1h * (cache["z1h_pre"] > 0.0)
    grads["head.w1"] = np.einsum("bth,btp->hp", cache["c_norm"], dz1h_pre)
    grads["head.b1"] = dz1h_pre.sum(axis=(0, 1))
    dc = dz1h_pre @ params["head.w1"].T
    dh2, grads["head.ln_g"], grads["head.ln_b"] = _ln_backward(dc, cache["ln3"])

    # attention block
    if cfg.use_mhsa:
        nh = cfg.heads
        dk = h // nh
        dh1 = dh2.copy()
        df_out = dh2
        grads["attn.w_f2"] = np.einsum("btf,bth->fh", cache["f_act"], df_out)
        grads["attn.b_f2"] = df_out.sum(axis=(0, 1))
        df_act = df_out @ params["attn.w_f2"].T
        df_pre = df_act * (cache["f_pre"] > 0.0)
        grads["attn.w_f1"] = np.einsum("bth,btf->hf", cache["a2"], df_pre)
        grads["attn.b_f1"] = df_pre.sum(axis=(0, 1))
        da2 = df_pre @ params["attn.w_f1"].T
        dh1_ln, grads["attn.ln2_g"], grads["attn.ln2_b"] = _ln_backward(da2, cache["ln2"])
        dh1 += dh1_ln

        dh_seq = dh1.copy()
        do_proj = dh1
        grads["attn.w_o"] = np.einsum("bth,btk->hk", cache["o_cat"], do_proj)
        grads["attn.b_o"] = do_proj.sum(axis=(0, 1))
        do_cat = do_proj @ params["attn.w_o"].T
        do_head = do_cat.reshape(b, t, nh, dk).transpose(0, 2, 1, 3)

        attn, v_h, q_h, k_h = cache["attn"], cache["v_h"], cache["q_h"], cache["k_h"]
        dattn = np.einsum("bntk,bnsk->bnts", do_head, v_h)
        dv_h = np.einsum("bnts,bntk->bnsk", attn, do_head)
        dscore = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dq_h = np.einsum("bnts,bnsk->bntk", dscore, k_h) / np.sqrt(dk)
        dk_h = np.einsum("bnts,bntk->bnsk", dscore, q_h) / np.sqrt(dk)

        def merge(m4):
            return m4.transpose(0, 2, 1, 3).reshape(b, t, h)

        dqf, dkf, dvf = merge(dq_h), merge(dk_h), merge(dv_h)
        a_norm = cache["a_norm"]
        grads["attn.w_q"] = np.einsum("bth,btk->hk", a_norm, dqf)
        grads["attn.b_q"] = dqf.sum(axis=(0, 1))
        grads["attn.w_k"] = np.einsum("bth,btk->hk", a_norm, dkf)
        grads["attn.b_k"] = dkf.sum(axis=(0, 1))
        grads["attn.w_v"] = np.einsum("bth,btk->hk", a_norm, dvf)
        grads["attn.b_v"] = dvf.sum(axis=(0, 1))
        da_norm = dqf @ params["attn.w_q"].T + dkf @ params["attn.w_k"].T + dvf @ params["attn.w_v"].T
        dh_ln1, grads["attn.ln1_g"], grads["attn.ln1_b"] = _ln_backward(da_norm, cache["ln1"])
        dh_seq += dh_ln1
    else:
        dh_seq = dh2

    # GRU backprop through time
    xg = cache["xg"]
    dxg = np.zeros_like(xg)
    carry = np.zeros((b, h))
    for i in range(t - 1, -1, -1):
        dh = dh_seq[:, i, :] + carry
        m = mask[:, i, None]
        dh_new = m * dh
        dh_prev = (1.0 - m) * dh

        r, z, n = cache["r"][:, i], cache["z"][:, i], cache["n"][:, i]
        hnlin, h_prev = cache["hnlin"][:, i], cache["hprev"][:, i]
        xt = xg[:, i, :]

        dz = dh_new * (h_prev - n)
        dn = dh_new * (1.0 - z)
        dh_prev += dh_new * z

        da_n = dn * (1.0 - n * n)
        grads["gru.w_xn"] += xt.T @ da_n
        grads["gru.b_xn"] += da_n.sum(axis=0)
        dr = da_n * hnlin
        dhnlin = da_n * r
        grads["gru.w_hn"] += h_prev.T @ dhnlin
        grads["gru.b_hn"] += dhnlin.sum(axis=0)
        dh_prev += dhnlin @ params["gru.w_hn"].T
        dxt = da_n @ params["gru.w_xn"].T

        da_z = dz * z * (1.0 - z)
        grads["gru.w_xz"] += xt.T @ da_z
        grads["gru.w_hz"] += h_prev.T @ da_z
        grads["gru.b_z"] += da_z.sum(axis=0)
        dxt += da_z @ params["gru.w_xz"].T
        dh_prev += da_z @ params["gru.w_hz"].T

        da_r = dr * r * (1.0 - r)
        grads["gru.w_xr"] += xt.T @ da_r
        grads["gru.w_hr"] += h_prev.T @ da_r
        grads["gru.b_r"] += da_r.sum(axis=0)
        dxt += da_r @ params["gru.w_xr"].T
        dh_prev += da_r @ params["gru.w_hr"].T

        dxg[:, i, :] = dxt
        carry = dh_prev

    # feature gate
    if cfg.use_feature_gate:
        g, a1, z1, s = cache["g"], cache["a1"], cache["z1"], cache["s"]
        dg = (dxg * x).sum(axis=1)
        du2 = dg * g * (1.0 - g)
        grads["gate.w2"] = a1.T @ du2
        grads["gate.b2"] = du2.sum(axis=0)
        da1 = du2 @ params["gate.w2"].T
        dz1 = da1 * (z1 > 0.0)
        grads["gate.w1"] = s.T @ dz1
        grads["gate.b1"] = dz1.sum(axis=0)

    return grads


# --- checkpoint io -----------------------------------------------------------


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    shapes = param_shapes(cfg)
    if set(params) != set(shapes):
        raise ConfigMismatch("parameter names do not match the config")
    tensors = {}
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        if arr.shape != shapes[name]:
            raise ConfigMismatch(f"{name}: shape {arr.shape} != expected {shapes[name]}")
        tensors[name] = {
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    write_json(path, {"schema": CKPT_SCHEMA, "config": asdict(cfg), "tensors": tensors})


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Parameters and config of a checkpoint.

    ConfigMismatch when the schema, tensor names or shapes disagree with the
    stored config; ParseError when the file cannot be decoded at all.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if doc["schema"] != CKPT_SCHEMA:
            raise ConfigMismatch(f"expected schema {CKPT_SCHEMA!r}, got {doc['schema']!r}")
        cfg = ModelConfig(**doc["config"])
        shapes = param_shapes(cfg)
        tensors = doc["tensors"]
        if set(tensors) != set(shapes):
            raise ConfigMismatch("checkpoint tensors do not match the config")
        params = {}
        for name, entry in tensors.items():
            shape = tuple(entry["shape"])
            if shape != shapes[name]:
                raise ConfigMismatch(f"{name}: shape {shape} != expected {shapes[name]}")
            raw = base64.b64decode(entry["data"], validate=True)
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad checkpoint {path}: {exc!r}") from exc
    return params, cfg
