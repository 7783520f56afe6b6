"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every criterion is checked at its stated tolerance and, where one applies, its
runtime bound. The expensive synthetic end-to-end run is built once and shared
by the detector-quality and ablation-direction criteria.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cotriage.calibration import (
    CalibrationItem,
    default_grid,
    select_threshold,
    simulate_at_tau,
    sweep,
)
from cotriage.cli import main as cli_main
from cotriage.evaluation import OutcomeVector, build_calibration_items, paired_bootstrap, route_outcomes
from cotriage.features import assemble
from cotriage.model import ModelConfig, forward, init_params
from cotriage.synth import SynthConfig, generate
from cotriage.trajectory import normalize_choices, sentence_signals
from cotriage.training import TrainConfig, roc_auc, score_features, train
from cotriage.voting import SampledPath, run_method
from test_model import finite_difference_check, small_cfg


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


# --- criterion: analytic gradients match finite differences -------------------


def test_gradient_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for gate in (True, False):
        for mhsa in (True, False):
            cfg = small_cfg(use_feature_gate=gate, use_mhsa=mhsa)
            worst = max(worst, finite_difference_check(cfg, step=1e-5))
    elapsed = time.perf_counter() - t0
    report(
        "gradient-oracle",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e} over 4 ablation cells in {elapsed:.1f}s (< 1e-4, < 10s)",
    )


# --- criterion: padding rows cannot move scores --------------------------------


def test_masking_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    cfg = ModelConfig(input_dim=8, hidden=16, heads=2, head_hidden=8)
    params = init_params(cfg, seed=2)
    n, t_max, extra = 1000, 12, 5
    lengths = rng.integers(1, t_max + 1, size=n)
    x = rng.normal(size=(n, t_max + extra, 8))
    mask = (np.arange(t_max + extra)[None, :] < lengths[:, None]).astype(np.float64)

    _, base, _ = forward(params, cfg, x[:, :t_max], mask[:, :t_max])
    _, padded, _ = forward(params, cfg, x, mask)
    gap = float(np.abs(base - padded).max())
    elapsed = time.perf_counter() - t0
    report(
        "masking-soundness",
        gap < 1e-6 and elapsed < 10.0,
        f"1000 trajectories, 1-5 garbage pad rows, max score change {gap:.2e} "
        f"in {elapsed:.1f}s (< 1e-6, < 10s)",
    )


# --- criterion: per-choice distributions are proper and shift invariant --------


def test_distribution_correctness():
    rng = np.random.default_rng(5)
    worst_sum = 0.0
    worst_shift = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 9))
        v = rng.normal(scale=3.0, size=k)
        dist = normalize_choices(v)
        worst_sum = max(worst_sum, abs(float(dist.probs.sum()) - 1.0))
        shifted = normalize_choices(v + float(rng.uniform(-50.0, 50.0)))
        worst_shift = max(worst_shift, float(np.abs(dist.probs - shifted.probs).max()))
    worst_ent = 0.0
    for k in range(2, 9):
        _, entropy = sentence_signals(normalize_choices(np.zeros(k)))
        worst_ent = max(worst_ent, abs(entropy - math.log(k)))
    report(
        "distribution-correctness",
        worst_sum < 1e-9 and worst_shift < 1e-9 and worst_ent < 1e-9,
        f"10,000 vectors: sum err {worst_sum:.2e}, shift err {worst_shift:.2e}; "
        f"uniform-K entropy err {worst_ent:.2e} for K in 2..8 (all < 1e-9)",
    )


# --- criterion: calibration sweep equals a brute-force oracle ------------------


def _random_items(n: int, seed: int) -> list[CalibrationItem]:
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        items.append(
            CalibrationItem(
                question_id=f"a{i:04d}",
                score=float(rng.random()),
                greedy_correct=bool(rng.random() < 0.8),
                greedy_tokens=int(rng.integers(150, 450)),
                multi_correct=bool(rng.random() < 0.9),
                multi_tokens=int(rng.integers(1500, 4500)),
            )
        )
    return items


def _brute_force_point(items, tau):
    n = len(items)
    correct = 0
    tokens = 0
    accepted = 0
    baseline = 0
    for it in items:
        baseline += it.multi_tokens
        if it.score >= tau:
            accepted += 1
            correct += 1 if it.greedy_correct else 0
            tokens += it.greedy_tokens
        else:
            correct += 1 if it.multi_correct else 0
            tokens += it.greedy_tokens + it.multi_tokens
    mean_tokens = tokens / n
    return {
        "accuracy": correct / n,
        "mean_tokens": mean_tokens,
        "token_reduction": 1.0 - mean_tokens / (baseline / n),
        "accept_rate": accepted / n,
    }


def test_calibration_oracle_equivalence():
    t0 = time.perf_counter()
    items = _random_items(500, seed=11)
    profile = sweep(items)
    selected = select_threshold(profile)

    worst = 0.0
    for pt in profile.points:
        oracle = _brute_force_point(items, pt.tau)
        for field in ("accuracy", "mean_tokens", "token_reduction", "accept_rate"):
            worst = max(worst, abs(getattr(pt, field) - oracle[field]))

    oracle_pts = [(tau, _brute_force_point(items, tau)) for tau in default_grid()]
    floor = (1.0 - 0.005) * max(o["accuracy"] for _, o in oracle_pts)
    best = None
    for tau, o in oracle_pts:
        if o["accuracy"] < floor:
            continue
        if best is None or o["token_reduction"] > best[1]["token_reduction"]:
            best = (tau, o)
    elapsed = time.perf_counter() - t0
    report(
        "calibration-oracle",
        worst <= 1e-12 and selected == best[0] and elapsed < 5.0,
        f"500 items, 21 grid points: max field gap {worst:.1e} (<= 1e-12), "
        f"selected tau {selected} == oracle {best[0]}, {elapsed:.1f}s (< 5s)",
    )


# --- criterion: routing boundary identities ------------------------------------


def test_routing_boundary_identities():
    items = _random_items(600, seed=13)
    greedy_acc = sum(it.greedy_correct for it in items) / len(items)
    multi_acc = sum(it.multi_correct for it in items) / len(items)

    at_zero = simulate_at_tau(items, 0.0)
    above = simulate_at_tau(items, max(it.score for it in items) + 0.5)
    vectors = route_outcomes(items, 0.0)
    elementwise = bool(
        np.array_equal(vectors["policy"].correct, vectors["greedy"].correct)
        and np.array_equal(vectors["policy"].tokens, vectors["greedy"].tokens)
    )
    report(
        "routing-boundaries",
        at_zero.accuracy == greedy_acc and above.accuracy == multi_acc and elementwise,
        f"600 items: tau=0 accuracy {at_zero.accuracy} == greedy {greedy_acc}, "
        f"tau>max accuracy {above.accuracy} == multi {multi_acc}, "
        f"tau=0 outcome vectors identical to greedy (exact)",
    )


# --- criteria: end-to-end detector quality and ablation direction --------------


def _fit_variant(feats, use_feature_gate, use_mhsa):
    mcfg = ModelConfig(
        input_dim=feats["train"][0][0].x.shape[1],
        use_feature_gate=use_feature_gate,
        use_mhsa=use_mhsa,
    )
    result = train(*feats["train"], *feats["val"], mcfg, TrainConfig(seed=7))
    return mcfg, result.params


def _routing_items(params, mcfg, feats, data, split):
    questions, trajectories, paths_by_qid = data[split]
    scores = score_features(params, mcfg, feats[split][0])
    qmap = {q.question_id: q for q in questions}
    return build_calibration_items(trajectories, scores, paths_by_qid, qmap, method="sc", budget=10)


@pytest.fixture(scope="module")
def planted_run():
    t0 = time.perf_counter()
    data = {}
    for i, (split, n) in enumerate([("train", 2000), ("val", 500), ("test", 1000)]):
        cfg = SynthConfig(n_questions=n, seed=7 + i, beta=1.0, id_prefix=f"{split}-")
        data[split] = generate(cfg)
    feats = {}
    for split, (questions, trajectories, _) in data.items():
        qmap = {q.question_id: q for q in questions}
        seqs = [assemble(t, "full", qmap[t.question_id]) for t in trajectories]
        feats[split] = (seqs, [bool(t.label) for t in trajectories])

    out = {"data": data, "feats": feats, "elapsed_setup": time.perf_counter() - t0}
    for name, gate, mhsa in (("full", True, True), ("ablated", False, False)):
        mcfg, params = _fit_variant(feats, gate, mhsa)
        val_items = _routing_items(params, mcfg, feats, data, "val")
        profile = sweep(val_items)
        tau = select_threshold(profile)
        test_items = _routing_items(params, mcfg, feats, data, "test")
        out[name] = {
            "tau": tau,
            "selected_point": next(pt for pt in profile.points if pt.tau == tau),
            "test_point": simulate_at_tau(test_items, tau),
            "test_items": test_items,
            "auc": roc_auc(
                np.array(feats["test"][1]), np.array([it.score for it in test_items])
            ),
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_end_to_end_synthetic_reproduction(planted_run):
    full = planted_run["full"]
    items = full["test_items"]
    sc_acc = sum(it.multi_correct for it in items) / len(items)
    point = full["test_point"]
    rel_drop = (sc_acc - point.accuracy) / sc_acc
    ok = (
        full["auc"] >= 0.9
        and point.token_reduction >= 0.30
        and rel_drop <= 0.005
        and planted_run["elapsed"] < 300.0
    )
    report(
        "end-to-end-synthetic",
        ok,
        f"beta=1 seed 7 n=2000/500/1000: test ROC-AUC {full['auc']:.4f} (>= 0.9), "
        f"token reduction {point.token_reduction:.1%} vs always-SC (>= 30%), "
        f"relative accuracy drop {rel_drop:+.4%} (<= 0.5%), "
        f"{planted_run['elapsed']:.0f}s (< 300s)",
    )


def test_ablation_direction(planted_run):
    """The full model's selected operating point must not cost more tokens.

    Compared on the calibration split, where the point is selected: that is
    the mean_tokens field select_threshold optimizes. The planted signal is
    easy enough that both variants can reach the same optimum; a full model
    made WORSE than the gate-off/attention-off variant by a regression would
    surface here as a strictly costlier selected point.
    """
    full = planted_run["full"]["selected_point"]
    ablated = planted_run["ablated"]["selected_point"]
    full_test = planted_run["full"]["test_point"]
    ablated_test = planted_run["ablated"]["test_point"]
    report(
        "ablation-direction",
        full.mean_tokens <= ablated.mean_tokens,
        f"selected-tau mean tokens {full.mean_tokens:.1f} <= "
        f"{ablated.mean_tokens:.1f} for gate-off/attention-off "
        f"(test-split deployment: {full_test.mean_tokens:.1f} tokens at "
        f"acc {full_test.accuracy:.3f} vs {ablated_test.mean_tokens:.1f} at "
        f"acc {ablated_test.accuracy:.3f})",
    )


# --- criterion: voting invariants ----------------------------------------------


def test_voting_invariants():
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    dv_le_sc = True
    cer_eq_sc = True
    for i in range(10_000):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(2, 6))
        paths = [
            SampledPath(
                question_id="v",
                sample_idx=j,
                answer=-1 if rng.random() < 0.05 else int(rng.integers(k)),
                token_cost=int(rng.integers(20, 500)),
                confidence=float(rng.uniform(0.1, 0.99)),
            )
            for j in range(n)
        ]
        dv = run_method(paths, "dv", budget=n)
        sc = run_method(paths, "sc", budget=n)
        if dv.tokens_used > sc.tokens_used:
            dv_le_sc = False
            break
        uniform = [
            SampledPath(p.question_id, p.sample_idx, p.answer, p.token_cost, 0.7)
            for p in paths
        ]
        if run_method(uniform, "cer", budget=n).answer != run_method(uniform, "sc", budget=n).answer:
            cer_eq_sc = False
            break
    elapsed = time.perf_counter() - t0
    report(
        "voting-invariants",
        dv_le_sc and cer_eq_sc,
        f"10,000 random streams: DV tokens <= SC tokens {dv_le_sc}, "
        f"uniform-confidence CER == SC {cer_eq_sc} ({elapsed:.1f}s)",
    )


# --- criterion: bootstrap sanity ------------------------------------------------


def _vec(ids, correct, tokens):
    return OutcomeVector(list(ids), np.array(correct, dtype=bool), np.array(tokens, dtype=np.int64))


def _exhaustive_sign_flip_p(diffs) -> float:
    observed = sum(diffs) / len(diffs)
    if observed == 0.0:
        return 1.0
    flips = 0
    total = 0
    for combo in itertools.product(range(len(diffs)), repeat=len(diffs)):
        mean = sum(diffs[i] for i in combo) / len(diffs)
        flips += 1 if np.sign(mean) != np.sign(observed) else 0
        total += 1
    return min(1.0, 2.0 * flips / total)


def test_bootstrap_sanity():
    ids = [f"q{i}" for i in range(100)]
    rng = np.random.default_rng(23)
    correct = rng.random(100) < 0.7
    tokens = rng.integers(100, 500, size=100)
    same = paired_bootstrap(_vec(ids, correct, tokens), _vec(ids, correct, tokens), seed=1)
    identical_ok = same.p_accuracy == 1.0 and same.p_tokens == 1.0

    dominant = paired_bootstrap(
        _vec(ids, np.ones(100, dtype=bool), tokens),
        _vec(ids, np.zeros(100, dtype=bool), tokens + 50),
        seed=2,
    )
    dominance_ok = dominant.p_accuracy < 0.05 and dominant.p_tokens < 0.05

    a3 = _vec(["x", "y", "z"], [True, False, True], [100, 120, 90])
    b3 = _vec(["x", "y", "z"], [False, False, True], [110, 100, 95])
    sampled = paired_bootstrap(a3, b3, resamples=2000, seed=5)
    exact_acc = _exhaustive_sign_flip_p([1.0, 0.0, 0.0])
    exact_tok = _exhaustive_sign_flip_p([-10.0, 20.0, -5.0])
    gap = max(abs(sampled.p_accuracy - exact_acc), abs(sampled.p_tokens - exact_tok))
    report(
        "bootstrap-sanity",
        identical_ok and dominance_ok and gap < 0.05,
        f"identical vectors p == 1.0 ({identical_ok}); per-question dominance at "
        f"n=100 p < 0.05 ({dominance_ok}); n=3 exhaustive oracle gap {gap:.3f} "
        f"at 2,000 resamples (< 0.05)",
    )


# --- criterion: CLI pipelines rerun byte-identically ----------------------------


def _run_cli_pipeline(base: Path) -> None:
    d, f, m, c, r = base / "d", base / "f", base / "m", base / "c", base / "r"
    steps = [
        ["synth", "--seed", "19", "--out", str(d), "--n-train", "48", "--n-val", "24",
         "--n-test", "32", "--samples", "5"],
        ["extract-features", "--in", str(d), "--out", str(f)],
        ["train", "--in", str(f), "--out", str(m), "--hidden", "8", "--heads", "2",
         "--max-epochs", "3", "--patience", "2", "--seed", "19"],
        ["calibrate", "--data", str(d), "--features", str(f),
         "--model", str(m / "model.ckpt"), "--out", str(c), "--budget", "5", "--seed", "19"],
        ["route", "--data", str(d), "--features", str(f), "--model", str(m / "model.ckpt"),
         "--selection", str(c / "selection.json"), "--out", str(r), "--budget", "5",
         "--seed", "19"],
        ["report", "--in", str(r), "--out", str(base / "rep"), "--resamples", "50",
         "--seed", "19"],
    ]
    for argv in steps:
        code = cli_main(argv)
        assert code == 0, f"{argv[0]} exited {code}"


def test_cli_determinism(tmp_path):
    base = tmp_path / "pipe"
    _run_cli_pipeline(base)
    files = sorted(p for p in base.rglob("*") if p.is_file())
    before = {p: p.read_bytes() for p in files}
    _run_cli_pipeline(base)
    diffs = []
    manifest_diffs = []
    for p in sorted(p for p in base.rglob("*") if p.is_file()):
        if p.name.endswith(".manifest.json"):
            old = json.loads(before[p])
            new = json.loads(p.read_bytes())
            old.pop("created_at"), new.pop("created_at")
            if old != new:
                manifest_diffs.append(str(p))
        elif before.get(p) != p.read_bytes():
            diffs.append(str(p))
    report(
        "cli-determinism",
        not diffs and not manifest_diffs and len(before) == len(files),
        f"6-stage pipeline rerun: {len(files)} files byte-identical "
        f"(manifest timestamps excluded); diffs={diffs or 'none'}",
    )
