#!/usr/bin/env python3
"""Train all four gating/attention ablation cells and tabulate the trade-off.

Each variant is trained on the same synthetic splits, calibrated on the
validation split, and deployed on the test split at its own selected
threshold. The grid lands in ablation_grid.csv with one row per cell.
"""

import argparse
from pathlib import Path

import numpy as np

from cotriage.calibration import select_threshold, simulate_at_tau, sweep
from cotriage.evaluation import build_calibration_items
from cotriage.features import assemble, linguistic_features, numeric_features
from cotriage.jsonl import write_csv
from cotriage.model import ModelConfig
from cotriage.synth import SynthConfig, generate
from cotriage.training import TrainConfig, roc_auc, score_features, train

CELLS = [
    ("full", True, True),
    ("no-gate", False, True),
    ("no-attention", True, False),
    ("gru-only", False, False),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-val", type=int, default=500)
    ap.add_argument("--n-test", type=int, default=1000)
    ap.add_argument("--budget", type=int, default=10)
    args = ap.parse_args()

    data = {}
    sizes = [("train", args.n_train), ("val", args.n_val), ("test", args.n_test)]
    for i, (split, n) in enumerate(sizes):
        cfg = SynthConfig(n_questions=n, seed=args.seed + i, beta=args.beta,
                          id_prefix=f"{split}-")
        data[split] = generate(cfg)

    feats = {}
    for split, (questions, trajectories, _) in data.items():
        qmap = {q.question_id: q for q in questions}
        ordered = [qmap[t.question_id] for t in trajectories]
        linguistic = linguistic_features([t.texts for t in trajectories], ordered)
        blocks = zip(numeric_features(trajectories), linguistic)
        seqs = [assemble(t, "full", q, *b) for t, q, b in zip(trajectories, ordered, blocks)]
        feats[split] = (seqs, [bool(t.label) for t in trajectories])

    rows = []
    for name, gate, mhsa in CELLS:
        mcfg = ModelConfig(input_dim=feats["train"][0][0].x.shape[1],
                           use_feature_gate=gate, use_mhsa=mhsa)
        result = train(*feats["train"], *feats["val"], mcfg, TrainConfig(seed=args.seed))

        points = {}
        for split in ("val", "test"):
            questions, trajectories, paths_by_qid = data[split]
            qmap = {q.question_id: q for q in questions}
            scores = score_features(result.params, mcfg, feats[split][0])
            points[split] = (
                build_calibration_items(trajectories, scores, paths_by_qid, qmap,
                                        method="sc", budget=args.budget),
                roc_auc(np.array(feats[split][1]), scores),
            )
        profile = sweep(points["val"][0])
        tau = select_threshold(profile)
        test_pt = simulate_at_tau(points["test"][0], tau)
        rows.append({
            "variant": name,
            "feature_gate": int(gate),
            "attention": int(mhsa),
            "epochs": len(result.log),
            "val_auc": round(points["val"][1], 6),
            "test_auc": round(points["test"][1], 6),
            "tau": tau,
            "test_accuracy": round(test_pt.accuracy, 6),
            "test_mean_tokens": round(test_pt.mean_tokens, 2),
            "test_token_reduction": round(test_pt.token_reduction, 6),
        })
        print(f"{name}: tau={tau} acc={test_pt.accuracy:.4f} "
              f"tokens={test_pt.mean_tokens:.1f}")

    grid = Path(args.out) / "ablation_grid.csv"
    write_csv(grid, list(rows[0]), [list(row.values()) for row in rows])
    print(f"wrote {grid}")


if __name__ == "__main__":
    main()
