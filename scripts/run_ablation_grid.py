#!/usr/bin/env python3
"""Train all four gating/attention ablation cells and tabulate the trade-off.

Every stage goes through the CLI, as in run_synth_pipeline.py, so each one
leaves a manifest: one synth into <out>/data and one extract-features into
<out>/features for the whole grid, then per cell a train, a calibrate on the
validation split and a calibrate on the test split under <out>/<cell>/. A
cell's row is the test split's profile at the threshold selected on the
validation split. Any argument other than --out and --seed is a synth flag,
given after QUICK_START so that it wins. The grid lands in ablation_grid.csv
with one row per cell.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from cotriage.cli import main as cli
from cotriage.features import read_features, read_labels
from cotriage.jsonl import write_csv
from cotriage.model import load_checkpoint
from cotriage.training import roc_auc, score_features

CELLS = [
    ("full", True, True),
    ("no-gate", False, True),
    ("no-attention", True, False),
    ("gru-only", False, False),
]

QUICK_START = ["--n-train", 2000, "--n-val", 500, "--n-test", 1000]


def run(argv) -> None:
    code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    args, synth_flags = ap.parse_known_args()

    out = Path(args.out)
    d, f = out / "data", out / "features"
    run(["synth", "--seed", args.seed, "--out", d, *QUICK_START, *synth_flags])
    run(["extract-features", "--in", d, "--out", f])
    test_seqs = read_features(f / "test.features.jsonl")
    labels = read_labels(f / "test.labels.jsonl")
    test_labels = [labels[seq.question_id] for seq in test_seqs]

    rows = []
    for name, gate, mhsa in CELLS:
        cell = out / name
        ablate = ["--no-feature-gate"] * (not gate) + ["--no-mhsa"] * (not mhsa)
        run(["train", "--in", f, "--out", cell, "--seed", args.seed, *ablate])
        for split in ("val", "test"):
            run(["calibrate", "--data", d, "--features", f, "--model", cell / "model.ckpt",
                 "--out", cell / split, "--split", split, "--seed", args.seed])
        best = json.loads((cell / "training_log.best.json").read_text())
        tau = json.loads((cell / "val" / "selection.json").read_text())["selected_tau"]
        test_pt = next(pt for pt in read_rows(cell / "test" / "profile.csv")
                       if float(pt["tau"]) == tau)
        accuracy = float(test_pt["accuracy"])
        mean_tokens = float(test_pt["mean_tokens"])
        scores = score_features(*load_checkpoint(cell / "model.ckpt"), test_seqs)
        rows.append({
            "variant": name,
            "feature_gate": int(gate),
            "attention": int(mhsa),
            "epochs": len(read_rows(cell / "training_log.csv")),
            "val_auc": round(best["best_val_auc"], 6),
            "test_auc": round(roc_auc(test_labels, scores), 6),
            "tau": tau,
            "test_accuracy": round(accuracy, 6),
            "test_mean_tokens": round(mean_tokens, 2),
            "test_token_reduction": round(float(test_pt["token_reduction"]), 6),
        })
        print(f"{name}: tau={tau} acc={accuracy:.4f} tokens={mean_tokens:.1f}")

    grid = out / "ablation_grid.csv"
    write_csv(grid, list(rows[0]), [list(row.values()) for row in rows])
    print(f"wrote {grid}")


if __name__ == "__main__":
    main()
