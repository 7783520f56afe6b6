#!/usr/bin/env python3
"""Run the whole synthetic pipeline into one directory tree.

Generates the planted-signal dataset, extracts features, trains the detector,
calibrates the acceptance threshold on the validation split, routes the test
split at the selected threshold, and writes the report tables. Every stage
goes through the CLI so each one leaves a manifest and can be re-run alone.
"""

import argparse
import sys
from pathlib import Path

from cotriage.cli import main as cli
from cotriage.voting import METHODS


def run(argv) -> None:
    code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="output directory tree")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-val", type=int, default=500)
    ap.add_argument("--n-test", type=int, default=1000)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--method", default="sc", choices=METHODS)
    args = ap.parse_args()

    root = Path(args.root)
    d, f, m, c, r = root / "data", root / "features", root / "model", root / "calib", root / "routed"

    run(["synth", "--seed", args.seed, "--out", d, "--beta", args.beta,
         "--n-train", args.n_train, "--n-val", args.n_val, "--n-test", args.n_test,
         "--samples", args.samples])
    run(["extract-features", "--in", d, "--out", f])
    run(["train", "--in", f, "--out", m, "--seed", args.seed])
    run(["calibrate", "--data", d, "--features", f, "--model", m / "model.ckpt",
         "--out", c, "--method", args.method, "--budget", args.samples, "--seed", args.seed])
    run(["route", "--data", d, "--features", f, "--model", m / "model.ckpt",
         "--selection", c / "selection.json", "--out", r, "--method", args.method,
         "--budget", args.samples, "--seed", args.seed])
    run(["report", "--in", r, "--out", root / "report", "--seed", args.seed])
    print(f"done; report tables under {root / 'report'}")


if __name__ == "__main__":
    main()
