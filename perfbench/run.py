#!/usr/bin/env python3
"""cotriage benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload quickstart|triage|harvest \
        --seed N --seconds S --trace 0|1

The program is imported from ./src, so no install step is needed. The run
sets the workload up, then repeats the workload's timed stages while another
pass still fits in --seconds (at least one pass), checks every pass's outputs
and prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, times scaled to a reference speed by a host-speed probe (speed.py);
with --trace 1 the run makes an untraced, a traced and another untraced pass,
all unprobed, and the metrics are the per-layer ones. Earlier stdout lines
hold the environment, the workload's own figures and, when tracing, the
per-stage self times.
Scratch files go under ./.perfbench_work and are removed at the end.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("quickstart", "triage", "harvest")
BLAS_THREADS = "1"
IMPORT_REPEATS = 10


def fix_environment() -> None:
    """One vCPU, fixed BLAS threading (before numpy is first imported) and no proxy for 127.0.0.1.

    On one vCPU the speed probe samples the vCPU the program runs on, and
    the harvest client and the fake endpoint hand requests to each other
    without waking an idle vCPU, which on a shared host takes a random while.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    for var in [v for v in os.environ if v.lower() in ("http_proxy", "https_proxy", "all_proxy")]:
        del os.environ[var]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the paths and bytes of every file under src/cotriage."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cotriage").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(load_at_start, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "loadavg_at_start": list(load_at_start),
    }


def import_seconds() -> tuple[float, float]:
    """Wall and scaled time of a fresh interpreter that imports the CLI module.

    The interpreter probes its own speed during the import and prints the
    inverse slowdown, which scales the whole wall time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls with sleeps of up to 50 ms and the time comes out in 50 ms steps
    out = subprocess.run([sys.executable, str(HERE / "speed.py"), "cotriage.cli"], env=env,
                         check=True, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    return wall, wall * float(out.stdout.split()[-1])


def _finite(v):
    if isinstance(v, float) and v != v:
        return None  # NaN: a figure that could not be measured
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def emit(**doc) -> None:
    print(json.dumps(_finite(doc), sort_keys=True, default=str), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=json.loads(SPEC.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    load_at_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    fix_environment()

    if not (SRC / "cotriage" / "cli.py").is_file():
        print(f"error: no cotriage sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl  # imports cotriage, so only after src is on the path

    emit(environment=environment(load_at_start, nproc), workload=args.workload, seed=args.seed,
         seconds=args.seconds, trace=args.trace)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "harvest":
            with wl.Harvest(args.seed, work) as workload:
                return measure(workload, args)
        workload = (wl.Quickstart if args.workload == "quickstart" else wl.Triage)(args.seed, work)
        return measure(workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def measure(workload, args) -> int:
    import workloads as wl
    from speed import Probe

    # set-up: a fresh interpreter importing the CLI, plus the workload's own preparation;
    # each scaled and the median of its repeats
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    prep = []
    for _ in range(workload.setup_repeats):
        with Probe() as probe:
            workload.setup()
        prep.append((probe.wall_s, probe.scaled_s))
    setup_s = statistics.median(s for _, s in imports) + statistics.median(s for _, s in prep)

    if args.trace:
        return measure_traced(workload, args)

    its, quality = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        it, q = run_pass(workload, len(its))
        its.append(it)
        quality.append(q)
        took = time.perf_counter() - t0
        if it.info.get("raised") or time.perf_counter() - t_start + took > args.seconds:
            break

    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    problems = [p for it in its for p in it.problems]
    report = workload.report(its, quality)
    report.update(
        failed_frac=(failed / attempted, "ratio"),
        setup_s=(setup_s, "s"),
        peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    )
    stages = sorted({name for it in its for name in it.stage_s})
    emit(report={k: {"value": v, "unit": u} for k, (v, u) in report.items()}, passes=len(its),
         stage_s={name: wl.stage_median(its, name) for name in stages},
         stage_wall_s={name: wl.stage_median(its, name, wall=True) for name in stages},
         setup={"import_wall_scaled_s": imports, "prepare_wall_scaled_s": prep}, problems=problems)
    metrics = {
        "pipeline_s": (wl.pipeline_median(its), "s"),
        "focus_s": (wl.stage_median(its, workload.focus), "s"),
        "quality": (wl.median(workload.quality(q) for q in quality), "ratio"),
        "success_frac": (1.0 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return finish(metrics, attempted, failed, problems)


def measure_traced(workload, args) -> int:
    import layers
    import workloads as wl
    from spans import Tracer

    # untraced, traced, untraced: the traced pass is compared with the mean of
    # its neighbours, so warm-up in the first pass does not hide the overhead
    before, _ = run_pass(workload, 0, probe=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_pass(workload, 1, tracer, checked=False, probe=False)
    finally:
        tracer.uninstall()
    check_pass(workload, traced)
    after, _ = run_pass(workload, 2, probe=False)
    try:
        micro = layers.model_block_ms()
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"model block timings missing: {exc!r}", file=sys.stderr)
        micro = None
    counts = dict(traced.info)
    if isinstance(workload, wl.Harvest):
        counts["questions"] = workload.n_questions
    untraced_s = (before.wall_s + after.wall_s) / 2.0
    metrics, missing = layers.layer_metrics(tracer, counts, micro, traced.wall_s - untraced_s)
    missing += sorted(tracer.missing)
    emit(stages=tracer.stage_breakdown(), traced_s=traced.stage_s,
         untraced_s=[before.stage_s, after.stage_s], spans=len(tracer.spans))
    if missing:
        print(f"missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
    emit(missing=missing)
    its = (before, traced, after)
    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    return finish(metrics, attempted, failed, [p for it in its for p in it.problems])


def run_pass(workload, i: int, tracer=None, checked: bool = True, probe: bool = True):
    """One pass and, unless told otherwise, its checks; an exception fails the pass, not the run."""
    import workloads as wl

    try:
        it = workload.iterate(i, tracer, probe)
    except Exception as exc:  # the program under test may raise anything: report, then stop passing
        traceback.print_exc()
        return wl.Iteration(attempted=1, failed=1, problems=[f"pass {i} raised {exc!r}"],
                            info={"raised": True}), {}
    return it, (check_pass(workload, it) if checked else {})


def check_pass(workload, it) -> dict:
    try:
        return workload.check(it)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        it.problems.append(f"outputs could not be checked: {exc!r}")
        return {}


def finish(metrics: dict, attempted: int, failed: int, problems: list[str]) -> int:
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    emit(correct=not problems, attempted=attempted, failed=failed,
         metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
