"""The three benchmark workloads and the checks on their outputs.

Each workload has a ``setup`` (inputs made from the seed, untimed by the
stage clocks) and an ``iterate`` that runs the timed stages once (one pass)
and returns an ``Iteration``; stage times are scaled to the reference speed
by a host-speed probe (``speed.py``) unless the pass is told not to probe.
``check`` reads the outputs of one pass, adds the problems it finds to it,
returns the quality figures and removes the pass's files.

* quickstart: the README quick start through ``cotriage.cli.main``.
* triage: a detector trained in setup routes a large fresh val/test split.
* harvest: ``harvest_dataset`` against the fake endpoint, cold then replayed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cotriage.cli as cli
import cotriage.harvest as harvest
from cotriage.model import load_checkpoint
from cotriage.features import read_features
from cotriage.trajectory import McQuestion
from cotriage.training import score_features

from fake_endpoint import FakeEndpoint, plant_generation, token_logprob
from speed import Probe

ROUTES = ("greedy", "multi", "policy")
ACCEPTANCE_SEED = 7  # the corpus seed of the acceptance gate


@dataclass
class Iteration:
    stage_s: dict[str, float] = field(default_factory=dict)  # scaled by the probe, else wall
    stage_wall_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values()) if self.stage_s else math.nan


class Stages:
    """Times each stage, under a speed probe if asked; when a tracer is given, opens a root span for it."""

    def __init__(self, it: Iteration, tracer=None, probe: bool = True):
        self.it = it
        self.tracer = tracer
        self.probe = probe

    @contextlib.contextmanager
    def stage(self, name: str):
        span = self.tracer.span(f"stage.{name}") if self.tracer else contextlib.nullcontext()
        probe = Probe() if self.probe else None
        t0 = time.perf_counter()
        with span, probe or contextlib.nullcontext():
            yield probe
        wall = time.perf_counter() - t0
        self.it.stage_wall_s[name] = wall
        self.it.stage_s[name] = probe.scaled_s if probe else wall

    def cli(self, name: str, *argv) -> bool:
        """One CLI stage in-process; stdout is kept off the benchmark's stdout."""
        self.it.attempted += 1
        with self.stage(name), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([name, *map(str, argv)])
        if code != 0:
            self.it.failed += 1
            self.it.problems.append(f"{name} exited with {code}")
        return code == 0


def run_setup_cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*map(str, argv)])
    if code != 0:
        raise RuntimeError(f"setup stage {argv[0]} exited with {code}")


# --- output checks shared by quickstart and triage ---------------------------------


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[1:]  # the first line is the schema header


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_routing(data: Path, features: Path, ckpt: Path, selection: Path, routed: Path,
                  report: Path, budget: int) -> tuple[list[str], dict]:
    """Check the test-split outcome files and report tables; return quality figures.

    Every outcome file covers each test id exactly once; greedy and multi rows
    agree with the trajectories and archived paths; the policy takes the greedy
    route exactly where the detector score reaches the selected threshold and
    then pays greedy tokens, otherwise it pays greedy plus multi tokens.
    """
    problems: list[str] = []
    trajs = {r["question_id"]: r for r in _records(data / "test.traj.jsonl")}
    gold = {r["id"]: r["answer_idx"] for r in _records(data / "test.questions.jsonl")}
    path_tokens: dict[str, list[int]] = {}
    for r in _records(data / "test.paths.jsonl"):
        path_tokens.setdefault(r["question_id"], []).append((r["sample_idx"], r["token_cost"]))
    ids = sorted(trajs)
    out = {}
    for route in ROUTES:
        rows = _records(routed / f"outcomes.{route}.jsonl")
        got = [r["question_id"] for r in rows]
        if sorted(got) != ids:
            problems.append(f"outcomes.{route} does not cover each test id exactly once")
            return problems, {}
        out[route] = {r["question_id"]: (bool(r["correct"]), int(r["tokens"])) for r in rows}

    tau = float(json.loads(selection.read_text())["selected_tau"])
    params, mcfg = load_checkpoint(ckpt)
    seqs = {s.question_id: s for s in read_features(features / "test.features.jsonl")}
    scores = score_features(params, mcfg, [seqs[q] for q in ids])
    labels = np.array([bool(trajs[q]["label"]) for q in ids])

    bad = 0
    for qid, score in zip(ids, scores):
        t = trajs[qid]
        greedy = (t["greedy_answer"] == gold[qid], t["greedy_token_cost"])
        multi_tokens = sum(c for _, c in sorted(path_tokens[qid])[:budget])
        if out["greedy"][qid] != greedy or out["multi"][qid][1] != multi_tokens:
            bad += 1
            continue
        if abs(score - tau) < 1e-9:
            continue  # too close to the threshold to call from a rescoring
        multi = out["multi"][qid]
        want = greedy if score >= tau else (multi[0], multi[1] + greedy[1])
        bad += out["policy"][qid] != want
    if bad:
        problems.append(f"{bad} of {len(ids)} test items routed or costed wrongly")

    n = len(ids)
    acc = {r: sum(c for c, _ in out[r].values()) / n for r in ROUTES}
    mean_tokens = {r: sum(t for _, t in out[r].values()) / n for r in ROUTES}
    summary = [line for line in (report / "summary.csv").read_text().splitlines()[2:] if line]
    for line in summary:
        name, rows, accuracy = line.split(",")[:3]
        if name in acc and (int(rows) != n or abs(float(accuracy) - acc[name]) > 1e-12):
            problems.append(f"summary.csv row {name} disagrees with its outcome file")
    if sorted(line.split(",")[0] for line in summary) != sorted(ROUTES):
        problems.append("summary.csv does not list exactly the greedy, multi and policy routes")
    quality = {
        "test_auc": roc_auc(labels, scores),
        "token_reduction": 1.0 - mean_tokens["policy"] / mean_tokens["multi"],
        "rel_acc_drop": (acc["multi"] - acc["policy"]) / acc["multi"],
        "policy_accuracy": acc["policy"],
    }
    return problems, quality


# --- quickstart ---------------------------------------------------------------------


class Quickstart:
    """README quick start: synth 2000/500/1000 at beta=1 through report."""

    focus = "train"
    setup_repeats = 3
    sizes = (2000, 500, 1000)
    epochs = 2
    budget = 10

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        pass

    def iterate(self, i: int, tracer=None, probe: bool = True) -> Iteration:
        it = Iteration()
        st = Stages(it, tracer, probe)
        r = self.work / f"qs{i}"
        d, f, m, c, o = r / "data", r / "features", r / "model", r / "calib", r / "routed"
        n_train, n_val, n_test = self.sizes
        ckpt = m / "model.ckpt"
        ok = (
            st.cli("synth", "--seed", self.seed, "--out", d, "--beta", 1.0, "--n-train", n_train,
                   "--n-val", n_val, "--n-test", n_test)
            and st.cli("extract-features", "--in", d, "--out", f)
            and st.cli("train", "--in", f, "--out", m, "--seed", self.seed,
                       "--max-epochs", self.epochs, "--patience", self.epochs)
            and st.cli("calibrate", "--data", d, "--features", f, "--model", ckpt, "--out", c,
                       "--budget", self.budget, "--seed", self.seed)
            and st.cli("route", "--data", d, "--features", f, "--model", ckpt,
                       "--selection", c / "selection.json", "--out", o, "--budget", self.budget,
                       "--seed", self.seed)
            and st.cli("report", "--in", o, "--out", r / "report", "--seed", self.seed)
        )
        it.info["root"] = r
        it.info["complete"] = ok
        return it

    def check(self, it: Iteration) -> dict:
        r = it.info["root"]
        quality = {}
        if it.info["complete"]:
            problems, quality = check_routing(
                r / "data", r / "features", r / "model" / "model.ckpt", r / "calib" / "selection.json",
                r / "routed", r / "report", self.budget,
            )
            it.problems += problems
            # the acceptance-gate thresholds, on the test split as the gate in
            # tests/test_acceptance.py measures them; the 0.5% accuracy drop
            # is gated on the gate's own corpus seed and reported at the others
            if quality:
                drop_ok = quality["rel_acc_drop"] <= 0.005 or self.seed != ACCEPTANCE_SEED
                if not (quality["test_auc"] >= 0.9 and quality["token_reduction"] >= 0.30 and drop_ok):
                    it.problems.append(f"acceptance gate missed: {quality}")
        shutil.rmtree(r, ignore_errors=True)
        return quality

    def report(self, its: list[Iteration], quality: list[dict]) -> dict:
        return {
            "pipeline_s": (pipeline_median(its), "s"),
            "train_s": (stage_median(its, "train"), "s"),
            "test_auc": (median(q.get("test_auc", math.nan) for q in quality), "ratio"),
            "token_reduction": (median(q.get("token_reduction", math.nan) for q in quality), "ratio"),
            "rel_acc_drop": (median(q.get("rel_acc_drop", math.nan) for q in quality), "ratio"),
        }

    def quality(self, q: dict) -> float:
        return q.get("token_reduction", math.nan)


# --- triage -------------------------------------------------------------------------


class Triage:
    """A trained detector triages a large fresh val/test split at beta=0.75."""

    focus = "route"
    setup_repeats = 1
    beta = 0.75
    train_sizes = (1000, 500)
    fresh_sizes = (1000, 2000)
    epochs = 4
    lr = 3e-3  # 2 epochs left the detector under-trained at 1 seed in 6 tried; 4 did not
    budget = 10

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.ckpt = work / "setup" / "model" / "model.ckpt"
        self.fresh = work / "setup" / "fresh"

    def setup(self) -> None:
        s = self.work / "setup"
        shutil.rmtree(s, ignore_errors=True)
        n_train, n_val = self.train_sizes
        run_setup_cli("synth", "--seed", self.seed, "--out", s / "data", "--beta", self.beta,
                      "--n-train", n_train, "--n-val", n_val, "--n-test", 0)
        run_setup_cli("extract-features", "--in", s / "data", "--out", s / "features")
        run_setup_cli("train", "--in", s / "features", "--out", s / "model", "--seed", self.seed,
                      "--max-epochs", self.epochs, "--patience", self.epochs, "--lr", self.lr)
        n_val, n_test = self.fresh_sizes
        run_setup_cli("synth", "--seed", self.seed + 1000, "--out", self.fresh, "--beta", self.beta,
                      "--n-train", 0, "--n-val", n_val, "--n-test", n_test)

    def iterate(self, i: int, tracer=None, probe: bool = True) -> Iteration:
        it = Iteration()
        st = Stages(it, tracer, probe)
        r = self.work / f"tr{i}"
        f, c, o = r / "features", r / "calib", r / "routed"
        ok = (
            st.cli("extract-features", "--in", self.fresh, "--out", f)
            and st.cli("calibrate", "--data", self.fresh, "--features", f, "--model", self.ckpt,
                       "--out", c, "--budget", self.budget, "--seed", self.seed)
            and st.cli("route", "--data", self.fresh, "--features", f, "--model", self.ckpt,
                       "--selection", c / "selection.json", "--out", o, "--budget", self.budget,
                       "--seed", self.seed)
            and st.cli("report", "--in", o, "--out", r / "report", "--seed", self.seed)
        )
        it.info["root"] = r
        it.info["complete"] = ok
        return it

    def check(self, it: Iteration) -> dict:
        r = it.info["root"]
        quality = {}
        if it.info["complete"]:
            problems, quality = check_routing(
                self.fresh, r / "features", self.ckpt, r / "calib" / "selection.json",
                r / "routed", r / "report", self.budget,
            )
            it.problems += problems
        shutil.rmtree(r, ignore_errors=True)
        return quality

    def report(self, its: list[Iteration], quality: list[dict]) -> dict:
        n = sum(self.fresh_sizes)
        return {
            "triage_qps": (n / pipeline_median(its), "1/s"),
            "route_qps": (self.fresh_sizes[1] / stage_median(its, "route"), "1/s"),
            "test_auc": (median(q.get("test_auc", math.nan) for q in quality), "ratio"),
            "token_reduction": (median(q.get("token_reduction", math.nan) for q in quality), "ratio"),
        }

    def quality(self, q: dict) -> float:
        return q.get("test_auc", math.nan)


# --- harvest ------------------------------------------------------------------------


def make_questions(seed: int, n: int) -> list[McQuestion]:
    """Questions whose planted greedy reasoning is 3, 4, ..., 12, 3, ... sentences long.

    The fake's sampled paths of one question already cover every length once,
    so with these lengths every seed costs the same number of requests.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n):
        a, b = rng.randint(2, 99), rng.randint(2, 99)
        rule = rng.choice(["sum", "difference", "product", "larger value"])
        values = rng.sample(range(1, 400), 4)
        for variant in range(1000):
            text = f"Item {i} of set {seed}, form {variant}: what is the {rule} of {a} and {b}?"
            if len(plant_generation(text, 4, 0.0, 0).sentences) == 3 + i % 10:
                break
        out.append(McQuestion(
            question_id=f"h{seed}-{i:04d}",
            question=text,
            options=[f"the value {v}" for v in values],
            gold_idx=rng.randrange(4),
        ))
    return out


class Harvest:
    """Cold harvest against the fake endpoint, then replays from the warm cache."""

    focus = "replay"
    setup_repeats = 3
    n_questions = 10
    replays = 5
    n_samples = 10
    # one request at a time: with two, the GIL handoffs between client and
    # server threads made the cold pass's time spread three times wider
    max_in_flight = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.questions = make_questions(seed, self.n_questions)
        self.endpoint: FakeEndpoint | None = None

    def __enter__(self):
        self.endpoint = FakeEndpoint().__enter__()
        return self

    def __exit__(self, *exc):
        self.endpoint.__exit__(*exc)

    def client(self, cache: Path):
        cfg = harvest.EndpointConfig(
            base_url=self.endpoint.base_url, model="fake-model", timeout=30.0, max_retries=3,
            backoff=0.002, max_in_flight=self.max_in_flight, cache_dir=str(cache),
        )
        return harvest.EndpointClient(cfg)

    def _pass(self, it: Iteration, name: str, client, out: Path, questions) -> None:
        done, failed = harvest.harvest_dataset(
            questions, client, out / "train.traj.jsonl", out / "train.paths.jsonl",
            n_samples=self.n_samples, temperature=1.0,
        )
        it.attempted += len(questions)
        it.failed += failed
        if done + failed != len(questions):
            it.problems.append(f"{name}: harvested {done} + failed {failed} != {len(questions)} attempted")

    def setup(self) -> None:
        """Warm the code paths and the connection handling on two questions."""
        warm = self.work / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        self.endpoint.reset()
        self._pass(Iteration(), "warm", self.client(warm / "cache"), warm / "out",
                   make_questions(self.seed + 1, 2))
        shutil.rmtree(warm, ignore_errors=True)

    def iterate(self, i: int, tracer=None, probe: bool = True) -> Iteration:
        it = Iteration()
        st = Stages(it, tracer, probe)
        r = self.work / f"hv{i}"
        e = self.endpoint
        e.reset()
        client = self.client(r / "cache")
        with st.stage("cold") as p:
            self._pass(it, "cold", client, r / "cold", self.questions)
            if p:  # one request in flight, so the service times add to the wall time
                p.waited_s = e.service_s
        it.info.update(requests=e.requests, errors=e.errors, prompt_chars=e.prompt_chars,
                       busy_s=e.busy_s, inflight_max=e.inflight_max, root=r)
        # the replays are timed as one stage, so that the probe sees enough of
        # them; the stage's time is per replay
        e.reset()
        clients = [self.client(r / "cache") for _ in range(self.replays)]
        with st.stage("replay"):
            for k, client in enumerate(clients):
                self._pass(it, f"replay{k}", client, r / f"replay{k}", self.questions)
        for times in (it.stage_s, it.stage_wall_s):
            times["replay"] /= self.replays
        if e.requests:
            it.problems.append(f"the replays sent {e.requests} requests despite a warm cache")
        it.info["cache_hits"] = statistics.median(getattr(c, "cache_hits", math.nan) for c in clients)
        return it

    def check(self, it: Iteration) -> dict:
        r = it.info["root"]
        cold = r / "cold"
        for k in range(self.replays):
            for name in ("train.traj.jsonl", "train.paths.jsonl"):
                if (cold / name).read_bytes() != (r / f"replay{k}" / name).read_bytes():
                    it.problems.append(f"replay {k} {name} differs from the cold pass")
        matched, checked = self.check_planted(cold)
        if matched != checked:
            it.problems.append(f"{checked - matched} of {checked} harvested records differ from the planted ones")
        shutil.rmtree(r, ignore_errors=True)
        return {"planted_match": matched / checked if checked else math.nan}

    def check_planted(self, out: Path) -> tuple[int, int]:
        """Compare every sentence and path against what the fake endpoint planted."""
        template = harvest.TEMPLATES["mc-cot/1"]
        qs = {q.question_id: q for q in self.questions}
        k = 4

        def log_scores(q, sentences):
            context = template.scoring_context(q, sentences)
            return [token_logprob(context, template.answer_continuation(i)) for i in range(k)]

        matched = checked = 0
        trajs = _records(out / "train.traj.jsonl")
        for t in trajs:
            q = qs[t["question_id"]]
            gen = plant_generation(q.question, k, 0.0, 0)
            ok = (
                [s["text"] for s in t["sentences"]] == gen.sentences
                and t["greedy_answer"] == gen.answer
                and t["greedy_token_cost"] == gen.completion_tokens
                and t.get("label") == (gen.answer == q.gold_idx)
            )
            checked += 1
            matched += ok
            for s, rec in enumerate(t["sentences"], start=1):
                checked += 1
                matched += ok and np.allclose(rec["log_scores"], log_scores(q, gen.sentences[:s]),
                                              rtol=0, atol=1e-12)
        for p in _records(out / "train.paths.jsonl"):
            q = qs[p["question_id"]]
            gen = plant_generation(q.question, k, 1.0, p["sample_idx"])
            ls = np.array(log_scores(q, gen.sentences))
            probs = np.exp(ls - ls.max())
            probs /= probs.sum()
            checked += 1
            matched += (
                p["answer"] == gen.answer
                and p["token_cost"] == gen.completion_tokens
                and abs(p["confidence"] - min(max(float(probs[gen.answer]), 1e-6), 1.0)) < 1e-9
            )
        if len(trajs) != len(self.questions):
            checked += len(self.questions) - len(trajs)
        return matched, checked

    def report(self, its: list[Iteration], quality: list[dict]) -> dict:
        n = self.n_questions
        return {
            "harvest_qps": (n / stage_median(its, "cold"), "1/s"),
            "replay_qps": (n / stage_median(its, "replay"), "1/s"),
        }

    def quality(self, q: dict) -> float:
        return q.get("planted_match", math.nan)


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def stage_median(its: list[Iteration], stage: str, wall: bool = False) -> float:
    """The stage's median time over the passes of a run: scaled, or wall time if asked."""
    return median((it.stage_wall_s if wall else it.stage_s).get(stage, math.nan) for it in its)


def pipeline_median(its: list[Iteration], wall: bool = False) -> float:
    """Sum over the stages of each stage's median time."""
    stages = {name for it in its for name in it.stage_s}
    return sum(stage_median(its, name, wall) for name in stages) if stages else math.nan
