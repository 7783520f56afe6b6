"""Synthetic corpus with a plantable trust signal.

Each question gets a greedy trajectory and a set of sampled paths. Whether
the greedy answer is correct is drawn at a fixed base rate (stratified, so
the realized rate is exact up to rounding at any seed). The signal knob beta
mixes two trajectory shapes:

  confident: top-choice probability climbs toward ~0.9, entropy falls,
             later sentences use certainty words;
  uncertain: probability oscillates around ~0.4 with high entropy and
             hedge-heavy sentences.

Correct answers draw the confident shape with probability 0.5 + 0.5*beta and
incorrect ones with probability 0.5 - 0.5*beta: at beta=0 the features carry
no label signal (held-out AUC of any detector is ~0.5), at beta=1 the shapes
separate the labels almost perfectly. Sampled paths agree with gold more
often on correct items, and the gap also widens with beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectory import McQuestion, Trajectory
from .voting import SampledPath

_MID_TEMPLATES = [
    "Step {t} compares the candidates near {v}.",
    "The intermediate value works out to {v}.",
    "Checking option {letter} against the given condition.",
    "From the prompt, the relevant quantity is {v}.",
    "Eliminating one candidate leaves fewer choices.",
    "Rewriting the expression gives {v} again.",
]

_HEDGE_WORDS = ["maybe", "perhaps", "possibly", "unclear", "roughly"]
_SURE_WORDS = ["clearly", "definitely", "certainly", "precisely"]

# token cost of every greedy and sampled path: max(20, round(normal(mean, sd)))
TOKENS_MEAN = 300.0
TOKENS_SD = 60.0


@dataclass(frozen=True)
class SynthConfig:
    n_questions: int
    seed: int = 0
    beta: float = 1.0
    num_choices: int = 4
    base_rate: float = 0.8
    t_min: int = 3
    t_max: int = 12
    samples_per_question: int = 10
    id_prefix: str = "q"

    def __post_init__(self):
        if self.n_questions < 1:
            raise ValueError("n_questions must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 < self.base_rate < 1.0:
            raise ValueError("base_rate must lie in (0, 1)")
        if self.num_choices < 2:
            raise ValueError("need at least 2 choices")
        if not 1 <= self.t_min <= self.t_max:
            raise ValueError("need 1 <= t_min <= t_max")
        if self.samples_per_question < 1:
            raise ValueError("samples_per_question must be positive")


def _p_series(rng: np.random.Generator, t: int, confident: bool, k: int) -> np.ndarray:
    idx = np.arange(1, t + 1, dtype=np.float64)
    if confident:
        p = 0.5 + 0.4 * idx / t + rng.normal(0.0, 0.03, size=t)
    else:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        p = 0.42 + 0.1 * np.sin(1.7 * idx + phase) + rng.normal(0.0, 0.05, size=t)
    return np.clip(p, 1.0 / k + 0.03, 0.97)


def _sentence_text(rng: np.random.Generator, t: int, t_total: int, confident: bool, letter: str) -> str:
    if t == t_total:
        if confident:
            return f"Therefore the answer is clearly option {letter}."
        return f"Possibly option {letter}, though it is unclear."
    tpl = _MID_TEMPLATES[int(rng.integers(len(_MID_TEMPLATES)))]
    text = tpl.format(t=t, v=round(float(rng.normal(5.0, 2.0)), 1), letter=letter)
    lever = rng.random()
    if not confident and lever < 0.6:
        text = f"{_HEDGE_WORDS[int(rng.integers(len(_HEDGE_WORDS)))].capitalize()}, " + text[0].lower() + text[1:]
    elif confident and lever < 0.3:
        text = f"{_SURE_WORDS[int(rng.integers(len(_SURE_WORDS)))].capitalize()}, " + text[0].lower() + text[1:]
    return text


def _token_cost(rng: np.random.Generator) -> int:
    return int(max(20.0, round(float(rng.normal(TOKENS_MEAN, TOKENS_SD)))))


def generate(
    cfg: SynthConfig,
) -> tuple[list[McQuestion], list[Trajectory], dict[str, list[SampledPath]]]:
    """Build the questions, greedy trajectories, and sampled-path archive.

    Deterministic per seed: labels come from a stratified shuffle on stream
    [seed, 0]; question i uses its own stream [seed, 1, i], so the content of
    one question never depends on how many others were generated before it.
    """
    n, k = cfg.n_questions, cfg.num_choices
    master = np.random.default_rng([cfg.seed, 0])
    n_correct = int(round(cfg.base_rate * n))
    labels = np.zeros(n, dtype=bool)
    labels[:n_correct] = True
    master.shuffle(labels)

    letters = [chr(ord("A") + j) for j in range(k)]
    questions: list[McQuestion] = []
    trajectories: list[Trajectory] = []
    paths_by_qid: dict[str, list[SampledPath]] = {}

    for i in range(n):
        rng = np.random.default_rng([cfg.seed, 1, i])
        qid = f"{cfg.id_prefix}{i:05d}"
        correct = bool(labels[i])
        gold = int(rng.integers(k))
        topic = round(float(rng.normal(10.0, 4.0)), 1)
        question = McQuestion(
            question_id=qid,
            question=f"Synthetic item {i}: which option matches the quantity {topic}?",
            options=[f"option {c}" for c in letters],
            gold_idx=gold,
        )

        if correct:
            greedy = gold
        else:
            greedy = int((gold + 1 + rng.integers(k - 1)) % k)
        p_confident = 0.5 + 0.5 * cfg.beta if correct else 0.5 - 0.5 * cfg.beta
        confident = bool(rng.random() < p_confident)

        t = int(rng.integers(cfg.t_min, cfg.t_max + 1))
        p_series = _p_series(rng, t, confident, k)
        texts = [
            _sentence_text(rng, s + 1, t, confident, letters[greedy]) for s in range(t)
        ]
        tops, shifts = [], []
        for _ in range(t):
            if confident:
                tops.append(greedy)
            else:
                tops.append(greedy if rng.random() < 0.6 else int(rng.integers(k)))
            shifts.append(rng.normal(0.0, 1.0))
        probs = np.repeat(((1.0 - p_series) / (k - 1))[:, None], k, axis=1)
        probs[np.arange(t), tops] = p_series
        log_scores = np.log(probs) + np.array(shifts)[:, None]
        traj = Trajectory(
            question_id=qid,
            texts=texts,
            log_scores=log_scores,
            greedy_answer=greedy,
            greedy_token_cost=_token_cost(rng),
            label=correct,
        )

        agree_p = 0.5 + 0.45 * cfg.beta if correct else 0.25 + 0.1 * cfg.beta
        paths = []
        for j in range(cfg.samples_per_question):
            agrees = bool(rng.random() < agree_p)
            if agrees:
                answer = gold
                conf = min(max(float(rng.normal(0.75, 0.10)), 0.05), 0.99)
            else:
                answer = int((gold + 1 + rng.integers(k - 1)) % k)
                conf = min(max(float(rng.normal(0.45, 0.15)), 0.05), 0.99)
            paths.append(
                SampledPath(
                    question_id=qid,
                    sample_idx=j,
                    answer=answer,
                    token_cost=_token_cost(rng),
                    confidence=conf,
                )
            )

        questions.append(question)
        trajectories.append(traj)
        paths_by_qid[qid] = paths

    return questions, trajectories, paths_by_qid
