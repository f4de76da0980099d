"""Monte Carlo estimation of attacker utility and of the distance itself.

Per-trial randomness comes from counter-based streams derived from a master
seed and the trial index, so results are bit-identical no matter how trials
are scheduled.  Stream 0 of a trial seed draws nature's realization, stream 1
feeds the random-mask baseline; the CLI uses the same derivations so any
reported row can be replayed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attacks import AttackProblem, AttackResult, solve
from .generators import theorem1_oracle_adversary
from .inference import check_norm, induced_posterior, objective_value, true_posterior
from .model import HIDE, DbnModel, Mask, check_integer

# A policy maps (problem, per-trial seed) to a mask; attack solvers are
# adapted via make_algorithm_policy and ignore the seed unless they sample.
Policy = Callable[[AttackProblem, object], "Mask | AttackResult"]


def derive_seed(master: int, *path: int) -> int:
    """Stable integer seed for a (master, path...) coordinate, all integers >= 0."""
    entropy = [check_integer(s, 0, "seed") for s in (master, *path)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def realization_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([check_integer(seed, 0, "seed"), 0])


def baseline_seed(seed: int) -> list[int]:
    return [check_integer(seed, 0, "seed"), 1]


def draw_realization(model: DbnModel, rng: np.random.Generator) -> tuple[int, ...]:
    return tuple((rng.random(model.n0) < model.priors_array).astype(int).tolist())


def make_algorithm_policy(name: str) -> Policy:
    def policy(problem: AttackProblem, seed) -> AttackResult:
        return solve(problem, name, seed=seed)

    return policy


def oracle_policy(problem: AttackProblem, seed) -> Mask:
    return theorem1_oracle_adversary(problem.model, problem.x0, problem.budget)


def empty_policy(problem: AttackProblem, seed) -> Mask:
    return Mask((), problem.action)


@dataclass(frozen=True)
class SimConfig:
    model: DbnModel
    policy: Policy
    budget: int
    p: object = 1
    action: str = HIDE
    target: tuple[float, ...] | None = None
    trials: int = 1000
    seed: int = 0
    keep_values: bool = False

    def __post_init__(self):
        check_integer(self.trials, 1, "trials")


@dataclass(frozen=True)
class SimReport:
    mean: float
    se: float
    trials: int
    wall_ms: int
    values: tuple[float, ...] | None = None

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "se": self.se, "trials": self.trials, "wall_ms": self.wall_ms}


def _summarize(values: list[float], wall_ms: int, keep: bool) -> SimReport:
    arr = np.asarray(values)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return SimReport(
        mean=float(arr.mean()),
        se=se,
        trials=arr.size,
        wall_ms=wall_ms,
        values=tuple(values) if keep else None,
    )


def run_expectation(config: SimConfig) -> SimReport:
    """Estimate the expected attacker utility over nature's draws.

    Each trial draws a realization from the priors, lets the policy pick a
    mask, and scores it with the exact objective.
    """
    start = time.perf_counter()
    values = []
    for t in range(config.trials):
        seed = derive_seed(config.seed, t)
        x0 = draw_realization(config.model, realization_rng(seed))
        problem = AttackProblem(
            config.model, x0, config.budget, config.p, config.action, config.target
        )
        picked = config.policy(problem, baseline_seed(seed))
        mask = picked.mask if isinstance(picked, AttackResult) else picked
        values.append(objective_value(config.model, x0, mask, config.p, config.target))
    wall_ms = int(round((time.perf_counter() - start) * 1000))
    return _summarize(values, wall_ms, config.keep_values)


def run_sampled_distance(
    model: DbnModel,
    x0: Sequence[int],
    mask: Mask,
    p,
    trials: int,
    seed: int,
    keep_values: bool = False,
) -> SimReport:
    """Estimate the expected Lp distance by sampling both posteriors.

    Draws independent stage-1 vectors from the true and induced marginals and
    averages the norm of their difference; the mean estimates the analytic
    distance.
    """
    p = check_norm(p)
    check_integer(trials, 1, "trials")
    seed = check_integer(seed, 0, "seed")
    start = time.perf_counter()
    q = true_posterior(model, x0)
    r = induced_posterior(model, x0, mask)
    values = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x1 = rng.random(model.n1) < q
        y1 = rng.random(model.n1) < r
        m = int(np.count_nonzero(x1 != y1))
        if p == np.inf:
            values.append(float(m > 0))
        else:
            values.append(m ** (1.0 / p) if m else 0.0)
    wall_ms = int(round((time.perf_counter() - start) * 1000))
    return _summarize(values, wall_ms, keep_values)
