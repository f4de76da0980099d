"""Mask-selection algorithms for the hiding and flipping attacker.

Provided solvers:

* :func:`brute_force_attack` -- exhaustive search over all masks of size <= k;
  the reference optimum for everything else.
* :func:`approx_attack` -- per-node greedy for monotone additive transitions;
  its best mask is within a factor 1/n1 of the optimum for every norm.
* :func:`heuristic_attack` -- plain hill climbing on the objective.
* :func:`combined_attack` -- the better of the two above.
* :func:`linear_exact_attack` / :func:`flip_linear_exact_attack` -- optimal
  top-k selection of the :func:`linear_gains` for linear transitions at
  p = 1, where the objective is additive across chosen indices.
* :func:`flip_approx_attack` -- the flipping analogue of the per-node greedy.
* :func:`random_mask_baseline` -- seeded uniform mask, the experiment control.

Every solver returns an :class:`AttackResult` whose ``value`` equals the
objective of the returned mask and whose mask size never exceeds the budget.
Ties are always broken toward smaller indices (and lexicographically smaller
masks in the brute-force search) so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

# induced_posterior is not called here, but stays importable from this module
# by name: perfbench/selftest.py checks that the tracer patches it here.
from .inference import Evaluator, check_norm, induced_posterior, true_posterior
from .model import (
    ADDITIVE,
    FLIP,
    HIDE,
    LINEAR,
    DbnModel,
    Mask,
    ValidationError,
    check_realization,
)

BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class AttackProblem:
    """One attack instance: model, realization, budget, norm, mode, action."""

    model: DbnModel
    x0: tuple[int, ...]
    budget: int
    p: object = 1
    action: str = HIDE
    target: tuple[float, ...] | None = None

    def __init__(self, model, x0, budget, p=1, action=HIDE, target=None):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "x0", check_realization(model, x0))
        if budget < 0:
            raise ValidationError("spec_invalid", f"budget must be nonnegative: {budget}")
        object.__setattr__(self, "budget", min(int(budget), model.n0))
        object.__setattr__(self, "p", check_norm(p))
        if action not in (HIDE, FLIP):
            raise ValidationError("wrong_action", f"unknown action {action!r}")
        object.__setattr__(self, "action", action)
        if target is not None:
            target = tuple(float(t) for t in target)
            if len(target) != model.n1:
                raise ValidationError(
                    "length_mismatch",
                    f"target has length {len(target)}, expected {model.n1}",
                )
        object.__setattr__(self, "target", target)

    def evaluator(self) -> Evaluator:
        """A fresh call-counting objective for this problem's masks."""
        return Evaluator(self.model, self.x0, self.p, self.action, self.target)


@dataclass(frozen=True)
class AttackResult:
    mask: Mask
    value: float
    algorithm: str
    evaluations: int


def brute_force_attack(problem: AttackProblem) -> AttackResult:
    """Exhaustively search every mask of size <= budget.

    The objective is not monotone in the mask (hiding can reduce distance),
    so all sizes are tried, not just the full budget.  Value ties go to the
    lexicographically smallest index tuple.  Refuses instances with more than
    ``BRUTE_FORCE_LIMIT`` candidate masks.
    """
    n0, k = problem.model.n0, problem.budget
    count = sum(math.comb(n0, m) for m in range(k + 1))
    if count > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            "instance_too_large",
            f"{count} candidate masks exceeds the brute-force limit of {BRUTE_FORCE_LIMIT}",
        )
    evaluate = problem.evaluator()
    best_set: tuple[int, ...] = ()
    best_value = evaluate(())
    for m in range(1, k + 1):
        for cand in combinations(range(n0), m):
            value = evaluate(cand)
            if value > best_value or (value == best_value and cand < best_set):
                best_value, best_set = value, cand
    return AttackResult(
        Mask(best_set, problem.action), best_value, "brute_force", evaluate.calls
    )


def _require(problem: AttackProblem, action: str, caller: str) -> None:
    if problem.action != action:
        raise ValidationError(
            "wrong_action", f"{caller} requires action={action!r}, got {problem.action!r}"
        )


def approx_attack(problem: AttackProblem) -> AttackResult:
    """Per-node greedy hiding for monotone additive transitions.

    For each stage-1 node, pick the parent pool that pushes the node's belief
    toward the far extreme (realized-0 parents to raise it, realized-1 parents
    to lower it, mirrored for decreasing tables), hide greedily by prior until
    the budget or pool runs out, and keep the best mask ever evaluated.  The
    best single node accounts for at least 1/n1 of the optimal value, which is
    what makes this an n-approximation.
    """
    _require(problem, HIDE, "approx_attack")
    model, bits, k = problem.model, problem.x0, problem.budget
    directions = []
    for i, node in enumerate(model.nodes):
        direction = node.transition.monotone_direction() if node.transition.kind == ADDITIVE else None
        if direction is None:
            raise ValidationError(
                "non_monotone_transition",
                f"node {i}: approx_attack needs a monotone additive transition",
                node=i,
            )
        directions.append(direction)
    evaluate = problem.evaluator()
    best_set: tuple[int, ...] = ()
    best_value = evaluate(())
    for node, direction in zip(model.nodes, directions):
        q = node.transition.values[sum(bits[j] for j in node.parents)]
        increasing = direction == "increasing"
        # Raise the belief when it sits below 1/2, lower it otherwise; which
        # realized outcome to hide follows from the table's direction.
        hide_zeros = (q < 0.5) == increasing
        pool = [j for j in node.parents if bits[j] == (0 if hide_zeros else 1)]
        if hide_zeros:
            pool.sort(key=lambda j: (-model.priors[j], j))
        else:
            pool.sort(key=lambda j: (model.priors[j], j))
        chosen: list[int] = []
        for j in pool[:k]:
            chosen.append(j)
            value = evaluate(chosen)
            if value > best_value:
                best_value, best_set = value, tuple(sorted(chosen))
    return AttackResult(Mask(best_set, HIDE), best_value, "approx", evaluate.calls)


def heuristic_attack(problem: AttackProblem) -> AttackResult:
    """Hill climbing: repeatedly add the index with the largest objective gain.

    The climb continues for the full budget even through value-decreasing
    steps, but the best prefix seen is what gets returned, so the result never
    degrades as the budget grows.
    """
    evaluate = problem.evaluator()
    n0, k = problem.model.n0, problem.budget
    current: list[int] = []
    best_set: tuple[int, ...] = ()
    best_value = evaluate(())
    for _ in range(k):
        step_best = -math.inf
        step_idx = -1
        for j in range(n0):
            if j in current:
                continue
            value = evaluate(sorted(current + [j]))
            if value > step_best:
                step_best, step_idx = value, j
        if step_idx < 0:
            break
        current.append(step_idx)
        if step_best > best_value:
            best_value, best_set = step_best, tuple(sorted(current))
    return AttackResult(Mask(best_set, problem.action), best_value, "heuristic", evaluate.calls)


def combined_attack(problem: AttackProblem) -> AttackResult:
    """Run the per-node greedy and the hill climber, keep the better mask.

    Falls back to the hill climber alone when the greedy's preconditions do
    not hold (non-additive or non-monotone transitions, flip action); the
    algorithm tag records which branch produced the mask.
    """
    try:
        approx = approx_attack(problem)
    except ValidationError:
        heur = heuristic_attack(problem)
        return AttackResult(heur.mask, heur.value, "combined[heuristic-only]", heur.evaluations)
    heur = heuristic_attack(problem)
    evaluations = approx.evaluations + heur.evaluations
    if approx.value >= heur.value:
        return AttackResult(approx.mask, approx.value, "combined[approx]", evaluations)
    return AttackResult(heur.mask, heur.value, "combined[heuristic]", evaluations)


def _require_linear(problem: AttackProblem, caller: str) -> None:
    if problem.p != 1:
        raise ValidationError("wrong_norm", f"{caller} requires p=1, got {problem.p}")
    for i, node in enumerate(problem.model.nodes):
        if node.transition.kind != LINEAR:
            raise ValidationError(
                "non_linear_transition",
                f"node {i}: {caller} requires linear transitions",
                node=i,
            )


def linear_gains(problem: AttackProblem) -> np.ndarray:
    """Exact objective change from hiding or flipping each stage-0 index, at p = 1.

    Acting on index r shifts every child's marginal by ``a_ir * s_r``: hiding
    swaps the realized value for the prior (``s_r = p_r - x_r``), flipping
    inverts it (``s_r = 1 - 2 x_r``).  The objective is linear in each
    marginal, with slope ``1 - 2 q_i`` untargeted and ``2 t_i - 1`` targeted,
    so the total change does not depend on the rest of the mask and gains
    simply add across it.
    """
    _require_linear(problem, "linear_gains")
    model, bits = problem.model, problem.x0
    if problem.action == HIDE:
        shift = [prior - x for prior, x in zip(model.priors, bits)]
    else:
        shift = [1.0 - 2.0 * x for x in bits]
    if problem.target is None:
        coeff = 1.0 - 2.0 * true_posterior(model, bits)
    else:
        coeff = 2.0 * np.asarray(problem.target, dtype=float) - 1.0
    gains = np.zeros(model.n0)
    for c, node in zip(coeff, model.nodes):
        for a, j in zip(node.transition.values, node.parents):
            gains[j] += a * shift[j] * c
    return gains


def _top_k_positive(gains: np.ndarray, k: int) -> tuple[int, ...]:
    # Largest gains first, indices as tie-break; only strictly positive ones.
    order = sorted(range(gains.size), key=lambda r: (-gains[r], r))
    return tuple(sorted(r for r in order[:k] if gains[r] > 0.0))


def _linear_exact(problem: AttackProblem, action: str, tag: str) -> AttackResult:
    _require(problem, action, f"{tag}_attack")
    gains = linear_gains(problem)
    chosen = _top_k_positive(gains, problem.budget)
    evaluate = problem.evaluator()
    value = evaluate(()) + float(gains[list(chosen)].sum())
    return AttackResult(Mask(chosen, action), value, tag, evaluate.calls)


def linear_exact_attack(problem: AttackProblem) -> AttackResult:
    """Optimal hiding mask for linear transitions at p = 1.

    The objective is the empty-mask value plus the sum of per-index gains, so
    the best mask is just the up-to-k indices with the largest positive gains
    (fewer than k when not enough gains are positive: hiding is optional).
    """
    return _linear_exact(problem, HIDE, "linear_exact")


def flip_linear_exact_attack(problem: AttackProblem) -> AttackResult:
    """Optimal flipping mask for linear transitions at p = 1."""
    return _linear_exact(problem, FLIP, "flip_linear_exact")


def flip_approx_attack(problem: AttackProblem) -> AttackResult:
    """Per-node greedy flipping for additive transitions.

    For each stage-1 node, greedily flip within the realized-0 parents, then
    within the realized-1 parents, spending leftover budget on whatever index
    helps most globally; the best mask evaluated anywhere is returned.  Some
    pass reaches the single most damaging per-node shift, which bounds the
    result below by 1/n1 of the optimum.
    """
    _require(problem, FLIP, "flip_approx_attack")
    model, bits, k = problem.model, problem.x0, problem.budget
    for i, node in enumerate(model.nodes):
        if node.transition.kind != ADDITIVE:
            raise ValidationError(
                "non_additive_transition",
                f"node {i}: flip_approx_attack requires additive transitions",
                node=i,
            )
    evaluate = problem.evaluator()
    best_set: tuple[int, ...] = ()
    best_value = evaluate(())

    def grow(eta: list[int], pool: Sequence[int]) -> float:
        nonlocal best_set, best_value
        step_best, step_idx = -math.inf, -1
        for j in pool:
            if j in eta:
                continue
            value = evaluate(sorted(eta + [j]))
            if value > step_best:
                step_best, step_idx = value, j
        if step_idx < 0:
            return -math.inf
        eta.append(step_idx)
        if step_best > best_value:
            best_value, best_set = step_best, tuple(sorted(eta))
        return step_best

    everything = range(model.n0)
    for node in model.nodes:
        for outcome in (0, 1):
            part = [j for j in node.parents if bits[j] == outcome]
            eta: list[int] = []
            while len(eta) < k and len(eta) < len(part):
                grow(eta, part)
            while len(eta) < k:
                if grow(eta, everything) == -math.inf:
                    break
    return AttackResult(Mask(best_set, FLIP), best_value, "flip_approx", evaluate.calls)


def random_mask_baseline(problem: AttackProblem, seed: int) -> AttackResult:
    """Uniform mask of size exactly min(budget, n0) from a seeded generator."""
    rng = np.random.default_rng(seed)
    size = min(problem.budget, problem.model.n0)
    indices = np.sort(rng.choice(problem.model.n0, size=size, replace=False))
    evaluate = problem.evaluator()
    value = evaluate(indices)
    return AttackResult(Mask(indices, problem.action), value, "random", evaluate.calls)


ALGORITHMS: dict[str, Callable[..., AttackResult]] = {
    "brute_force": brute_force_attack,
    "approx": approx_attack,
    "heuristic": heuristic_attack,
    "combined": combined_attack,
    "linear_exact": linear_exact_attack,
    "flip_approx": flip_approx_attack,
    "flip_linear_exact": flip_linear_exact_attack,
    "random": random_mask_baseline,
}


def solve(problem: AttackProblem, algorithm: str, seed: int | None = None) -> AttackResult:
    """Dispatch by algorithm name; ``seed`` is only used by ``random``."""
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValidationError("spec_invalid", f"unknown algorithm {algorithm!r}") from None
    if algorithm == "random":
        if seed is None:
            raise ValidationError("spec_invalid", "the random baseline needs a seed")
        return fn(problem, seed)
    return fn(problem)
