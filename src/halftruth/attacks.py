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
from itertools import chain, combinations, islice
from typing import Callable, Iterator, Sequence

import numpy as np

# induced_posterior is not called here, but stays importable from this module
# by name: perfbench/selftest.py checks that the tracer patches it here.
from .inference import Evaluator, check_norm, check_target, induced_posterior, true_posterior
from .model import (
    ADDITIVE,
    FLIP,
    HIDE,
    LINEAR,
    DbnModel,
    Mask,
    ValidationError,
    check_integer,
    check_realization,
)

BRUTE_FORCE_LIMIT = 10**7
# Masks per batch for the solvers that stream them; bounds their memory.
BATCH_SIZE = 256


def check_budget(budget) -> int:
    """A mask budget as an int: any integer >= 0 (capped at n0 by the problem)."""
    return check_integer(budget, 0, "budget")


def check_action(action: str) -> str:
    if action not in (HIDE, FLIP):
        raise ValidationError("wrong_action", f"unknown action {action!r}")
    return action


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
        object.__setattr__(self, "budget", min(check_budget(budget), model.n0))
        object.__setattr__(self, "p", check_norm(p))
        object.__setattr__(self, "action", check_action(action))
        if target is not None:
            target = tuple(check_target(model, target).tolist())
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
    so all sizes are tried, not just the full budget.  Masks are scored size
    by size, in batches of ``BATCH_SIZE``; value ties go to the
    lexicographically smallest index tuple, whatever the scoring order.
    Refuses instances with more than ``BRUTE_FORCE_LIMIT`` candidate masks.
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
    masks = chain.from_iterable(combinations(range(n0), m) for m in range(1, k + 1))
    for block in _blocks(masks):
        for cand, value in zip(block, evaluate.batch(block)):
            if value > best_value or (value == best_value and cand < best_set):
                best_value, best_set = value, cand
    return AttackResult(
        Mask(best_set, problem.action), best_value, "brute_force", evaluate.calls
    )


def _blocks(masks: Iterator[Sequence[int]]) -> Iterator[list[Sequence[int]]]:
    """Consecutive runs of up to ``BATCH_SIZE`` masks."""
    while block := list(islice(masks, BATCH_SIZE)):
        yield block


def _require(problem: AttackProblem, action: str, caller: str) -> None:
    if problem.action != action:
        raise ValidationError(
            "wrong_action", f"{caller} requires action={action!r}, got {problem.action!r}"
        )


# Per-node solver preconditions: error code -> (what every node needs, its test).
_NODE_RULES = {
    "non_monotone_transition": (
        "monotone additive transitions",
        lambda t: t.kind == ADDITIVE and t.monotone_direction(),
    ),
    "non_additive_transition": ("additive transitions", lambda t: t.kind == ADDITIVE),
    "non_linear_transition": ("linear transitions", lambda t: t.kind == LINEAR),
}


def _require_nodes(problem: AttackProblem, code: str, caller: str) -> list:
    """The rule's test of every node's transition, in node order; ``code`` at the first miss."""
    need, test = _NODE_RULES[code]
    results = []
    for i, node in enumerate(problem.model.nodes):
        results.append(test(node.transition))
        if not results[-1]:
            raise ValidationError(code, f"node {i}: {caller} requires {need}", node=i)
    return results


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
    directions = _require_nodes(problem, "non_monotone_transition", "approx_attack")
    evaluate = problem.evaluator()
    best_set: tuple[int, ...] = ()
    best_value = evaluate(())
    for block in _blocks(_greedy_prefixes(problem, directions)):
        for prefix, value in zip(block, evaluate.batch(block)):
            if value > best_value:
                best_value, best_set = value, tuple(sorted(prefix))
    return AttackResult(Mask(best_set, HIDE), best_value, "approx", evaluate.calls)


def _greedy_prefixes(problem: AttackProblem, directions: list[str]) -> Iterator[list[int]]:
    """Each node's hiding pool, best prior first, as its prefixes of 1..k indices."""
    model, bits, k = problem.model, problem.x0, problem.budget
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
        for t in range(min(k, len(pool))):
            yield pool[: t + 1]


def heuristic_attack(problem: AttackProblem) -> AttackResult:
    """Hill climbing: repeatedly add the index with the largest objective gain.

    The climb continues for the full budget even through value-decreasing
    steps, but the best prefix seen is what gets returned, so the result never
    degrades as the budget grows.
    """
    evaluate = problem.evaluator()
    current: list[int] = []
    best = evaluate(()), ()
    for _ in range(problem.budget):
        best = _climb_step(evaluate, current, range(problem.model.n0), best)
    return AttackResult(Mask(best[1], problem.action), best[0], "heuristic", evaluate.calls)


def _climb_step(
    evaluate: Evaluator,
    current: list[int],
    pool: Sequence[int],
    best: tuple[float, tuple[int, ...]],
) -> tuple[float, tuple[int, ...]]:
    """Append to ``current`` the index of ``pool`` that scores highest with it.

    Scores ``current`` plus each pool index not in it, in one batch with
    ``current`` as the base; the first index of the highest value wins, so
    ties go to the earlier pool index.  Returns the grown mask, sorted, with
    its value if that beats the (value, mask) pair ``best``; else ``best``.
    """
    cands = [j for j in pool if j not in current]
    values = evaluate.batch([current + [j] for j in cands], base=current)
    step_best = max(values)
    current.append(cands[values.index(step_best)])
    return (step_best, tuple(sorted(current))) if step_best > best[0] else best


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
    _require_nodes(problem, "non_linear_transition", caller)


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
    _require_nodes(problem, "non_additive_transition", "flip_approx_attack")
    evaluate = problem.evaluator()
    best = evaluate(()), ()
    for node in model.nodes:
        for outcome in (0, 1):
            part = [j for j in node.parents if bits[j] == outcome]
            # Climb within the part while it lasts, then over every index.
            eta: list[int] = []
            for t in range(k):
                pool = part if t < len(part) else range(model.n0)
                best = _climb_step(evaluate, eta, pool, best)
    return AttackResult(Mask(best[1], FLIP), best[0], "flip_approx", evaluate.calls)


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


def find_algorithm(name: str) -> Callable[..., AttackResult]:
    """The solver named ``name`` in :data:`ALGORITHMS`; ``spec_invalid`` if none is."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValidationError("spec_invalid", f"unknown algorithm {name!r}") from None


def solve(problem: AttackProblem, algorithm: str, seed: int | None = None) -> AttackResult:
    """Dispatch by algorithm name; ``seed`` is only used by ``random``."""
    fn = find_algorithm(algorithm)
    if algorithm == "random":
        if seed is None:
            raise ValidationError("spec_invalid", "the random baseline needs a seed")
        return fn(problem, seed)
    return fn(problem)
