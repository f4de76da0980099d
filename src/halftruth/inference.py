"""Observer posteriors and the expected-Lp attack objective.

The observer predicts each stage-1 marginal from whatever stage-0 outcomes it
sees.  Hidden outcomes are marginalized with their priors (the observer is
oblivious to the adversary); flipped outcomes are taken at face value.

The attacker's payoff compares the true marginals ``q`` against the induced
marginals ``r`` with the expected Lp distance between independent draws of the
two product distributions.  Because coordinates are independent, the distance
only depends on the per-coordinate disagreement probabilities
``d_i = q_i + r_i - 2 q_i r_i`` and reduces to moments of the Poisson-binomial
disagreement count.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .model import (
    FLIP,
    GENERAL,
    ADDITIVE,
    HIDE,
    PARENT_CAP,
    DbnModel,
    Mask,
    Realization,
    Stage1Node,
    ValidationError,
    check_mask_indices,
    check_realization,
    transition_prob,
)

Infinity = math.inf


def check_norm(p) -> float | int:
    """Validate an Lp exponent: a positive integer or ``math.inf``."""
    if p == Infinity:
        return Infinity
    if isinstance(p, (int, np.integer)) and p >= 1:
        return int(p)
    if isinstance(p, float) and p.is_integer() and p >= 1:
        return int(p)
    raise ValidationError("wrong_norm", f"norm exponent must be a positive integer or inf: {p!r}")


def true_posterior(model: DbnModel, x0: Realization) -> np.ndarray:
    """Stage-1 marginals given the full realization."""
    return induced_posterior(model, x0, Mask((), FLIP))


def masked_posterior(model: DbnModel, x0: Realization, mask: Mask) -> np.ndarray:
    """Stage-1 marginals when the outcomes in ``mask`` are hidden."""
    if mask.action != HIDE:
        raise ValidationError("wrong_mask_action", f"expected a hide mask, got {mask.action!r}")
    return induced_posterior(model, x0, mask)


def flipped_posterior(model: DbnModel, x0: Realization, mask: Mask) -> np.ndarray:
    """Stage-1 marginals when the observer is shown the flipped realization."""
    if mask.action != FLIP:
        raise ValidationError("wrong_mask_action", f"expected a flip mask, got {mask.action!r}")
    return induced_posterior(model, x0, mask)


def induced_posterior(model: DbnModel, x0: Realization, mask: Mask) -> np.ndarray:
    """The observer's stage-1 marginals under either mask action.

    Hide: hidden parents are marginalized with their priors.  The general
    kind enumerates the ``2^h`` hidden assignments (h capped at 20); the
    additive kind convolves the Poisson-binomial of the hidden priors and
    shifts by the observed parent sum; the linear kind substitutes priors for
    hidden values.  Flip: no marginalization happens; the observer sees a
    complete (falsified) stage-0 vector with the masked bits inverted.

    Each distinct node object is computed once (see ``DbnModel.node_table``).
    """
    bits = check_realization(model, x0)
    check_mask_indices(model, mask)
    unique, slots = model.node_table
    if mask.action == HIDE:
        hidden = frozenset(mask.indices)
        probs = [_node_masked(model, bits, hidden, node, i) for i, node in unique]
    else:
        shown = list(bits)
        for j in mask.indices:
            shown[j] = 1 - shown[j]
        probs = [transition_prob(node, [shown[j] for j in node.parents]) for _, node in unique]
    return np.array(probs, dtype=float)[slots]


def _node_masked(
    model: DbnModel, bits: tuple[int, ...], hidden: frozenset[int], node: Stage1Node, i: int
) -> float:
    t = node.transition
    hid = [j for j in node.parents if j in hidden]
    if not hid:
        return transition_prob(node, [bits[j] for j in node.parents])
    if t.kind == GENERAL:
        if len(hid) > PARENT_CAP:
            raise ValidationError(
                "parent_cap_exceeded",
                f"node {i}: {len(hid)} hidden parents exceeds the enumeration cap",
                node=i,
            )
        pos = {j: k for k, j in enumerate(node.parents)}
        base = 0
        for j in node.parents:
            if j not in hidden and bits[j]:
                base |= 1 << pos[j]
        total = 0.0
        for assign in range(1 << len(hid)):
            w = 1.0
            idx = base
            for b, j in enumerate(hid):
                if (assign >> b) & 1:
                    w *= model.priors[j]
                    idx |= 1 << pos[j]
                else:
                    w *= 1.0 - model.priors[j]
            total += w * t.values[idx]
        return total
    if t.kind == ADDITIVE:
        obs_sum = sum(bits[j] for j in node.parents if j not in hidden)
        pmf = poisson_binomial_pmf([model.priors[j] for j in hid])
        table = t.values_array
        return float(pmf @ table[obs_sum : obs_sum + len(hid) + 1])
    # linear: observed values, hidden priors
    return float(
        sum(
            a * (model.priors[j] if j in hidden else bits[j])
            for a, j in zip(t.values, node.parents)
        )
    )


def disagreement(q: Sequence[float], r: Sequence[float]) -> np.ndarray:
    """Per-coordinate probability that independent draws from q and r differ."""
    qa = np.asarray(q, dtype=float)
    ra = np.asarray(r, dtype=float)
    if qa.shape != ra.shape:
        raise ValidationError(
            "length_mismatch", f"posterior lengths differ: {qa.shape} vs {ra.shape}"
        )
    return qa + ra - 2.0 * qa * ra


def poisson_binomial_pmf(d: Sequence[float]) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli(d_i) trials.

    Plain O(n^2) convolution; entries stay nonnegative by construction and the
    result sums to 1 up to roundoff.
    """
    da = np.asarray(d, dtype=float)
    pmf = np.zeros(da.size + 1)
    pmf[0] = 1.0
    for p in da:
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return pmf


def lkm_from_counts(pmf: Sequence[float], p) -> float:
    """Expected p-th-root distance given the disagreement-count distribution.

    ``sum_m m^(1/p) pmf[m]`` with ``m^(1/inf) = 1``; the m = 0 term vanishes.
    """
    p = check_norm(p)
    arr = np.asarray(pmf, dtype=float)
    if arr.size <= 1:
        return 0.0
    m = np.arange(1, arr.size)
    weights = np.ones(arr.size - 1) if p == Infinity else np.exp(np.log(m) / p)
    return float(arr[1:] @ weights)


def lkm_distance(d: Sequence[float], p) -> float:
    """Expected Lp distance between two independent binary product vectors.

    Takes the per-coordinate disagreement probabilities.  p = 1 is the plain
    sum, p = inf the probability of any disagreement; finite p >= 2 goes
    through the Poisson-binomial count distribution.
    """
    p = check_norm(p)
    da = np.asarray(d, dtype=float)
    if p == 1:
        return float(da.sum())
    if p == Infinity:
        return float(1.0 - np.prod(1.0 - da))
    return lkm_from_counts(poisson_binomial_pmf(da), p)


class Evaluator:
    """Attacker payoff of masks on one instance; higher is always better.

    Untargeted: the distance between true and induced marginals.  Targeted:
    minus the distance between the target marginals and the induced ones, so
    maximization pushes the observer toward the target.  The reference
    marginals are computed once; ``calls`` counts evaluations, which solvers
    report as their work.
    """

    def __init__(
        self,
        model: DbnModel,
        x0: Realization,
        p,
        action: str = HIDE,
        target: Sequence[float] | None = None,
    ):
        self.model, self.x0, self.p, self.action = model, x0, p, action
        self.calls = 0
        if target is None:
            self._ref = true_posterior(model, x0)
            self._sign = 1.0
        else:
            self._ref = np.asarray(target, dtype=float)
            self._sign = -1.0
            if self._ref.size != model.n1:
                raise ValidationError(
                    "length_mismatch", f"target has length {self._ref.size}, expected {model.n1}"
                )

    def __call__(self, indices: Iterable[int]) -> float:
        self.calls += 1
        r = induced_posterior(self.model, self.x0, Mask(indices, self.action))
        return self._sign * lkm_distance(disagreement(self._ref, r), self.p)


def objective_value(
    model: DbnModel,
    x0: Realization,
    mask: Mask,
    p,
    target: Sequence[float] | None = None,
) -> float:
    """Attacker payoff of one mask (see :class:`Evaluator`)."""
    return Evaluator(model, x0, p, mask.action, target)(mask.indices)
