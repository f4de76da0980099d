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
    ADDITIVE,
    HIDE,
    LINEAR,
    PARENT_CAP,
    DbnModel,
    Mask,
    Realization,
    Stage1Node,
    ValidationError,
    check_mask_indices,
    check_realization,
    is_integral,
    transition_prob,
)

Infinity = math.inf


def check_norm(p) -> float | int:
    """Validate an Lp exponent: a positive integer or ``math.inf``."""
    if p == Infinity:
        return Infinity
    if is_integral(p) and p >= 1:
        return int(p)
    raise ValidationError("wrong_norm", f"norm exponent must be a positive integer or inf: {p!r}")


def check_action(action: str) -> str:
    if action not in (HIDE, FLIP):
        raise ValidationError("wrong_action", f"unknown action {action!r}")
    return action


def check_target(model: DbnModel, target: Sequence[float]) -> np.ndarray:
    """Target marginals as floats: one per stage-1 node, each in [0, 1]."""
    t = np.asarray(target, dtype=float)
    if t.shape != (model.n1,):
        raise ValidationError(
            "length_mismatch", f"target has length {t.size}, expected {model.n1}"
        )
    return _check_unit(t, "target marginals")


def _check_unit(a: np.ndarray, what: str) -> np.ndarray:
    # Written so that NaN fails the check.
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValidationError("probability_out_of_range", f"{what} must lie in [0, 1]")
    return a


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

    Each node's value comes from one per-node routine, ``_node_value``,
    which reads only the mask's indices among the node's parents.  Hide:
    hidden parents are marginalized with their priors.  The general kind
    enumerates the ``2^h`` hidden assignments (h capped at 20); the additive
    kind convolves the Poisson-binomial of the hidden priors and shifts by
    the observed parent sum; the linear kind substitutes priors for hidden
    values.  Flip: no marginalization happens; the observer sees a complete
    (falsified) stage-0 vector with the masked bits inverted.

    Each distinct node object is computed once (see ``DbnModel.node_table``).
    """
    bits = check_realization(model, x0)
    check_mask_indices(model, mask)
    unique, slots = model.node_table
    masked = frozenset(mask.indices)
    probs = [_node_value(model, bits, mask.action, masked, node, i) for i, node in unique]
    return np.array(probs, dtype=float)[slots]


def _node_value(
    model: DbnModel,
    bits: tuple[int, ...],
    action: str,
    masked: frozenset[int],
    node: Stage1Node,
    i: int,
) -> float:
    """One node's marginal under a mask, given the mask's indices; reads only its parents.

    Additive hide convolves the hidden priors with :func:`_scalar_pmf` up to
    ``_SCALAR_PMF_MAX`` of them and with :func:`poisson_binomial_pmf` above;
    both give the same bits.  General hide builds the weights and table
    offsets of the ``2^h`` hidden assignments and the shown parents' bits
    ``base`` in one pass over the parents.
    """
    if action == FLIP:
        return transition_prob(node, [bits[j] ^ (j in masked) for j in node.parents])
    t = node.transition
    if t.kind == ADDITIVE:
        hidden, obs_sum = [], 0
        for j in node.parents:
            if j in masked:
                hidden.append(model.priors[j])
            else:
                obs_sum += bits[j]
        if not hidden:
            return t.values[obs_sum]
        h = len(hidden)
        pmf = _scalar_pmf(hidden) if h <= _SCALAR_PMF_MAX else poisson_binomial_pmf(hidden)
        # numpy's dot, not a Python loop: the summation order changes bits.
        return float(np.asarray(pmf) @ t.values_array[obs_sum : obs_sum + h + 1])
    if t.kind == LINEAR:
        shown = [model.priors[j] if j in masked else bits[j] for j in node.parents]
        return transition_prob(node, shown)
    if len(node.parents) > PARENT_CAP:
        h = sum(j in masked for j in node.parents)
        if h > PARENT_CAP:
            raise ValidationError(
                "parent_cap_exceeded",
                f"node {i}: {h} hidden parents exceeds the enumeration cap",
                node=i,
            )
    # The 2^h hidden assignments in counter order, the first hidden parent as
    # the lowest bit: each weight multiplies its factors in parent order.
    base, weights, offsets = 0, [1.0], [0]
    for k, j in enumerate(node.parents):
        if j in masked:
            p = model.priors[j]
            q = 1.0 - p
            weights = [w * q for w in weights] + [w * p for w in weights]
            offsets += [idx | 1 << k for idx in offsets]
        elif bits[j]:
            base |= 1 << k
    values = t.values
    if len(offsets) == 1:
        return values[base]
    total = 0.0
    for w, idx in zip(weights, offsets):
        total += w * values[idx | base]
    return total


def disagreement(q: Sequence[float], r: Sequence[float]) -> np.ndarray:
    """Per-coordinate probability that independent draws from q and r differ.

    ``r`` may also be a matrix whose rows are each compared with ``q``.
    """
    qa = np.asarray(q, dtype=float)
    ra = np.asarray(r, dtype=float)
    if qa.shape != ra.shape and qa.shape != ra.shape[1:]:
        raise ValidationError(
            "length_mismatch", f"posterior lengths differ: {qa.shape} vs {ra.shape}"
        )
    return qa + ra - 2.0 * qa * ra


def poisson_binomial_pmf(d: Sequence[float]) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli(d_i) trials.

    Plain O(n^2) convolution; entries stay nonnegative by construction and the
    result sums to 1 up to roundoff.  ``d`` may also be a matrix of
    independent rows: the convolution then runs column by column over all
    rows at once and returns one PMF per row.  The evaluator scores a batch's
    disagreements here; a node-value miss uses it only above
    ``_SCALAR_PMF_MAX`` hidden priors, where numpy's per-column overhead is
    paid back (below, :func:`_scalar_pmf` gives the same bits faster).
    """
    cols = np.asarray(d, dtype=float).T
    # Counts on the first axis, so each step slices whole rows of ``pmf``;
    # after k columns only counts 0..k can be nonzero.
    pmf = np.zeros((len(cols) + 1,) + cols.shape[1:])
    pmf[0] = 1.0
    for k, p in enumerate(cols):
        q = 1.0 - p
        pmf[1 : k + 2] = pmf[1 : k + 2] * q + pmf[: k + 1] * p
        pmf[0] *= q
    return np.ascontiguousarray(pmf.T)


# Up to this many priors, the list DP below is faster than the numpy one; the
# two cross between 88 and 100 priors (per call, 2-core x86-64, numpy 2.4).
_SCALAR_PMF_MAX = 88


def _scalar_pmf(priors: Sequence[float]) -> list[float]:
    """:func:`poisson_binomial_pmf` of one short list, as a list with the same bits.

    Each entry takes the numpy DP's operations: ``pmf[m] * q + pmf[m - 1] * p``,
    the new top entry as ``0.0 * q + pmf[k] * p`` (so a ``-0.0`` prior gives
    ``0.0``, as the zero-filled array does), then ``pmf[0] * q``.
    """
    pmf = [1.0]
    for p in priors:
        q = 1.0 - p
        prev = pmf[0]
        pmf[0] = prev * q
        for m in range(1, len(pmf)):
            cur = pmf[m]
            pmf[m] = cur * q + prev * p
            prev = cur
        pmf.append(0.0 * q + prev * p)
    return pmf


def _count_weights(size: int, p) -> np.ndarray:
    """``m^(1/p)`` for counts m = 1..size, with ``m^(1/inf) = 1``."""
    if p == Infinity:
        return np.ones(size)
    return np.exp(np.log(np.arange(1, size + 1)) / p)


def lkm_from_counts(pmf: Sequence[float], p) -> float:
    """Expected p-th-root distance given the disagreement-count distribution.

    ``sum_m m^(1/p) pmf[m]`` with ``m^(1/inf) = 1``; the m = 0 term vanishes.
    Every entry must lie in [0, 1].
    """
    p = check_norm(p)
    arr = _check_unit(np.asarray(pmf, dtype=float), "count probabilities")
    if arr.size <= 1:
        return 0.0
    return float(arr[1:] @ _count_weights(arr.size - 1, p))


def lkm_distance(d: Sequence[float], p) -> float:
    """Expected Lp distance between two independent binary product vectors.

    Takes the per-coordinate disagreement probabilities, each in [0, 1].
    p = 1 is the plain sum, p = inf the probability of any disagreement;
    finite p >= 2 goes through the Poisson-binomial count distribution.
    """
    p = check_norm(p)
    da = _check_unit(np.asarray(d, dtype=float).reshape(1, -1), "disagreement probabilities")
    return _distances(da, p)[0]


def _distances(d: np.ndarray, p) -> list[float]:
    """:func:`lkm_distance` of each row of a disagreement matrix, ``p`` checked.

    Every reduction runs on one row at a time, so a row scores the same bits
    whichever matrix it sits in.  Not range-checked: linear coefficients may
    sum to a rounding error above 1, which puts a ``d`` just below 0.
    """
    if p == 1:
        return [float(row.sum()) for row in d]
    if p == Infinity:
        return [float(1.0 - np.prod(1.0 - row)) for row in d]
    weights = _count_weights(d.shape[1], p)
    return [float(row[1:] @ weights) for row in poisson_binomial_pmf(d)]


class Evaluator:
    """Attacker payoff of masks on one instance; higher is always better.

    Untargeted: the distance between true and induced marginals.  Targeted:
    minus the distance between the target marginals and the induced ones, so
    maximization pushes the observer toward the target.  The reference
    marginals are computed once.  ``calls`` counts evaluations, which solvers
    report as their work; ``node_posteriors`` counts node marginals computed,
    one per distinct node object (see ``DbnModel.node_table``), and
    ``node_reuses`` those taken from the memo instead.

    A node's marginal depends only on the mask's bits among its parents, so
    :meth:`batch` starts each mask from the node values of the call's base
    mask (default: the empty mask) and recomputes only the children
    (``DbnModel.children``) of the indices where the two differ.  It scores
    all its masks with one Poisson-binomial convolution; :meth:`__call__` is
    its one-mask case.  No mask is kept from one call to the next.

    A recomputed node first looks in a memo keyed by its ``node_table``
    slot and the mask's indices among its parents, as an int with bit j for
    index j; only a miss calls ``_node_value``, the per-node routine that
    :func:`induced_posterior` also runs, with the mask's index set for hide
    and flip alike.  So each (node, mask ∩ parents) state is computed once,
    whichever mask reaches it first.  The memo belongs to this evaluator and
    dies with it.  Each score has the same bits as scoring the mask from
    scratch.
    """

    def __init__(
        self,
        model: DbnModel,
        x0: Realization,
        p,
        action: str = HIDE,
        target: Sequence[float] | None = None,
    ):
        self.model, self.x0, self.p, self.action = model, x0, check_norm(p), check_action(action)
        self._bits = check_realization(model, x0)
        true = true_posterior(model, x0)
        unique, self._slots = model.node_table
        # Node values under the empty mask, which are the same for both actions.
        self._empty = true[[i for i, _ in unique]]
        # Per slot: its parents as bits, and the memo, which starts with the
        # empty mask's values under key 0.
        self._parent_bits = [sum(1 << j for j in node.parents) for _, node in unique]
        self._memo = [{0: value} for value in self._empty.tolist()]
        self.calls = 0
        self.node_posteriors = len(unique)
        self.node_reuses = 0
        self._ref = true if target is None else check_target(model, target)
        self._sign = 1.0 if target is None else -1.0

    def __call__(self, indices: Iterable[int]) -> float:
        """Score one mask."""
        return self.batch([indices])[0]

    def batch(
        self, masks: Sequence[Iterable[int]], base: Iterable[int] | None = None
    ) -> list[float]:
        """Scores of ``masks``, in order.

        Each mask starts from ``base`` (default: the empty mask), so a climb
        step that adds one index to its base recomputes that index's children.
        """
        self.calls += len(masks)
        start = frozenset(), self._empty
        if base is not None:
            values = np.empty_like(self._empty)
            start = self._fill(values, base, start), values
        rows = np.empty((len(masks), self._empty.size))
        for row, indices in zip(rows, masks):
            self._fill(row, indices, start)
        d = disagreement(self._ref, rows[:, self._slots])
        return [self._sign * value for value in _distances(d, self.p)]

    def _fill(self, out: np.ndarray, indices: Iterable[int], start: tuple) -> frozenset[int]:
        """Write one mask's node values into ``out``; return its index set.

        ``start`` is the index set and node values of the mask to start from.
        """
        mask = Mask(indices, self.action)
        check_mask_indices(self.model, mask)
        chosen = frozenset(mask.indices)
        base, base_values = start
        out[:] = base_values
        unique, children = self.model.node_table[0], self.model.children
        touched = sorted(set().union(*(children[j] for j in chosen ^ base)))
        code = sum(1 << j for j in chosen)
        computed = 0
        for s in touched:
            memo, key = self._memo[s], code & self._parent_bits[s]
            value = memo.get(key)
            if value is None:
                i, node = unique[s]
                value = memo[key] = _node_value(
                    self.model, self._bits, self.action, chosen, node, i
                )
                computed += 1
            out[s] = value
        self.node_posteriors += computed
        self.node_reuses += len(touched) - computed
        return chosen


def objective_value(
    model: DbnModel,
    x0: Realization,
    mask: Mask,
    p,
    target: Sequence[float] | None = None,
) -> float:
    """Attacker payoff of one mask (see :class:`Evaluator`)."""
    return Evaluator(model, x0, p, mask.action, target)(mask.indices)
