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
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .model import (
    FLIP,
    ADDITIVE,
    GENERAL,
    HIDE,
    LINEAR,
    PARENT_CAP,
    DbnModel,
    Mask,
    Realization,
    Stage1Node,
    ValidationError,
    _integers,
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

    Each row scores the same bits whichever matrix it sits in: for a
    C-contiguous ``d``, the axis-1 sum and product reduce each row as the
    row's own ``sum`` and ``prod`` do, and the p >= 2 dot runs one row at a
    time (a matrix-vector product would change bits).  Not range-checked:
    linear coefficients may sum to a rounding error above 1, which puts a
    ``d`` just below 0.
    """
    if p == 1:
        return d.sum(axis=1).tolist()
    if p == Infinity:
        return (1.0 - np.prod(1.0 - d, axis=1)).tolist()
    weights = _count_weights(d.shape[1], p)
    return [float(row[1:] @ weights) for row in poisson_binomial_pmf(d)]


def _index_rows(masks, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """A block of masks as its indices, row after row, and each row's start.

    ``masks`` is a 2-D integer array or a sequence of index iterables.  Any
    index that is not an integer (a bool, ``1.5``), negative or ``>= n0`` is
    ``mask_invalid``; duplicates are checked on the 0/1 matrix.
    """
    if isinstance(masks, np.ndarray) and masks.ndim == 2 and masks.dtype.kind in "iu":
        if masks.size and (masks.min() < 0 or masks.max() >= n0):
            raise ValidationError("mask_invalid", f"a mask index is out of range for n0={n0}")
        starts = np.arange(len(masks) + 1) * masks.shape[1]
        return masks.ravel().astype(np.intp), starts
    lists = [list(indices) for indices in masks]
    flat = _integers(chain.from_iterable(lists), "mask_invalid", "mask indices")
    if flat and min(flat) < 0:
        raise ValidationError("mask_invalid", f"negative mask index: {min(flat)}")
    if flat and max(flat) >= n0:
        raise ValidationError("mask_invalid", f"mask index {max(flat)} out of range for n0={n0}")
    starts = np.zeros(len(lists) + 1, dtype=np.intp)
    np.cumsum(list(map(len, lists)), out=starts[1:])
    return np.array(flat, dtype=np.intp), starts


def _runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable order of integer ``labels``, and where each run of equal labels starts in it.

    Integer arithmetic only, as in the rest of the block path: numpy keeps
    freed arrays under 1 KiB for reuse, a few per byte size, so bool masks
    of many lengths would pile up there (up to 3.5 MiB in one process).
    """
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    return order, np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))


# How a slot's memo misses are computed: grouped numpy rows for general hide
# and linear tables, ``_node_value`` one at a time for everything else.
_GENERAL, _LINEAR, _ONE = 0, 1, 2
# Terms per grouped step, which bounds its temporary arrays.
_CHUNK = 4096
# Set bits of each 10-bit number: a general slot's key has at most 20.
_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << 10)])
_POWERS = 1 << np.arange(PARENT_CAP)


class Evaluator:
    """Attacker payoff of masks on one instance; higher is always better.

    Untargeted: the distance between true and induced marginals.  Targeted:
    minus the distance between the target marginals and the induced ones, so
    maximization pushes the observer toward the target.  The reference
    marginals are computed once.  ``calls`` counts evaluations, which solvers
    report as their work; ``node_posteriors`` counts node marginals computed:
    one per distinct node object (see ``DbnModel.node_table``) for the empty
    mask, then one per new (slot, mask ∩ parents) state.

    A node's marginal depends only on the mask's bits among its parents.
    :meth:`batch` turns a block of masks into a 0/1 matrix ``M`` and reads
    every (mask, slot) state key at once as ``M @ W``, where ``W`` holds
    ``2^k`` at the k-th parent of each slot (a slot with more parents than
    one float64 key holds spreads them over several columns).  The block's
    distinct states other than the empty mask's are found with one sort and
    looked up in one sorted memo; only the misses are computed:
    general hide and linear misses as numpy rows grouped by length, with the
    float operations of ``_node_value`` in its order, and every other miss by
    ``_node_value`` itself, the per-node routine that
    :func:`induced_posterior` also runs.  The whole block then goes through
    one disagreement matrix.  :meth:`__call__` is the one-mask case.  The memo
    belongs to this evaluator and dies with it; each score has the same bits
    as scoring the mask from scratch.
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
        self._unique = unique
        # Node values under the empty mask (key 0), the same for both actions.
        self._empty = true[[i for i, _ in unique]]
        # The memo: the codes ``key * len(unique) + slot`` of the states
        # computed so far, sorted, and their node values; it starts with the
        # empty mask's, whose codes are the slots.
        self._codes, self._values = np.arange(len(unique)), self._empty
        self.calls = 0
        self.node_posteriors = len(unique)
        self._ref = true if target is None else check_target(model, target)
        self._sign = 1.0 if target is None else -1.0
        self._build_groups(*self._build_keys())

    def _build_keys(self) -> tuple[np.ndarray, ...]:
        """``W``: column s holds ``2^k`` at slot s's k-th parent, in chunks of ``bits`` parents.

        A slot's chunks past the first get columns after the first
        ``len(unique)``; such a wide slot maps each tuple of its keys to a
        small id of its own, in ``_wide``, with 0 for the empty mask.
        Returns every slot's parents in one array, with each one's slot and
        position, and each slot's parent count.
        """
        unique, n0 = self._unique, self.model.n0
        n_slots = len(unique)
        # A key column stays exact in float64, and ``key * n_slots + slot`` fits in int64.
        bits = min(53, 63 - (max(n_slots, 1) - 1).bit_length())
        parents = [node.parents for _, node in unique]
        lens = np.fromiter(map(len, parents), np.intp, n_slots)
        flat = np.fromiter(chain.from_iterable(parents), np.intp, int(lens.sum()))
        owner = np.repeat(np.arange(n_slots), lens)
        pos = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
        chunk, bit = np.divmod(pos, bits)
        extra = np.maximum((lens - 1) // bits, 0)
        first_extra = n_slots + np.cumsum(extra) - extra
        cols, later = owner.copy(), np.flatnonzero(chunk)
        cols[later] = first_extra[owner[later]] + chunk[later] - 1
        self._W = np.zeros((n0 + 1, n_slots + int(extra.sum())))
        self._W[flat, cols] = np.ldexp(1.0, bit)
        self._wide = {
            s: ([s, *range(first_extra[s], first_extra[s] + extra[s])], {(0,) * (extra[s] + 1): 0})
            for s in np.flatnonzero(extra).tolist()
        }
        return flat, owner, pos, lens

    def _build_groups(self, flat, owner, pos, lens) -> None:
        """Per slot, how its misses are computed, and what the grouped ones read.

        ``_parents`` pads each grouped slot's parents with ``n0``, a column of
        ``M`` that is always 0.  A general slot reads its table from
        ``_table_start[s]`` in ``_tables``.  A linear slot's k-th term is its
        coefficient times the parent's shown value: ``_terms[0]`` when the
        parent is not in the mask, ``_terms[1]`` when it is, after a leading
        0.0 column.
        """
        n0, unique = self.model.n0, self._unique
        self._route = np.full(len(unique), _ONE)
        tables, starts = [], np.zeros(len(unique), dtype=np.intp)
        linear, width = [], 0
        for s, (_, node) in enumerate(unique):
            t, npar = node.transition, len(node.parents)
            if t.kind == LINEAR and len(t.values) == npar:
                self._route[s] = _LINEAR
                linear.append(s)
            elif (self.action == HIDE and t.kind == GENERAL and npar <= PARENT_CAP
                  and len(t.values) == 1 << npar):
                self._route[s] = _GENERAL
                starts[s] = sum(map(len, tables))
                tables.append(t.values_array)
            else:
                continue
            width = max(width, npar)
        if not (linear or tables):
            return
        self._tables, self._table_start = np.concatenate([np.zeros(0), *tables]), starts
        grouped = np.flatnonzero(self._route[owner] - _ONE)
        parents = self._parents = np.full((len(unique), width), n0)
        parents[owner[grouped], pos[grouped]] = flat[grouped]
        bits = np.append(np.array(self._bits, dtype=np.int64), 0)[parents]
        priors = self._priors = np.array(self.model.priors + (0.0,))
        coeffs = np.zeros(parents.shape)
        for s in linear:
            coeffs[s, : lens[s]] = unique[s][1].transition.values
        self._terms = np.zeros((2, len(unique), width + 1))
        self._terms[0, :, 1:] = coeffs * bits
        self._terms[1, :, 1:] = coeffs * (priors[parents] if self.action == HIDE else 1 - bits)
        # Each general slot's realized parent bits, the k-th parent as bit k.
        low = bits[:, :PARENT_CAP]
        self._realized = (low << np.arange(low.shape[1])).sum(axis=1)

    def __call__(self, indices: Iterable[int]) -> float:
        """Score one mask."""
        return self.batch([indices])[0]

    def batch(self, masks) -> list[float]:
        """Scores of ``masks``, in order.

        ``masks`` is a 2-D integer array of index rows, or a sequence of index
        iterables of any lengths.  The block is checked once: any bad index
        is ``mask_invalid``.
        """
        r = self.posteriors(masks)
        self.calls += len(r)
        return [self._sign * value for value in _distances(disagreement(self._ref, r), self.p)]

    def posteriors(self, masks) -> np.ndarray:
        """The induced marginals of each of ``masks`` (see :meth:`batch`), one C-ordered row each.

        Each row has the bits of :func:`induced_posterior` for that mask.
        """
        flat, starts = _index_rows(masks, self.model.n0)
        count, n_slots, lens = len(starts) - 1, len(self._unique), np.diff(starts)
        M = np.zeros((count, self.model.n0 + 1))
        M[np.repeat(np.arange(count), lens), flat] = 1.0
        if (M.sum(axis=1) - lens).any():
            raise ValidationError("mask_invalid", "duplicate mask indices")
        keys = (M @ self._W).astype(np.int64)
        for s, (cols, ids) in self._wide.items():
            keys[:, s] = [ids.setdefault(row, len(ids)) for row in map(tuple, keys[:, cols].tolist())]
        # Only cells whose state is not the empty mask's (key 0) are looked up.
        cells = np.flatnonzero(keys[:, :n_slots])
        codes = keys[:, :n_slots].ravel()[cells] * n_slots + cells % n_slots
        # np.unique with first indices and inverse (whose own sort path
        # touches more numpy code, which costs resident memory).
        order, heads = _runs(codes)
        distinct, first = codes[order[heads]], cells[order[heads]]
        inverse = np.empty(codes.size, dtype=np.intp)
        inverse[order] = np.repeat(np.arange(heads.size), np.diff(heads, append=codes.size))
        at = np.minimum(np.searchsorted(self._codes, distinct), self._codes.size - 1)
        values = self._values[at]
        new = np.flatnonzero(self._codes[at] - distinct)
        if new.size:
            # In order of first (mask, slot) occurrence, so an error names the
            # node that scoring the masks one by one would reach first.
            missing = new[np.argsort(first[new], kind="stable")]
            values[missing] = self._misses(M, flat, starts, first[missing], distinct[missing])
            merged = np.argsort(np.concatenate([self._codes, distinct[new]]), kind="stable")
            self._codes = np.concatenate([self._codes, distinct[new]])[merged]
            self._values = np.concatenate([self._values, values[new]])[merged]
            self.node_posteriors += new.size
        node_values = np.tile(self._empty, count)
        node_values[cells] = values[inverse]
        node_values = node_values.reshape(count, n_slots)
        if n_slots == self.model.n1:
            return node_values  # every position its own node: slots are 0..n1-1
        # A column gather comes out Fortran-ordered; the row reductions need C order.
        return np.ascontiguousarray(node_values[:, self._slots])

    def _misses(self, M, flat, starts, first, codes) -> np.ndarray:
        """Node values of the states ``codes``, each first met at ``first`` in ``M``'s cells."""
        n_slots = len(self._unique)
        rows, slots = np.divmod(first, n_slots)
        keys = codes // n_slots
        out = np.empty(len(rows))
        route = self._route[slots]
        order, heads = _runs(route)
        # Stable, so the per-node misses keep their first-occurrence order.
        for sel in np.split(order, heads[1:]):
            kind = route[sel[0]]
            if kind == _GENERAL:
                out[sel] = self._general_hide(slots[sel], keys[sel])
            elif kind == _LINEAR:
                out[sel] = self._linear(M, rows[sel], slots[sel])
            else:
                for u in sel.tolist():
                    i, node = self._unique[slots[u]]
                    masked = frozenset(flat[starts[rows[u]] : starts[rows[u] + 1]].tolist())
                    out[u] = _node_value(self.model, self._bits, self.action, masked, node, i)
        return out

    def _general_hide(self, slots: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``_node_value`` of general hide states, grouped by their h hidden parents.

        Bit k of a key is the slot's k-th parent.  Weights and table indices
        double in parent order, as the loop builds them, and each row is
        totalled left to right (``np.cumsum``) from a leading 0.0, which turns
        a row of -0.0 terms into 0.0 as the loop does.  h is at least 1: a
        cell in the empty state is never looked up.
        """
        base = self._table_start[slots] + (self._realized[slots] & ~keys)
        h = _POPCOUNT[keys & 1023] + _POPCOUNT[keys >> 10]
        out = np.empty(len(keys))
        order, heads = _runs(h)
        for every in np.split(order, heads[1:]):
            size = int(h[every[0]])
            # Up to _CHUNK terms at a time: one column per state, one row per
            # hidden assignment, in the loop's order.
            for sel in np.array_split(every, -(-every.size * (1 << size) // _CHUNK)):
                rest = keys[sel]
                terms = np.zeros(((1 << size) + 1, sel.size))
                weights, index = terms[1:], np.empty((1 << size, sel.size), dtype=np.int64)
                weights[0], index[0] = 1.0, base[sel]
                for k in range(size):
                    n, bit = 1 << k, rest & -rest
                    rest = rest ^ bit
                    p = self._priors[self._parents[slots[sel], np.searchsorted(_POWERS, bit)]]
                    np.multiply(weights[:n], p, out=weights[n : 2 * n])
                    weights[:n] *= 1.0 - p
                    np.add(index[:n], bit, out=index[n : 2 * n])
                weights *= self._tables[index]
                out[sel] = np.cumsum(terms, axis=0)[-1]
        return out

    def _linear(self, M: np.ndarray, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """``transition_prob`` of linear states: coefficient times shown value, left to right.

        Rows are padded with +0.0 terms.  The running total starts at 0.0, so
        it is never -0.0, and adding +0.0 leaves it unchanged.
        """
        pick = np.zeros((len(rows), self._terms.shape[2]), dtype=np.intp)
        pick[:, 1:] = M[rows[:, None], self._parents[slots]]
        terms = self._terms[pick, slots[:, None], np.arange(pick.shape[1])]
        return np.cumsum(terms, axis=1, out=terms)[:, -1]


def objective_value(
    model: DbnModel,
    x0: Realization,
    mask: Mask,
    p,
    target: Sequence[float] | None = None,
) -> float:
    """Attacker payoff of one mask (see :class:`Evaluator`)."""
    return Evaluator(model, x0, p, mask.action, target)(mask.indices)
