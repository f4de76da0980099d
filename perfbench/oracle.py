"""Independent recomputation of the outputs the benchmark checks.

Written from the definitions, not from the package's code paths, so that a
fast path that drifts shows up as a mismatch on any seed, with or without a
recorded reference.  Only reads model data (priors, parents, tables).
"""

from __future__ import annotations

import math

import numpy as np


def poisson_binomial(probs) -> np.ndarray:
    pmf = np.ones(1)
    for p in probs:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def expected_distance(q: np.ndarray, r: np.ndarray, p) -> float:
    """E ||X - Y||_p for independent binary vectors with marginals q and r."""
    d = q + r - 2.0 * q * r
    if p == math.inf:
        return float(1.0 - np.prod(1.0 - d))
    if p == 1:
        return float(d.sum())
    pmf = poisson_binomial(d)
    m = np.arange(pmf.size, dtype=float)
    return float(pmf @ m ** (1.0 / p))


def _node_probs(node, parent_probs: np.ndarray) -> np.ndarray:
    """P(node = 1) for each row of ``parent_probs``, whose column k holds the
    probability that the node's parent k is 1."""
    t = node.transition
    table = np.asarray(t.values, dtype=float)
    if t.kind == "linear":
        return parent_probs @ table
    if t.kind == "additive":
        return np.array([poisson_binomial(row) @ table for row in parent_probs])
    if t.kind != "general":
        raise ValueError(f"oracle covers general, additive and linear nodes, not {t.kind!r}")
    # Entry a of a general table belongs to the parent assignment whose bit k
    # is parent k's value.  Summing out bit 0, then bit 1, ... weights each
    # entry by the probability of its assignment.
    out = np.empty(len(parent_probs))
    for lo in range(0, len(parent_probs), _ROWS):
        rows = parent_probs[lo : lo + _ROWS]
        acc = np.broadcast_to(table, (len(rows), table.size))
        for v in rows.T:
            acc = acc.reshape(len(rows), -1, 2)
            acc = acc[:, :, 0] * (1.0 - v)[:, None] + acc[:, :, 1] * v[:, None]
        out[lo : lo + _ROWS] = acc[:, 0]
    return out


# Masks per block in the general-table sum, so a block stays a few MiB.
_ROWS = 64


def objectives(model, x0, masks, action: str, p) -> list[float]:
    """Untargeted attack objective of each mask in ``masks`` under ``action``."""
    truth = np.asarray(x0, dtype=float)
    seen = np.tile(truth, (len(masks), 1))
    for row, mask in zip(seen, masks):
        for j in mask:
            row[j] = model.priors[j] if action == "hide" else 1.0 - truth[j]
    q = np.array([_node_probs(node, truth[None, list(node.parents)])[0] for node in model.nodes])
    r = np.column_stack([_node_probs(node, seen[:, list(node.parents)]) for node in model.nodes])
    return [expected_distance(q, row, p) for row in r]


def objective(model, x0, mask, action: str, p) -> float:
    """Untargeted attack objective of ``mask`` under ``action``."""
    return objectives(model, x0, [mask], action, p)[0]


def derived_seed(master: int, *path: int) -> int:
    """The seed that ``halftruth.simulate.derive_seed`` documents for a path."""
    return int(np.random.SeedSequence([int(master), *map(int, path)]).generate_state(1)[0])


def realization(priors, seed: int) -> tuple[int, ...]:
    """Nature's draw for ``seed``: stage-0 node j is 1 when uniform draw j of
    stream 0 falls below its prior."""
    draws = np.random.default_rng([int(seed), 0]).random(len(priors))
    return tuple(int(u < prior) for u, prior in zip(draws, priors))


def theorem1_oracle_mean(n: int, k: int, trials: int, seed: int) -> float:
    """Mean p = 1 payoff of the optimal hider on the all-parents family.

    Trial t draws nature's outcomes from stream 0 of its derived seed.  With
    no outcome up the hider hides min(k, n) of them; with c <= k outcomes up
    it hides exactly those; otherwise it hides nothing.  Every node believes
    1 when no visible parent fired, and 0 otherwise.
    """
    eps = math.log(n) / n
    values = []
    for t in range(trials):
        rng = np.random.default_rng([derived_seed(seed, t), 0])
        c = int(np.count_nonzero(rng.random(n) < eps))
        if c == 0:
            d = 1.0 - (1.0 - eps) ** min(k, n)
        elif c <= k:
            d = (1.0 - eps) ** c
        else:
            d = 0.0
        values.append(n * d)
    return float(np.mean(values))
