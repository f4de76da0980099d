"""Instance families for tests and experiments.

Random families draw structure and probabilities from a seeded generator in a
fixed order, so a spec maps to exactly one model.  Two constructed families
mirror the analyses they support:

* :func:`gen_theorem1` -- the all-parents family on which pure hiding drives
  the observer's stage-1 beliefs arbitrarily far from the truth as n grows;
  :func:`theorem1_oracle_adversary` plays its optimal case-by-case strategy.
* :func:`gen_heuristic_adversarial` -- the two-block family on which hill
  climbing earns only an eps fraction of the optimal value because the paying
  block contributes nothing until all of its parents are hidden at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    ADDITIVE,
    PARENT_CAP,
    DbnModel,
    Mask,
    Stage1Node,
    ValidationError,
    additive,
    general,
    linear,
)

FAMILIES = (
    "random_general",
    "random_additive",
    "random_linear",
    "theorem1",
    "heuristic_adversarial",
)

@dataclass(frozen=True)
class GenSpec:
    """Which family to build and with what knobs.

    ``edge_density`` and ``monotone`` only matter for the random families,
    ``eps`` only for ``heuristic_adversarial``.  ``seed`` makes generation a
    pure function of the spec.
    """

    family: str
    n0: int
    n1: int | None = None
    edge_density: float = 0.5
    monotone: bool = False
    seed: int = 0
    eps: float = 0.01

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError("spec_invalid", f"unknown family {self.family!r}")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValidationError(
                "spec_invalid", f"edge density {self.edge_density} not in [0, 1]"
            )
        if self.n1 is None:
            object.__setattr__(self, "n1", self.n0)
        if self.family in ("theorem1", "heuristic_adversarial") and self.n1 != self.n0:
            raise ValidationError("spec_invalid", f"{self.family} requires n1 = n0")


def generate(spec: GenSpec) -> DbnModel:
    if spec.family == "theorem1":
        return gen_theorem1(spec.n0)
    if spec.family == "heuristic_adversarial":
        return gen_heuristic_adversarial(spec.n0, spec.eps)
    return gen_random(spec)


def gen_random(spec: GenSpec) -> DbnModel:
    """Random bipartite structure with the requested transition family.

    Each potential edge is included independently with ``edge_density``; a
    node left parentless gets one uniformly chosen parent.  Priors and table
    entries are uniform on [0, 1]; additive tables are sorted ascending when
    ``monotone`` is set; linear weights are normalized by (sum + slack) so
    they always sum below 1.  Draw order is fixed: priors first, then one
    node at a time.
    """
    if spec.family not in ("random_general", "random_additive", "random_linear"):
        raise ValidationError("spec_invalid", f"{spec.family} is not a random family")
    rng = np.random.default_rng(spec.seed)
    priors = rng.random(spec.n0)
    nodes = []
    for _ in range(spec.n1):
        mask = rng.random(spec.n0) < spec.edge_density
        parents = list(np.flatnonzero(mask))
        if not parents:
            parents = [int(rng.integers(spec.n0))]
        # random_general keeps parent sets at or below the general-table cap.
        if spec.family == "random_general" and len(parents) > PARENT_CAP:
            parents = parents[:PARENT_CAP]
        npar = len(parents)
        if spec.family == "random_general":
            transition = general(rng.random(1 << npar))
        elif spec.family == "random_additive":
            table = rng.random(npar + 1)
            if spec.monotone:
                table = np.sort(table)
            transition = additive(table)
        else:
            weights = rng.random(npar)
            transition = linear(weights / (weights.sum() + rng.random()))
        nodes.append(Stage1Node(parents, transition))
    return DbnModel(spec.n0, priors, nodes)


def gen_theorem1(
    n: int, a: Sequence[float] | None = None, b: Sequence[float] | None = None
) -> DbnModel:
    """All-parents family: every stage-1 node sees all n stage-0 variables.

    Priors are ln(n)/n.  Node i believes ``a[i]`` when no parent fired and
    ``b[i]`` as soon as one did.  The defaults (a = 1, b = 0) are the
    deterministic extreme pair, for which the optimal hider's expected
    per-node payoff has the closed form
    ``(1 - eps)^n ((1 + eps)^n - (1 - eps)^n)``.
    """
    if n < 2:
        raise ValidationError("spec_invalid", f"need n >= 2, got {n}")
    a = [1.0] * n if a is None else [float(v) for v in a]
    b = [0.0] * n if b is None else [float(v) for v in b]
    if len(a) != n or len(b) != n:
        raise ValidationError("spec_invalid", "a and b must have length n")
    eps = math.log(n) / n
    parents = range(n)
    # Nodes with the same (a_i, b_i) pair are identical; share one object so
    # large instances stay cheap to store, validate, and evaluate.
    cache: dict[tuple[float, float], Stage1Node] = {}
    nodes = []
    for ai, bi in zip(a, b):
        node = cache.get((ai, bi))
        if node is None:
            node = Stage1Node(parents, additive([ai] + [bi] * n))
            cache[(ai, bi)] = node
        nodes.append(node)
    return DbnModel(n, [eps] * n, nodes)


def _looks_like_theorem1(model: DbnModel) -> bool:
    full = tuple(range(model.n0))
    if model.n1 != model.n0:
        return False
    for _, node in model.node_table[0]:
        t = node.transition
        if node.parents != full or t.kind != ADDITIVE:
            return False
        if len(set(t.values[1:])) > 1:
            return False
    return True


def theorem1_oracle_adversary(model: DbnModel, x0: Sequence[int], k: int) -> Mask:
    """Optimal hiding policy on the all-parents family.

    All outcomes zero: hide any k (the first k, for determinism).  At most k
    ones: hide exactly the ones.  More ones than budget: hiding cannot change
    the observer's belief, so hide nothing.
    """
    if not _looks_like_theorem1(model):
        raise ValidationError("wrong_family", "model was not built by gen_theorem1")
    bits = [int(v) for v in x0]
    ones = [j for j, v in enumerate(bits) if v]
    if not ones:
        return Mask(range(min(k, model.n0)))
    if len(ones) <= k:
        return Mask(ones)
    return Mask(())


def theorem1_closed_form(n: int) -> float:
    """Expected per-node payoff of the oracle adversary at full budget."""
    eps = math.log(n) / n
    return (1.0 - eps) ** n * ((1.0 + eps) ** n - (1.0 - eps) ** n)


def gen_heuristic_adversarial(n: int, eps: float) -> DbnModel:
    """Two-block family on which hill climbing is an eps-fraction of optimal.

    The first node ramps gently over the first n/2 stage-0 variables (one
    eps per realized parent), while every other node fires only when all of
    the last n/2 variables are up.  With the all-zero realization and budget
    n/2, the greedy keeps collecting eps-sized gains from the ramp and never
    discovers the jackpot block, which pays only when hidden whole.
    """
    if n < 4 or n % 2:
        raise ValidationError("spec_invalid", f"need an even n >= 4, got {n}")
    half = n // 2
    if not 0.0 < eps < 1.0 or eps * half > 1.0:
        raise ValidationError(
            "spec_invalid", f"need 0 < eps < 1 with eps*n/2 <= 1, got eps={eps}"
        )
    ramp = additive([eps * z for z in range(half + 1)])
    threshold = additive([0.0] * half + [1.0])
    nodes = [Stage1Node(range(half), ramp)]
    nodes += [Stage1Node(range(half, n), threshold) for _ in range(n - 1)]
    return DbnModel(n, [1.0 - eps] * n, nodes)
