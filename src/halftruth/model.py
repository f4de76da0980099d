"""Two-stage Bayes network data model.

Stage 0 holds independent binary variables with known priors; every stage-1
variable is binary and depends only on a set of stage-0 parents through one of
three transition families:

* ``general``  -- one probability per parent assignment (table of length
  ``2^|parents|``, indexed by the assignment bitmask),
* ``additive`` -- probability depends only on the number of parents that
  realized 1 (table of length ``|parents| + 1``),
* ``linear``   -- probability is a weighted sum of realized parent values.

All containers are immutable after construction; validation is explicit via
:func:`validate_model` so that malformed instances can be built and inspected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# General tables and hidden-parent enumeration walk 2^|parents| assignments.
PARENT_CAP = 20

GENERAL = "general"
ADDITIVE = "additive"
LINEAR = "linear"
KINDS = (GENERAL, ADDITIVE, LINEAR)

HIDE = "hide"
FLIP = "flip"


class HalfTruthError(ValueError):
    """Base class for model and precondition violations."""


class ValidationError(HalfTruthError):
    """Invariant or precondition violation, tagged with a machine-readable code.

    ``code`` identifies the violated rule (e.g. ``prior_out_of_range``,
    ``wrong_mask_action``); ``node`` is the offending stage-1 index when the
    violation is node-local.
    """

    def __init__(self, code: str, message: str, node: int | None = None):
        super().__init__(message)
        self.code = code
        self.node = node


@dataclass(frozen=True)
class Transition:
    """Conditional distribution of one stage-1 variable given its parents."""

    kind: str
    values: tuple[float, ...]

    def __init__(self, kind: str, values: Iterable[float]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    @cached_property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def monotone_direction(self) -> str | None:
        """'increasing' / 'decreasing' for monotone additive tables, else None.

        Constant tables count as increasing (monotonicity is non-strict).
        Only meaningful for the additive kind.
        """
        t = self.values
        if all(b >= a for a, b in zip(t, t[1:])):
            return "increasing"
        if all(b <= a for a, b in zip(t, t[1:])):
            return "decreasing"
        return None


def general(table: Iterable[float]) -> Transition:
    return Transition(GENERAL, table)


def additive(table: Iterable[float]) -> Transition:
    return Transition(ADDITIVE, table)


def linear(coeffs: Iterable[float]) -> Transition:
    return Transition(LINEAR, coeffs)


@dataclass(frozen=True)
class Stage1Node:
    """One stage-1 variable: sorted stage-0 parent indices plus a transition."""

    parents: tuple[int, ...]
    transition: Transition

    def __init__(self, parents: Iterable[int], transition: Transition):
        object.__setattr__(self, "parents", tuple(int(p) for p in parents))
        object.__setattr__(self, "transition", transition)

    @cached_property
    def parents_array(self) -> np.ndarray:
        return np.asarray(self.parents, dtype=np.intp)


@dataclass(frozen=True)
class DbnModel:
    """Two-stage network: stage-0 priors and the stage-1 node list."""

    n0: int
    priors: tuple[float, ...]
    nodes: tuple[Stage1Node, ...]

    def __init__(self, n0: int, priors: Iterable[float], nodes: Iterable[Stage1Node]):
        object.__setattr__(self, "n0", int(n0))
        object.__setattr__(self, "priors", tuple(float(p) for p in priors))
        object.__setattr__(self, "nodes", tuple(nodes))

    @property
    def n1(self) -> int:
        return len(self.nodes)

    @cached_property
    def priors_array(self) -> np.ndarray:
        return np.asarray(self.priors, dtype=float)

    @cached_property
    def node_table(self) -> tuple[tuple[tuple[int, Stage1Node], ...], np.ndarray]:
        """Each distinct node object once, and the slot of every position.

        Constructed families share one node object among many positions.  The
        first part lists every distinct object with the first position that
        holds it; the second maps each position to its entry in that list, so
        per-node work runs once per object and is broadcast with ``[slots]``.
        """
        slot_of: dict[int, int] = {}
        unique: list[tuple[int, Stage1Node]] = []
        slots = np.empty(self.n1, dtype=np.intp)
        for i, node in enumerate(self.nodes):
            slot = slot_of.setdefault(id(node), len(unique))
            if slot == len(unique):
                unique.append((i, node))
            slots[i] = slot
        return tuple(unique), slots


@dataclass(frozen=True)
class Mask:
    """The adversary's action: which stage-0 outcomes to hide or flip.

    Indices are stored sorted; duplicates are rejected (flipping an index
    twice is meaningless and hiding it twice is a bug in the caller).
    """

    indices: tuple[int, ...]
    action: str = HIDE

    def __init__(self, indices: Iterable[int], action: str = HIDE):
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise ValidationError("mask_invalid", f"duplicate mask indices: {idx}")
        if idx and idx[0] < 0:
            raise ValidationError("mask_invalid", f"negative mask index: {idx[0]}")
        if action not in (HIDE, FLIP):
            raise ValidationError("mask_invalid", f"unknown mask action: {action!r}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "action", action)

    def __len__(self) -> int:
        return len(self.indices)


# A stage-0 realization is any 0/1 sequence of length n0; kept as plain data.
Realization = Sequence[int]


def check_realization(model: DbnModel, x0: Realization) -> tuple[int, ...]:
    """Normalize a realization to a tuple of bits, checking length and values."""
    bits = tuple(int(b) for b in x0)
    if len(bits) != model.n0:
        raise ValidationError(
            "length_mismatch", f"realization has length {len(bits)}, expected {model.n0}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("realization_invalid", f"realization entries must be 0/1: {bits}")
    return bits


def check_mask_indices(model: DbnModel, mask: Mask) -> None:
    if mask.indices and mask.indices[-1] >= model.n0:
        raise ValidationError(
            "mask_invalid", f"mask index {mask.indices[-1]} out of range for n0={model.n0}"
        )


def validate_model(model: DbnModel) -> None:
    """Raise :class:`ValidationError` on the first violated invariant."""
    if len(model.priors) != model.n0:
        raise ValidationError(
            "length_mismatch",
            f"{len(model.priors)} priors for n0={model.n0}",
        )
    for j, p in enumerate(model.priors):
        if not 0.0 <= p <= 1.0:
            raise ValidationError("prior_out_of_range", f"prior[{j}] = {p} not in [0, 1]")
    for i, node in model.node_table[0]:
        for j in node.parents:
            if not 0 <= j < model.n0:
                raise ValidationError(
                    "parent_index_out_of_range",
                    f"node {i}: parent index {j} not in [0, {model.n0})",
                    node=i,
                )
        if len(set(node.parents)) != len(node.parents):
            raise ValidationError(
                "parent_index_out_of_range", f"node {i}: duplicate parent indices", node=i
            )
        _validate_transition(i, node)


def _validate_transition(i: int, node: Stage1Node) -> None:
    t = node.transition
    npar = len(node.parents)
    if t.kind == GENERAL:
        if npar > PARENT_CAP:
            raise ValidationError(
                "parent_cap_exceeded",
                f"node {i}: {npar} parents exceeds the general-table cap of {PARENT_CAP}",
                node=i,
            )
        if len(t.values) != 1 << npar:
            raise ValidationError(
                "table_length_mismatch",
                f"node {i}: general table has {len(t.values)} entries, expected {1 << npar}",
                node=i,
            )
        _check_probs(i, t.values)
    elif t.kind == ADDITIVE:
        if len(t.values) != npar + 1:
            raise ValidationError(
                "table_length_mismatch",
                f"node {i}: additive table has {len(t.values)} entries, expected {npar + 1}",
                node=i,
            )
        _check_probs(i, t.values)
    elif t.kind == LINEAR:
        if len(t.values) != npar:
            raise ValidationError(
                "table_length_mismatch",
                f"node {i}: {len(t.values)} linear coefficients for {npar} parents",
                node=i,
            )
        # Written so that NaN fails both comparisons.
        if any(not c >= 0 for c in t.values) or not sum(t.values) <= 1.0 + 1e-15:
            raise ValidationError(
                "linear_coeffs_invalid",
                f"node {i}: linear coefficients must be >= 0 and sum to <= 1 "
                f"(sum {sum(t.values)})",
                node=i,
            )
    else:
        raise ValidationError("table_length_mismatch", f"node {i}: unknown kind {t.kind!r}", node=i)


def _check_probs(i: int, values: tuple[float, ...]) -> None:
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValidationError(
                "probability_out_of_range", f"node {i}: table entry {v} not in [0, 1]", node=i
            )


def transition_prob(node: Stage1Node, parent_values: Sequence[int]) -> float:
    """P(node = 1) given the realized values of its parents, in parent order."""
    t = node.transition
    if len(parent_values) != len(node.parents):
        raise ValidationError(
            "arity_mismatch",
            f"{len(parent_values)} parent values for {len(node.parents)} parents",
        )
    if t.kind == GENERAL:
        idx = 0
        for j, b in enumerate(parent_values):
            if b:
                idx |= 1 << j
        return t.values[idx]
    if t.kind == ADDITIVE:
        return t.values[int(sum(parent_values))]
    return float(sum(a * b for a, b in zip(t.values, parent_values)))


def additive_to_general(node: Stage1Node) -> Stage1Node:
    """Expand an additive or linear node into the equivalent general table.

    Exists as a cross-representation check: the expanded node must agree with
    the original on every parent assignment.
    """
    t = node.transition
    npar = len(node.parents)
    if t.kind == GENERAL:
        return node
    if npar > PARENT_CAP:
        raise ValidationError(
            "parent_cap_exceeded", f"{npar} parents exceeds the expansion cap of {PARENT_CAP}"
        )
    table = []
    for bitmask in range(1 << npar):
        bits = [(bitmask >> j) & 1 for j in range(npar)]
        if t.kind == ADDITIVE:
            table.append(t.values[sum(bits)])
        else:
            table.append(sum(a * b for a, b in zip(t.values, bits)))
    return Stage1Node(node.parents, general(table))


# --- JSON serialization -----------------------------------------------------
#
# {"n0": int, "priors": [float], "nodes": [{"parents": [int],
#   "transition": {"kind": "...", "values": [float]}}]}
#
# Floats are written with 17 significant digits so the round trip is exact and
# the output is byte-stable across platforms.


def _f(x: float) -> str:
    return format(float(x), ".17g")


def model_to_json(model: DbnModel) -> str:
    parts = ['{"n0": %d, "priors": [%s], "nodes": [' % (model.n0, ", ".join(map(_f, model.priors)))]
    node_texts = []
    for node in model.nodes:
        node_texts.append(
            '{"parents": [%s], "transition": {"kind": "%s", "values": [%s]}}'
            % (
                ", ".join(str(p) for p in node.parents),
                node.transition.kind,
                ", ".join(map(_f, node.transition.values)),
            )
        )
    parts.append(", ".join(node_texts))
    parts.append("]}")
    return "".join(parts) + "\n"


def model_from_json(text: str) -> DbnModel:
    try:
        doc = json.loads(text)
        n0 = int(doc["n0"])
        priors = [float(p) for p in doc["priors"]]
        nodes = []
        for entry in doc["nodes"]:
            kind = entry["transition"]["kind"]
            if kind not in KINDS:
                raise ValidationError("table_length_mismatch", f"unknown transition kind {kind!r}")
            nodes.append(
                Stage1Node(
                    [int(p) for p in entry["parents"]],
                    Transition(kind, [float(v) for v in entry["transition"]["values"]]),
                )
            )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("spec_invalid", f"malformed model document: {exc}") from exc
    return DbnModel(n0, priors, nodes)


def save_model(model: DbnModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> DbnModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
