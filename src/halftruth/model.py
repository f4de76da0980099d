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
import math
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Iterable, Sequence

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
        object.__setattr__(self, "values", tuple(map(float, values)))

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
        object.__setattr__(self, "parents", tuple(map(int, parents)))
        object.__setattr__(self, "transition", transition)


@dataclass(frozen=True)
class DbnModel:
    """Two-stage network: stage-0 priors and the stage-1 node list."""

    n0: int
    priors: tuple[float, ...]
    nodes: tuple[Stage1Node, ...]

    def __init__(self, n0: int, priors: Iterable[float], nodes: Iterable[Stage1Node]):
        object.__setattr__(self, "n0", int(n0))
        object.__setattr__(self, "priors", tuple(map(float, priors)))
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
        idx = tuple(sorted(_integers(indices, "mask_invalid", "mask indices")))
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


def is_integral(x) -> bool:
    """True for an int or an integral float, such as 4.0; False for a bool."""
    if isinstance(x, bool):
        return False
    if isinstance(x, (int, np.integer)):
        return True
    return isinstance(x, (float, np.floating)) and float(x).is_integer()


def _integers(values: Iterable, code: str, what: str) -> list[int]:
    """``values`` as ints if each is integral (see :func:`is_integral`); else ``code``."""
    items = list(values)
    # One pass over the item types; a second only when some item is not an int.
    if not (_JSON_TYPES["integer"].issuperset(map(type, items)) or all(map(is_integral, items))):
        raise ValidationError(code, f"{what} must be integers: {items!r}")
    # A list, not tuple(map(...)): that tuple is resized after it is built, and
    # each one freed grows the interpreter's free list of small tuples.
    return list(map(int, items))


def check_integer(x, least: int, what: str) -> int:
    """``x`` as an int if it is integral (see :func:`is_integral`) and ``>= least``."""
    if not is_integral(x) or x < least:
        raise ValidationError("spec_invalid", f"{what} must be an integer >= {least}: {x!r}")
    return int(x)


def check_realization(model: DbnModel, x0: Realization) -> tuple[int, ...]:
    """Normalize a realization to a tuple of bits, checking length and values."""
    bits = tuple(_integers(x0, "realization_invalid", "realization entries"))
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
        # Summed as they are scored.  Written so that NaN fails both comparisons.
        total = transition_prob(node, [1] * npar)
        if any(not c >= 0 for c in t.values) or not total <= 1.0 + 1e-15:
            raise ValidationError(
                "linear_coeffs_invalid",
                f"node {i}: linear coefficients must be >= 0 and sum to <= 1 (sum {total})",
                node=i,
            )
    else:
        raise ValidationError("kind_invalid", f"node {i}: unknown kind {t.kind!r}", node=i)


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
    # Left to right from 0.0: sum() of floats rounds differently from Python 3.12 on.
    total = 0.0
    for a, b in zip(t.values, parent_values):
        total += a * b
    return total


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
    table = [
        transition_prob(node, [(bitmask >> j) & 1 for j in range(npar)])
        for bitmask in range(1 << npar)
    ]
    return Stage1Node(node.parents, general(table))


# --- JSON serialization -----------------------------------------------------
#
# {"n0": int, "priors": [float], "nodes": [entry]}, each entry
#   {"parents": [int], "transition": {"kind": "...", "values": [float]}}
#
# When two positions hold the same node (the same parents, kind and value
# bits, see :func:`_entry_key`), the writer emits the compact form instead:
# each distinct node once, in order of first position, and every position as
# an index into that list.  The reader takes either form.
#
# {"n0": int, "priors": [float], "node_defs": [entry], "nodes": [int]}
#
# Floats are written with 17 significant digits so the round trip is exact and
# the output is byte-stable across platforms.


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _entry_key(parents, kind: str, values) -> tuple | None:
    """What the reader shares node objects by: parents, kind and value bits.

    None when a value is NaN, as such a node equals no other.  -0.0 and 0.0
    have different bits, so they stay apart.
    """
    floats = np.array(values, dtype=float)
    if np.isnan(floats).any():
        return None
    return tuple(parents), kind, floats.tobytes()


def _check_finite(values: Sequence[float], what: str, i: int | None = None) -> None:
    """``spec_invalid`` naming the first NaN or infinite entry: JSON has no such number."""
    if not all(map(math.isfinite, values)):
        j = next(j for j, v in enumerate(values) if not math.isfinite(v))
        raise _spec_error(f"{what}[{j}] = {values[j]} cannot be written as JSON", i)


def model_to_json(model: DbnModel) -> str:
    """The model file text; the compact form when some entry serves several positions.

    Node objects that the reader would load as one (see :func:`_entry_key`)
    are written once, so the text read back writes the same text again.  A
    NaN or infinite prior or value is ``spec_invalid``: the reader could not
    load it back.
    """
    unique, slots = model.node_table
    _check_finite(model.priors, "priors")
    for i, node in unique:
        _check_finite(node.transition.values, "transition values", i)
    def_of: dict[tuple, int] = {}
    defs: list[str] = []
    ref_of_slot: list[int] = []
    for _, node in unique:
        parents, t = node.parents, node.transition
        # Never None: the values were checked finite above.
        ref = def_of.setdefault(_entry_key(parents, t.kind, t.values), len(defs))
        if ref == len(defs):
            defs.append(
                '{"parents": [%s], "transition": {"kind": "%s", "values": [%s]}}'
                % (", ".join(map(str, parents)), t.kind, ", ".join(map(format_float, t.values)))
            )
        ref_of_slot.append(ref)
    head = '{"n0": %d, "priors": [%s], ' % (model.n0, ", ".join(map(format_float, model.priors)))
    if len(defs) < model.n1:
        refs = ", ".join(map(str, map(ref_of_slot.__getitem__, slots.tolist())))
        return head + '"node_defs": [%s], "nodes": [%s]}\n' % (", ".join(defs), refs)
    # Every position its own entry: defs are listed by first position, so in position order.
    return head + '"nodes": [%s]}\n' % ", ".join(defs)


def _json_int(token: str):
    # json reads "-0", which the writer emits for -0.0, as the int 0.
    return -0.0 if token == "-0" else int(token)


# The JSON type rules of every reader of outside input: the Python types
# ``json`` gives for each.  An integer may also be an integral float such as
# 4.0 (see :func:`is_integral`), and a bool is never an integer or a number.
_JSON_TYPES = {
    "integer": frozenset((int,)),
    "number": frozenset((int, float)),
    "boolean": frozenset((bool,)),
    "string": frozenset((str,)),
    "object": frozenset((dict,)),
}


def _spec_error(what: str, i: int | None = None) -> ValidationError:
    where = "" if i is None else f"node {i}: "
    return ValidationError("spec_invalid", f"{where}{what}", node=i)


def json_value(value, rule: str, what: str):
    """``value`` if it follows the JSON type ``rule``, an integer as int; else ``spec_invalid``."""
    if type(value) in _JSON_TYPES[rule] or rule == "integer" and is_integral(value):
        return int(value) if rule == "integer" else value
    raise _spec_error(f"{what}: expected {rule}, got {value!r}")


def json_array(value, rule: str, what: str, i: int | None = None) -> list:
    """``value`` if it is a JSON array whose items all follow ``rule``; else ``spec_invalid``.

    One pass over the item types; integers take a second only when some item
    is not an int, as an integral float is.
    """
    if type(value) is not list or not (
        _JSON_TYPES[rule].issuperset(map(type, value))
        or rule == "integer" and all(map(is_integral, value))
    ):
        raise _spec_error(f"{what}: expected an array of {rule}s", i)
    return value


def json_object(value, keys: AbstractSet[str], what: str, i: int | None = None) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``; else ``spec_invalid``."""
    if type(value) is not dict:
        raise _spec_error(f"{what}: expected an object", i)
    if not value.keys() <= keys:
        raise _spec_error(f"unknown {what} keys: {sorted(value.keys() - keys)}", i)
    return value


_MODEL_KEYS = frozenset(("n0", "priors", "node_defs", "nodes"))
_NODE_KEYS = frozenset(("parents", "transition"))
_TRANSITION_KEYS = frozenset(("kind", "values"))


def _node_entry(entry, i: int, shared: dict[tuple, Stage1Node]) -> Stage1Node:
    """One node entry as a :class:`Stage1Node`, its errors naming position ``i``.

    An entry with the :func:`_entry_key` of one seen before returns that
    entry's object from ``shared``.
    """
    json_object(entry, _NODE_KEYS, "node", i)
    parents = json_array(entry["parents"], "integer", "parents", i)
    transition = json_object(entry["transition"], _TRANSITION_KEYS, "transition", i)
    kind = transition["kind"]
    if kind not in KINDS:
        raise ValidationError("kind_invalid", f"node {i}: unknown transition kind {kind!r}", node=i)
    values = json_array(transition["values"], "number", "values", i)
    key = _entry_key(parents, kind, values)
    node = shared.get(key)
    if node is None:
        node = Stage1Node(parents, Transition(kind, values))
        if key is not None:
            shared[key] = node
    return node


def _compact_nodes(defs: list, refs: list[int]) -> list[Stage1Node]:
    """The nodes of a compact file: position i holds ``defs[refs[i]]``.

    Each def is read once, as the entry at the first position that refers to
    it, in position order; so an error names the position the legacy text of
    the same model would.  A def no position refers to would never be
    checked, and is ``spec_invalid``.
    """
    first: dict[int, int] = {}
    for i, r in enumerate(refs):
        if not 0 <= r < len(defs):
            raise _spec_error(f"node_defs index {r} out of range for {len(defs)} defs", i)
        first.setdefault(r, i)
    if len(first) < len(defs):
        r = min(set(range(len(defs))) - first.keys())
        raise _spec_error(f"node_defs[{r}] is not referenced by any node")
    shared: dict[tuple, Stage1Node] = {}
    built = {r: _node_entry(defs[r], i, shared) for r, i in first.items()}
    return list(map(built.__getitem__, refs))


def model_from_json(text: str) -> DbnModel:
    """Read a model file in either form, building one :class:`Stage1Node` per distinct entry.

    The compact form is the one with a ``node_defs`` key; its ``nodes`` are
    integer indices into ``node_defs``, and the positions that hold one index
    share its node object.  In both forms, entries whose parents, kind and
    values convert to the same bits share one node object, as constructed
    families do, so ``node_table`` and all work keyed on it stay as small as
    the model's distinct nodes; -0.0 and 0.0 stay apart and NaN never matches.
    Every entry is type-checked by the JSON type rules: ``n0``, parents and
    indices must be integers (1.0 is, ``true`` is not), priors and values
    numbers, and each of them an array; anything else, and a key the format
    does not have, is ``spec_invalid``.
    """
    try:
        # The hook costs a Python call per integer; only a minus sign can need it.
        doc = json.loads(text, parse_int=_json_int) if "-" in text else json.loads(text)
        json_object(doc, _MODEL_KEYS, "model")
        n0 = json_value(doc["n0"], "integer", "model n0")
        priors = json_array(doc["priors"], "number", "model priors")
        if "node_defs" in doc:
            defs = json_array(doc["node_defs"], "object", "model node_defs")
            refs = json_array(doc["nodes"], "integer", "model nodes")
            nodes = _compact_nodes(defs, list(map(int, refs)))
        else:
            entries = json_array(doc["nodes"], "object", "model nodes")
            shared: dict[tuple, Stage1Node] = {}
            nodes = [_node_entry(entry, i, shared) for i, entry in enumerate(entries)]
        return DbnModel(n0, priors, nodes)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _spec_error(f"malformed model document: {exc}") from exc


def save_model(model: DbnModel, path) -> None:
    """Write the model file; a model that cannot be written leaves ``path`` untouched."""
    text = model_to_json(model)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_text(path) -> str:
    """A file's text, which must be UTF-8 (``spec_invalid`` naming the path if not)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise _spec_error(f"{path}: not UTF-8 text: {exc}") from None


def load_model(path) -> DbnModel:
    return model_from_json(read_text(path))
