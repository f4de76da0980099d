"""Property tests on small random instances, beside the seeded loops.

Examples are derandomized by the profile in ``conftest.py``, so every run
draws the same ones.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftruth import (
    ALGORITHMS,
    FLIP,
    HIDE,
    AttackProblem,
    DbnModel,
    Evaluator,
    GenSpec,
    Mask,
    Stage1Node,
    Transition,
    ValidationError,
    generate,
    heuristic_attack,
    induced_posterior,
    model_from_json,
    model_to_json,
    objective_value,
    solve,
    validate_model,
)
from test_evaluator import from_scratch

# These two add up per-index gains, so their value may differ from the
# objective of their mask by rounding; the acceptance tolerance applies.
SUMMED_GAINS = {"linear_exact", "flip_linear_exact"}
NORMS = (1, 2, 3, math.inf)
RANDOM_FAMILIES = ("random_general", "random_additive", "random_linear")


@st.composite
def instances(draw, max_n0=6, families=RANDOM_FAMILIES):
    """A generated random-family model, a realization, and an optional target."""
    family = draw(st.sampled_from(families))
    spec = GenSpec(
        family,
        n0=draw(st.integers(2, max_n0)),
        n1=draw(st.integers(1, 5)),
        edge_density=draw(st.floats(0.1, 0.9)),
        monotone=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    model = generate(spec)
    x0 = tuple(draw(st.lists(st.integers(0, 1), min_size=model.n0, max_size=model.n0)))
    unit = st.floats(0.0, 1.0)
    target = draw(st.none() | st.lists(unit, min_size=model.n1, max_size=model.n1))
    return model, x0, target


def masks_of(model):
    return st.lists(st.integers(0, model.n0 - 1), max_size=model.n0, unique=True)


@settings(max_examples=150)
@given(
    instances(),
    st.integers(0, 3),
    st.sampled_from(NORMS),
    st.sampled_from([HIDE, FLIP]),
    st.integers(0, 2**32 - 1),
)
def test_every_solver_scores_its_own_mask_within_budget(instance, k, p, action, seed):
    model, x0, target = instance
    problem = AttackProblem(model, x0, k, p, action, target)
    for name in ALGORITHMS:
        try:
            result = solve(problem, name, seed=[seed, 1] if name == "random" else None)
        except ValidationError:
            continue  # a precondition the instance does not meet
        assert len(result.mask) <= k
        want = objective_value(model, x0, result.mask, p, target)
        if name in SUMMED_GAINS:
            assert abs(result.value - want) <= 1e-9
        else:
            assert result.value == want


@settings(max_examples=100)
@given(instances(), st.data())
def test_posteriors_are_probabilities(instance, data):
    model, x0, _ = instance
    indices = data.draw(masks_of(model))
    for action in (HIDE, FLIP):
        r = induced_posterior(model, x0, Mask(indices, action))
        assert np.all((r >= 0.0) & (r <= 1.0))


@settings(max_examples=100)
@given(instances(), st.sampled_from(NORMS), st.sampled_from([HIDE, FLIP]))
def test_heuristic_never_loses_value_as_the_budget_grows(instance, p, action):
    model, x0, target = instance
    values = [
        heuristic_attack(AttackProblem(model, x0, k, p, action, target)).value
        for k in range(model.n0 + 1)
    ]
    assert values == sorted(values)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    """Arbitrary finite numbers in every kind, with some nodes shared by position."""
    n0 = draw(st.integers(1, 4))
    priors = draw(st.lists(finite, min_size=n0, max_size=n0))
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        parents = draw(st.lists(st.integers(0, n0 - 1), max_size=n0, unique=True))
        kind = draw(st.sampled_from(["general", "additive", "linear"]))
        size = {"general": 1 << len(parents), "additive": len(parents) + 1}.get(kind, len(parents))
        values = draw(st.lists(finite, min_size=size, max_size=size))
        distinct.append(Stage1Node(parents, Transition(kind, values)))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=5))
    return DbnModel(n0, priors, [distinct[i] for i in picks])


@settings(max_examples=150)
@given(models())
def test_model_json_round_trip_is_exact(model):
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text


@settings(max_examples=100)
@given(instances(max_n0=8), st.sampled_from(NORMS), st.sampled_from([HIDE, FLIP]), st.data())
def test_batch_equals_one_at_a_time_calls(instance, p, action, data):
    model, x0, target = instance
    masks = data.draw(st.lists(masks_of(model), min_size=1, max_size=8))
    batched = Evaluator(model, x0, p, action, target).batch(masks)
    single = Evaluator(model, x0, p, action, target)
    assert batched == [single(mask) for mask in masks]


@pytest.mark.parametrize("family", RANDOM_FAMILIES)
@pytest.mark.parametrize("action", (HIDE, FLIP))
@pytest.mark.parametrize("targeted", (False, True))
@settings(max_examples=15)
@given(data=st.data())
def test_long_batch_runs_score_the_bits_of_scoring_from_scratch(family, action, targeted, data):
    # One evaluator, so later batches read node values memoized by earlier ones.
    model, x0, _ = data.draw(instances(max_n0=8, families=(family,)))
    unit = st.floats(0.0, 1.0)
    target = data.draw(st.lists(unit, min_size=model.n1, max_size=model.n1)) if targeted else None
    p = data.draw(st.sampled_from(NORMS))
    evaluate = Evaluator(model, x0, p, action, target)
    for _ in range(data.draw(st.integers(4, 10))):
        masks = data.draw(st.lists(masks_of(model), min_size=1, max_size=8))
        got = evaluate.batch(masks)
        want = [from_scratch(model, x0, mask, p, action, target) for mask in masks]
        assert [v.hex() for v in got] == [v.hex() for v in want]


@settings(max_examples=40)
@given(instances(), st.integers(0, 3), st.sampled_from(NORMS), st.sampled_from([HIDE, FLIP]))
def test_solvers_cache_nothing_on_the_problem_or_model(instance, k, p, action):
    model, x0, target = instance
    problem = AttackProblem(model, x0, k, p, action, target)
    fields, cached = dict(vars(problem)), set(vars(model))
    for name in ALGORITHMS:
        try:
            solve(problem, name, seed=[1, 1] if name == "random" else None)
        except ValidationError:
            continue
        assert vars(problem) == fields
        # Only the model's own tables; any memo dies with its evaluator.
        assert set(vars(model)) - cached <= {"node_table"}


# JSON nested two deep, with strings from the format's own words (st.text and
# st.recursive each take seconds to set up).
words = st.sampled_from(["", "x", "n0", "priors", "nodes", "parents", "transition", "kind",
                         "values", "general", "additive", "linear", "NaN", "-0"])
json_leaves = st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | words
json_inner = json_leaves | st.lists(json_leaves, max_size=3)
json_values = json_inner | st.dictionaries(words, json_inner, max_size=3)
# What replaces one part of a document.
replacements = json_values | st.floats() | st.integers(-2, 6)
# Edge values first, so -0.0 priors and table entries reach the scalar Poisson-binomial.
probabilities = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 0.5]) | st.floats(0.0, 1.0)


@st.composite
def model_documents(draw):
    """Model-file text, legacy or compact: a model with at most one part replaced
    (a compact one may instead gain a def no index refers to), or arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(json_values))
    n0 = draw(st.integers(0, 5))
    nodes = []
    for _ in range(draw(st.integers(0, 3))):
        parents = draw(st.lists(st.integers(0, n0 - 1), max_size=n0, unique=True)) if n0 else []
        kind = draw(st.sampled_from(["general", "additive", "linear"]))
        if kind == "linear":
            coefficient = st.sampled_from([-0.0, 0.0]) | st.floats(0.0, 1.0 / max(1, len(parents)))
            values = draw(st.lists(coefficient, min_size=len(parents), max_size=len(parents)))
        else:
            size = 1 << len(parents) if kind == "general" else len(parents) + 1
            values = draw(st.lists(probabilities, min_size=size, max_size=size))
        nodes.append({"parents": parents, "transition": {"kind": kind, "values": values}})
    doc = {"n0": n0, "priors": draw(st.lists(probabilities, min_size=n0, max_size=n0))}
    compact = draw(st.booleans())
    if compact:
        # Every def referred to at least once, some more than once, in any order.
        repeats = st.lists(st.integers(0, len(nodes) - 1), max_size=4) if nodes else st.just([])
        refs = draw(st.permutations(list(range(len(nodes))) + draw(repeats)))
        doc.update(node_defs=nodes, nodes=refs)
    else:
        doc.update(nodes=nodes)
    # Replace one part (or add a key) with any JSON value or any float.
    parts = [(doc, key) for key in doc] + [(doc, draw(words))]
    parts += [(doc["priors"], j) for j in range(n0)]
    if compact:
        parts += [(refs, k) for k in range(len(refs))]
    for i, node in enumerate(nodes):
        transition = node["transition"]
        parts += [(nodes, i), (node, "parents"), (transition, "kind"), (transition, "values")]
        parts += [(node["parents"], k) for k in range(len(node["parents"]))]
        parts += [(transition["values"], k) for k in range(len(transition["values"]))]
    changes = ["none", "replace", "unreferenced"] if compact else ["none", "replace"]
    change = draw(st.sampled_from(changes))
    if change == "replace":
        where, key = draw(st.sampled_from(parts))
        where[key] = draw(replacements)
    elif change == "unreferenced":
        # A copy of a referred def, which would load and validate, or any JSON value.
        nodes.append(draw(st.sampled_from(nodes) | json_values) if nodes else draw(json_values))
    return json.dumps(doc)


@settings(max_examples=300)
@given(model_documents(), st.data())
def test_model_documents_score_or_raise_validation_error(text, data):
    try:
        model = model_from_json(text)
        validate_model(model)
    except ValidationError:
        return
    x0 = data.draw(st.lists(st.integers(0, 1), min_size=model.n0, max_size=model.n0))
    indices = data.draw(masks_of(model)) if model.n0 else []
    for action in (HIDE, FLIP):
        for p in (1, 2, math.inf):
            value = objective_value(model, x0, Mask(indices, action), p)
            assert not math.isnan(value)
