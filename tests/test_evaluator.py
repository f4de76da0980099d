"""The block evaluator against one-mask scoring from scratch.

``Evaluator.batch`` scores a block of masks as one 0/1 matrix: it reads each
(mask, node) state key from one matrix product, computes each distinct state
once, and runs one disagreement matrix for the whole block; every score must
still have the same bits as scoring that mask alone, so the comparisons use
``==``.
"""

import math

import numpy as np
import pytest

from halftruth import (
    FLIP,
    HIDE,
    DbnModel,
    Evaluator,
    GenSpec,
    Mask,
    Stage1Node,
    ValidationError,
    disagreement,
    gen_theorem1,
    generate,
    induced_posterior,
    lkm_distance,
    objective_value,
    true_posterior,
)
from halftruth.simulate import draw_realization, realization_rng

FAMILIES = (("random_general", False), ("random_additive", True), ("random_linear", False))
NORMS = (1, 2, 3, math.inf)
N0 = 30


def _instance(family, monotone, seed):
    model = generate(GenSpec(family, N0, edge_density=0.1, monotone=monotone, seed=seed))
    return model, draw_realization(model, realization_rng(seed))


def _masks(rng, around):
    """Random masks of sizes 0-5, then ``around`` plus or minus each index."""
    masks = [sorted(rng.choice(N0, size=size, replace=False)) for size in range(6)]
    masks += [sorted(set(around) ^ {j}) for j in range(N0)]
    return [[int(j) for j in mask] for mask in masks]


def distinct_states(model, masks):
    """Every (slot, mask ∩ parents) state of ``masks``, the empty mask's included."""
    unique = model.node_table[0]
    return {
        (s, frozenset(mask).intersection(node.parents))
        for mask in [[], *masks]
        for s, (_, node) in enumerate(unique)
    }


def from_scratch(model, x0, mask, p, action, target):
    ref = true_posterior(model, x0) if target is None else target
    sign = 1.0 if target is None else -1.0
    r = induced_posterior(model, x0, Mask(mask, action))
    return sign * lkm_distance(disagreement(ref, r), p)


@pytest.mark.parametrize("family,monotone", FAMILIES)
@pytest.mark.parametrize("action", (HIDE, FLIP))
def test_batch_matches_single_calls_bit_for_bit(family, monotone, action):
    for seed in range(2):
        model, x0 = _instance(family, monotone, seed)
        rng = np.random.default_rng(seed)
        target = rng.random(model.n1)
        around = [int(j) for j in rng.choice(N0, size=3, replace=False)]
        masks = _masks(rng, around)
        for p in NORMS:
            for tgt in (None, target):
                evaluate = Evaluator(model, x0, p, action, tgt)
                # Twice: once filling the memo, once reading every state from it.
                batched = evaluate.batch(masks) + evaluate.batch(masks)
                single = [Evaluator(model, x0, p, action, tgt)(mask) for mask in masks]
                scratch = [from_scratch(model, x0, m, p, action, tgt) for m in masks]
                assert batched == single + single
                assert single == scratch
                assert evaluate.calls == 2 * len(masks)


def test_chained_prefixes_match_single_calls():
    model, x0 = _instance("random_additive", True, 3)
    chain = [4, 17, 9, 28, 0, 21]
    prefixes = [chain[: t + 1] for t in range(len(chain))]
    evaluate = Evaluator(model, x0, 2)
    assert evaluate.batch(prefixes) == [Evaluator(model, x0, 2)(m) for m in prefixes]


def test_climb_step_recomputes_only_children():
    model, x0 = _instance("random_additive", True, 1)
    unique = model.node_table[0]
    evaluate = Evaluator(model, x0, 2)
    # Construction computes every distinct node once: the empty mask.
    assert evaluate.node_posteriors == len(unique)
    first = [[j] for j in range(N0)]
    evaluate.batch(first)
    # Each child of j sees the new state {j}: one computation per parent.
    assert evaluate.node_posteriors == len(unique) + sum(len(n.parents) for _, n in unique)
    assert evaluate.node_posteriors == len(distinct_states(model, first))
    before = evaluate.node_posteriors
    second = [[5, j] for j in range(N0) if j != 5]
    evaluate.batch(second)
    # Only a child of 5 sees a new state, {5, j}, one per other parent j.
    fives = [n for _, n in unique if 5 in n.parents]
    assert evaluate.node_posteriors - before == sum(len(n.parents) - 1 for n in fives)
    assert evaluate.node_posteriors == len(distinct_states(model, first + second))


def test_dense_parents_recompute_every_node():
    # Every node its own object with all 12 parents.
    shared = gen_theorem1(12)
    model = DbnModel(
        shared.n0, shared.priors, [Stage1Node(n.parents, n.transition) for n in shared.nodes]
    )
    x0 = [0, 1] * 6
    masks = [[1], [1, 3], [0, 5, 11], []]
    evaluate = Evaluator(model, x0, 2)
    before = evaluate.node_posteriors
    assert evaluate.batch(masks) == [from_scratch(model, x0, m, 2, HIDE, None) for m in masks]
    assert evaluate.node_posteriors - before == 3 * model.n1


def test_each_distinct_state_is_computed_once():
    model, x0 = _instance("random_additive", True, 3)
    chain = [4, 17, 9, 28, 0, 21]
    prefixes = [chain[: t + 1] for t in range(len(chain))]
    evaluate = Evaluator(model, x0, 2)
    evaluate.batch(prefixes)
    # Each (slot, mask ∩ parents) state once, whichever mask reaches it first.
    assert evaluate.node_posteriors == len(distinct_states(model, prefixes))
    evaluate.batch(prefixes[::-1])
    assert evaluate.node_posteriors == len(distinct_states(model, prefixes))


def test_no_mask_is_kept_between_calls():
    model, x0 = _instance("random_additive", True, 3)
    evaluate = Evaluator(model, x0, 2)
    evaluate.batch([[4, 17, 9]])
    masks = [[4, 17, 9], [4, 17, 9, 28], [0]]
    evaluate.batch(masks)
    # Only the memo's node values carry over: the second call computes the
    # states the first did not reach, and the scores are those of fresh calls.
    assert evaluate.node_posteriors == len(distinct_states(model, masks))
    assert evaluate.batch(masks) == [Evaluator(model, x0, 2)(m) for m in masks]


# Each block holds one bad index: negative, duplicate, >= n0, fractional, bool.
BAD_MASKS = ([0, -1], [2, 2], [N0], [1.5], [True])


@pytest.mark.parametrize("bad", BAD_MASKS)
def test_block_rejects_bad_indices_as_a_mask_does(bad):
    model, x0 = _instance("random_additive", True, 0)
    evaluate = Evaluator(model, x0, 2)
    for masks in ([[1], [3, 4], bad], np.array([bad])):
        with pytest.raises(ValidationError) as err:
            evaluate.batch(masks)
        assert err.value.code == "mask_invalid"
    with pytest.raises(ValidationError) as err:
        objective_value(model, x0, Mask(bad, HIDE), 2)
    assert err.value.code == "mask_invalid"
    # A bad block scores nothing.
    assert evaluate.calls == 0


def test_block_takes_an_index_matrix_or_index_lists():
    model, x0 = _instance("random_general", False, 1)
    rows = np.array([[0, 5, 9], [1, 2, 3], [29, 4, 7]])
    evaluate = Evaluator(model, x0, 3)
    want = [Evaluator(model, x0, 3)(list(row)) for row in rows.tolist()]
    assert evaluate.batch(rows) == want
    assert evaluate.batch(rows.tolist()) == want
    assert evaluate.batch(np.empty((0, 2), dtype=int)) == evaluate.batch([]) == []


def test_evaluator_checks_its_action():
    model, x0 = _instance("random_additive", True, 0)
    with pytest.raises(ValidationError) as err:
        Evaluator(model, x0, 1, "bogus")
    assert err.value.code == "wrong_action"
