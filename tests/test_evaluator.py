"""The batched, incremental evaluator against one-mask scoring from scratch.

``Evaluator.batch`` recomputes only the nodes a mask can change and runs one
Poisson-binomial convolution for the whole batch; every score must still have
the same bits as scoring that mask alone, so the comparisons use ``==``.
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
    true_posterior,
)
from halftruth.simulate import draw_realization, realization_rng

FAMILIES = (("random_general", False), ("random_additive", True), ("random_linear", False))
NORMS = (1, 2, 3, math.inf)
N0 = 30


def _instance(family, monotone, seed):
    model = generate(GenSpec(family, N0, edge_density=0.1, monotone=monotone, seed=seed))
    return model, draw_realization(model, realization_rng(seed))


def _masks(rng, base):
    """Random masks of sizes 0-5, then the base plus or minus each index."""
    masks = [sorted(rng.choice(N0, size=size, replace=False)) for size in range(6)]
    masks += [sorted(set(base) ^ {j}) for j in range(N0)]
    return [[int(j) for j in mask] for mask in masks]


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
        base = [int(j) for j in rng.choice(N0, size=3, replace=False)]
        masks = _masks(rng, base)
        for p in NORMS:
            for tgt in (None, target):
                evaluate = Evaluator(model, x0, p, action, tgt)
                # Twice: once from the base, once from the empty mask.
                batched = evaluate.batch(masks, base=base) + evaluate.batch(masks)
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


def test_children_lists_the_nodes_of_each_parent():
    model, _ = _instance("random_additive", True, 0)
    unique, _ = model.node_table
    for j, slots in enumerate(model.children):
        assert slots == tuple(s for s, (_, node) in enumerate(unique) if j in node.parents)


def test_climb_step_recomputes_only_children():
    model, x0 = _instance("random_additive", True, 1)
    children = model.children
    evaluate = Evaluator(model, x0, 2)
    # Construction computes every distinct node once: the empty mask.
    assert evaluate.node_posteriors == len(model.node_table[0])
    assert evaluate.node_reuses == 0
    before = evaluate.node_posteriors
    evaluate.batch([[j] for j in range(N0)], base=[])
    # Each child of j sees the new state {j}: all misses.
    assert evaluate.node_posteriors - before == sum(len(c) for c in children)
    assert evaluate.node_reuses == 0
    # The next step moves the base by one index, then adds each other index.
    before = evaluate.node_posteriors, evaluate.node_reuses
    current = [5]
    evaluate.batch([current + [j] for j in range(N0) if j != 5], base=current)
    computed = evaluate.node_posteriors - before[0]
    reused = evaluate.node_reuses - before[1]
    # Every recomputed node is either computed or reused: the touched count.
    step = sum(len(children[j]) for j in range(N0) if j != 5)
    assert computed + reused == len(children[5]) + step
    # Moving the base to [5] finds every child of 5 from the first step; a
    # child of j sees a new state only when 5 is also among its parents.
    fives = set(children[5])
    assert computed == sum(len(fives.intersection(children[j])) for j in range(N0) if j != 5)
    assert 0 < computed < reused


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
    assert evaluate.node_reuses == 0


def test_each_mask_starts_from_the_calls_base():
    model, x0 = _instance("random_additive", True, 3)
    children, unique = model.children, model.node_table[0]
    chain = [4, 17, 9, 28, 0, 21]
    prefixes = [chain[: t + 1] for t in range(len(chain))]
    evaluate = Evaluator(model, x0, 2)
    before = evaluate.node_posteriors
    evaluate.batch(prefixes, base=[])
    # No mask starts from an earlier mask of the batch: each recomputes the
    # children of all its indices, not only of the index its prefix lacks.
    touched = [set().union(*(children[j] for j in prefix)) for prefix in prefixes]
    assert evaluate.node_posteriors - before + evaluate.node_reuses == sum(map(len, touched))
    # The memo computes each (slot, mask ∩ parents) state once.
    states = {
        (s, frozenset(prefix).intersection(unique[s][1].parents))
        for prefix, slots in zip(prefixes, touched)
        for s in slots
    }
    assert evaluate.node_posteriors - before == len(states)


def test_no_mask_is_kept_between_calls():
    model, x0 = _instance("random_additive", True, 3)
    children = model.children
    evaluate = Evaluator(model, x0, 2)
    evaluate.batch([[4, 17, 9]], base=[4, 17, 9])
    before = evaluate.node_posteriors + evaluate.node_reuses
    masks = [[4, 17, 9], [4, 17, 9, 28], [0]]
    evaluate.batch(masks)
    # Without a base, every mask starts from the empty mask, whatever the
    # previous call's base was.
    touched = sum(len(set().union(*(children[j] for j in mask))) for mask in masks)
    assert touched == 21
    assert evaluate.node_posteriors + evaluate.node_reuses - before == touched


def test_evaluator_checks_its_action():
    model, x0 = _instance("random_additive", True, 0)
    with pytest.raises(ValidationError) as err:
        Evaluator(model, x0, 1, "bogus")
    assert err.value.code == "wrong_action"
