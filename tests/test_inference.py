"""Posterior computation, disagreement, Poisson-binomial, and LKM distance."""

import math

import numpy as np
import pytest

from halftruth import (
    DbnModel,
    Mask,
    Stage1Node,
    ValidationError,
    additive,
    disagreement,
    flipped_posterior,
    linear,
    lkm_distance,
    lkm_from_counts,
    masked_posterior,
    objective_value,
    poisson_binomial_pmf,
    true_posterior,
    validate_model,
)
from oracles import enumerate_hide_posterior, enumerate_lkm, enumerate_lkm_fast, random_model

INF = math.inf


@pytest.fixture
def toy():
    # one additive node over three fair-prior parents
    return DbnModel(3, (0.5, 0.5, 0.5), [Stage1Node((0, 1, 2), additive([0, 0.25, 0.5, 1.0]))])


def test_true_posterior_table_lookup(toy):
    assert true_posterior(toy, [1, 0, 1]) == pytest.approx([0.5])


def test_true_posterior_zero_case():
    model = DbnModel(2, (0.3, 0.7), [Stage1Node((0, 1), additive([0, 0.5, 1.0]))])
    assert true_posterior(model, [0, 0]) == pytest.approx([0.0])


def test_true_posterior_linear_dot():
    model = DbnModel(2, (0.5, 0.5), [Stage1Node((0, 1), linear([0.3, 0.2]))])
    assert true_posterior(model, [0, 1]) == pytest.approx([0.2])


def test_masked_posterior_empty_mask_is_identity(toy):
    x0 = [1, 0, 1]
    assert np.array_equal(masked_posterior(toy, x0, Mask(())), true_posterior(toy, x0))


def test_masked_posterior_additive_example(toy):
    # hiding parent 0: 0.5 * table[1] + 0.5 * table[2] = 0.375
    assert masked_posterior(toy, [1, 0, 1], Mask([0])) == pytest.approx([0.375])


def test_masked_posterior_linear_example():
    model = DbnModel(2, (0.5, 0.5), [Stage1Node((0, 1), linear([0.3, 0.2]))])
    assert masked_posterior(model, [0, 1], Mask([0])) == pytest.approx([0.35])


def test_masked_posterior_wrong_action(toy):
    with pytest.raises(ValidationError) as err:
        masked_posterior(toy, [1, 0, 1], Mask([0], "flip"))
    assert err.value.code == "wrong_mask_action"


def test_masked_posterior_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(50):
        model = random_model(rng, n0=6, n1=4)
        validate_model(model)
        x0 = tuple(int(v) for v in rng.integers(0, 2, model.n0))
        size = int(rng.integers(0, model.n0 + 1))
        indices = sorted(rng.choice(model.n0, size=size, replace=False).tolist())
        got = masked_posterior(model, x0, Mask(indices))
        want = enumerate_hide_posterior(model, x0, indices)
        assert got == pytest.approx(want, abs=1e-12)


def test_flipped_posterior_empty_mask(toy):
    x0 = [1, 0, 1]
    assert np.array_equal(flipped_posterior(toy, x0, Mask((), "flip")), true_posterior(toy, x0))


def test_flipped_posterior_inverts_bit(toy):
    # flipping parent 1 raises the realized sum to 3
    assert flipped_posterior(toy, [1, 0, 1], Mask([1], "flip")) == pytest.approx([1.0])


def test_flipped_posterior_wrong_action(toy):
    with pytest.raises(ValidationError):
        flipped_posterior(toy, [1, 0, 1], Mask([1], "hide"))


@pytest.mark.parametrize(
    "x0, code", [([1, 0], "length_mismatch"), ([1, 2, 0], "realization_invalid")]
)
def test_posterior_rejects_bad_realization(toy, x0, code):
    with pytest.raises(ValidationError) as err:
        true_posterior(toy, x0)
    assert err.value.code == code


def test_disagreement_examples():
    assert disagreement([0.5], [0.9])[0] == pytest.approx(0.5)
    assert disagreement([0.0], [1.0])[0] == pytest.approx(1.0)
    assert disagreement([0.0], [0.0])[0] == pytest.approx(0.0)


def test_disagreement_length_mismatch():
    with pytest.raises(ValidationError) as err:
        disagreement([0.5], [0.5, 0.5])
    assert err.value.code == "length_mismatch"


def test_poisson_binomial_fair_coins():
    assert poisson_binomial_pmf([0.5, 0.5]) == pytest.approx([0.25, 0.5, 0.25])


def test_poisson_binomial_deterministic():
    assert poisson_binomial_pmf([1, 1, 1]) == pytest.approx([0, 0, 0, 1])


def test_poisson_binomial_matches_enumeration():
    # frozen from the 2^3 enumeration of (0.1, 0.2, 0.3)
    assert poisson_binomial_pmf([0.1, 0.2, 0.3]) == pytest.approx(
        [0.504, 0.398, 0.092, 0.006], abs=1e-15
    )


def test_poisson_binomial_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.random(int(rng.integers(1, 40)))
        assert abs(poisson_binomial_pmf(d).sum() - 1.0) < 1e-12


def test_lkm_p1_is_plain_sum():
    assert lkm_distance([0.5, 0.25], 1) == pytest.approx(0.75)


def test_lkm_pinf_is_any_disagreement():
    assert lkm_distance([0.5, 0.25], INF) == pytest.approx(0.625)


def test_lkm_p2_example():
    assert lkm_distance([0.5, 0.5], 2) == pytest.approx(0.8535533905932737, abs=1e-12)


def test_lkm_deterministic_disagreements():
    assert lkm_distance([1, 1], 2) == pytest.approx(math.sqrt(2))


def test_lkm_count_path_matches_sum_at_p1():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = rng.random(int(rng.integers(1, 30)))
        pmf = poisson_binomial_pmf(d)
        assert abs(lkm_from_counts(pmf, 1) - d.sum()) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, INF])
def test_lkm_matches_joint_enumeration(p):
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        q, r = rng.random(n), rng.random(n)
        got = lkm_distance(disagreement(q, r), p)
        assert abs(got - enumerate_lkm(q, r, p)) < 1e-10
        # the vectorized oracle is the same enumeration
        assert abs(enumerate_lkm_fast(q, r, p) - enumerate_lkm(q, r, p)) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 5, INF])
def test_lkm_monotone_in_each_coordinate(p):
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = rng.random(int(rng.integers(1, 12)))
        i = int(rng.integers(d.size))
        bumped = d.copy()
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1 - bumped[i]))
        assert lkm_distance(bumped, p) >= lkm_distance(d, p) - 1e-12


@pytest.mark.parametrize("p", [1, 2, 4, INF])
def test_lkm_bounds(p):
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = rng.random(int(rng.integers(1, 20)))
        v = lkm_distance(d, p)
        top = 1.0 if p == INF else d.size ** (1.0 / p)
        assert -1e-12 <= v <= top + 1e-12


def test_lkm_rejects_bad_norm():
    with pytest.raises(ValidationError) as err:
        lkm_distance([0.5], 0.5)
    assert err.value.code == "wrong_norm"


def test_objective_empty_mask_deterministic_model():
    # deterministic posterior: self-distance is zero
    model = DbnModel(1, (0.4,), [Stage1Node((0,), additive([0.0, 1.0]))])
    assert objective_value(model, [1], Mask(()), 1) == pytest.approx(0.0)
    assert objective_value(model, [1], Mask((), "flip"), 1) == pytest.approx(0.0)


def test_objective_untargeted_single_node():
    # q = 0; hiding the only informative parent gives r = 0.5 * 0.75 = 0.375
    model = DbnModel(1, (0.5,), [Stage1Node((0,), additive([0.0, 0.75]))])
    x0 = (0,)
    assert true_posterior(model, x0)[0] == 0.0
    assert objective_value(model, x0, Mask([0]), 1) == pytest.approx(0.375)


def test_objective_targeted_is_negated_distance():
    model = DbnModel(2, (0.5, 0.5), [Stage1Node((0, 1), linear([0.3, 0.2]))])
    x0 = (0, 1)
    target = (1.0,)
    got = objective_value(model, x0, Mask([0]), 1, target)
    r = masked_posterior(model, x0, Mask([0]))
    assert got == pytest.approx(-float(lkm_distance(disagreement(target, r), 1)))
    assert got < 0


def test_objective_targeted_deterministic_match_is_zero():
    # deterministic q equal to a deterministic target: distance 0
    model = DbnModel(1, (0.4,), [Stage1Node((0,), additive([0.0, 1.0]))])
    assert objective_value(model, [1], Mask(()), 1, target=(1.0,)) == pytest.approx(0.0)


def test_objective_targeted_length_check():
    model = DbnModel(1, (0.4,), [Stage1Node((0,), additive([0.0, 1.0]))])
    with pytest.raises(ValidationError):
        objective_value(model, [1], Mask(()), 1, target=(1.0, 0.0))
