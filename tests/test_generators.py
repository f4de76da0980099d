"""Instance families: structure, determinism, and their oracle adversaries."""

import math

import numpy as np
import pytest

from halftruth import (
    AttackProblem,
    GenSpec,
    ValidationError,
    brute_force_attack,
    gen_heuristic_adversarial,
    gen_random,
    gen_theorem1,
    generate,
    heuristic_attack,
    model_to_json,
    objective_value,
    theorem1_closed_form,
    theorem1_oracle_adversary,
    validate_model,
)
from oracles import random_model


@pytest.mark.parametrize("family", ["random_general", "random_additive", "random_linear"])
def test_random_families_validate(family):
    for seed in range(5):
        spec = GenSpec(family, n0=9, n1=7, edge_density=0.4, monotone=True, seed=seed)
        validate_model(generate(spec))


def test_density_zero_forces_single_parent():
    model = gen_random(GenSpec("random_additive", n0=8, n1=6, edge_density=0.0, seed=3))
    assert all(len(node.parents) == 1 for node in model.nodes)


def test_density_one_gives_complete_bipartite():
    model = gen_random(GenSpec("random_additive", n0=7, n1=5, edge_density=1.0, seed=3))
    assert all(node.parents == tuple(range(7)) for node in model.nodes)


def test_general_family_respects_parent_cap():
    model = gen_random(GenSpec("random_general", n0=30, n1=4, edge_density=1.0, seed=1))
    validate_model(model)
    assert all(len(node.parents) <= 20 for node in model.nodes)


def test_same_seed_same_model():
    spec = GenSpec("random_linear", n0=10, n1=10, edge_density=0.3, seed=77)
    assert generate(spec) == generate(spec)
    assert model_to_json(generate(spec)) == model_to_json(generate(spec))


def test_monotone_flag_sorts_additive_tables():
    model = gen_random(GenSpec("random_additive", n0=8, n1=8, edge_density=0.5, monotone=True, seed=5))
    for node in model.nodes:
        assert node.transition.monotone_direction() == "increasing"


def test_spec_rejects_bad_density():
    with pytest.raises(ValidationError):
        GenSpec("random_additive", n0=4, edge_density=1.5)


def test_spec_rejects_unknown_family():
    with pytest.raises(ValidationError):
        GenSpec("random_trees", n0=4)


@pytest.mark.parametrize(
    "fields",
    [{"n0": 0}, {"n0": -3}, {"n0": 2.5}, {"n0": True}, {"n1": 0}, {"n0": 0, "n1": 2},
     {"seed": -1}, {"seed": 1.5}, {"seed": math.nan}],
)
def test_spec_rejects_bad_sizes_and_seeds(fields):
    with pytest.raises(ValidationError) as err:
        GenSpec("random_additive", **{"n0": 4, **fields})
    assert err.value.code == "spec_invalid"


def test_spec_keeps_integral_floats_and_streams():
    spec = GenSpec("random_additive", n0=6.0, n1=4.0, seed=7.0)
    assert (spec.n0, spec.n1, spec.seed) == (6, 4, 7)
    assert all(type(v) is int for v in (spec.n0, spec.n1, spec.seed))
    want = generate(GenSpec("random_additive", n0=6, n1=4, seed=7))
    assert model_to_json(generate(spec)) == model_to_json(want)


def test_theorem1_structure_and_priors():
    model = gen_theorem1(2, a=[0, 0], b=[1, 1])
    assert [n.transition.values for n in model.nodes] == [(0.0, 1.0, 1.0)] * 2
    assert model.priors[0] == pytest.approx(math.log(2) / 2)
    assert gen_theorem1(100).priors[0] == pytest.approx(0.04605170185988092)


@pytest.mark.parametrize("n", [2, 10, 100, 1000, 10_000])
def test_theorem1_validates_across_sizes(n):
    validate_model(gen_theorem1(n))


def test_theorem1_default_is_deterministic_extreme():
    model = gen_theorem1(5)
    assert model.nodes[0].transition.values == (1.0,) + (0.0,) * 5


def test_theorem1_oracle_all_zero_hides_first_k():
    model = gen_theorem1(6)
    assert theorem1_oracle_adversary(model, [0] * 6, 3).indices == (0, 1, 2)


def test_theorem1_oracle_hides_exactly_the_ones():
    model = gen_theorem1(4)
    assert theorem1_oracle_adversary(model, [0, 1, 0, 1], 2).indices == (1, 3)


def test_theorem1_oracle_gives_up_over_budget():
    model = gen_theorem1(3)
    assert theorem1_oracle_adversary(model, [1, 1, 1], 2).indices == ()


def test_theorem1_oracle_rejects_a_fractional_realization():
    with pytest.raises(ValidationError) as err:
        theorem1_oracle_adversary(gen_theorem1(4), [0.6, 0, 0, 0], 2)
    assert err.value.code == "realization_invalid"


@pytest.mark.parametrize("k", [2.5, 0.5, -1, True, "2"])
def test_theorem1_oracle_rejects_a_bad_budget(k):
    with pytest.raises(ValidationError) as err:
        theorem1_oracle_adversary(gen_theorem1(4), [0, 0, 0, 0], k)
    assert err.value.code == "spec_invalid"


def test_theorem1_oracle_keeps_an_integral_float_budget():
    assert theorem1_oracle_adversary(gen_theorem1(4), [0, 0, 0, 0], 2.0).indices == (0, 1)


def test_theorem1_oracle_rejects_other_models():
    model = random_model(np.random.default_rng(1), n0=4, n1=4)
    with pytest.raises(ValidationError) as err:
        theorem1_oracle_adversary(model, [0] * 4, 2)
    assert err.value.code == "wrong_family"


def test_theorem1_oracle_is_optimal_on_small_instances():
    # the case analysis must agree with exhaustive search over masks
    model = gen_theorem1(5)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x0 = tuple(int(v) for v in (rng.random(5) < model.priors_array))
        oracle_mask = theorem1_oracle_adversary(model, x0, 5)
        best = brute_force_attack(AttackProblem(model, x0, 5, 1, "hide"))
        got = objective_value(model, x0, oracle_mask, 1)
        assert got == pytest.approx(best.value, abs=1e-12)


def test_theorem1_closed_form_values():
    # frozen from direct evaluation of (1-e)^n ((1+e)^n - (1-e)^n), e = ln(n)/n
    assert theorem1_closed_form(50) == pytest.approx(0.7353469281, abs=1e-9)
    assert theorem1_closed_form(200) == pytest.approx(0.8689801043, abs=1e-9)
    assert theorem1_closed_form(800) == pytest.approx(0.9456728877, abs=1e-9)


def test_heuristic_adversarial_structure():
    model = gen_heuristic_adversarial(10, 0.01)
    validate_model(model)
    assert model.nodes[0].parents == tuple(range(5))
    assert model.nodes[0].transition.values == pytest.approx((0, 0.01, 0.02, 0.03, 0.04, 0.05))
    for node in model.nodes[1:]:
        assert node.parents == tuple(range(5, 10))
        assert node.transition.values == (0.0,) * 5 + (1.0,)
    # The jackpot nodes are one shared object, so per-node work runs twice, not n times.
    assert len(model.node_table[0]) == 2
    assert model.priors == (0.99,) * 10


def test_heuristic_adversarial_rejects_odd_or_big_eps():
    with pytest.raises(ValidationError):
        gen_heuristic_adversarial(11, 0.01)
    with pytest.raises(ValidationError):
        gen_heuristic_adversarial(10, 0.5)  # eps * n/2 > 1


def test_heuristic_adversarial_optimum_hides_second_block():
    model = gen_heuristic_adversarial(10, 0.01)
    problem = AttackProblem(model, (0,) * 10, 5, 1, "hide")
    best = brute_force_attack(problem)
    assert best.mask.indices == (5, 6, 7, 8, 9)
    ratio = heuristic_attack(problem).value / best.value
    assert ratio == pytest.approx(0.005783446420473427, abs=1e-12)


def test_generation_is_pure_function_of_spec():
    for family in ("random_general", "random_additive", "random_linear"):
        spec = GenSpec(family, n0=12, n1=9, edge_density=0.35, monotone=False, seed=123)
        blobs = {model_to_json(generate(spec)) for _ in range(3)}
        assert len(blobs) == 1
