"""Monte Carlo estimators: consistency with the analytic objective, determinism."""

import math

import numpy as np
import pytest

from halftruth import (
    AttackProblem,
    DbnModel,
    Mask,
    SimConfig,
    Stage1Node,
    ValidationError,
    additive,
    disagreement,
    empty_policy,
    gen_theorem1,
    lkm_distance,
    induced_posterior,
    make_algorithm_policy,
    model_from_json,
    model_to_json,
    oracle_policy,
    run_expectation,
    run_sampled_distance,
    solve,
    theorem1_closed_form,
    true_posterior,
)
from halftruth.simulate import baseline_seed, derive_seed, realization_rng
from oracles import random_model
from test_model import legacy_text


def two_indicator_model():
    # two independent indicator nodes; hiding both parents gives r = (0.5, 0.5)
    nodes = [Stage1Node((0,), additive([0.0, 1.0])), Stage1Node((1,), additive([0.0, 1.0]))]
    return DbnModel(2, (0.5, 0.5), nodes)


def test_empty_policy_zero_mean_on_deterministic_model():
    config = SimConfig(model=gen_theorem1(6), policy=empty_policy, budget=6, trials=50, seed=1)
    report = run_expectation(config)
    assert report.mean == 0.0
    assert report.se == 0.0


def test_degenerate_priors_have_zero_se():
    model = DbnModel(2, (1.0, 0.0), [Stage1Node((0, 1), additive([0.0, 0.5, 1.0]))])
    config = SimConfig(
        model=model, policy=make_algorithm_policy("heuristic"), budget=1, trials=20, seed=5
    )
    assert run_expectation(config).se == 0.0


def test_expectation_reproducible_bit_exact():
    config = SimConfig(
        model=gen_theorem1(12),
        policy=oracle_policy,
        budget=12,
        trials=64,
        seed=99,
    )
    a, b = run_expectation(config), run_expectation(config)
    assert a.mean == b.mean and a.se == b.se and a.values == b.values


@pytest.mark.parametrize("n", [50, 200])
def test_oracle_means_same_bits_on_loaded_model(n):
    generated = gen_theorem1(n)
    compact = model_from_json(model_to_json(generated))
    legacy = model_from_json(legacy_text(generated))
    means = [
        run_expectation(
            SimConfig(model=m, policy=oracle_policy, budget=n, p=1, trials=200, seed=n)
        ).mean
        for m in (generated, compact, legacy)
    ]
    assert means[0] == means[1] == means[2]


def test_oracle_policy_refuses_flip():
    config = SimConfig(
        model=gen_theorem1(6), policy=oracle_policy, budget=6, action="flip", trials=20, seed=1
    )
    with pytest.raises(ValidationError) as err:
        run_expectation(config)
    assert err.value.code == "wrong_action"


def test_algorithm_policy_returns_the_solver_mask():
    model = gen_theorem1(6)
    problem = AttackProblem(model, (0, 1, 0, 0, 1, 0), 2)
    mask = make_algorithm_policy("heuristic")(problem, None)
    assert mask == solve(problem, "heuristic").mask


def test_expectation_matches_closed_form_small_n():
    n, trials = 30, 3000
    config = SimConfig(
        model=gen_theorem1(n), policy=oracle_policy, budget=n, p=1, trials=trials, seed=7
    )
    report = run_expectation(config)
    assert abs(report.mean / n - theorem1_closed_form(n)) <= 3 * report.se / n


def test_sampled_distance_deterministic_zero():
    model = two_indicator_model()
    report = run_sampled_distance(model, (1, 1), Mask(()), 1, trials=200, seed=3)
    assert report.mean == 0.0 and report.se == 0.0


def test_sampled_distance_fair_coin_sum():
    model = two_indicator_model()
    report = run_sampled_distance(model, (0, 0), Mask([0, 1]), 1, trials=100_000, seed=11)
    # d = (0.5, 0.5) so the analytic distance is 1.0
    assert abs(report.mean - 1.0) <= 3 * report.se


@pytest.mark.parametrize(
    "p,seed,code",
    [
        (0, 3, "wrong_norm"),
        (-1, 3, "wrong_norm"),
        (2.5, 3, "wrong_norm"),
        (True, 3, "wrong_norm"),
        (math.nan, 3, "wrong_norm"),
        (1, -1, "spec_invalid"),
        (1, 1.5, "spec_invalid"),
        (1, True, "spec_invalid"),
    ],
)
def test_sampled_distance_rejects_bad_norm_and_seed(p, seed, code):
    with pytest.raises(ValidationError) as err:
        run_sampled_distance(two_indicator_model(), (0, 0), Mask([0]), p, trials=5, seed=seed)
    assert err.value.code == code


def test_sampled_distance_reads_integral_floats_as_integers():
    model = two_indicator_model()

    def values(p, seed):
        report = run_sampled_distance(model, (0, 0), Mask([0, 1]), p, 50, seed)
        return report.values

    assert values(2.0, 4.0) == values(2, 4) == values(np.int64(2), np.int64(4))


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_sampled_distance_consistent_with_analytic(p):
    rng = np.random.default_rng(17)
    misses = 0
    for trial in range(6):
        model = random_model(rng, n0=6, n1=5)
        x0 = tuple(int(v) for v in rng.integers(0, 2, 6))
        size = int(rng.integers(0, 4))
        mask = Mask(sorted(rng.choice(6, size=size, replace=False).tolist()))
        analytic = lkm_distance(
            disagreement(true_posterior(model, x0), induced_posterior(model, x0, mask)), p
        )
        report = run_sampled_distance(model, x0, mask, p, trials=4000, seed=trial)
        tol = 3 * report.se if report.se else 1e-12
        if abs(report.mean - analytic) > tol:
            misses += 1
    # 3-sigma test with a documented rerun allowance: one miss tolerated
    assert misses <= 1


def test_sim_report_json_shape():
    config = SimConfig(model=gen_theorem1(5), policy=empty_policy, budget=5, trials=3, seed=0)
    doc = run_expectation(config).to_json_dict()
    assert set(doc) == {"mean", "se", "trials", "wall_ms"}
    assert doc["trials"] == 3


def test_trials_must_be_positive():
    with pytest.raises(ValidationError):
        SimConfig(model=gen_theorem1(4), policy=empty_policy, budget=1, trials=0)


@pytest.mark.parametrize("seed", [-1, -4, 1.5, math.nan, True])
def test_seed_helpers_reject_bad_seeds(seed):
    for call in (lambda: derive_seed(seed, 1), lambda: derive_seed(0, seed),
                 lambda: realization_rng(seed), lambda: baseline_seed(seed)):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == "spec_invalid"


def test_seed_helpers_keep_their_streams():
    for master, path in [(0, (1, 0)), (13, (8, 1)), (2**40, ()), (7.0, (3.0,))]:
        entropy = [int(master), *map(int, path)]
        want = int(np.random.SeedSequence(entropy).generate_state(1)[0])
        assert derive_seed(master, *path) == want
    for seed in (0, 5, 2**63):
        got = realization_rng(seed).random(8)
        assert np.array_equal(got, np.random.default_rng([seed, 0]).random(8))
        assert baseline_seed(seed) == [seed, 1]
