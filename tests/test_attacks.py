"""Mask solvers: worked examples, oracle equivalence, and contract invariants."""

import math

import numpy as np
import pytest

from halftruth import (
    AttackProblem,
    DbnModel,
    Stage1Node,
    ValidationError,
    additive,
    approx_attack,
    brute_force_attack,
    combined_attack,
    flip_approx_attack,
    flip_linear_exact_attack,
    gen_heuristic_adversarial,
    general,
    heuristic_attack,
    linear,
    linear_exact_attack,
    linear_gains,
    objective_value,
    random_mask_baseline,
    solve,
)
from oracles import enumerate_best_mask, random_instance, random_model

INF = math.inf

# frozen desk values for the two-block adversarial family (n=10, eps=0.01, k=5)
PATHOLOGICAL_OPT = 8.558910449099999  # 9 * 0.99**5
PATHOLOGICAL_HEURISTIC = 0.0495  # 0.01 * 5 * 0.99


def single_informative_parent():
    # q = 0 and hiding the parent yields r = 0.375
    return DbnModel(1, (0.5,), [Stage1Node((0,), additive([0.0, 0.75]))])


def pathological_problem():
    model = gen_heuristic_adversarial(10, 0.01)
    return AttackProblem(model, (0,) * 10, 5, 1, "hide")


# --- brute force --------------------------------------------------------------


def test_brute_force_zero_budget():
    model = single_informative_parent()
    result = brute_force_attack(AttackProblem(model, (0,), 0, 1, "hide"))
    assert result.mask.indices == ()
    assert result.value == pytest.approx(0.0)


def test_brute_force_single_parent_example():
    model = single_informative_parent()
    result = brute_force_attack(AttackProblem(model, (0,), 1, 1, "hide"))
    assert result.mask.indices == (0,)
    assert result.value == pytest.approx(0.375)


def test_brute_force_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for trial in range(30):
        model = random_model(rng, n0=5, n1=3)
        x0 = tuple(int(v) for v in rng.integers(0, 2, model.n0))
        k = int(rng.integers(0, 4))
        action = "hide" if trial % 2 else "flip"
        p = (1, 2, INF)[trial % 3]
        problem = AttackProblem(model, x0, k, p, action)
        result = brute_force_attack(problem)
        want_set, want_value = enumerate_best_mask(model, x0, k, action, p)
        assert result.value == pytest.approx(want_value, abs=1e-10)
        assert result.mask.indices == want_set


def test_brute_force_tie_break_is_lexicographic():
    # two exchangeable parents: hiding {0} and {1} tie, {0} must win
    model = DbnModel(2, (0.5, 0.5), [Stage1Node((0, 1), additive([0.0, 0.5, 1.0]))])
    result = brute_force_attack(AttackProblem(model, (0, 0), 1, 1, "hide"))
    assert result.mask.indices == (0,)


def test_brute_force_refuses_large_instances():
    model = DbnModel(60, (0.5,) * 60, [Stage1Node((0,), additive([0.0, 1.0]))])
    with pytest.raises(ValidationError) as err:
        brute_force_attack(AttackProblem(model, (0,) * 60, 10, 1, "hide"))
    assert err.value.code == "instance_too_large"


# --- approximation algorithm --------------------------------------------------


def test_approx_zero_budget():
    problem = pathological_problem()
    result = approx_attack(AttackProblem(problem.model, problem.x0, 0, 1, "hide"))
    assert result.mask.indices == ()


def test_approx_on_pathological_family():
    result = approx_attack(pathological_problem())
    assert result.mask.indices == (5, 6, 7, 8, 9)
    assert result.value == pytest.approx(PATHOLOGICAL_OPT, abs=1e-12)


def test_approx_single_node_matches_brute_force():
    # increasing table, q = 1 >= 1/2: hide the realized-1 parent, d = 0.7
    model = DbnModel(1, (0.3,), [Stage1Node((0,), additive([0.0, 1.0]))])
    problem = AttackProblem(model, (1,), 1, 1, "hide")
    result = approx_attack(problem)
    assert result.mask.indices == (0,)
    assert result.value == pytest.approx(0.7)
    assert result.value == pytest.approx(brute_force_attack(problem).value)


def test_approx_rejects_non_monotone():
    model = DbnModel(2, (0.5, 0.5), [Stage1Node((0, 1), additive([0.1, 0.9, 0.2]))])
    with pytest.raises(ValidationError) as err:
        approx_attack(AttackProblem(model, (0, 0), 1, 1, "hide"))
    assert err.value.code == "non_monotone_transition"
    assert err.value.node == 0


def test_approx_rejects_general_kind():
    model = DbnModel(1, (0.5,), [Stage1Node((0,), general([0.2, 0.8]))])
    with pytest.raises(ValidationError) as err:
        approx_attack(AttackProblem(model, (0,), 1, 1, "hide"))
    assert err.value.code == "non_monotone_transition"


def test_approx_rejects_flip_action():
    model = single_informative_parent()
    with pytest.raises(ValidationError) as err:
        approx_attack(AttackProblem(model, (0,), 1, 1, "flip"))
    assert err.value.code == "wrong_action"


@pytest.mark.parametrize("p", [1, 2, INF])
def test_approx_n_approximation_bound(p):
    rng = np.random.default_rng(31)
    for _ in range(40):
        model, x0 = random_instance(rng, "random_additive", max_n=8, monotone=True)
        k = int(rng.integers(0, 4))
        problem = AttackProblem(model, x0, k, p, "hide")
        approx = approx_attack(problem)
        brute = brute_force_attack(problem)
        assert approx.value >= brute.value / model.n1 - 1e-12


# --- heuristic ----------------------------------------------------------------


def test_heuristic_zero_budget():
    problem = pathological_problem()
    result = heuristic_attack(AttackProblem(problem.model, problem.x0, 0, 1, "hide"))
    assert result.mask.indices == ()


def test_heuristic_on_pathological_family():
    result = heuristic_attack(pathological_problem())
    assert result.mask.indices == (0, 1, 2, 3, 4)
    assert result.value == pytest.approx(PATHOLOGICAL_HEURISTIC, abs=1e-12)
    assert result.value / PATHOLOGICAL_OPT == pytest.approx(0.005783446420473427)


def test_heuristic_equals_brute_force_at_k1():
    rng = np.random.default_rng(37)
    for trial in range(15):
        model = random_model(rng, n0=6, n1=4)
        x0 = tuple(int(v) for v in rng.integers(0, 2, model.n0))
        action = "hide" if trial % 2 else "flip"
        problem = AttackProblem(model, x0, 1, 1, action)
        assert heuristic_attack(problem).value == pytest.approx(
            brute_force_attack(problem).value, abs=1e-12
        )


def test_heuristic_value_nondecreasing_in_budget():
    rng = np.random.default_rng(41)
    model = random_model(rng, n0=8, n1=6)
    x0 = tuple(int(v) for v in rng.integers(0, 2, model.n0))
    values = [
        heuristic_attack(AttackProblem(model, x0, k, 2, "hide")).value for k in range(model.n0 + 1)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# --- combined -----------------------------------------------------------------


def test_combined_on_pathological_family():
    result = combined_attack(pathological_problem())
    assert result.algorithm == "combined[approx]"
    assert result.mask.indices == (5, 6, 7, 8, 9)
    assert result.value == pytest.approx(PATHOLOGICAL_OPT, abs=1e-12)


def test_combined_takes_the_better_branch():
    rng = np.random.default_rng(43)
    for _ in range(10):
        model, x0 = random_instance(rng, "random_additive", max_n=7, monotone=True)
        problem = AttackProblem(model, x0, 2, 1, "hide")
        combined = combined_attack(problem)
        assert combined.value >= approx_attack(problem).value - 1e-15
        assert combined.value >= heuristic_attack(problem).value - 1e-15


def test_combined_degrades_to_heuristic():
    model = DbnModel(1, (0.5,), [Stage1Node((0,), general([0.2, 0.8]))])
    problem = AttackProblem(model, (0,), 1, 1, "hide")
    result = combined_attack(problem)
    assert result.algorithm == "combined[heuristic-only]"
    assert result.value == pytest.approx(heuristic_attack(problem).value)


def test_combined_zero_budget():
    problem = pathological_problem()
    result = combined_attack(AttackProblem(problem.model, problem.x0, 0, 1, "hide"))
    assert result.mask.indices == ()


# --- linear exact solvers -----------------------------------------------------


def test_linear_hide_gain_worked_example():
    model = DbnModel(1, (0.6,), [Stage1Node((0,), linear([0.3]))])
    problem = AttackProblem(model, (0,), 1, 1, "hide")
    gains = linear_gains(problem)
    assert gains[0] == pytest.approx(0.18)
    result = linear_exact_attack(problem)
    assert result.mask.indices == (0,)
    assert result.value == pytest.approx(0.18)
    delta = objective_value(model, (0,), result.mask, 1) - objective_value(
        model, (0,), result.mask.__class__((), "hide"), 1
    )
    assert delta == pytest.approx(0.18)


def test_linear_exact_keeps_mask_empty_when_gains_negative():
    # realized-1 parent with Q < 1/2: hiding only shrinks the disagreement
    model = DbnModel(1, (0.5,), [Stage1Node((0,), linear([0.4]))])
    result = linear_exact_attack(AttackProblem(model, (1,), 1, 1, "hide"))
    assert result.mask.indices == ()


def test_linear_exact_requires_p1():
    model = DbnModel(1, (0.5,), [Stage1Node((0,), linear([0.4]))])
    with pytest.raises(ValidationError) as err:
        linear_exact_attack(AttackProblem(model, (1,), 1, 2, "hide"))
    assert err.value.code == "wrong_norm"


def test_linear_exact_requires_linear_kind():
    model = single_informative_parent()
    with pytest.raises(ValidationError) as err:
        linear_exact_attack(AttackProblem(model, (0,), 1, 1, "hide"))
    assert err.value.code == "non_linear_transition"


def test_linear_exact_matches_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(60):
        model, x0 = random_instance(rng, "random_linear", max_n=9)
        k = int(rng.integers(0, 5))
        problem = AttackProblem(model, x0, k, 1, "hide")
        assert linear_exact_attack(problem).value == pytest.approx(
            brute_force_attack(problem).value, abs=1e-9
        )


def test_linear_exact_matches_brute_force_targeted():
    rng = np.random.default_rng(53)
    for _ in range(30):
        model, x0 = random_instance(rng, "random_linear", max_n=7)
        target = tuple(rng.random(model.n1))
        k = int(rng.integers(0, 4))
        problem = AttackProblem(model, x0, k, 1, "hide", target)
        assert linear_exact_attack(problem).value == pytest.approx(
            brute_force_attack(problem).value, abs=1e-9
        )


def test_linear_gain_additivity():
    # the gain of adding an index is the same whatever is already hidden
    rng = np.random.default_rng(59)
    for _ in range(50):
        model, x0 = random_instance(rng, "random_linear", max_n=8)
        problem = AttackProblem(model, x0, model.n0, 1, "hide")
        gains = linear_gains(problem)
        size = int(rng.integers(0, model.n0))
        eta = sorted(rng.choice(model.n0, size=size, replace=False).tolist())
        rest = [j for j in range(model.n0) if j not in eta]
        if not rest:
            continue
        r = rest[int(rng.integers(len(rest)))]
        base = objective_value(model, x0, _hide_mask(eta), 1)
        bumped = objective_value(model, x0, _hide_mask(sorted(eta + [r])), 1)
        assert bumped - base == pytest.approx(gains[r], abs=1e-10)


def _hide_mask(indices):
    from halftruth import Mask

    return Mask(indices, "hide")


# --- flipping variants ----------------------------------------------------------


def test_flip_approx_zero_budget():
    model = single_informative_parent()
    result = flip_approx_attack(AttackProblem(model, (0,), 0, 1, "flip"))
    assert result.mask.indices == ()


def test_flip_approx_deterministic_flip():
    model = DbnModel(1, (0.5,), [Stage1Node((0,), additive([0.0, 1.0]))])
    result = flip_approx_attack(AttackProblem(model, (0,), 1, 1, "flip"))
    assert result.mask.indices == (0,)
    assert result.value == pytest.approx(1.0)


def test_flip_approx_requires_flip_action():
    model = single_informative_parent()
    with pytest.raises(ValidationError) as err:
        flip_approx_attack(AttackProblem(model, (0,), 1, 1, "hide"))
    assert err.value.code == "wrong_action"


def test_flip_approx_requires_additive():
    model = DbnModel(1, (0.5,), [Stage1Node((0,), linear([0.4]))])
    with pytest.raises(ValidationError) as err:
        flip_approx_attack(AttackProblem(model, (1,), 1, 1, "flip"))
    assert err.value.code == "non_additive_transition"


def test_flip_approx_n_approximation_bound():
    rng = np.random.default_rng(61)
    for _ in range(25):
        model, x0 = random_instance(rng, "random_additive", max_n=8)
        k = int(rng.integers(0, 4))
        problem = AttackProblem(model, x0, k, 1, "flip")
        flip = flip_approx_attack(problem)
        brute = brute_force_attack(problem)
        assert flip.value >= brute.value / model.n1 - 1e-12


def test_flip_linear_gain_worked_examples():
    model = DbnModel(1, (0.6,), [Stage1Node((0,), linear([0.3]))])
    up = AttackProblem(model, (0,), 1, 1, "flip")
    assert linear_gains(up)[0] == pytest.approx(0.3)
    result = flip_linear_exact_attack(up)
    assert result.mask.indices == (0,)
    assert result.value == pytest.approx(0.3)
    down = AttackProblem(model, (1,), 1, 1, "flip")
    assert linear_gains(down)[0] == pytest.approx(-0.12)
    assert flip_linear_exact_attack(down).mask.indices == ()


def test_flip_linear_exact_matches_brute_force():
    rng = np.random.default_rng(67)
    for trial in range(60):
        model, x0 = random_instance(rng, "random_linear", max_n=9)
        k = int(rng.integers(0, 5))
        target = tuple(rng.random(model.n1)) if trial % 3 == 0 else None
        problem = AttackProblem(model, x0, k, 1, "flip", target)
        assert flip_linear_exact_attack(problem).value == pytest.approx(
            brute_force_attack(problem).value, abs=1e-9
        )


# --- random baseline ------------------------------------------------------------


def test_random_baseline_zero_budget():
    model = single_informative_parent()
    result = random_mask_baseline(AttackProblem(model, (0,), 0, 1, "hide"), seed=1)
    assert result.mask.indices == ()


def test_random_baseline_deterministic_and_exact_size():
    rng = np.random.default_rng(71)
    model = random_model(rng, n0=8, n1=4)
    x0 = tuple(int(v) for v in rng.integers(0, 2, 8))
    problem = AttackProblem(model, x0, 3, 1, "hide")
    a = random_mask_baseline(problem, seed=99)
    b = random_mask_baseline(problem, seed=99)
    assert a.mask.indices == b.mask.indices
    assert len(a.mask.indices) == 3


def test_random_baseline_forced_full_mask():
    model = DbnModel(5, (0.5,) * 5, [Stage1Node((0,), additive([0.0, 1.0]))])
    result = random_mask_baseline(AttackProblem(model, (0,) * 5, 5, 1, "hide"), seed=0)
    assert result.mask.indices == (0, 1, 2, 3, 4)


# --- cross-cutting contracts ----------------------------------------------------


def test_results_satisfy_value_and_size_contracts():
    rng = np.random.default_rng(73)
    for trial in range(20):
        model, x0 = random_instance(rng, "random_additive", max_n=7, monotone=True)
        k = int(rng.integers(0, 4))
        for name in ("brute_force", "approx", "heuristic", "combined"):
            problem = AttackProblem(model, x0, k, (1, 2, INF)[trial % 3], "hide")
            result = solve(problem, name)
            assert len(result.mask) <= problem.budget
            recomputed = objective_value(model, x0, result.mask, problem.p)
            assert result.value == pytest.approx(recomputed, abs=1e-12)


def test_linear_and_flip_results_satisfy_contracts():
    rng = np.random.default_rng(79)
    for _ in range(15):
        model, x0 = random_instance(rng, "random_linear", max_n=8)
        k = int(rng.integers(0, 4))
        checks = [
            (linear_exact_attack, AttackProblem(model, x0, k, 1, "hide")),
            (flip_linear_exact_attack, AttackProblem(model, x0, k, 1, "flip")),
        ]
        for fn, problem in checks:
            result = fn(problem)
            assert len(result.mask) <= problem.budget
            recomputed = objective_value(model, x0, result.mask, 1)
            assert result.value == pytest.approx(recomputed, abs=1e-12)
        flip_problem = AttackProblem(model, x0, k, 1, "flip")
        baseline = random_mask_baseline(flip_problem, seed=int(rng.integers(2**32)))
        assert baseline.value == pytest.approx(
            objective_value(model, x0, baseline.mask, 1), abs=1e-12
        )


def test_flip_approx_results_satisfy_contracts():
    rng = np.random.default_rng(83)
    for _ in range(10):
        model, x0 = random_instance(rng, "random_additive", max_n=7)
        problem = AttackProblem(model, x0, int(rng.integers(0, 4)), 1, "flip")
        result = flip_approx_attack(problem)
        assert len(result.mask) <= problem.budget
        assert result.value == pytest.approx(
            objective_value(model, x0, result.mask, 1), abs=1e-12
        )


def test_budget_clamped_to_n0():
    model = single_informative_parent()
    assert AttackProblem(model, (0,), 99, 1, "hide").budget == 1
    with pytest.raises(ValidationError):
        AttackProblem(model, (0,), -1, 1, "hide")


def test_solve_rejects_unknown_algorithm():
    model = single_informative_parent()
    with pytest.raises(ValidationError):
        solve(AttackProblem(model, (0,), 1, 1, "hide"), "annealing")
