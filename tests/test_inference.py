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
    general,
    induced_posterior,
    linear,
    lkm_distance,
    lkm_from_counts,
    masked_posterior,
    objective_value,
    poisson_binomial_pmf,
    transition_prob,
    true_posterior,
    validate_model,
)
from halftruth.inference import _SCALAR_PMF_MAX, Evaluator, _scalar_pmf, check_norm, check_target
from halftruth.model import check_realization
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
    "x0, code",
    [
        ([1, 0], "length_mismatch"),
        ([1, 2, 0], "realization_invalid"),
        ([0.6, 1, 0], "realization_invalid"),
        ("101", "realization_invalid"),
        ([math.nan, 1, 0], "realization_invalid"),
        ([True, 0, 1], "realization_invalid"),
    ],
)
def test_posterior_rejects_bad_realization(toy, x0, code):
    with pytest.raises(ValidationError) as err:
        true_posterior(toy, x0)
    assert err.value.code == code


def test_realization_keeps_integral_floats_and_numpy_integers(toy):
    assert check_realization(toy, [1.0, np.int64(0), 1]) == (1, 0, 1)


def nested_loop_hide(model, x0, hidden, node):
    """A general node's hide marginal: every hidden assignment, one bit at a time."""
    pos = {j: k for k, j in enumerate(node.parents)}
    hid = [j for j in node.parents if j in hidden]
    base = 0
    for j in node.parents:
        if j not in hidden and x0[j]:
            base |= 1 << pos[j]
    if not hid:
        return node.transition.values[base]
    total = 0.0
    for assign in range(1 << len(hid)):
        w = 1.0
        idx = base
        for b, j in enumerate(hid):
            if (assign >> b) & 1:
                w *= model.priors[j]
                idx |= 1 << pos[j]
            else:
                w *= 1.0 - model.priors[j]
        total += w * node.transition.values[idx]
    return total


# Priors and table entries where a changed operation would show in the bits.
EDGE_VALUES = (-0.0, 0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308)


def with_edge_values(rng, values, share=0.25):
    """``values`` with about ``share`` of its entries replaced by edge values, one by -0.0."""
    out = np.array(values, dtype=float)
    hit = rng.random(out.size) < share
    out[hit] = rng.choice(EDGE_VALUES, size=int(hit.sum()))
    if share:
        out[rng.integers(out.size)] = -0.0
    return out


@pytest.mark.parametrize("seed", range(3))
def test_general_node_with_up_to_ten_hidden_parents(seed):
    rng = np.random.default_rng(seed)
    n0 = 14
    parents = sorted(rng.choice(n0, size=12, replace=False).tolist())
    x0 = tuple(rng.integers(0, 2, n0).tolist())
    table = with_edge_values(rng, rng.random(1 << 12))
    # The realized row holds -0.0, which a sum started at 0.0 would turn into 0.0.
    table[sum(1 << k for k, j in enumerate(parents) if x0[j])] = -0.0
    node = Stage1Node(parents, general(table))
    model = DbnModel(n0, with_edge_values(rng, rng.random(n0)), [node])
    for h in range(11):
        # h of the node's parents plus one index outside them.
        chosen = rng.choice(parents, size=h, replace=False).tolist()
        outside = [j for j in range(n0) if j not in parents]
        indices = sorted(chosen + outside[:1])
        hidden = induced_posterior(model, x0, Mask(indices, "hide"))[0]
        assert hidden.hex() == nested_loop_hide(model, x0, set(indices), node).hex()
        flipped = induced_posterior(model, x0, Mask(indices, "flip"))[0]
        shown = [x0[j] ^ (j in indices) for j in parents]
        assert flipped.hex() == transition_prob(node, shown).hex()


def block_posteriors(model, x0, masks, action):
    """Each mask's node marginals through one evaluator block."""
    return Evaluator(model, x0, 1, action).posteriors(masks)


@pytest.mark.parametrize("seed", range(3))
def test_grouped_general_hide_keeps_the_bits_of_the_loop(seed):
    rng = np.random.default_rng(seed)
    n0 = 14
    nodes = []
    for npar in (3, 7, 12):
        parents = sorted(rng.choice(n0, size=npar, replace=False).tolist())
        nodes.append(Stage1Node(parents, general(with_edge_values(rng, rng.random(1 << npar)))))
    # A table of -0.0 only: the loop's total starts at 0.0, so it gives 0.0.
    nodes.append(Stage1Node([0, 1, 2], general([-0.0] * 8)))
    model = DbnModel(n0, with_edge_values(rng, rng.random(n0)), nodes)
    x0 = tuple(rng.integers(0, 2, n0).tolist())
    # Masks of every size up to 10, several of each, in one block.
    masks = [sorted(rng.choice(n0, size=h, replace=False).tolist()) for h in range(11)] * 3
    got = block_posteriors(model, x0, masks, "hide")
    for mask, row in zip(masks, got):
        want = [nested_loop_hide(model, x0, set(mask), node) for node in nodes]
        assert [v.hex() for v in row] == [v.hex() for v in want]
        if {0, 1, 2} & set(mask):
            assert row[-1].hex() == "0x0.0p+0"


@pytest.mark.parametrize("action", ("hide", "flip"))
@pytest.mark.parametrize("seed", range(3))
def test_grouped_linear_keeps_the_bits_of_transition_prob(seed, action):
    rng = np.random.default_rng(seed)
    n0 = 30
    nodes = []
    for npar in (1, 4, 9, 25):
        parents = sorted(rng.choice(n0, size=npar, replace=False).tolist())
        coeffs = with_edge_values(rng, rng.random(npar) / npar)
        nodes.append(Stage1Node(parents, linear(coeffs)))
    model = DbnModel(n0, with_edge_values(rng, rng.random(n0)), nodes)
    x0 = tuple(rng.integers(0, 2, n0).tolist())
    masks = [sorted(rng.choice(n0, size=h, replace=False).tolist()) for h in range(0, 30, 3)]
    got = block_posteriors(model, x0, masks, action)
    for mask, row in zip(masks, got):
        if action == "hide":
            shown = [[model.priors[j] if j in mask else x0[j] for j in n.parents] for n in nodes]
        else:
            shown = [[x0[j] ^ (j in mask) for j in n.parents] for n in nodes]
        want = [transition_prob(n, s) for n, s in zip(nodes, shown)]
        assert [v.hex() for v in row] == [v.hex() for v in want]


def test_block_names_the_node_past_the_parent_cap():
    # Position 1 holds a general node with 22 parents (the model is not
    # validated); hiding 21 of them is past the enumeration cap.
    small = Stage1Node([0, 1], general([0.1, 0.2, 0.3, 0.4]))
    wide = Stage1Node(range(22), general([0.5, 0.5]))
    model = DbnModel(23, [0.5] * 23, [small, wide, wide])
    x0 = [0] * 23
    for masks in ([list(range(21))], [[22], [0, 22], list(range(21))]):
        with pytest.raises(ValidationError) as err:
            Evaluator(model, x0, 1).batch(masks)
        assert err.value.code == "parent_cap_exceeded" and err.value.node == 1
    with pytest.raises(ValidationError) as err:
        objective_value(model, x0, Mask(range(21), "hide"), 2)
    assert err.value.code == "parent_cap_exceeded" and err.value.node == 1


def test_matrix_reductions_keep_the_bits_of_row_reductions():
    # p=1 and p=inf reduce the whole disagreement matrix along its rows; for a
    # C-contiguous matrix numpy sums and multiplies each row as it does alone.
    rng = np.random.default_rng(0)
    for n1 in [*range(1, 40), 63, 64, 65, 127, 128, 129, 255, 256, 257, 500, 800]:
        for count in (1, 2, 7, 64, 256):
            d = with_edge_values(rng, rng.random(count * n1), 0.1).reshape(count, n1)
            assert d.flags.c_contiguous
            assert d.sum(axis=1).tobytes() == np.array([row.sum() for row in d]).tobytes()
            prods = np.prod(1.0 - d, axis=1)
            assert prods.tobytes() == np.array([np.prod(1.0 - row) for row in d]).tobytes()


def test_evaluator_reduces_a_c_contiguous_disagreement_matrix(monkeypatch):
    from halftruth import inference

    seen = []
    distances = inference._distances

    def spy(d, p):
        seen.append(d.flags.c_contiguous)
        return distances(d, p)

    monkeypatch.setattr(inference, "_distances", spy)
    # Two positions share one node object, so the slot gather is not the identity.
    node = Stage1Node([0, 1], additive([0.1, 0.5, 0.9]))
    model = DbnModel(3, [0.3, 0.6, 0.2], [node, Stage1Node([2], linear([0.7])), node])
    for p in (1, 2, INF):
        Evaluator(model, [1, 0, 1], p).batch([[0], [1, 2], [], [0, 1, 2]])
    assert seen == [True] * 3


def numpy_dp_hide(model, x0, hidden, node):
    """An additive node's hide marginal through the numpy DP, as every miss once ran."""
    hid = [j for j in node.parents if j in hidden]
    obs_sum = sum([x0[j] for j in node.parents if j not in hidden])
    if not hid:
        return transition_prob(node, [x0[j] for j in node.parents])
    pmf = poisson_binomial_pmf([model.priors[j] for j in hid])
    return float(pmf @ node.transition.values_array[obs_sum : obs_sum + len(hid) + 1])


def test_scalar_pmf_has_the_bits_of_the_numpy_dp():
    rng = np.random.default_rng(0)
    for h in range(1, _SCALAR_PMF_MAX + 3):
        for share in (0.0, 0.3, 1.0):
            priors = with_edge_values(rng, rng.random(h), share).tolist()
            want = poisson_binomial_pmf(priors)
            assert np.array(_scalar_pmf(priors)).tobytes() == want.tobytes(), (h, priors)


def test_scalar_pmf_top_entry_of_a_negative_zero_prior_is_zero():
    # The numpy DP adds the zero-filled entry's 0.0 * q to the new top entry,
    # so the -0.0 that 1.0 * -0.0 gives there comes out as 0.0.
    assert [v.hex() for v in _scalar_pmf([-0.0])] == ["0x1.0000000000000p+0", "0x0.0p+0"]


@pytest.mark.parametrize("seed", range(3))
def test_additive_node_hide_keeps_the_bits_of_the_numpy_dp(seed):
    rng = np.random.default_rng(seed)
    npar = _SCALAR_PMF_MAX + 2
    n0 = npar + 2
    parents = sorted(rng.choice(n0, size=npar, replace=False).tolist())
    x0 = tuple(rng.integers(0, 2, n0).tolist())
    table = with_edge_values(rng, np.sort(rng.random(npar + 1)))
    table[sum(x0[j] for j in parents)] = -0.0
    node = Stage1Node(parents, additive(table))
    model = DbnModel(n0, with_edge_values(rng, rng.random(n0)), [node])
    outside = [j for j in range(n0) if j not in parents]
    for h in [*range(8), _SCALAR_PMF_MAX - 1, _SCALAR_PMF_MAX, npar - 1, npar]:
        chosen = rng.choice(parents, size=h, replace=False).tolist()
        indices = sorted(chosen + outside[:1])
        got = induced_posterior(model, x0, Mask(indices, "hide"))[0]
        assert got.hex() == numpy_dp_hide(model, x0, set(indices), node).hex()


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


def test_pmf_of_a_matrix_is_the_pmf_of_each_row():
    rng = np.random.default_rng(7)
    for n in (0, 1, 5, 33):
        d = rng.random((4, n))
        pmf = poisson_binomial_pmf(d)
        assert pmf.shape == (4, n + 1)
        for row, got in zip(d, pmf):
            assert np.array_equal(poisson_binomial_pmf(row), got)


def test_disagreement_compares_each_row_with_q():
    q = np.array([0.2, 0.9])
    r = np.array([[0.5, 0.1], [1.0, 0.0]])
    for row, got in zip(r, disagreement(q, r)):
        assert np.array_equal(disagreement(q, row), got)
    with pytest.raises(ValidationError):
        disagreement(q, np.ones((2, 3)))


def test_lkm_rejects_bad_norm():
    with pytest.raises(ValidationError) as err:
        lkm_distance([0.5], 0.5)
    assert err.value.code == "wrong_norm"


@pytest.mark.parametrize("p", [True, False, 0.5, 0, "2"])
def test_check_norm_rejects_non_integers_and_bools(p):
    with pytest.raises(ValidationError) as err:
        check_norm(p)
    assert err.value.code == "wrong_norm"


def test_check_norm_keeps_integral_floats():
    assert check_norm(4.0) == 4 and isinstance(check_norm(4.0), int)
    assert check_norm(INF) == INF


@pytest.mark.parametrize("d,p", [([math.nan], 1), ([1.5, -0.2], 2), ([0.5, 1.0 + 1e-12], INF)])
def test_lkm_rejects_disagreement_outside_unit_interval(d, p):
    with pytest.raises(ValidationError) as err:
        lkm_distance(d, p)
    assert err.value.code == "probability_out_of_range"


@pytest.mark.parametrize(
    "pmf,p",
    [([0.5, math.nan], 2), ([-3.0, 2.5, 1.5], 2), ([math.nan], 1), ([0.0, 1.0 + 1e-12], INF)],
)
def test_lkm_from_counts_rejects_entries_outside_unit_interval(pmf, p):
    with pytest.raises(ValidationError) as err:
        lkm_from_counts(pmf, p)
    assert err.value.code == "probability_out_of_range"


def test_objective_tolerates_rounding_below_zero():
    # Coefficients summing to a rounding error above 1 pass validation; with
    # every parent up, q = r = 1 + 2^-52 and d falls just below 0.
    model = DbnModel(2, (0.5, 0.5), [Stage1Node((0, 1), linear([0.5, 0.5 + 1e-15]))])
    validate_model(model)
    q = true_posterior(model, [1, 1])
    assert disagreement(q, q)[0] < 0.0
    for p in (1, 2, INF):
        assert objective_value(model, [1, 1], Mask(()), p) == pytest.approx(0.0, abs=1e-14)


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


@pytest.mark.parametrize("bad", [[math.nan], [2.0], [-0.1], [math.inf]])
def test_targets_outside_unit_interval_are_rejected(bad):
    model = DbnModel(1, (0.4,), [Stage1Node((0,), additive([0.0, 1.0]))])
    for call in (
        lambda: check_target(model, bad),
        lambda: objective_value(model, [1], Mask(()), 1, target=bad),
        lambda: Evaluator(model, [1], 1, target=bad),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == "probability_out_of_range"


def test_check_target_keeps_the_bounds():
    model = DbnModel(2, (0.4, 0.5), [Stage1Node((0,), additive([0.0, 1.0]))] * 2)
    assert check_target(model, (0, 1.0)).tolist() == [0.0, 1.0]
    with pytest.raises(ValidationError) as err:
        check_target(model, [[0.5, 0.5]])
    assert err.value.code == "length_mismatch"


def test_objective_targeted_length_check():
    model = DbnModel(1, (0.4,), [Stage1Node((0,), additive([0.0, 1.0]))])
    with pytest.raises(ValidationError):
        objective_value(model, [1], Mask(()), 1, target=(1.0, 0.0))
