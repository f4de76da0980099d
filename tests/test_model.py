"""Model construction, validation, transitions, and JSON round trips."""

import json
import math

import numpy as np
import pytest

from halftruth import (
    FAMILIES,
    DbnModel,
    GenSpec,
    Mask,
    Stage1Node,
    Transition,
    ValidationError,
    additive,
    additive_to_general,
    gen_theorem1,
    general,
    generate,
    linear,
    model_from_json,
    model_to_json,
    save_model,
    transition_prob,
    validate_model,
)
from oracles import random_model


def one_node(transition, n0=3, priors=(0.5, 0.5, 0.5), parents=(0, 1, 2)):
    return DbnModel(n0, priors, [Stage1Node(parents, transition)])


def test_empty_model_is_valid():
    validate_model(DbnModel(0, [], []))


def test_prior_out_of_range():
    model = DbnModel(1, [1.2], [])
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "prior_out_of_range"


def test_linear_coeff_sum_above_one():
    model = one_node(linear([0.6, 0.6]), n0=2, priors=(0.5, 0.5), parents=(0, 1))
    with pytest.raises(ValidationError, match=r"\(sum 1\.2\)") as err:
        validate_model(model)
    assert err.value.code == "linear_coeffs_invalid"


def test_linear_coeffs_sum_as_they_are_scored():
    # sum() gives 1.000000000000002 here from Python 3.12 on; the left-to-right
    # sum that transition_prob scores with gives 1.0 on every version.
    coeffs = [1.0] + [1e-16] * 20
    node = Stage1Node(range(21), linear(coeffs))
    assert transition_prob(node, [1] * 21) == 1.0
    validate_model(DbnModel(21, [0.5] * 21, [node]))


def test_negative_linear_coeff():
    model = one_node(linear([-0.1, 0.2]), n0=2, priors=(0.5, 0.5), parents=(0, 1))
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "linear_coeffs_invalid"


def test_nan_linear_coeff():
    model = one_node(linear([float("nan"), 0.2]), n0=2, priors=(0.5, 0.5), parents=(0, 1))
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "linear_coeffs_invalid"


def test_parent_index_out_of_range():
    model = one_node(additive([0.1, 0.2]), n0=1, priors=(0.5,), parents=(3,))
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "parent_index_out_of_range"
    assert err.value.node == 0


def test_duplicate_parents_rejected():
    model = one_node(additive([0, 0.5, 1.0]), n0=2, priors=(0.5, 0.5), parents=(1, 1))
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "parent_index_out_of_range"


def test_table_length_mismatch():
    model = one_node(general([0.1, 0.9]))  # 3 parents need 8 entries
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "table_length_mismatch"


def test_probability_out_of_range():
    model = one_node(additive([0.0, 0.5, 0.5, 1.5]))
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "probability_out_of_range"


def test_general_parent_cap():
    parents = tuple(range(21))
    model = DbnModel(21, (0.5,) * 21, [Stage1Node(parents, general([0.5] * (1 << 21)))])
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "parent_cap_exceeded"


def test_transition_prob_additive_lookup():
    node = Stage1Node((0, 1, 2), additive([0, 0.25, 0.5, 1.0]))
    assert transition_prob(node, [1, 0, 1]) == 0.5


def test_transition_prob_linear_dot():
    node = Stage1Node((0, 1), linear([0.3, 0.2]))
    assert transition_prob(node, [1, 1]) == pytest.approx(0.5)


def test_transition_prob_linear_adds_left_to_right():
    # The same bits on every Python: 3.12's compensated sum() gives 1.0 here.
    node = Stage1Node(range(10), linear([0.1] * 10))
    assert transition_prob(node, [1] * 10) == 0.9999999999999999


def test_transition_prob_general_bitmask():
    # table indexed with parent j at bit j: assignment (1, 0) -> index 1
    node = Stage1Node((0, 1), general([0.0, 0.7, 0.2, 1.0]))
    assert transition_prob(node, [1, 0]) == 0.7
    assert transition_prob(node, [0, 1]) == 0.2


def test_transition_prob_arity_mismatch():
    node = Stage1Node((0, 1), linear([0.3, 0.2]))
    with pytest.raises(ValidationError) as err:
        transition_prob(node, [1])
    assert err.value.code == "arity_mismatch"


def test_additive_to_general_single_parent():
    node = Stage1Node((0,), additive([0.0, 1.0]))
    assert additive_to_general(node).transition.values == (0.0, 1.0)
    lin = Stage1Node((0,), linear([0.5]))
    assert additive_to_general(lin).transition.values == (0.0, 0.5)


def test_additive_to_general_popcount_expansion():
    node = Stage1Node((0, 1), additive([0.0, 0.25, 0.5]))
    assert additive_to_general(node).transition.values == (0.0, 0.25, 0.25, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_additive_to_general_agrees_everywhere(seed):
    rng = np.random.default_rng(seed)
    npar = int(rng.integers(1, 9))
    if seed % 2:
        node = Stage1Node(range(npar), additive(rng.random(npar + 1)))
    else:
        w = rng.random(npar)
        node = Stage1Node(range(npar), linear(w / (w.sum() + 1.0)))
    expanded = additive_to_general(node)
    for bitmask in range(1 << npar):
        bits = [(bitmask >> j) & 1 for j in range(npar)]
        assert transition_prob(expanded, bits) == pytest.approx(
            transition_prob(node, bits), abs=1e-15
        )


def test_mask_sorts_indices():
    assert Mask([3, 1, 2]).indices == (1, 2, 3)


@pytest.mark.parametrize("indices", [[0.7], ["1", "2"], [True], [math.nan], [1, 2.5]])
def test_mask_rejects_non_integral_indices(indices):
    with pytest.raises(ValidationError) as err:
        Mask(indices)
    assert err.value.code == "mask_invalid"


def test_mask_keeps_integral_floats_and_numpy_integers():
    assert Mask([2.0, np.int64(0)]).indices == (0, 2)


def test_mask_rejects_duplicates():
    with pytest.raises(ValidationError):
        Mask([1, 1], "flip")


def test_mask_rejects_unknown_action():
    with pytest.raises(ValidationError):
        Mask([0], "redact")


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(7)
    model = random_model(rng, n0=6, n1=5)
    text = model_to_json(model)
    again = model_from_json(text)
    assert again == model
    assert model_to_json(again) == text


def test_json_writer_emits_17_significant_digits():
    model = DbnModel(1, [0.1], [Stage1Node((0,), linear([1 / 3]))])
    text = model_to_json(model)
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    assert model_from_json(text).priors[0] == 0.1


def test_json_reader_rejects_unknown_kind():
    text = (
        '{"n0": 1, "priors": [0.5], "nodes": ['
        '{"parents": [0], "transition": {"kind": "linear", "values": [0.5]}}, '
        '{"parents": [0], "transition": {"kind": "spline", "values": [0.5]}}]}'
    )
    with pytest.raises(ValidationError) as err:
        model_from_json(text)
    assert err.value.code == "kind_invalid"
    assert err.value.node == 1
    assert str(err.value).startswith("node 1: ")


def test_validate_rejects_unknown_kind():
    with pytest.raises(ValidationError) as err:
        validate_model(one_node(Transition("spline", [0.5] * 8)))
    assert err.value.code == "kind_invalid"


def additive_entries(parents, values):
    """One additive node entry per (parents, values) pair, comma-separated."""
    return ", ".join(
        '{"parents": %s, "transition": {"kind": "additive", "values": %s}}' % pv
        for pv in zip(parents, values)
    )


def model_doc(n0="2", priors="[0.5, 0.5]", parents=("[0, 1]",), values=("[0.0, 0.5, 1.0]",)):
    """A model file with one additive entry per (parents, values) pair."""
    entries = additive_entries(parents, values)
    return '{"n0": %s, "priors": %s, "nodes": [%s]}' % (n0, priors, entries)


def compact_doc(nodes, parents=("[0, 1]", "[1]"), values=("[0.0, 0.5, 1.0]", "[0.5, 1.0]")):
    """A compact model file: one additive def per (parents, values) pair, and ``nodes``."""
    defs = additive_entries(parents, values)
    return '{"n0": 2, "priors": [0.5, 0.5], "node_defs": [%s], "nodes": %s}' % (defs, nodes)


def unshared(model):
    """The same model with every position its own node object."""
    return DbnModel(
        model.n0, model.priors, [Stage1Node(n.parents, n.transition) for n in model.nodes]
    )


def legacy_text(model):
    """The model file in the legacy form, every position its own entry, written by ``json``."""
    entries = [
        {"parents": list(n.parents), "transition": {"kind": n.transition.kind,
                                                    "values": list(n.transition.values)}}
        for n in model.nodes
    ]
    return json.dumps({"n0": model.n0, "priors": list(model.priors), "nodes": entries})


@pytest.mark.parametrize(
    "fields",
    [
        {"parents": ('"01"',)},
        {"values": ('"11"',)},
        {"parents": ("[0, true]",)},
        {"parents": ("[0, 1.7]",)},
        {"n0": "2.9"},
        {"n0": "true"},
        {"priors": '["0.5", 0.5]'},
        {"priors": "[true, 0.5]"},
        {"priors": '"55"'},
        {"values": ("[0.0, false, 1.0]",)},
        {"values": ('[0.0, "0.5", 1.0]',)},
        {"values": ("[0.0, 0.5, 1%s]" % ("0" * 400),)},
        # The second entry equals the first as Python values (True == 1), so
        # it would share the first node; it is still checked.
        {"parents": ("[0, 1]", "[0, true]"), "values": ("[0.0, 0.5, 1.0]",) * 2},
    ],
    ids=[
        "string_parents",
        "string_values",
        "bool_parent",
        "fractional_parent",
        "fractional_n0",
        "bool_n0",
        "string_prior",
        "bool_prior",
        "string_priors",
        "bool_value",
        "string_value",
        "value_too_large",
        "bool_parent_in_a_shared_entry",
    ],
)
def test_json_reader_rejects_wrong_types(fields):
    with pytest.raises(ValidationError) as err:
        model_from_json(model_doc(**fields))
    assert err.value.code == "spec_invalid"


@pytest.mark.parametrize(
    "old,new,key,node",
    [
        ('{"n0": 2,', '{"n0": 2, "extra": 1,', "extra", None),
        ('{"parents": [1]', '{"bogus": 0, "parents": [1]', "bogus", 1),
        ('"kind": "additive", "values": [0.5, 1.0]', '"kind": "additive", "x": 1, "values": [0.5, 1.0]', "x", 1),
    ],
    ids=["top_level", "node_entry", "transition"],
)
def test_json_reader_rejects_unknown_keys(old, new, key, node):
    text = model_doc(parents=("[0, 1]", "[1]"), values=("[0.0, 0.5, 1.0]", "[0.5, 1.0]"))
    assert old in text
    with pytest.raises(ValidationError) as err:
        model_from_json(text.replace(old, new))
    assert err.value.code == "spec_invalid"
    assert repr(key) in str(err.value)
    assert err.value.node == node
    if node is not None:
        assert str(err.value).startswith(f"node {node}: ")


def test_json_reader_keeps_integral_floats():
    text = model_doc(n0="2.0", parents=("[0, 1.0]",), values=("[0, 0.5, 1]",))
    model = model_from_json(text)
    assert model == model_from_json(model_doc())
    assert model.n0 == 2 and type(model.n0) is int
    assert all(type(j) is int for j in model.nodes[0].parents)
    assert all(type(v) is float for v in model.nodes[0].transition.values)


def test_json_reader_shares_identical_entries():
    generated = gen_theorem1(50)
    model = model_from_json(model_to_json(generated))
    assert len(model.node_table[0]) == 1
    assert model == generated


def test_json_reader_shares_only_identical_bits():
    # -0.0 and 0.0 compare equal but are written differently.
    text = model_doc(
        parents=("[0, 1]",) * 4,
        values=("[-0.0, 0.5, 1.0]", "[0.0, 0.5, 1.0]", "[-0.0, 0.5, 1.0]", "[0, 0.5, 1]"),
    )
    model = model_from_json(text)
    assert len(model.node_table[0]) == 2
    assert model.nodes[0] is model.nodes[2] and model.nodes[1] is model.nodes[3]
    written = model_to_json(model)
    assert '"values": [-0, 0.5, 1]' in written
    assert model_to_json(model_from_json(written)) == written


@pytest.mark.parametrize(
    "model,what,node",
    [
        (DbnModel(1, [math.nan], []), "priors[0]", None),
        (DbnModel(2, [0.5, math.inf], []), "priors[1]", None),
        (one_node(additive([0.0, 0.5, -math.inf, 1.0])), "transition values[2]", 0),
    ],
)
def test_json_writer_rejects_what_its_reader_cannot_load(tmp_path, model, what, node):
    with pytest.raises(ValidationError) as err:
        model_to_json(model)
    assert err.value.code == "spec_invalid" and err.value.node == node
    assert what in str(err.value)
    # Nothing is written: a new path is not created, an old file keeps its text.
    old = tmp_path / "old.json"
    old.write_text("kept\n", encoding="utf-8")
    for path in (tmp_path / "new.json", old):
        with pytest.raises(ValidationError):
            save_model(model, path)
    assert not (tmp_path / "new.json").exists()
    assert old.read_text(encoding="utf-8") == "kept\n"


def test_json_reader_never_shares_nan():
    model = model_from_json(model_doc(parents=("[0, 1]",) * 2, values=("[NaN, 0.5, 1.0]",) * 2))
    assert model.nodes[0] is not model.nodes[1]


def test_validation_reports_first_position_of_a_shared_node():
    text = model_doc(
        parents=("[0, 1]",) * 3, values=("[0.0, 0.5, 1.0]", "[0.0, 1.5, 1.0]", "[0.0, 1.5, 1.0]")
    )
    model = model_from_json(text)
    assert model.nodes[1] is model.nodes[2]
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "probability_out_of_range" and err.value.node == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_json_round_trip_every_family(family):
    spec = GenSpec(family=family, n0=8, edge_density=0.4, monotone=True, seed=5, eps=0.05)
    model = generate(spec)
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text
    # The writer lists nodes by their bits, whichever positions share an object.
    assert model_to_json(unshared(model)) == text
    if family in ("theorem1", "heuristic_adversarial"):
        # Repeated nodes: the compact form, which loads to the model of the legacy text.
        assert '"node_defs"' in text
        assert model_from_json(text) == model_from_json(legacy_text(model)) == model
    else:
        assert '"node_defs"' not in text


def test_compact_form_loads_as_the_legacy_text():
    # Two distinct nodes at five positions, one of them with a -0.0 entry.
    a = Stage1Node((0, 2), general([-0.0, 0.25, 0.5, 1.0]))
    b = Stage1Node((1,), linear([0.75]))
    model = DbnModel(3, [0.1, 0.2, 0.3], [b, a, a, b, a])
    text = model_to_json(model)
    assert '"node_defs": [{"parents": [1], ' in text
    assert text.endswith('"nodes": [0, 1, 1, 0, 1]}\n')
    loaded = model_from_json(text)
    assert loaded == model_from_json(legacy_text(model)) == model
    assert model_to_json(unshared(model)) == text
    assert len(loaded.node_table[0]) == 2
    assert loaded.nodes[0] is loaded.nodes[3] and loaded.nodes[1] is loaded.nodes[4]
    assert math.copysign(1.0, loaded.nodes[1].transition.values[0]) == -1.0


def test_writer_lists_once_each_node_the_reader_would_share():
    def node(*values):
        return Stage1Node((0,), general(values))

    # Equal bits share a def, -0.0 and 0.0 do not.  (A NaN node cannot be
    # written at all: see test_json_writer_rejects_what_its_reader_cannot_load.)
    nodes = [node(0.0, 1.0), node(0.0, 1.0), node(-0.0, 1.0)]
    text = model_to_json(DbnModel(1, [0.5], nodes))
    assert text.endswith('"nodes": [0, 0, 1]}\n')
    assert model_to_json(model_from_json(text)) == text


def test_compact_reader_keeps_integral_float_references():
    model = model_from_json(compact_doc("[0, 1.0, -0, 1]"))
    assert model == model_from_json(compact_doc("[0, 1, 0, 1]"))
    assert model.nodes[0] is model.nodes[2] and model.nodes[1] is model.nodes[3]


def test_compact_reader_rejects_an_unreferenced_def():
    # The unreferenced def would load, and fail validation, if it were read.
    text = compact_doc("[0, 0]", values=("[0.0, 0.5, 1.0]", "[0.5, 7.0]"))
    with pytest.raises(ValidationError) as err:
        model_from_json(text)
    assert err.value.code == "spec_invalid"
    assert "node_defs[1]" in str(err.value)


@pytest.mark.parametrize(
    "text,node",
    [
        (compact_doc("[0, 2, 1]"), 1),
        (compact_doc("[0, -1, 1]"), 1),
        (compact_doc("[0, true, 1]"), None),
        (compact_doc("[0, 1.5, 1]"), None),
        (compact_doc("[0, %s]" % additive_entries(["[1]"], ["[0.5, 1.0]"])), None),
        (compact_doc("[[0], 1]"), None),
        (compact_doc('"01"'), None),
        # Indices without node_defs are not a model file.
        ('{"n0": 1, "priors": [0.5], "nodes": [0, 0]}', None),
        ('{"n0": 1, "priors": [0.5], "node_defs": {}, "nodes": []}', None),
    ],
    ids=[
        "out_of_range",
        "negative",
        "bool",
        "fractional",
        "object_and_index",
        "nested_index",
        "string",
        "indices_without_defs",
        "defs_not_array",
    ],
)
def test_compact_reader_rejects_nodes_that_are_not_all_indices(text, node):
    with pytest.raises(ValidationError) as err:
        model_from_json(text)
    assert err.value.code == "spec_invalid"
    assert err.value.node == node


def test_validation_reports_first_position_of_a_shared_def():
    model = model_from_json(compact_doc("[0, 1, 0, 1]", values=("[0.0, 0.5, 1.0]", "[0.5, 1.5]")))
    assert model.nodes[1] is model.nodes[3]
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert err.value.code == "probability_out_of_range" and err.value.node == 1


def test_compact_reader_errors_name_the_first_position_of_a_def():
    # Def 0 has an unknown key, and position 1 is the first to refer to it.
    text = compact_doc("[1, 0, 1, 0]").replace('{"parents": [0, 1]', '{"x": 0, "parents": [0, 1]')
    with pytest.raises(ValidationError) as err:
        model_from_json(text)
    assert err.value.code == "spec_invalid" and err.value.node == 1
    assert str(err.value).startswith("node 1: ")


def test_monotone_direction_scan():
    assert additive([0.1, 0.5, 0.9]).monotone_direction() == "increasing"
    assert additive([0.9, 0.5, 0.1]).monotone_direction() == "decreasing"
    assert additive([0.5, 0.5]).monotone_direction() == "increasing"  # constant, non-strict
    assert additive([0.1, 0.9, 0.5]).monotone_direction() is None


def test_transition_probs_always_probabilities():
    rng = np.random.default_rng(3)
    for _ in range(20):
        model = random_model(rng, n0=5, n1=4)
        validate_model(model)
        for node in model.nodes:
            npar = len(node.parents)
            for bitmask in range(1 << npar):
                bits = [(bitmask >> j) & 1 for j in range(npar)]
                assert 0.0 <= transition_prob(node, bits) <= 1.0
