"""Command-line surface: files, exit codes, determinism, replayability."""

import contextlib
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftruth import (
    AttackProblem,
    Mask,
    brute_force_attack,
    load_model,
    objective_value,
    validate_model,
)
from halftruth import cli
from halftruth.cli import _read_sweep, _sweep_budget, main
from halftruth.generators import FAMILIES
from test_model import legacy_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_toy_model(tmp_path, capsys, family="random_additive", n=6, seed=3, extra=()):
    path = tmp_path / "model.json"
    code, _, err = run(
        capsys,
        "gen",
        "--family",
        family,
        "--n",
        str(n),
        "--seed",
        str(seed),
        "--out",
        str(path),
        *extra,
    )
    assert code == 0, err
    return path


def test_gen_writes_valid_model(tmp_path, capsys):
    path = tmp_path / "t1.json"
    code, out, _ = run(capsys, "gen", "--family", "theorem1", "--n", "100", "--out", str(path))
    assert code == 0
    assert str(path) in out
    model = load_model(path)
    validate_model(model)
    assert model.n0 == model.n1 == 100


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--family", "random_additive", "--n", "20", "--density", "0.3",
            "--monotone", "--seed", "7"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_odd_adversarial_n(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--family", "heuristic_adversarial", "--n", "11",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "spec_invalid" in err


def test_gen_io_failure_exits_3(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--family", "theorem1", "--n", "10",
        "--out", str(tmp_path / "no" / "dir" / "x.json"),
    )
    assert code == 3


def test_attack_brute_force_toy(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    code, out, _ = run(
        capsys, "attack", "--model", str(path), "--x0-seed", "5",
        "--algorithm", "brute_force", "--k", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"mask", "value", "algorithm", "evaluations"}
    assert doc["algorithm"] == "brute_force"
    assert len(doc["mask"]) <= 2


def test_attack_matches_library(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    code, out, _ = run(
        capsys, "attack", "--model", str(path), "--x0", "0,1,0,1,0,1",
        "--algorithm", "brute_force", "--k", "2",
    )
    doc = json.loads(out)
    model = load_model(path)
    want = brute_force_attack(AttackProblem(model, (0, 1, 0, 1, 0, 1), 2, 1, "hide"))
    assert doc["mask"] == list(want.mask.indices)
    assert doc["value"] == pytest.approx(want.value)


def test_attack_zero_budget(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    code, out, _ = run(
        capsys, "attack", "--model", str(path), "--x0", "0,0,0,0,0,0",
        "--algorithm", "heuristic", "--k", "0",
    )
    assert code == 0
    assert json.loads(out)["mask"] == []


def test_attack_approx_on_general_model_exits_2(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys, family="random_general")
    code, _, err = run(
        capsys, "attack", "--model", str(path), "--x0-seed", "1",
        "--algorithm", "approx", "--k", "2",
    )
    assert code == 2
    assert "non_monotone_transition" in err


def test_attack_flip_algorithms(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys, family="random_linear")
    code, out, _ = run(
        capsys, "attack", "--model", str(path), "--x0-seed", "2", "--action", "flip",
        "--algorithm", "flip_linear_exact", "--k", "2",
    )
    assert code == 0
    assert json.loads(out)["algorithm"] == "flip_linear_exact"


def test_eval_matches_objective(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    code, out, _ = run(
        capsys, "eval", "--model", str(path), "--x0", "1,0,1,0,1,0", "--mask", "0,3", "--p", "2",
    )
    assert code == 0
    model = load_model(path)
    want = objective_value(model, (1, 0, 1, 0, 1, 0), Mask([0, 3]), 2)
    assert json.loads(out)["value"] == pytest.approx(want)


@pytest.mark.parametrize("mask", ["0,6", "2,-1", "3,3"])
def test_eval_rejects_a_bad_mask_index(tmp_path, capsys, mask):
    path = write_toy_model(tmp_path, capsys)
    code, out, err = run(capsys, "eval", "--model", str(path), "--x0-seed", "4", "--mask", mask)
    assert code == 2 and out == ""
    assert "mask" in err


def test_eval_empty_mask(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    code, out, _ = run(capsys, "eval", "--model", str(path), "--x0-seed", "4", "--mask", "")
    assert code == 0
    assert json.loads(out)["mask"] == []


def sweep_config(tmp_path, **overrides):
    cfg = {
        "family": "heuristic_adversarial",
        "ns": [6, 8],
        "k_fraction": 0.5,
        "p": 1,
        "algorithms": ["combined", "approx", "heuristic", "random"],
        "trials": 2,
        "seed": 13,
        "eps": 0.01,
        "out": str(tmp_path / "sweep.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_rows(path):
    header, *rows = path.read_text().strip().split("\n")
    return header, [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_sweep_csv_shape_and_columns(tmp_path, capsys):
    cfg_path, cfg = sweep_config(tmp_path)
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0, err
    header, rows = read_rows(tmp_path / "sweep.csv")
    assert header == "family,n,k,p,algorithm,trial,seed,value,opt_value,ratio,wall_ms"
    assert len(rows) == 2 * 4 * 2  # ns x algorithms x trials
    assert {r["algorithm"] for r in rows} == set(cfg["algorithms"])
    assert all(r["opt_value"] for r in rows)  # small cells: brute force filled in


def test_sweep_leaves_opt_value_blank_past_the_brute_force_limit(tmp_path, capsys):
    # C(60, <=6) masks is over attacks.BRUTE_FORCE_LIMIT, so brute force refuses the cell.
    cfg_path, _ = sweep_config(tmp_path, ns=[60], k=6, algorithms=["heuristic"], trials=1)
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0, err
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert [(r["opt_value"], r["ratio"]) for r in rows] == [("", "")]
    assert float(rows[0]["value"]) > 0


def test_sweep_byte_identical_reruns(tmp_path, capsys):
    cfg_path, _ = sweep_config(tmp_path)
    assert run(capsys, "sweep", "--config", str(cfg_path))[0] == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert run(capsys, "sweep", "--config", str(cfg_path))[0] == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_sweep_combined_dominates_componentwise(tmp_path, capsys):
    cfg_path, _ = sweep_config(tmp_path)
    run(capsys, "sweep", "--config", str(cfg_path))
    _, rows = read_rows(tmp_path / "sweep.csv")
    by_key = {(r["n"], r["trial"], r["algorithm"]): float(r["ratio"]) for r in rows}
    for (n, trial, alg), ratio in by_key.items():
        if alg == "combined":
            assert ratio >= by_key[(n, trial, "approx")] - 1e-12
            assert ratio >= by_key[(n, trial, "heuristic")] - 1e-12


def test_sweep_additive_ratio_bound(tmp_path, capsys):
    cfg_path, _ = sweep_config(
        tmp_path,
        family="random_additive",
        ns=[6, 8, 10],
        monotone=True,
        density=0.5,
        algorithms=["approx", "random"],
        k=2,
    )
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0, err
    _, rows = read_rows(tmp_path / "sweep.csv")
    for r in rows:
        if r["algorithm"] == "approx" and r["ratio"]:
            assert float(r["ratio"]) >= 1.0 / int(r["n"]) - 1e-12


def test_sweep_rows_replay_through_attack(tmp_path, capsys):
    cfg_path, cfg = sweep_config(
        tmp_path, family="random_additive", ns=[7], k=2, trials=2,
        algorithms=["heuristic"], density=0.5,
    )
    run(capsys, "sweep", "--config", str(cfg_path))
    _, rows = read_rows(tmp_path / "sweep.csv")
    for row in rows:
        model_path = tmp_path / f"replay{row['trial']}.json"
        assert run(
            capsys, "gen", "--family", "random_additive", "--n", row["n"],
            "--density", "0.5", "--seed", row["seed"], "--out", str(model_path),
        )[0] == 0
        code, out, _ = run(
            capsys, "attack", "--model", str(model_path), "--x0-seed", row["seed"],
            "--algorithm", "heuristic", "--k", row["k"],
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(float(row["value"]), abs=1e-12)


def _malformed_model_json(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"n0": 2, "priors": [0.5,')
    return ["attack", "--model", str(path), "--x0", "1,0", "--algorithm", "heuristic", "--k", "1"]


def _malformed_sweep_json(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"family": ')
    return ["sweep", "--config", str(path)]


def _non_integer_x0(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    return ["attack", "--model", str(path), "--x0", "1,a", "--algorithm", "heuristic", "--k", "1"]


def _non_utf8_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"n0": 1, "priors": [0.5], "nodes": []}\xff')
    return ["eval", "--model", str(path), "--x0", "1", "--mask", ""]


def _non_utf8_sweep_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff")
    return ["sweep", "--config", str(path)]


def _non_utf8_x0_file(tmp_path, capsys):
    path = tmp_path / "x0.txt"
    path.write_bytes(b"1,0,1,0,1,\xff")
    return _attack_args(tmp_path, capsys, "--x0-file", str(path))


def _x0_file_with_an_empty_field(tmp_path, capsys):
    path = tmp_path / "x0.txt"
    path.write_text("1,0,,1,0,1,0\n")
    return _attack_args(tmp_path, capsys, "--x0-file", str(path))


def _sweep_without_family(tmp_path, capsys):
    cfg_path, cfg = sweep_config(tmp_path)
    del cfg["family"]
    cfg_path.write_text(json.dumps(cfg))
    return ["sweep", "--config", str(cfg_path)]


def _unknown_transition_kind(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(
        '{"n0": 1, "priors": [0.5], "nodes": '
        '[{"parents": [0], "transition": {"kind": "spline", "values": [0.5]}}]}'
    )
    return ["attack", "--model", str(path), "--x0", "1", "--algorithm", "heuristic", "--k", "1"]


def _attack_model_doc(tmp_path, n0=2, priors=(0.5, 0.5), parents=(0, 1), values=(0.0, 0.5, 1.0)):
    doc = {
        "n0": n0,
        "priors": priors,
        "nodes": [{"parents": parents, "transition": {"kind": "additive", "values": values}}],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return ["attack", "--model", str(path), "--x0", "1,0", "--algorithm", "heuristic", "--k", "1"]


def _string_parents(tmp_path, capsys):
    return _attack_model_doc(tmp_path, parents="01")


def _string_values(tmp_path, capsys):
    return _attack_model_doc(tmp_path, values="11")


def _bool_parent(tmp_path, capsys):
    return _attack_model_doc(tmp_path, parents=(0, True))


def _fractional_parent(tmp_path, capsys):
    return _attack_model_doc(tmp_path, parents=(0, 1.7))


def _fractional_n0(tmp_path, capsys):
    return _attack_model_doc(tmp_path, n0=2.9)


def _string_prior(tmp_path, capsys):
    return _attack_model_doc(tmp_path, priors=("0.5", 0.5))


def _fractional_sweep_k(tmp_path, capsys):
    cfg_path, cfg = sweep_config(tmp_path, k=2.5)
    del cfg["k_fraction"]
    cfg_path.write_text(json.dumps(cfg))
    return ["sweep", "--config", str(cfg_path)]


def _model_with_extra_key(tmp_path, capsys):
    doc = json.loads(write_toy_model(tmp_path, capsys).read_text())
    doc["extra"] = 1
    return _attack_doc(tmp_path, doc)


def _node_with_bogus_key(tmp_path, capsys):
    doc = json.loads(write_toy_model(tmp_path, capsys).read_text())
    doc["nodes"][2]["bogus"] = 0
    return _attack_doc(tmp_path, doc)


def _transition_with_x_key(tmp_path, capsys):
    doc = json.loads(write_toy_model(tmp_path, capsys).read_text())
    doc["nodes"][0]["transition"]["x"] = 0
    return _attack_doc(tmp_path, doc)


def _attack_doc(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return ["attack", "--model", str(path), "--x0-seed", "1", "--algorithm", "heuristic",
            "--k", "1"]


def _sweep_with(name, **overrides):
    """A malformed-input case: the shared sweep config with ``overrides``."""

    def make_argv(tmp_path, capsys):
        cfg_path, _ = sweep_config(tmp_path, **overrides)
        return ["sweep", "--config", str(cfg_path)]

    make_argv.__name__ = name
    return make_argv


_sweep_string_in_ns = _sweep_with("_sweep_string_in_ns", ns=["a"])
_sweep_ns_not_array = _sweep_with("_sweep_ns_not_array", ns=6)
_sweep_fractional_n = _sweep_with("_sweep_fractional_n", ns=[8.7])
_sweep_bool_n = _sweep_with("_sweep_bool_n", ns=[True], family="random_additive")
_sweep_zero_n = _sweep_with("_sweep_zero_n", ns=[0], family="random_additive")
_sweep_string_density = _sweep_with("_sweep_string_density", density="a")
_sweep_null_eps = _sweep_with("_sweep_null_eps", eps=None)
_sweep_string_k_fraction = _sweep_with("_sweep_string_k_fraction", k_fraction="half")
_sweep_fractional_trials = _sweep_with("_sweep_fractional_trials", trials=1.5)
_sweep_zero_trials = _sweep_with("_sweep_zero_trials", trials=0)
_sweep_fractional_seed = _sweep_with("_sweep_fractional_seed", seed=1.5)
_sweep_negative_seed = _sweep_with("_sweep_negative_seed", seed=-4)
_sweep_string_monotone = _sweep_with("_sweep_string_monotone", monotone="false")
_sweep_string_timing = _sweep_with("_sweep_string_timing", timing="no")
_sweep_string_algorithms = _sweep_with("_sweep_string_algorithms", algorithms="heuristic")
_sweep_unknown_key = _sweep_with("_sweep_unknown_key", trails=3)
_sweep_numeric_out = _sweep_with("_sweep_numeric_out", out=2)
_sweep_string_p = _sweep_with("_sweep_string_p", p="2")
_sweep_fractional_p = _sweep_with("_sweep_fractional_p", p=2.5)
_sweep_bool_p = _sweep_with("_sweep_bool_p", p=True)
_sweep_zero_p = _sweep_with("_sweep_zero_p", p=0)


def _gen_negative_n(tmp_path, capsys):
    return ["gen", "--family", "random_additive", "--n", "-3", "--out", str(tmp_path / "m.json")]


def _gen_zero_n(tmp_path, capsys):
    return ["gen", "--family", "random_additive", "--n", "0", "--n1", "2",
            "--out", str(tmp_path / "m.json")]


def _gen_negative_seed(tmp_path, capsys):
    return ["gen", "--family", "random_additive", "--n", "4", "--seed", "-1",
            "--out", str(tmp_path / "m.json")]


def _attack_args(tmp_path, capsys, *extra, algorithm="heuristic"):
    path = write_toy_model(tmp_path, capsys)
    return ["attack", "--model", str(path), "--algorithm", algorithm, "--k", "1", *extra]


def _attack_negative_x0_seed(tmp_path, capsys):
    return _attack_args(tmp_path, capsys, "--x0-seed", "-1")


def _attack_negative_random_seed(tmp_path, capsys):
    return _attack_args(tmp_path, capsys, "--x0-seed", "1", "--seed", "-1", algorithm="random")


def _simulate_negative_seed(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    return ["simulate", "--model", str(path), "--algorithm", "heuristic", "--k", "1",
            "--trials", "2", "--seed", "-1"]


def _simulate_oracle_flip(tmp_path, capsys):
    path = tmp_path / "t1.json"
    run(capsys, "gen", "--family", "theorem1", "--n", "6", "--out", str(path))
    return ["simulate", "--model", str(path), "--algorithm", "oracle", "--k", "6",
            "--action", "flip", "--trials", "2"]


def _nan_target(tmp_path, capsys):
    return _attack_args(tmp_path, capsys, "--x0-seed", "1", "--target", "nan,0,0,0,0,0")


def _target_above_one(tmp_path, capsys):
    return _attack_args(tmp_path, capsys, "--x0-seed", "1", "--target", "2,0,0,0,0,0")


def _eval_target_below_zero(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys)
    return ["eval", "--model", str(path), "--x0-seed", "1", "--mask", "1",
            "--target=-0.5,0,0,0,0,0"]


# The error code each malformed input reports; spec_invalid when not listed.
MALFORMED_CODES = {
    _unknown_transition_kind: "kind_invalid",
    _sweep_zero_p: "wrong_norm",
    _simulate_oracle_flip: "wrong_action",
    _nan_target: "probability_out_of_range",
    _target_above_one: "probability_out_of_range",
    _eval_target_below_zero: "probability_out_of_range",
}


@pytest.mark.parametrize(
    "make_argv",
    [
        _malformed_model_json,
        _malformed_sweep_json,
        _non_integer_x0,
        _non_utf8_model,
        _non_utf8_sweep_config,
        _non_utf8_x0_file,
        _x0_file_with_an_empty_field,
        _sweep_without_family,
        _unknown_transition_kind,
        _string_parents,
        _string_values,
        _bool_parent,
        _fractional_parent,
        _fractional_n0,
        _string_prior,
        _model_with_extra_key,
        _node_with_bogus_key,
        _transition_with_x_key,
        _fractional_sweep_k,
        _sweep_string_in_ns,
        _sweep_ns_not_array,
        _sweep_fractional_n,
        _sweep_bool_n,
        _sweep_zero_n,
        _sweep_string_density,
        _sweep_null_eps,
        _sweep_string_k_fraction,
        _sweep_fractional_trials,
        _sweep_zero_trials,
        _sweep_fractional_seed,
        _sweep_negative_seed,
        _sweep_string_monotone,
        _sweep_string_timing,
        _sweep_string_algorithms,
        _sweep_unknown_key,
        _sweep_numeric_out,
        _sweep_string_p,
        _sweep_fractional_p,
        _sweep_bool_p,
        _sweep_zero_p,
        _gen_negative_n,
        _gen_zero_n,
        _gen_negative_seed,
        _attack_negative_x0_seed,
        _attack_negative_random_seed,
        _simulate_negative_seed,
        _simulate_oracle_flip,
        _nan_target,
        _target_above_one,
        _eval_target_below_zero,
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, make_argv):
    code, out, err = run(capsys, *make_argv(tmp_path, capsys))
    assert code == 2
    assert f"error ({MALFORMED_CODES.get(make_argv, 'spec_invalid')})" in err
    assert out == ""
    assert not (tmp_path / "sweep.csv").exists()


def test_non_utf8_file_is_named(tmp_path, capsys):
    argv = _non_utf8_sweep_config(tmp_path, capsys)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{tmp_path / 'config.json'}: not UTF-8 text" in err


@pytest.mark.parametrize(
    "text",
    [
        "1,0,1,1,0,0\n",
        "1, 0, 1, 1, 0, 0",
        "1 0 1 1 0 0\n",
        "1\n0\n1\n1\n0\n0\n",
        " 1 ,0,1\t1,0 0 \n",
    ],
    ids=["trailing_newline", "comma_space", "spaces", "lines", "mixed"],
)
def test_x0_file_separators(tmp_path, capsys, text):
    x0_path = tmp_path / "x0.txt"
    x0_path.write_text(text)
    argv = _attack_args(tmp_path, capsys, "--x0-file", str(x0_path))
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    argv[argv.index("--x0-file") : argv.index("--x0-file") + 2] = ["--x0", "1,0,1,1,0,0"]
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "overrides,code",
    [
        ({"ns": [13, 0]}, "spec_invalid"),
        ({"algorithms": ["combined", "nosuch"]}, "spec_invalid"),
        ({"k": -1}, "spec_invalid"),
        ({"k_fraction": 1.5}, "spec_invalid"),
        ({"action": "bend"}, "wrong_action"),
        ({"p": 0}, "wrong_norm"),
    ],
    ids=["zero_n_late", "unknown_algorithm_late", "negative_k", "k_fraction", "action", "p"],
)
def test_sweep_checks_the_whole_grid_before_the_first_cell(
    tmp_path, capsys, monkeypatch, overrides, code
):
    generated = []
    monkeypatch.setattr(cli, "generate", generated.append)
    cfg = {"family": "random_general", "density": 0.7, "ns": [13], "k_fraction": 0.3, "p": "inf",
           "algorithms": ["combined", "heuristic"], "trials": 3,
           "out": str(tmp_path / "sweep.csv"), **overrides}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    status, out, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert (status, out) == (2, "")
    assert f"error ({code})" in err
    assert generated == []
    assert not (tmp_path / "sweep.csv").exists()


def test_read_sweep_defaults_and_types():
    sweep = _read_sweep({"family": "random_general", "ns": [6, 8.0], "algorithms": ["heuristic"]})
    assert vars(sweep) == {
        "family": "random_general", "ns": [6, 8], "algorithms": ["heuristic"], "k": None,
        "k_fraction": None, "p": 1, "action": "hide", "trials": 1, "seed": 0, "density": 0.5,
        "monotone": False, "eps": 0.01, "timing": False, "out": "sweep.csv",
    }
    assert type(sweep.ns[1]) is int
    typed = _read_sweep({"ns": [6], "algorithms": ["random"], "p": "inf", "seed": 4.0, "k": 3.0})
    assert typed.p == math.inf and typed.seed == 4 and type(typed.seed) is int
    assert typed.k == 3 and type(typed.k) is int


def test_sweep_k_wins_over_k_fraction():
    sweep = _read_sweep({"ns": [10], "algorithms": ["heuristic"], "k": 3, "k_fraction": 0.9})
    assert _sweep_budget(sweep, 10) == 3
    sweep.k = None
    assert _sweep_budget(sweep, 10) == 9


def test_attack_targeted_mode(tmp_path, capsys):
    path = write_toy_model(tmp_path, capsys, family="random_linear")
    code, out, _ = run(
        capsys, "attack", "--model", str(path), "--x0", "1,0,1,0,1,0",
        "--algorithm", "linear_exact", "--k", "2", "--target", "1,1,1,1,1,1",
    )
    assert code == 0
    doc = json.loads(out)
    model = load_model(path)
    problem = AttackProblem(model, (1, 0, 1, 0, 1, 0), 2, 1, "hide", (1.0,) * 6)
    assert doc["value"] == pytest.approx(brute_force_attack(problem).value, abs=1e-9)


def test_sweep_rejects_empty_grid(tmp_path, capsys):
    cfg_path, _ = sweep_config(tmp_path, ns=[])
    code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "spec_invalid" in err


def test_simulate_reports_expectation(tmp_path, capsys):
    path = tmp_path / "t1.json"
    run(capsys, "gen", "--family", "theorem1", "--n", "20", "--out", str(path))
    code, out, _ = run(
        capsys, "simulate", "--model", str(path), "--algorithm", "oracle",
        "--k", "20", "--trials", "50", "--seed", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"mean", "se", "trials", "wall_ms"}
    assert doc["trials"] == 50
    assert doc["mean"] > 0


def test_theorem1_file_is_compact_and_simulates_as_its_legacy_text(tmp_path, capsys):
    compact, legacy = tmp_path / "t1.json", tmp_path / "t1-legacy.json"
    assert run(capsys, "gen", "--family", "theorem1", "--n", "800", "--out", str(compact))[0] == 0
    assert compact.stat().st_size < 32 * 1024
    legacy.write_text(legacy_text(load_model(compact)))
    reports = []
    for path in (compact, legacy):
        code, out, err = run(
            capsys, "simulate", "--model", str(path), "--algorithm", "oracle",
            "--k", "800", "--p", "1", "--trials", "3", "--seed", "4",
        )
        assert code == 0, err
        reports.append({key: json.loads(out)[key] for key in ("mean", "se", "trials")})
    assert reports[0] == reports[1]
    assert reports[0]["trials"] == 3


# Flag values for the CLI fuzz, each list led by a valid one, then near misses.
# Sizes stay small, so that no mix builds a large model or runs a long search.
SMALL_INTS = ["2", "-1", "0", "1", "3", "7", "1.5", "nan", "x", ""]
FLOATS = ["0.3", "0", "1", "-0", "-0.5", "1.5", "nan", "inf", "1e-320", "x"]
NORM_TEXTS = ["2", "1", "3", "inf", "0", "-1", "nan", "2.5", "x"]
BITS = ["1,0,1,0,1,0", "0 0 0 0 0 0", "1,0", "1,,0", "2,0,0,0,0,0", "", "nan", "1.0,0,1,0,1,0"]
TARGETS = ["0.5,0.5,0.5,0.5,0.5,0.5", "-0,0,1,1,1e-320,0.5", "nan,0,0,0,0,0", "1.5", "", "0.5"]
MASKS = ["0,3", "", "0", "5", "6", "-1", "0,0", "1.5", "x", "0 1 2 3 4 5"]
ACTIONS = ["hide", "flip", "bogus"]
ALGORITHM_NAMES = ["heuristic", *sorted(cli.ALGORITHMS), "bogus"]


@pytest.fixture(scope="module")
def cli_fuzz(tmp_path_factory):
    """The fuzz's directory, holding models valid and broken, realization files and
    outputs, and each subcommand's flags naming them."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    for family in ("random_additive", "random_general", "random_linear"):
        assert main(["gen", "--family", family, "--n", "6", "--density", "0.4", "--seed", "3",
                     "--out", str(root / f"{family}.json")]) == 0
    (root / "broken.json").write_text('{"n0": 2, "priors": [0.5,')
    (root / "latin1.json").write_bytes(b"\xff")
    (root / "x0.txt").write_text("1 0 1 0 1 0\n")
    (root / "x0-bad.txt").write_text("1,a")
    (root / "outs").mkdir()
    models = [str(root / name) for name in (
        "random_additive.json", "random_general.json", "random_linear.json",
        "broken.json", "latin1.json", "missing.json", "outs")]
    x0_files = [str(root / "x0.txt"), str(root / "x0-bad.txt"), str(root / "missing.txt")]
    outs = [str(root / "outs" / "a.json"), str(root / "no-dir" / "a.json"), str(root / "outs")]
    return root, fuzz_flags(models, x0_files, outs)


def fuzz_flags(models, x0_files, outs):
    """Per subcommand: the flags a run needs, and every flag with its values (None: no value)."""
    instance = {
        "--model": models, "--x0": BITS, "--x0-file": x0_files, "--x0-seed": SMALL_INTS,
        "--p": NORM_TEXTS, "--action": ACTIONS, "--target": TARGETS,
    }
    return {
        "gen": (["--family", "--n"], {
            "--family": ["random_additive", *FAMILIES, "bogus"], "--n": SMALL_INTS,
            "--n1": SMALL_INTS, "--density": FLOATS, "--monotone": None, "--eps": FLOATS,
            "--seed": SMALL_INTS, "--out": outs,
        }),
        "attack": (["--model", "--x0-seed", "--algorithm", "--k"], {
            **instance, "--algorithm": ALGORITHM_NAMES, "--k": SMALL_INTS,
            "--seed": SMALL_INTS, "--out": outs,
        }),
        "eval": (["--model", "--x0-seed", "--mask"], {**instance, "--mask": MASKS}),
        # --trials defaults to 1000, so the fuzz almost always sets it.
        "simulate": (["--model", "--algorithm", "--k", "--trials"], {
            "--model": models, "--algorithm": [*ALGORITHM_NAMES, "oracle"], "--k": SMALL_INTS,
            "--p": NORM_TEXTS, "--action": ACTIONS, "--trials": ["3", "-1", "0", "1.5", "x"],
            "--seed": SMALL_INTS,
        }),
    }


@settings(max_examples=300)
@given(data=st.data())
def test_cli_flag_mixes_exit_cleanly(cli_fuzz, data):
    root, commands = cli_fuzz
    command = data.draw(st.sampled_from(sorted(commands)))
    required, flags = commands[command]
    # Each needed flag is usually there; a few more, or an unknown one, may follow.
    chosen = [flag for flag in required if data.draw(st.integers(0, 9))]
    chosen += data.draw(st.lists(st.sampled_from([*flags, "--bogus"]), max_size=4))
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        values = flags.get(flag)
        if values is not None:
            argv.append(values[0] if data.draw(st.booleans()) else data.draw(st.sampled_from(values)))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)  # where gen writes its default model.json
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors; any other exception fails the test
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "nan" not in out.getvalue().lower(), argv
