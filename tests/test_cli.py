"""Command-line surface: files, exit codes, determinism, replayability."""

import json

import pytest

from halftruth import (
    AttackProblem,
    Mask,
    brute_force_attack,
    load_model,
    objective_value,
    validate_model,
)
from halftruth.cli import main


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


def _sweep_without_family(tmp_path, capsys):
    cfg_path, cfg = sweep_config(tmp_path)
    del cfg["family"]
    cfg_path.write_text(json.dumps(cfg))
    return ["sweep", "--config", str(cfg_path)]


@pytest.mark.parametrize(
    "make_argv",
    [_malformed_model_json, _malformed_sweep_json, _non_integer_x0, _sweep_without_family],
)
def test_malformed_input_exits_2(tmp_path, capsys, make_argv):
    code, _, err = run(capsys, *make_argv(tmp_path, capsys))
    assert code == 2
    assert "error (spec_invalid)" in err


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
