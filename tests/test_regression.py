"""Bit-identity regression: solvers and posteriors against a recorded table.

Every ``ALGORITHMS`` entry runs on seeded ``random_general``,
``random_additive`` (monotone) and ``random_linear`` instances with n0 = 10,
edge density 0.5, both actions, p in {1, 2, inf} and k = 3, and on sparse
``random_additive`` (monotone) and ``random_linear`` instances with n0 = 40,
edge density 0.1, both actions, p in {1, 2} and k = 4, where each stage-0
index reaches only a few nodes.  Each case records the mask, the algorithm
tag, the evaluation count and the value as ``float.hex``, or the
``ValidationError`` code when the solver refuses the instance.  Posteriors
and objective values (untargeted and targeted) are recorded under a few
seeded masks per instance, and the p = 1 linear gains (untargeted and
targeted) for both actions.

The comparison is exact, so a refactor of the posterior, evaluator or solver
code must reproduce every bit.  Regenerate the table only for an intended
output change::

    PYTHONPATH=src python tests/test_regression.py
"""

import json
import math
from pathlib import Path

import numpy as np

from halftruth import (
    ALGORITHMS,
    FLIP,
    HIDE,
    AttackProblem,
    GenSpec,
    Mask,
    ValidationError,
    generate,
    induced_posterior,
    linear_gains,
    objective_value,
    solve,
    true_posterior,
)
from halftruth.simulate import baseline_seed, draw_realization, realization_rng

TABLE = Path(__file__).parent / "data" / "regression_table.json"

FAMILIES = (("random_general", False), ("random_additive", True), ("random_linear", False))
SEEDS = range(6)
N0 = 10
BUDGET = 3
NORMS = (1, 2, math.inf)
MASK_SIZES = (0, 1, 3, 10)

# (key prefix, families, seeds, n0, edge density, norms, budget) per solver set.
SOLVER_SETS = (
    ("", FAMILIES, SEEDS, N0, 0.5, NORMS, BUDGET),
    ("sparse/", FAMILIES[1:], range(3), 40, 0.1, (1, 2), 4),
)


def _instances(families=FAMILIES, seeds=SEEDS, n0=N0, density=0.5, prefix=""):
    for family, monotone in families:
        for seed in seeds:
            spec = GenSpec(family, n0, edge_density=density, monotone=monotone, seed=seed)
            model = generate(spec)
            x0 = draw_realization(model, realization_rng(seed))
            yield f"{prefix}{family}/{seed}", model, x0, seed


def _hex_list(values) -> list[str]:
    return [float(v).hex() for v in values]


def solver_table() -> dict:
    table = {}
    for prefix, families, seeds, n0, density, norms, budget in SOLVER_SETS:
        for case in _instances(families, seeds, n0, density, prefix):
            table.update(_solver_cases(*case, norms, budget))
    return table


def _solver_cases(name, model, x0, seed, norms, budget) -> dict:
    table = {}
    for action in (HIDE, FLIP):
        for p in norms:
            problem = AttackProblem(model, x0, budget, p, action)
            for alg in ALGORITHMS:
                key = f"{name}/{action}/p={p}/{alg}"
                try:
                    result = solve(problem, alg, seed=baseline_seed(seed))
                except ValidationError as exc:
                    table[key] = exc.code
                else:
                    table[key] = [
                        list(result.mask.indices),
                        result.algorithm,
                        result.evaluations,
                        float(result.value).hex(),
                    ]
    return table


def posterior_table() -> dict:
    table = {}
    for name, model, x0, seed in _instances():
        rng = np.random.default_rng(seed)
        target = rng.random(model.n1)
        table[f"{name}/true"] = _hex_list(true_posterior(model, x0))
        for size in MASK_SIZES:
            indices = sorted(int(j) for j in rng.choice(N0, size=size, replace=False))
            for action in (HIDE, FLIP):
                mask = Mask(indices, action)
                key = f"{name}/{action}/{indices}"
                table[f"{key}/posterior"] = _hex_list(induced_posterior(model, x0, mask))
                for p in NORMS:
                    table[f"{key}/p={p}/value"] = objective_value(model, x0, mask, p).hex()
                    table[f"{key}/p={p}/targeted"] = objective_value(
                        model, x0, mask, p, target
                    ).hex()
    return table


def gains_table() -> dict:
    table = {}
    for name, model, x0, seed in _instances():
        target = np.random.default_rng(seed).random(model.n1)
        for action in (HIDE, FLIP):
            for label, tgt in (("untargeted", None), ("targeted", target)):
                problem = AttackProblem(model, x0, BUDGET, 1, action, tgt)
                key = f"{name}/{action}/{label}"
                try:
                    table[key] = _hex_list(linear_gains(problem))
                except ValidationError as exc:
                    table[key] = exc.code
    return table


def _assert_matches(got: dict, recorded: dict) -> None:
    assert got.keys() == recorded.keys()
    mismatched = [key for key in recorded if got[key] != recorded[key]]
    assert not mismatched, f"{len(mismatched)} entries differ, first: {mismatched[:5]}"


def _recorded() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_solvers_match_recorded_table():
    _assert_matches(solver_table(), _recorded()["solvers"])


def test_posteriors_and_objective_match_recorded_table():
    _assert_matches(posterior_table(), _recorded()["posteriors"])


def test_linear_gains_match_recorded_table():
    _assert_matches(gains_table(), _recorded()["gains"])


if __name__ == "__main__":
    # One entry per line, so a changed entry shows as one changed line.
    sections = []
    tables = (("gains", gains_table()), ("posteriors", posterior_table()), ("solvers", solver_table()))
    for name, table in tables:
        entries = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
        sections.append(f"{json.dumps(name)}: {{\n{entries}\n}}")
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("{" + ",\n".join(sections) + "}\n", encoding="utf-8")
