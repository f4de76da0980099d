"""The benchmark's four workloads.

Each is a closed loop with one caller: the next item starts when the previous
one returns.  An item's inputs come from the workload seed through
``halftruth.simulate.derive_seed``: item ``i`` uses ``derive_seed(seed, 0, i)``.
The untimed warm-up item uses ``derive_seed(0, 1, 0)`` whatever the seed, so
that set-up does the same work on every seed (some inputs cost several times
the median, and one as the warm-up would swing ``setup_s``).  Realizations
come from stream 0 of the item seed, as ``--x0-seed`` does.

Construction is the set-up: ``prepare`` does the once-per-run work (running
``halftruth gen``), then ``build`` makes the inputs of the warm-up item and of
the first ``SETUP_ITEMS`` items (generating and validating instances, or
writing config files).  Later items' inputs are built just before they run,
outside the item's clock, so set-up does not grow with the run length.
``run`` is the timed item; ``collect`` turns its raw result into a JSON-able
output outside the timer; ``check`` tests an output against invariants and the
independent oracle; ``compare`` tests it against a reference recorded at the
seed commit.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os

import numpy as np
from halftruth import attacks, cli, generators, model, simulate

import oracle

WARMUP = -1
REL_TOL = 1e-9

# Items whose inputs set-up builds, after the warm-up item's.
SETUP_ITEMS = 32


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    # Items per second at the seed commit (2-core Intel Xeon, Python 3.11).
    # Sizes the traced run; never reported.
    seed_rate = 1.0

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.workdir = workdir
        # A traced run times each item twice, untraced and traced, and
        # should take about as long as an untraced run.
        self.trace_items = max(4, round(seconds * self.seed_rate / 2.2))
        self.prepare()
        self.inputs = {i: self.build(i) for i in (WARMUP, *range(SETUP_ITEMS))}

    def item_seed(self, i: int) -> int:
        if i == WARMUP:
            return simulate.derive_seed(0, 1, 0)
        return simulate.derive_seed(self.seed, 0, i)

    def input(self, i: int):
        """Item ``i``'s input: kept from set-up, or built now."""
        return self.inputs[i] if i in self.inputs else self.build(i)

    def prepare(self) -> None:
        pass

    def build(self, i: int):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def collect(self, i: int, raw) -> dict:
        raise NotImplementedError

    def check(self, i: int, out: dict) -> list[str]:
        raise NotImplementedError

    def reference(self, out: dict) -> dict:
        raise NotImplementedError

    def compare(self, out: dict, ref: dict) -> list[str]:
        raise NotImplementedError

    def output_bytes(self, out: dict) -> int:
        return 0


# -- solve-* ------------------------------------------------------------


def _result(res) -> dict:
    return {
        "mask": list(res.mask.indices),
        "value": res.value,
        "algorithm": res.algorithm,
        "evaluations": res.evaluations,
    }


def _check_result(problem, res: dict, label: str) -> list[str]:
    errors = []
    mask = res["mask"]
    if len(mask) > problem.budget:
        errors.append(f"{label}: |mask| = {len(mask)} > k = {problem.budget}")
    if mask != sorted(set(mask)) or any(not 0 <= j < problem.model.n0 for j in mask):
        errors.append(f"{label}: malformed mask {mask}")
        return errors
    expected = oracle.objective(problem.model, problem.x0, mask, problem.action, problem.p)
    if not close(res["value"], expected):
        errors.append(f"{label}: value {res['value']!r} != oracle {expected!r}")
    return errors


def _compare_result(res: dict, ref: dict, label: str) -> list[str]:
    errors = []
    if res["mask"] != ref["mask"]:
        errors.append(f"{label}: mask {res['mask']} != reference {ref['mask']}")
    if not close(res["value"], ref["value"]):
        errors.append(f"{label}: value {res['value']!r} != reference {ref['value']!r}")
    return errors


class _SolveWorkload(Workload):
    family = ""
    n = 0
    density = 0.0
    monotone = False
    k = 0
    p: object = 1
    action = ""

    def build(self, i: int):
        item_seed = self.item_seed(i)
        spec = generators.GenSpec(
            self.family,
            self.n,
            edge_density=self.density,
            monotone=self.monotone,
            seed=item_seed,
        )
        m = generators.generate(spec)
        model.validate_model(m)
        x0 = simulate.draw_realization(m, simulate.realization_rng(item_seed))
        return attacks.AttackProblem(m, x0, self.k, self.p, self.action)


class SolveAdditiveHide(_SolveWorkload):
    name = "solve-additive-hide"
    seed_rate = 4.0
    family = "random_additive"
    n = 60
    density = 0.1
    monotone = True
    k = 6
    p = 2
    action = "hide"

    def run(self, problem):
        return attacks.solve(problem, "combined")

    def collect(self, i, raw):
        return _result(raw)

    def check(self, i, out):
        return _check_result(self.input(i), out, "combined")

    def reference(self, out):
        return {"mask": out["mask"], "value": out["value"]}

    def compare(self, out, ref):
        return _compare_result(out, ref, "combined")


class SolveLinearFlip(_SolveWorkload):
    name = "solve-linear-flip"
    seed_rate = 4.4
    family = "random_linear"
    n = 100
    density = 0.1
    k = 10
    p = 1
    action = "flip"

    def run(self, problem):
        return attacks.solve(problem, "flip_linear_exact"), attacks.solve(problem, "heuristic")

    def collect(self, i, raw):
        exact, heuristic = raw
        return {"exact": _result(exact), "heuristic": _result(heuristic)}

    def check(self, i, out):
        problem = self.input(i)
        errors = _check_result(problem, out["exact"], "flip_linear_exact")
        errors += _check_result(problem, out["heuristic"], "heuristic")
        if out["heuristic"]["value"] > out["exact"]["value"] + 1e-9:
            errors.append("heuristic beats the exact linear optimum")
        return errors

    def reference(self, out):
        return {key: {"mask": r["mask"], "value": r["value"]} for key, r in out.items()}

    def compare(self, out, ref):
        return _compare_result(out["exact"], ref["exact"], "flip_linear_exact") + _compare_result(
            out["heuristic"], ref["heuristic"], "heuristic"
        )


# -- sweep-general-exact ------------------------------------------------

SWEEP_HEADER = "family,n,k,p,algorithm,trial,seed,value,opt_value,ratio,wall_ms".split(",")
SWEEP_FLOATS = {"value", "opt_value", "ratio"}


class SweepGeneralExact(Workload):
    name = "sweep-general-exact"
    seed_rate = 2.35
    config = {
        "family": "random_general",
        "density": 0.7,
        "ns": [12, 13],
        "k": 4,
        "p": "inf",
        "action": "hide",
        "algorithms": ["combined", "heuristic", "random"],
        "trials": 2,
    }

    def prepare(self):
        self.csv_path = os.path.join(self.workdir, "sweep.csv")

    def build(self, i):
        path = os.path.join(self.workdir, f"sweep-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**self.config, "seed": self.item_seed(i), "out": self.csv_path}, fh)
        return path

    def run(self, path):
        return _cli(["sweep", "--config", path])

    def collect(self, i, raw):
        code, stdout = raw
        text = ""
        if code == 0:
            with open(self.csv_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.csv_path)
        return {"code": code, "stdout": stdout, "csv": text}

    def output_bytes(self, out):
        return len(out["stdout"].encode()) + len(out["csv"].encode())

    @staticmethod
    def _rows(out) -> list[list[str]]:
        return list(csv.reader(io.StringIO(out["csv"])))

    def check(self, i, out):
        if out["code"] != 0:
            return [f"sweep exited {out['code']}"]
        rows = self._rows(out)
        if not rows or rows[0] != SWEEP_HEADER:
            return [f"bad CSV header {rows[:1]}"]
        cfg = self.config
        expected = [
            (n, alg, t) for n in cfg["ns"] for alg in cfg["algorithms"] for t in range(cfg["trials"])
        ]
        if len(rows) - 1 != len(expected):
            return [f"{len(rows) - 1} CSV rows, expected {len(expected)}"]
        master = self.item_seed(i)
        cells = {(n, t): self._oracle_values(n, oracle.derived_seed(master, n, t))
                 for n in cfg["ns"] for t in range(cfg["trials"])}
        errors = []
        for line, (n, alg, t) in zip(rows[1:], expected):
            row = dict(zip(SWEEP_HEADER, line))
            want = {
                "family": cfg["family"],
                "n": str(n),
                "k": str(cfg["k"]),
                "p": cfg["p"],
                "algorithm": alg,
                "trial": str(t),
                "seed": str(oracle.derived_seed(master, n, t)),
                "wall_ms": "",
            }
            for key, value in want.items():
                if row[key] != value:
                    errors.append(f"row {n}/{alg}/{t}: {key}={row[key]!r}, expected {value!r}")
            if not row["opt_value"]:
                errors.append(f"row {n}/{alg}/{t}: no opt_value")
                continue
            value, opt, ratio = (float(row[k]) for k in ("value", "opt_value", "ratio"))
            if ratio > 1.0 + 1e-9 or not close(ratio, value / opt):
                errors.append(f"row {n}/{alg}/{t}: ratio {ratio!r} for {value!r}/{opt!r}")
            values = cells[(n, t)]
            best = float(values.max())
            if not close(opt, best):
                errors.append(f"row {n}/{alg}/{t}: opt_value {opt!r} != oracle {best!r}")
            if not np.isclose(values, value, rtol=REL_TOL, atol=0.0).any():
                errors.append(f"row {n}/{alg}/{t}: value {value!r} is no mask's oracle value")
        return errors

    def _oracle_values(self, n: int, seed: int) -> np.ndarray:
        """The oracle's objective for every mask of at most k nodes on a cell."""
        cfg = self.config
        spec = generators.GenSpec(cfg["family"], n, edge_density=cfg["density"], seed=seed)
        m = generators.generate(spec)
        x0 = oracle.realization(m.priors, seed)
        masks = [c for size in range(cfg["k"] + 1) for c in itertools.combinations(range(n), size)]
        return np.array(oracle.objectives(m, x0, masks, cfg["action"], math.inf))

    def reference(self, out):
        return {"rows": self._rows(out)}

    def compare(self, out, ref):
        rows, want = self._rows(out), ref["rows"]
        if len(rows) != len(want):
            return [f"{len(rows)} CSV lines, reference has {len(want)}"]
        header = want[0]
        errors = [] if rows[0] == header else [f"CSV header {rows[0]} != reference {header}"]
        for line, ref_line in zip(rows[1:], want[1:]):
            for key, got, exp in zip(header, line, ref_line):
                same = close(float(got), float(exp)) if key in SWEEP_FLOATS and got and exp else got == exp
                if not same:
                    errors.append(f"CSV field {key}: {got!r} != reference {exp!r}")
        return errors


# -- simulate-theorem1-cli ----------------------------------------------


class SimulateTheorem1Cli(Workload):
    name = "simulate-theorem1-cli"
    seed_rate = 1.85
    n = 800
    trials = 2

    def prepare(self):
        self.model_path = os.path.join(self.workdir, "theorem1.json")
        code, stdout = _cli(
            ["gen", "--family", "theorem1", "--n", str(self.n), "--out", self.model_path]
        )
        if code != 0:
            raise RuntimeError(f"halftruth gen exited {code}: {stdout}")

    def build(self, i):
        return [
            "simulate", "--model", self.model_path, "--algorithm", "oracle",
            "--k", str(self.n), "--p", "1", "--trials", str(self.trials),
            "--seed", str(self.item_seed(i)),
        ]

    def run(self, argv):
        return _cli(argv)

    def collect(self, i, raw):
        code, stdout = raw
        out = {"code": code, "stdout": stdout}
        if code == 0:
            report = json.loads(stdout)
            out.update(mean=report["mean"], trials=report["trials"])
        return out

    def output_bytes(self, out):
        return len(out["stdout"].encode())

    def check(self, i, out):
        if out["code"] != 0:
            return [f"simulate exited {out['code']}"]
        errors = []
        if out["trials"] != self.trials:
            errors.append(f"{out['trials']} trials, expected {self.trials}")
        expected = oracle.theorem1_oracle_mean(self.n, self.n, self.trials, self.item_seed(i))
        if not close(out["mean"], expected):
            errors.append(f"mean {out['mean']!r} != oracle {expected!r}")
        return errors

    def reference(self, out):
        return {"mean": out["mean"]}

    def compare(self, out, ref):
        if not close(out["mean"], ref["mean"]):
            return [f"mean {out['mean']!r} != reference {ref['mean']!r}"]
        return []


WORKLOADS = {
    w.name: w for w in (SolveAdditiveHide, SolveLinearFlip, SweepGeneralExact, SimulateTheorem1Cli)
}
