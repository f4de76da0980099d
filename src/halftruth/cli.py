"""Command-line experiment harness.

Subcommands: ``gen`` (write a model file), ``attack`` (solve one instance),
``eval`` (score a given mask), ``sweep`` (algorithm-comparison grid to CSV),
``simulate`` (Monte Carlo expected utility).  Exit codes: 0 success, 2 invalid
input or violated precondition, 3 I/O failure.  Seeds are integers >= 0 and
``--target`` marginals lie in [0, 1].  A sweep config is read once, with the
model file's JSON type rules; unknown keys are rejected, and ``"p"`` is an
integer or ``"inf"``.

Sweep output is deterministic for a given config: rows are ordered by n, then
algorithm list order, then trial index, and every row can be replayed from its
seed column (the model is regenerated with that seed, the realization drawn
from its stream 0, the random baseline from its stream 1).  Wall-clock timing
is off by default because it would break byte-identical reruns; enable it with
``"timing": true``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .attacks import (
    ALGORITHMS,
    AttackProblem,
    brute_force_attack,
    check_action,
    check_budget,
    find_algorithm,
    solve,
)
from .generators import FAMILIES, GenSpec, generate
from .inference import check_norm, objective_value
from .model import (
    HIDE,
    FLIP,
    Mask,
    ValidationError,
    check_integer,
    format_float,
    json_array,
    json_object,
    json_value,
    load_model,
    read_text,
    save_model,
    validate_model,
)
from .simulate import (
    SimConfig,
    baseline_seed,
    derive_seed,
    draw_realization,
    make_algorithm_policy,
    oracle_policy,
    realization_rng,
    run_expectation,
)


def _parse_p(text: str):
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise ValidationError("wrong_norm", f"--p must be a positive integer or 'inf': {text!r}")


def _parse_csv(text: str, convert) -> list:
    """Entries separated by a comma, whitespace or both; an empty field is an error."""
    text = text.strip()
    try:
        return [convert(tok) for tok in re.split(r"\s*,\s*|\s+", text)] if text else []
    except ValueError:
        raise ValidationError("spec_invalid", f"not a list of numbers: {text!r}") from None


def _resolve_x0(args, model) -> tuple[int, ...]:
    given = [args.x0 is not None, args.x0_file is not None, args.x0_seed is not None]
    if sum(given) != 1:
        raise ValidationError(
            "spec_invalid", "exactly one of --x0, --x0-file, --x0-seed is required"
        )
    if args.x0 is not None:
        return tuple(_parse_csv(args.x0, int))
    if args.x0_file is not None:
        return tuple(_parse_csv(read_text(args.x0_file), int))
    return draw_realization(model, realization_rng(args.x0_seed))


def _load_instance(args):
    """The validated model, realization and target that ``attack`` and ``eval`` read."""
    model = load_model(args.model)
    validate_model(model)
    x0 = _resolve_x0(args, model)
    return model, x0, tuple(_parse_csv(args.target, float)) if args.target else None


def cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n0=args.n,
        n1=args.n1,
        edge_density=args.density,
        monotone=args.monotone,
        seed=args.seed,
        eps=args.eps,
    )
    model = generate(spec)
    validate_model(model)
    save_model(model, args.out)
    print(f"wrote {args.out}: family={args.family} n0={model.n0} n1={model.n1} (valid)")
    return 0


def cmd_attack(args) -> int:
    model, x0, target = _load_instance(args)
    problem = AttackProblem(model, x0, args.k, _parse_p(args.p), args.action, target)
    if args.algorithm == "random":
        seed = args.seed if args.seed is not None else args.x0_seed
        if seed is None:
            raise ValidationError("spec_invalid", "--algorithm random needs --seed or --x0-seed")
        result = solve(problem, "random", seed=baseline_seed(seed))
    else:
        result = solve(problem, args.algorithm)
    doc = {
        "mask": list(result.mask.indices),
        "value": result.value,
        "algorithm": result.algorithm,
        "evaluations": result.evaluations,
    }
    text = json.dumps(doc)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def cmd_eval(args) -> int:
    model, x0, target = _load_instance(args)
    mask = Mask(_parse_csv(args.mask, int), args.action)
    value = objective_value(model, x0, mask, _parse_p(args.p), target)
    print(json.dumps({"mask": list(mask.indices), "value": value}))
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    validate_model(model)
    policy = oracle_policy if args.algorithm == "oracle" else make_algorithm_policy(args.algorithm)
    config = SimConfig(
        model=model,
        policy=policy,
        budget=args.k,
        p=_parse_p(args.p),
        action=args.action,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_expectation(config)
    print(json.dumps(report.to_json_dict()))
    return 0


# Every sweep-config key with its JSON type rule ("integers" and "strings" are
# arrays) and its default.  "family" has none: GenSpec rejects a missing one.
_SWEEP_KEYS = {
    "family": ("string", None),
    "ns": ("integers", []),
    "algorithms": ("strings", []),
    "k": ("integer", None),
    "k_fraction": ("number", None),
    "p": ("integer", 1),
    "action": ("string", HIDE),
    "trials": ("integer", 1),
    "seed": ("integer", 0),
    "density": ("number", 0.5),
    "monotone": ("boolean", False),
    "eps": ("number", 0.01),
    "timing": ("boolean", False),
    "out": ("string", "sweep.csv"),
}


def _read_sweep(doc) -> argparse.Namespace:
    """Every sweep-config key, type-checked once, with its default; integers as int.

    Ranges are checked by :func:`_sweep_grid`.
    """
    json_object(doc, _SWEEP_KEYS.keys(), "sweep config")
    sweep = argparse.Namespace()
    for key, (rule, default) in _SWEEP_KEYS.items():
        value, what = doc.get(key, default), f"sweep key {key!r}"
        if key == "p" and value == "inf":
            value = math.inf
        elif key in doc and rule.endswith("s"):
            value = [json_value(v, rule[:-1], what) for v in json_array(value, rule[:-1], what)]
        elif key in doc:
            value = json_value(value, rule, what)
        setattr(sweep, key, value)
    check_integer(sweep.trials, 1, "sweep key 'trials'")
    if not sweep.ns or not sweep.algorithms:
        raise ValidationError("spec_invalid", "sweep config needs nonempty 'ns' and 'algorithms'")
    return sweep


def _sweep_budget(sweep, n: int) -> int:
    """``"k"`` if given, else ``"k_fraction"`` of n rounded up, else ceil(n/10)."""
    if sweep.k is not None:
        return sweep.k
    if sweep.k_fraction is not None:
        if not 0.0 < sweep.k_fraction <= 1.0:
            raise ValidationError("spec_invalid", f"k_fraction {sweep.k_fraction} not in (0, 1]")
        return max(1, math.ceil(sweep.k_fraction * n))
    return math.ceil(n / 10)


def _sweep_grid(sweep) -> list[tuple[int, int, list[GenSpec]]]:
    """Each n with its budget and one generator spec per trial, before any cell runs.

    Every value is range-checked here by the rule of the code that uses it,
    so a bad value late in the grid costs no earlier cell: ``GenSpec``
    (family, sizes, density, seeds), ``AttackProblem``'s ``check_budget``,
    ``check_norm`` and ``check_action``, and ``find_algorithm``.
    """
    for alg in sweep.algorithms:
        find_algorithm(alg)
    check_norm(sweep.p)
    check_action(sweep.action)
    grid = []
    for n in sweep.ns:
        specs = [
            GenSpec(sweep.family, n, monotone=sweep.monotone, seed=derive_seed(sweep.seed, n, t),
                    eps=sweep.eps, edge_density=sweep.density)
            for t in range(sweep.trials)
        ]
        grid.append((n, check_budget(_sweep_budget(sweep, n)), specs))
    return grid


def _solve_cell(sweep, spec: GenSpec, k: int):
    model = generate(spec)
    # The two-block adversarial family is built around the all-zero draw.
    if sweep.family == "heuristic_adversarial":
        x0 = (0,) * model.n0
    else:
        x0 = draw_realization(model, realization_rng(spec.seed))
    problem = AttackProblem(model, x0, k, sweep.p, sweep.action)
    try:
        opt = brute_force_attack(problem).value
    except ValidationError as exc:
        if exc.code != "instance_too_large":
            raise
        opt = None
    per_alg = {}
    for alg in sweep.algorithms:
        start = time.perf_counter()
        result = solve(problem, alg, seed=baseline_seed(spec.seed))
        wall = int(round((time.perf_counter() - start) * 1000)) if sweep.timing else None
        per_alg[alg] = (result.value, wall)
    return opt, per_alg


def cmd_sweep(args) -> int:
    try:
        sweep = _read_sweep(json.loads(read_text(args.config)))
    except json.JSONDecodeError as exc:
        raise ValidationError("spec_invalid", f"malformed sweep config: {exc}") from exc
    grid = _sweep_grid(sweep)
    p_text = "inf" if sweep.p == math.inf else str(sweep.p)
    lines = ["family,n,k,p,algorithm,trial,seed,value,opt_value,ratio,wall_ms"]
    for n, k, specs in grid:
        cells = [_solve_cell(sweep, spec, k) for spec in specs]
        for alg in sweep.algorithms:
            for t, (spec, (opt, per_alg)) in enumerate(zip(specs, cells)):
                value, wall = per_alg[alg]
                opt_text = format_float(opt) if opt is not None else ""
                ratio_text = format_float(value / opt) if opt else ""
                wall_text = str(wall) if wall is not None else ""
                lines.append(
                    f"{sweep.family},{n},{k},{p_text},{alg},{t},{spec.seed},"
                    f"{format_float(value)},{opt_text},{ratio_text},{wall_text}"
                )
    with open(sweep.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {sweep.out}: {len(lines) - 1} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="halftruth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a model file")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--n1", type=int, default=None)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--monotone", action="store_true")
    g.add_argument("--eps", type=float, default=0.01)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="model.json")
    g.set_defaults(fn=cmd_gen)

    def add_instance_flags(p_, with_mask=False):
        p_.add_argument("--model", required=True)
        p_.add_argument("--x0", default=None, help="comma-separated bits")
        p_.add_argument("--x0-file", dest="x0_file", default=None)
        p_.add_argument("--x0-seed", dest="x0_seed", type=int, default=None)
        p_.add_argument("--p", default="1", help="norm exponent, an integer or 'inf'")
        p_.add_argument("--action", choices=(HIDE, FLIP), default=HIDE)
        p_.add_argument("--target", default=None, help="comma-separated target marginals")
        if with_mask:
            p_.add_argument("--mask", required=True, help="comma-separated indices ('' = empty)")

    a = sub.add_parser("attack", help="solve one attack instance")
    add_instance_flags(a)
    a.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--seed", type=int, default=None, help="seed for the random baseline")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_attack)

    e = sub.add_parser("eval", help="objective value of a given mask")
    add_instance_flags(e, with_mask=True)
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("sweep", help="algorithm comparison grid, written as CSV")
    s.add_argument("--config", required=True)
    s.set_defaults(fn=cmd_sweep)

    m = sub.add_parser("simulate", help="Monte Carlo expected utility")
    m.add_argument("--model", required=True)
    m.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS) + ["oracle"])
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--p", default="1")
    m.add_argument("--action", choices=(HIDE, FLIP), default=HIDE)
    m.add_argument("--trials", type=int, default=1000)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
