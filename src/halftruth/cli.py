"""Command-line experiment harness.

Subcommands: ``gen`` (write a model file), ``attack`` (solve one instance),
``eval`` (score a given mask), ``sweep`` (algorithm-comparison grid to CSV),
``simulate`` (Monte Carlo expected utility).  Exit codes: 0 success, 2 invalid
input or violated precondition, 3 I/O failure.

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
import sys
import time

from .attacks import (
    ALGORITHMS,
    BRUTE_FORCE_LIMIT,
    AttackProblem,
    brute_force_attack,
    solve,
)
from .generators import FAMILIES, GenSpec, generate
from .inference import objective_value
from .model import (
    HIDE,
    FLIP,
    Mask,
    ValidationError,
    load_model,
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
)


def _parse_p(text: str):
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        raise ValidationError("wrong_norm", f"--p must be a positive integer or 'inf': {text!r}")


def _parse_csv(text: str, convert) -> list:
    try:
        return [convert(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise ValidationError("spec_invalid", f"not a comma-separated list: {text!r}") from None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _resolve_x0(args, model) -> tuple[int, ...]:
    given = [args.x0 is not None, args.x0_file is not None, args.x0_seed is not None]
    if sum(given) != 1:
        raise ValidationError(
            "spec_invalid", "exactly one of --x0, --x0-file, --x0-seed is required"
        )
    if args.x0 is not None:
        return tuple(_parse_csv(args.x0, int))
    if args.x0_file is not None:
        with open(args.x0_file, "r", encoding="utf-8") as fh:
            return tuple(_parse_csv(fh.read().replace("\n", ",").replace(" ", ","), int))
    return draw_realization(model, realization_rng(args.x0_seed))


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
    model = load_model(args.model)
    validate_model(model)
    x0 = _resolve_x0(args, model)
    target = tuple(_parse_csv(args.target, float)) if args.target else None
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
    model = load_model(args.model)
    validate_model(model)
    x0 = _resolve_x0(args, model)
    target = tuple(_parse_csv(args.target, float)) if args.target else None
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
    from .simulate import run_expectation

    report = run_expectation(config)
    print(json.dumps(report.to_json_dict()))
    return 0


def _sweep_budget(cfg: dict, n: int) -> int:
    if "k" in cfg:
        return int(cfg["k"])
    if "k_fraction" in cfg:
        frac = float(cfg["k_fraction"])
        if not 0.0 < frac <= 1.0:
            raise ValidationError("spec_invalid", f"k_fraction {frac} not in (0, 1]")
        return max(1, math.ceil(frac * n))
    return math.ceil(n / 10)


def _sweep_instance(cfg: dict, n: int, seed: int):
    family = cfg["family"]
    spec = GenSpec(
        family=family,
        n0=n,
        edge_density=float(cfg.get("density", 0.5)),
        monotone=bool(cfg.get("monotone", False)),
        seed=seed,
        eps=float(cfg.get("eps", 0.01)),
    )
    model = generate(spec)
    # The two-block adversarial family is built around the all-zero draw.
    if family == "heuristic_adversarial":
        x0 = (0,) * model.n0
    else:
        x0 = draw_realization(model, realization_rng(seed))
    return model, x0


def _solve_cell(cfg: dict, n: int, trial: int, master_seed: int, p, action: str, timing: bool):
    seed = derive_seed(master_seed, n, trial)
    k = _sweep_budget(cfg, n)
    model, x0 = _sweep_instance(cfg, n, seed)
    problem = AttackProblem(model, x0, k, p, action)
    masks = sum(math.comb(model.n0, m) for m in range(problem.budget + 1))
    opt = brute_force_attack(problem).value if masks <= BRUTE_FORCE_LIMIT else None
    per_alg = {}
    for alg in cfg["algorithms"]:
        start = time.perf_counter()
        if alg == "random":
            result = solve(problem, alg, seed=baseline_seed(seed))
        else:
            result = solve(problem, alg)
        wall = int(round((time.perf_counter() - start) * 1000)) if timing else None
        per_alg[alg] = (result.value, wall)
    return seed, k, opt, per_alg


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("spec_invalid", f"malformed sweep config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("spec_invalid", "sweep config must be a JSON object")
    ns = [int(n) for n in cfg.get("ns", [])]
    algorithms = list(cfg.get("algorithms", []))
    if not ns or not algorithms:
        raise ValidationError("spec_invalid", "sweep config needs nonempty 'ns' and 'algorithms'")
    trials = int(cfg.get("trials", 1))
    master_seed = int(cfg.get("seed", 0))
    p = _parse_p(str(cfg.get("p", 1)))
    action = cfg.get("action", HIDE)
    timing = bool(cfg.get("timing", False))
    out = cfg.get("out", "sweep.csv")
    family = cfg.get("family")
    if family not in FAMILIES:
        raise ValidationError("spec_invalid", f"unknown or missing family {family!r}")

    p_text = "inf" if p == math.inf else str(p)
    lines = ["family,n,k,p,algorithm,trial,seed,value,opt_value,ratio,wall_ms"]
    for n in ns:
        cells = [_solve_cell(cfg, n, t, master_seed, p, action, timing) for t in range(trials)]
        for alg in algorithms:
            for t, (seed, k, opt, per_alg) in enumerate(cells):
                value, wall = per_alg[alg]
                opt_text = _fmt(opt) if opt is not None else ""
                ratio_text = _fmt(value / opt) if opt else ""
                wall_text = str(wall) if wall is not None else ""
                lines.append(
                    f"{family},{n},{k},{p_text},{alg},{t},{seed},"
                    f"{_fmt(value)},{opt_text},{ratio_text},{wall_text}"
                )
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}: {len(lines) - 1} rows")
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
