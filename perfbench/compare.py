"""Compare two halftruth source trees with this benchmark, in alternating pairs.

    python3 perfbench/compare.py --parent /path/to/parent-checkout

The change is this checkout.  Both sides run this checkout's benchmark code
for ``run_seconds`` from BENCHMARK.json; only the ``src/`` tree they import
differs.  Pair i (of ten) runs every workload on seed ``1 + i`` for both
sides, the parent first when i is even and the change first when i is odd.
Each run is a fresh process.

For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, the change's win share, and a verdict, checked
in this order:

* ``improved`` -- the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  quartile spread;
* ``unresolved`` -- either side's quartile spread, as a share of its median,
  is wider than the metric's bound in BENCHMARK.json, and not every change
  run reads better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the bound;
* ``no worse`` -- otherwise.

A workload where either side has a failed run gets the verdict ``failed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import run

RUN = Path(__file__).resolve().parent / "run.py"
PAIRS = 10
FIRST_SEED = 1


def run_once(src: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--src", str(src),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "metrics": {}}
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"ok": result["correct"] and result["failed"] == 0, "metrics": values}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    win_share = sum((c - p) * sign > 0 for p, c in zip(parent, change)) / len(parent)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q_p = statistics.quantiles(parent, n=4)
    q_c = statistics.quantiles(change, n=4)
    if win_share >= 0.9 and abs(med_c - med_p) > q_p[2] - q_p[0]:
        return "improved", win_share
    spread = max((q_p[2] - q_p[0]) / abs(med_p), (q_c[2] - q_c[0]) / abs(med_c))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", win_share
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "regressed", win_share
    return "no worse", win_share


def _summary(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    args = parser.parse_args(argv)

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve() / "src", "change": harness.DEFAULT_SRC}
    for src in sides.values():
        if not (src / "halftruth" / "__init__.py").is_file():
            parser.error(f"no halftruth package under {src}")

    runs = {(w, side): [] for w in names for side in sides}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in names:
            for side in order:
                result = run_once(sides[side], w, FIRST_SEED + i, seconds)
                runs[(w, side)].append(result)
                shown = {k: round(v, 4) for k, v in result["metrics"].items()}
                print(f"pair {i} {w} {side}: ok={result['ok']} {shown}", flush=True)

    print()
    print(f"{'workload':<24}{'metric':<14}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'wins':>7}  verdict")
    status = 0
    for w in names:
        parent_runs, change_runs = runs[(w, "parent")], runs[(w, "change")]
        if not all(r["ok"] for r in parent_runs + change_runs):
            print(f"{w:<24}{'':<14}{'':>34}{'':>34}{'':>7}  failed")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            unit, better = run.E2E[name]
            p = [r["metrics"][name] for r in parent_runs]
            c = [r["metrics"][name] for r in change_runs]
            v, wins = verdict(p, c, better, metric["bound"])
            print(f"{w:<24}{name:<14}{_summary(p):>34}{_summary(c):>34}{wins:>7.0%}  {v} "
                  f"({unit}, {better} is better, bound {metric['bound']})")
            if v == "regressed":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
