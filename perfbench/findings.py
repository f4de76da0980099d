"""Cost per Monte Carlo trial on theorem1, JSON-loaded nodes against shared ones.

    python3 perfbench/findings.py

Runs the oracle policy for 6 trials through ``run_expectation`` on the same
n = 800 theorem1 model that the simulate-theorem1-cli workload uses, twice:
as ``halftruth gen`` writes and ``load_model`` reads it (every node a
separate object), and as ``gen_theorem1`` builds it (one shared node).  Prints
the traced time per trial and the share of it spent in the oracle's family
check (the self time of ``theorem1_oracle_adversary``).
"""

from __future__ import annotations

import os
import sys
import time

import harness
from tracer import Tracer


N = 800
TRIALS = 6


def per_trial(model, n: int, trials: int) -> dict:
    from halftruth import simulate

    config = simulate.SimConfig(model=model, policy=simulate.oracle_policy, budget=n, p=1,
                                trials=trials, seed=1)
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        simulate.run_expectation(config)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    oracle_ms = tracer.totals()["generators.theorem1_oracle_adversary.self_ms"]
    return {"trial_ms": elapsed_ms / trials, "oracle_share": oracle_ms / elapsed_ms}


def main() -> int:
    harness.cap_threads()
    harness.use_source(harness.DEFAULT_SRC)
    from halftruth import generators, model

    shared = generators.gen_theorem1(N)
    with harness.workdir() as wd:
        path = os.path.join(wd, "theorem1.json")
        model.save_model(shared, path)
        loaded = model.load_model(path)
    for label, m in (("JSON-loaded nodes", loaded), ("shared node", shared)):
        r = per_trial(m, N, TRIALS)
        print(f"{label:>18}: {r['trial_ms']:8.1f} ms per trial, "
              f"oracle family check {r['oracle_share']:.0%} of it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
