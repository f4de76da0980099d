"""Self-test of the benchmark: deterministic counts, the tracer, the spec.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
``test_*.py``); it runs a few items of every workload and takes seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.cap_threads()
harness.use_source(harness.DEFAULT_SRC)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced(name: str, seed: int, n: int):
    """Totals of a traced run over items 0..n-1 (times dropped), its items, its workload."""
    with harness.workdir() as wd:
        wl = workloads.WORKLOADS[name](seed, 1, wd)
        t = tracer.Tracer()
        with t:
            items = [harness.run_item(wl, i, t.begin_item, t.end_item) for i in range(n)]
        assert harness.verify(wl, items, harness.load_refs(name)) == []
    counts = {k: v for k, v in t.totals().items() if not k.endswith("self_ms")}
    return counts, items, wl


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    first, _, _ = traced(name, 1, 2)
    second, _, _ = traced(name, 1, 2)
    assert first == second
    assert first["inference.induced_posterior.calls"] > 0


def test_heuristic_evaluation_count_and_tracer_sum():
    counts, items, wl = traced("solve-linear-flip", 1, 1)
    out = items[0].out
    assert out["heuristic"]["evaluations"] == 1 + sum(wl.n - t for t in range(wl.k))
    assert counts["attacks.evaluations"] == (
        out["exact"]["evaluations"] + out["heuristic"]["evaluations"]
    )
    assert counts["attacks.heuristic_attack.calls"] == 1
    assert counts["attacks.solve.calls"] == 2


def test_sweep_counts_nested_solvers_once():
    counts, _, _ = traced("sweep-general-exact", 1, 1)
    # 4 cells: brute force (794 or 1093 masks) plus combined, heuristic and
    # random, each counted at the outermost solver only.
    brute = sum(1 + n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6
                + n * (n - 1) * (n - 2) * (n - 3) // 24 for n in (12, 12, 13, 13))
    climb = sum(2 * (1 + n + (n - 1) + (n - 2) + (n - 3)) + 1 for n in (12, 12, 13, 13))
    assert counts["attacks.evaluations"] == brute + climb
    assert counts["attacks.approx_attack.raised"] == 4


def test_sweep_check_rejects_a_value_no_mask_has():
    _, items, wl = traced("sweep-general-exact", 1, 1)
    out = dict(items[0].out)
    rows = [line.split(",") for line in out["csv"].splitlines()]
    col = {name: k for k, name in enumerate(rows[0])}
    row = rows[1]
    value = float(row[col["value"]]) * 0.999
    row[col["value"]] = repr(value)
    row[col["ratio"]] = repr(value / float(row[col["opt_value"]]))
    out["csv"] = "\n".join(",".join(r) for r in rows) + "\n"
    errors = wl.check(0, out)
    assert len(errors) == 1 and "no mask's oracle value" in errors[0]


def test_tracer_restores_every_patched_name():
    import halftruth
    from halftruth import attacks, inference

    before = (attacks.ALGORITHMS["heuristic"], attacks.induced_posterior,
              inference.masked_posterior, halftruth.solve)
    with tracer.Tracer():
        assert attacks.induced_posterior is not before[1]
        assert attacks.ALGORITHMS["heuristic"] is not before[0]
    after = (attacks.ALGORITHMS["heuristic"], attacks.induced_posterior,
             inference.masked_posterior, halftruth.solve)
    assert before == after


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + ("attacks.no_such_solver",))
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["attacks.no_such_solver"]
    assert t.totals()["attacks.no_such_solver.calls"] == 0


def test_tail_is_p75_with_the_count_beyond():
    assert harness.tail([float(i) for i in range(60)]) == (44.25, 15)


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
