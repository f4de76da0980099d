"""Measurement core shared by ``run.py``, ``make_refs.py`` and the self-test.

Nothing here imports halftruth at module level: ``run.py`` starts its set-up
clock before the package is imported, and :func:`use_source` decides which
source tree is imported.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SRC = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
WORK_DIR = BENCH_DIR / ".work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The tail metric's percentile, fixed for every workload and commit so that a
# parent and a change always report the same statistic.  It is the highest of
# p75/p90/p99 that leaves at least ten items beyond it on every workload at
# the seed commit (p90 would leave ten only on the fastest workload, and a
# percentile chosen per run would switch whenever the item count crossed 100).
TAIL_PERCENTILE = 75


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong package)."""


def cap_threads() -> None:
    """One thread per native library and the sweep's default thread count.

    Must run before numpy is imported; child processes inherit it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HALFTRUTH_THREADS", None)


def use_source(src: Path) -> None:
    """Import halftruth from ``src`` and nowhere else."""
    src = Path(src).resolve()
    if not (src / "halftruth" / "__init__.py").is_file():
        raise BenchError(f"no halftruth package under {src}")
    sys.path.insert(0, str(src))
    import halftruth

    if not Path(halftruth.__file__).resolve().is_relative_to(src):
        raise BenchError(f"halftruth imported from {halftruth.__file__}, not {src}")


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = WORK_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(src: Path) -> str:
    """The commit of the git checkout holding ``src``; "unknown" outside one."""
    try:
        proc = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(src: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(Path(src).resolve()),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def load_refs(name: str) -> dict:
    path = REFS_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- host speed ---------------------------------------------------------

# A typical CPU time of the calibration kernel on the reference host (2-vCPU
# Intel Xeon KVM guest, Python 3.11.7, numpy 2.4.6).  Dividing a measured CPU
# time by the kernel's CPU time measured beside it, and multiplying by this,
# gives the time the work would have taken on the reference host.
CALIBRATION_REF_S = 0.0025

# The kernel's input: a JSON document of 300 nodes with parent lists and
# probabilities, about 100 KB.  Part of the benchmark; it must not change, or
# every normalised time moves.
_CALIBRATION_JSON = json.dumps(
    {"nodes": [{"parents": list(range(i % 60)), "p": [0.25 + i * 1e-4] * (i % 60)} for i in range(300)]}
)


def calibrate() -> float:
    """CPU seconds of a fixed kernel: parse a JSON document of model-like
    nodes and sum each node's probabilities into a numpy array, as
    halftruth's loaders and posteriors do.  The fastest of three runs.

    The other tenants of a shared host change how fast this guest runs, by up
    to 1.7x within a minute, and CPU time slows with it.  Measured beside
    halftruth items, this kernel slows by most of the same factor, so an
    item's CPU time divided by it varies far less than the CPU time itself
    (README.md gives the numbers).
    """
    import numpy as np

    best = math.inf
    for _ in range(3):
        start = time.process_time()
        doc = json.loads(_CALIBRATION_JSON)
        np.array([sum(node["p"]) for node in doc["nodes"]])
        best = min(best, time.process_time() - start)
    return best


def normalised(cpu_s: float, calibration_s: float) -> float:
    """``cpu_s`` as seconds on the reference host."""
    return cpu_s * CALIBRATION_REF_S / calibration_s


# -- items --------------------------------------------------------------


class Item:
    __slots__ = ("index", "seconds", "cpu", "ref_s", "out", "error")

    def __init__(self, index, seconds, cpu, out, error):
        self.index = index
        self.seconds = seconds  # wall time
        self.cpu = cpu  # CPU time
        self.ref_s = None  # CPU time on the reference host (run_normalised)
        self.out = out
        self.error = error


def run_item(wl, i: int, on_start=None, on_end=None) -> Item:
    """Time one item; its input is built before, and its raw result collected
    after, the clocks run."""
    x = wl.input(i)
    if on_start is not None:
        on_start()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        raw, error = wl.run(x), None
    except Exception as exc:  # an item that raises is a failed item
        raw, error = None, f"raised {exc!r}"
    cpu = time.process_time() - cpu_start
    seconds = time.perf_counter() - start
    if on_end is not None:
        on_end(seconds)
    if error is not None:
        return Item(i, seconds, cpu, None, error)
    try:
        return Item(i, seconds, cpu, wl.collect(i, raw), None)
    except Exception as exc:
        return Item(i, seconds, cpu, None, f"unreadable output: {exc!r}")


def run_normalised(wl, i: int, before: float, on_start=None, on_end=None) -> tuple[Item, float]:
    """Run item ``i`` and the calibration kernel after it; the item's CPU time
    is normalised by the mean of ``before`` (the kernel's previous run) and
    this run, which is returned for the next item."""
    item = run_item(wl, i, on_start, on_end)
    after = calibrate()
    item.ref_s = normalised(item.cpu, (before + after) / 2.0)
    return item, after


def timed_loop(wl, seconds: float) -> tuple[list[Item], float]:
    """Run items 0, 1, ... until ``seconds`` of wall time pass."""
    items = []
    before = calibrate()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        item, before = run_normalised(wl, len(items), before)
        items.append(item)
    return items, time.perf_counter() - start


def verify(wl, items: list[Item], refs: dict) -> list[str]:
    """Every failure as one line: raised, failed a check, or missed a reference."""
    seed_refs = refs.get(str(wl.seed), {})
    failures = []
    for item in items:
        errors = [item.error] if item.error else []
        if not errors:
            try:
                errors = wl.check(item.index, item.out)
                ref = seed_refs.get(str(item.index))
                if ref is not None:
                    errors += wl.compare(item.out, ref)
            except Exception as exc:
                errors = [f"check raised {exc!r}"]
        failures += [f"item {item.index}: {e}" for e in errors[:3]]
        if errors:
            item.error = errors[0]
    return failures


def reference_coverage(wl, items: list[Item], refs: dict) -> int:
    seed_refs = refs.get(str(wl.seed), {})
    return sum(str(item.index) in seed_refs for item in items)


# -- statistics ---------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE value and how many values lie beyond it."""
    ordered = sorted(values)
    v = percentile(ordered, TAIL_PERCENTILE)
    return v, sum(x > v for x in ordered)
