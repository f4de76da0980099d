"""Per-layer tracing of halftruth, done from outside the package.

The tracer replaces selected public functions with timing wrappers wherever a
caller looks them up: every ``halftruth.*`` module attribute bound to the
function, and every value of a module-level dict (such as the
``ALGORITHMS`` dispatch table).  Nothing under ``src/`` is edited.  A traced
name that no longer exists is reported absent, not as an error.

Each wrapper records calls, self time (span time minus the time of wrapped
calls made inside it) and calls that raised.  Hooks on some functions add
computed counts.  Spans are aggregated as they close rather than kept, so
memory stays flat however many calls an item makes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "halftruth"

# "<module>.<function>" under the package.
TRACED = (
    "model.model_from_json",
    "model.validate_model",
    "generators.generate",
    "generators.theorem1_oracle_adversary",
    "inference.true_posterior",
    "inference.masked_posterior",
    "inference.flipped_posterior",
    "inference.induced_posterior",
    "inference.objective_value",
    "inference.lkm_distance",
    "inference.poisson_binomial_pmf",
    "attacks.solve",
    "attacks.brute_force_attack",
    "attacks.approx_attack",
    "attacks.heuristic_attack",
    "attacks.combined_attack",
    "attacks.flip_linear_exact_attack",
    "attacks.linear_flip_gains",
    "simulate.run_expectation",
    "cli.main",
)

# Functions returning an AttackResult; only the outermost one's evaluations
# are summed, so a solver nested in another is not counted twice.
SOLVERS = frozenset(
    {
        "attacks.solve",
        "attacks.brute_force_attack",
        "attacks.approx_attack",
        "attacks.heuristic_attack",
        "attacks.combined_attack",
        "attacks.flip_linear_exact_attack",
    }
)

POSTERIORS = frozenset(
    {"inference.true_posterior", "inference.masked_posterior", "inference.flipped_posterior"}
)

COUNTS = (
    "attacks.evaluations",
    "inference.pb_dp_columns",
    "inference.node_posteriors",
    "simulate.trials",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class _Stat:
    __slots__ = ("calls", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    """Install with :meth:`install`, bracket items with :meth:`begin_item` /
    :meth:`end_item`, then read :meth:`totals`; :meth:`uninstall` restores the
    original functions."""

    def __init__(self):
        self.stats = {name: _Stat() for name in TRACED}
        self.absent: list[str] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.induced_calls = 0
        self.distinct_masks = 0
        self.unattributed_s = 0.0
        self._stack: list[float] = []
        self._solver_depth = 0
        self._item_covered_s = 0.0
        self._item_masks: set = set()
        self._item_models: dict[int, object] = {}
        self._patched: list[tuple[dict, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, fn_name, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                self._replace_in(vars(m), original, wrapper)

    def _replace_in(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if value is original:
                namespace[key] = wrapper
                self._patched.append((namespace, key, original))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        self._patched.append((value, k, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        solver = name in SOLVERS
        hook = self._hook_for(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            if solver:
                self._solver_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self._item_covered_s += elapsed
                if solver:
                    self._solver_depth -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hook_for(self, name: str):
        if name in POSTERIORS:
            return self._count_posteriors
        if name == "inference.induced_posterior":
            return self._count_mask
        if name == "inference.poisson_binomial_pmf":
            return self._count_dp
        if name == "simulate.run_expectation":
            return self._count_trials
        if name in SOLVERS:
            return self._count_evaluations
        return None

    def _count_posteriors(self, args, kwargs, result) -> None:
        self.counts["inference.node_posteriors"] += _arg(args, kwargs, 0, "model").n1

    def _count_mask(self, args, kwargs, result) -> None:
        model = _arg(args, kwargs, 0, "model")
        x0 = _arg(args, kwargs, 1, "x0")
        mask = _arg(args, kwargs, 2, "mask")
        self.induced_calls += 1
        self._item_models[id(model)] = model  # keeps the id from being reused
        self._item_masks.add((id(model), tuple(x0), mask.indices, mask.action))

    def _count_dp(self, args, kwargs, result) -> None:
        self.counts["inference.pb_dp_columns"] += len(_arg(args, kwargs, 0, "d"))

    def _count_trials(self, args, kwargs, result) -> None:
        self.counts["simulate.trials"] += result.trials

    def _count_evaluations(self, args, kwargs, result) -> None:
        if self._solver_depth == 0:
            self.counts["attacks.evaluations"] += result.evaluations

    # -- items ----------------------------------------------------------

    def begin_item(self) -> None:
        self._item_covered_s = 0.0
        self._item_masks.clear()
        self._item_models.clear()

    def end_item(self, item_s: float) -> None:
        self.unattributed_s += max(0.0, item_s - self._item_covered_s)
        self.distinct_masks += len(self._item_masks)
        self._item_masks.clear()
        self._item_models.clear()

    def totals(self) -> dict:
        """Raw totals over every traced item (not yet per item)."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_ms"] = st.self_s * 1000.0
            out[f"{name}.raised"] = st.raised
        out.update(self.counts)
        out["induced_calls"] = self.induced_calls
        out["distinct_masks"] = self.distinct_masks
        out["unattributed.self_ms"] = self.unattributed_s * 1000.0
        return out
