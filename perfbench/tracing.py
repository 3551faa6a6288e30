"""Outside-in tracing of the program's layers, installed from the benchmark.

``Tracer.install`` replaces every module-level binding of the wrapped
functions across the ``compauction`` modules (``check_attainable`` is bound
in both ``attainability`` and ``synthesis``; ``weight_level`` is imported by
name into several modules), and ``uninstall`` puts the originals back.

Layer-boundary functions record spans (id, parent id, request, name, start,
end), kept in memory and written out by ``write_spans``. The hot leaf helpers
only bump aggregate counters, since a span per call would swamp what it
measures. Self time is a span's duration minus the time its child spans
cover; time in functions that are not wrapped counts to the nearest wrapped
caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("lp", "attainability", "grid", "synthesis", "auctions", "benchmarks",
           "ratios", "serialize", "cli")

SPANS = {
    "lp": ["solve_lp"],
    "attainability": ["optimal_ratio", "check_attainable", "lp_feasible",
                      "optimal_ratio_lp", "condition_sides"],
    "grid": ["enumerate_upsets"],
    "synthesis": ["synthesize", "pick_direction", "max_step", "apply_step",
                  "handle_event", "x_to_z"],
    "auctions": ["competitive_ratio", "check_profile_valid"],
    "benchmarks": ["builtin_table", "validate_table"],
    "ratios": ["mc_expected", "expected_benchmark_discrete", "check_gn_tight",
               "lambda_n", "gamma_n"],
    "serialize": ["load_file", "table_from_doc", "profile_to_doc",
                  "profile_from_doc", "dumps"],
    "cli": ["main"],
}
COUNTED = {
    "grid": ["weight_level", "weight_vector", "weight_others", "project",
             "BidGrid.level_value"],
    "synthesis": ["eq_slack"],
    "auctions": ["expected_revenue"],
}

# Per-layer metrics a traced run prints, in order. Names ending in "_s" are
# seconds, "useful_frac" is a share, everything else is a count.
METRICS = [
    "lp.solve_lp.calls", "lp.solve_lp.self_s", "lp.solve_lp.total_s",
    "lp.solve_lp.rows", "lp.solve_lp.cols", "lp.solve_lp.nonzeros",
    *[f"attainability.{fn}.{part}"
      for fn in ("optimal_ratio", "check_attainable", "lp_feasible", "optimal_ratio_lp")
      for part in ("calls", "self_s", "total_s")],
    "attainability.condition_sides.calls", "attainability.condition_sides.total_s",
    "attainability.optimal_ratio.lp_route",
    "grid.enumerate_upsets.calls", "grid.enumerate_upsets.total_s",
    "grid.enumerate_upsets.upsets",
    *[f"grid.{fn}.calls" for fn in COUNTED["grid"]],
    *[f"synthesis.{fn}.{part}"
      for fn in ("synthesize", "pick_direction", "max_step", "apply_step", "handle_event")
      for part in ("calls", "self_s")],
    "synthesis.eq_slack.calls",
    "synthesis.steps.f_zero", "synthesis.steps.g_zero", "synthesis.steps.new_tight",
    "synthesis.steps.eps_zero", "synthesis.steps.useful_frac",
    "synthesis.chain_len.max", "synthesis.x_to_z.total_s",
    "auctions.competitive_ratio.calls", "auctions.competitive_ratio.total_s",
    "auctions.expected_revenue.calls", "auctions.check_profile_valid.total_s",
    "benchmarks.builtin_table.calls", "benchmarks.builtin_table.total_s",
    "benchmarks.builtin_table.points", "benchmarks.validate_table.total_s",
    "ratios.mc_expected.calls", "ratios.mc_expected.total_s", "ratios.mc_expected.samples",
    "ratios.expected_benchmark_discrete.calls", "ratios.expected_benchmark_discrete.total_s",
    "ratios.expected_benchmark_discrete.points",
    "ratios.check_gn_tight.self_s", "ratios.check_gn_tight.total_s",
    "ratios.lambda_n.total_s", "ratios.gamma_n.total_s",
    *[f"serialize.{fn}.total_s" for fn in SPANS["serialize"]],
    "cli.main.self_s", *[f"cli.exit.{code}" for code in range(4)],
    *[f"layer.{module}.self_s" for module in MODULES],
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "fraction" if metric.endswith("_frac") else "count"


class _ChainObserver:
    """Synthesis observer that records the chain length and forwards each call."""

    def __init__(self, tracer: "Tracer", inner):
        self.tracer, self.inner = tracer, inner

    def initial(self, state):
        self.tracer.chain_max = max(self.tracer.chain_max, len(state.chain))
        if self.inner is not None:
            self.inner.initial(state)

    def step(self, number, state, direction, outcome):
        self.tracer.chain_max = max(self.tracer.chain_max, len(state.chain))
        if self.inner is not None:
            self.inner.step(number, state, direction, outcome)

    def finished(self, steps):
        if self.inner is not None:
            self.inner.finished(steps)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> imported compauction module
        self.active = False
        self.request = ""
        self.spans: list[list] = []  # [id, parent, request, name, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.chain_max = 0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        replacements = {}  # id(original) -> wrapper
        for module, names in SPANS.items():
            for name in names:
                original = getattr(self.modules[module], name)
                replacements[id(original)] = self._span_wrapper(f"{module}.{name}", original)
        for module, names in COUNTED.items():
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a method: patch it on its class
                    cls = getattr(self.modules[module], owner_name)
                    self._patch(cls, attr, self._count_wrapper(f"{module}.{name}", vars(cls)[attr]))
                else:
                    original = getattr(self.modules[module], name)
                    replacements[id(original)] = self._count_wrapper(f"{module}.{name}", original)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._patch(mod, attr, replacements[id(value)])
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers -----------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                before(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            span_id = len(self.spans) + 1
            parent = self.stack[-1] if self.stack else 0
            record = [span_id, parent, self.request, name, time.perf_counter(), None]
            self.spans.append(record)
            self.stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                self.stack.pop()
            if after:
                after(self, result)
            return result

        return spanned

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, total and self time, and per-module self time."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for span_id, parent, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[span_id]
            if not parent:
                top_level += end - start
        metrics = {}
        for name in calls:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.total_s"] = total[name]
            metrics[f"{name}.self_s"] = own[name]
        for module in MODULES:
            metrics[f"layer.{module}.self_s"] = sum(
                v for k, v in own.items() if k.split(".")[0] == module
            )
        metrics.update(self.counts)
        steps = sum(self.counts[f"synthesis.steps.{e}"] for e in ("f_zero", "g_zero", "new_tight"))
        metrics["synthesis.steps.useful_frac"] = (
            (steps - self.counts["synthesis.steps.eps_zero"]) / steps if steps else 0.0
        )
        metrics["synthesis.chain_len.max"] = self.chain_max
        metrics["trace.top_level_s"] = top_level
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                         "name": name, "start": start, "end": end}) + "\n")


# Counters computed from a call's arguments (before) or its result (after).

def _lp_size(tracer: Tracer, args: dict) -> None:
    rows = list(args["A_ub"]) + list(args["A_eq"])
    tracer.counts["lp.solve_lp.rows"] += len(rows)
    tracer.counts["lp.solve_lp.cols"] += len(args["c"])
    tracer.counts["lp.solve_lp.nonzeros"] += sum(1 for row in rows for v in row if v)


def _observe_chain(tracer: Tracer, args: dict) -> None:
    args["observer"] = _ChainObserver(tracer, args["observer"])


def _mc_samples(tracer: Tracer, args: dict) -> None:
    tracer.counts["ratios.mc_expected.samples"] += args["samples"]


def _discrete_points(tracer: Tracer, args: dict) -> None:
    tracer.counts["ratios.expected_benchmark_discrete.points"] += len(args["table"].values)


def _lp_route(tracer: Tracer, result) -> None:
    if result.method == "lp":
        tracer.counts["attainability.optimal_ratio.lp_route"] += 1


def _upsets(tracer: Tracer, result) -> None:
    tracer.counts["grid.enumerate_upsets.upsets"] += len(result)


def _step(tracer: Tracer, outcome) -> None:
    tracer.counts[f"synthesis.steps.{outcome.handled.name.lower()}"] += 1
    if outcome.eps == 0:
        tracer.counts["synthesis.steps.eps_zero"] += 1


def _table_points(tracer: Tracer, table) -> None:
    tracer.counts["benchmarks.builtin_table.points"] += len(table.values)


def _exit(tracer: Tracer, code) -> None:
    tracer.counts[f"cli.exit.{code}"] += 1


_BEFORE = {
    "lp.solve_lp": _lp_size,
    "synthesis.synthesize": _observe_chain,
    "ratios.mc_expected": _mc_samples,
    "ratios.expected_benchmark_discrete": _discrete_points,
}
_AFTER = {
    "attainability.optimal_ratio": _lp_route,
    "grid.enumerate_upsets": _upsets,
    "synthesis.max_step": _step,
    "benchmarks.builtin_table": _table_points,
    "cli.main": _exit,
}
