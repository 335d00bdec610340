"""Spans around the library's layer entry points, recorded from outside.

The tracer replaces module attributes at the names the calling module looks
up (``mdpwf.welfare.eval_counting``, ``mdpwf.solve.policy_values_float``,
``mdpwf.bench.optimize`` ...), so no library file changes.  Each span is
``[name, start, end, parent index, request id]``; spans stay in memory
until the run writes them out.  An entry point missing at some commit is
listed as absent and the metrics built on it are left out.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name, errors counter or None)
ENTRY_POINTS = [
    ("welfare", "optimize", "welfare.optimize", "welfare.errors"),
    ("bench", "optimize", "welfare.optimize", "welfare.errors"),
    ("welfare", "long_term", "welfare.long_term", None),
    ("welfare", "solve_discounted", "solve.solve_discounted", None),
    ("welfare", "optimal_action_set", "solve.optimal_action_set", None),
    ("welfare", "advantages", "welfare.advantages", None),
    ("welfare", "find_kappa", "welfare.find_kappa", None),
    ("welfare", "kappa_estimate", "welfare.kappa_estimate", None),
    ("welfare", "eval_counting", "evaluate.eval_counting", None),
    ("evaluate", "eval_positional", "evaluate.eval_positional", None),
    ("oracle", "eval_positional", "evaluate.eval_positional", None),
    ("solve", "policy_values_float", "linalg.policy_values", None),
    ("solve", "policy_values_exact", "linalg.policy_values", None),
    ("evaluate", "policy_values_float", "linalg.policy_values", None),
    ("evaluate", "policy_values_exact", "linalg.policy_values", None),
    ("oracle", "policy_values_exact", "linalg.policy_values", None),
    ("linalg", "exact_gauss", "linalg.exact_gauss", None),
    ("model", "FloatView", "model.float_view", None),
    ("bench", "sweep_discounts", "bench.sweep_discounts", "bench.errors"),
    ("oracle", "threshold_decide_positional", "oracle.threshold_decide", "oracle.errors"),
    ("generators", "random_mdp", "generators.build", None),
    ("generators", "badly_spaced", "generators.build", None),
    ("generators", "builtin", "generators.build", None),
    ("generators", "sat_reduction", "generators.build", None),
    ("generators", "small_formula_representatives", "generators.build", None),
]


def _count_optimize(tracer, idx, args, result):
    tracer.counts["welfare.prefix_cells"] += result.kappa * args[0].n_states


def _count_solve(tracer, idx, args, result):
    tracer.counts["solve.solve_discounted_calls"] += 1


def _count_solve_pv(tracer, idx, args, result):
    tracer.counts["solve.policy_value_calls"] += 1


def _count_kappa(tracer, idx, args, result):
    tracer.counts["welfare.kappa_sum"] += result


def _count_counting(tracer, idx, args, result):
    asym, cs = args[0], args[1]
    tracer.counts["evaluate.counting_cells"] += cs.kappa * asym.n_states * asym.n_principals


def _count_view(tracer, idx, args, result):
    tracer.counts["model.float_view_builds"] += 1


def _count_sweep(tracer, idx, args, result):
    tracer.counts["bench.cells"] += sum(c.status != "empty" for c in result)
    tracer.counts["bench.errors"] += sum(c.status == "error" for c in result)


def _count_threshold(tracer, idx, args, result):
    asym = args[0]
    tracer.counts["oracle.strategies_space"] += math.prod(len(a) for a in asym.mdp.actions)
    # exact confirmations are the policy evaluations called directly by the
    # scan, one per principal for each confirmed candidate
    spans = tracer.spans
    direct = sum(
        1
        for k in range(idx + 1, len(spans))
        if spans[k][3] == idx and spans[k][0] == "linalg.policy_values"
    )
    tracer.counts["oracle.exact_confirms"] += direct / asym.n_principals


COUNTERS = {
    ("welfare", "optimize"): _count_optimize,
    ("bench", "optimize"): _count_optimize,
    ("welfare", "solve_discounted"): _count_solve,
    ("solve", "policy_values_float"): _count_solve_pv,
    ("solve", "policy_values_exact"): _count_solve_pv,
    ("welfare", "find_kappa"): _count_kappa,
    ("welfare", "eval_counting"): _count_counting,
    ("model", "FloatView"): _count_view,
    ("bench", "sweep_discounts"): _count_sweep,
    ("oracle", "threshold_decide_positional"): _count_threshold,
}

# metric name -> (unit, span its value comes from; None for the
# benchmark's own spans)
PER_LAYER = {
    "welfare.optimize_s": ("s", "welfare.optimize"),
    "welfare.optimize_self_s": ("s", "welfare.optimize"),
    "welfare.long_term_s": ("s", "welfare.long_term"),
    "solve.solve_discounted_s": ("s", "solve.solve_discounted"),
    "solve.solve_discounted_calls": ("count", "solve.solve_discounted"),
    "solve.optimal_action_set_s": ("s", "solve.optimal_action_set"),
    "solve.pi_iterations": ("count", "solve.solve_discounted"),
    "linalg.policy_values_s": ("s", "linalg.policy_values"),
    "linalg.exact_gauss_s": ("s", "linalg.exact_gauss"),
    "evaluate.eval_counting_s": ("s", "evaluate.eval_counting"),
    "evaluate.eval_positional_s": ("s", "evaluate.eval_positional"),
    "evaluate.counting_cells": ("count", "evaluate.eval_counting"),
    "welfare.advantages_s": ("s", "welfare.advantages"),
    "welfare.find_kappa_s": ("s", "welfare.find_kappa"),
    "welfare.kappa_sum": ("count", "welfare.find_kappa"),
    "welfare.kappa_estimate_s": ("s", "welfare.kappa_estimate"),
    "welfare.prefix_cells": ("count", "welfare.optimize"),
    "model.float_view_s": ("s", "model.float_view"),
    "model.float_view_builds": ("count", "model.float_view"),
    "bench.sweep_self_s": ("s", "bench.sweep_discounts"),
    "bench.cells": ("count", "bench.sweep_discounts"),
    "oracle.threshold_decide_s": ("s", "oracle.threshold_decide"),
    "oracle.strategies_space": ("count", "oracle.threshold_decide"),
    "oracle.exact_confirms": ("count", "oracle.threshold_decide"),
    "generators.build_s": ("s", "generators.build"),
    "welfare.errors": ("count", "welfare.optimize"),
    "oracle.errors": ("count", "oracle.threshold_decide"),
    "bench.errors": ("count", "bench.sweep_discounts"),
    "request.uncovered_s": ("s", None),
    "request.uncovered_share": ("ratio", None),
    "trace.spans": ("count", None),
    "trace.overhead_ratio": ("ratio", None),
}


class Tracer:
    """Records spans while installed; `uninstall` restores every attribute."""

    def __init__(self, m, error_type):
        self.m = m
        self.error_type = error_type
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.installed = set()  # span names some entry point records
        self.absent = []  # entry points missing at this commit
        self._undo = []

    def install(self):
        self.installed, self.absent = set(), []
        for mod_name, attr, name, errors in ENTRY_POINTS:
            module = getattr(self.m, mod_name, None)
            orig = getattr(module, attr, None) if module is not None else None
            if orig is None:
                self.absent.append(f"mdpwf.{mod_name}.{attr}")
                continue
            self.installed.add(name)
            setattr(module, attr, self._wrap(orig, name, errors, COUNTERS.get((mod_name, attr))))
            self._undo.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo = []

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def _wrap(self, orig, name, errors, count):
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except tracer.error_type:
                if errors:
                    tracer.counts[errors] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, idx, args, result)
            return result

        return traced

    def request_span(self, request_id):
        """Open the benchmark's own span around one request; returns the
        closing function."""
        self.request = request_id
        idx = len(self.spans)
        rec = ["request", perf_counter(), 0.0, -1, request_id]
        self.spans.append(rec)
        self.stack.append(idx)

        def close():
            rec[2] = perf_counter()
            self.stack.pop()

        return close

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, rid in self.spans:
                f.write(json.dumps([name, start, end, parent, rid]) + "\n")


def span_times(spans):
    """Total and self seconds per span name, plus per-request uncovered
    time (a request's own time minus its direct child spans)."""
    total = defaultdict(float)
    own = defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    uncovered = []
    for k, (name, start, end, parent, _) in enumerate(spans):
        d = end - start
        total[name] += d
        own[name] += d - child[k]
        if name == "request":
            uncovered.append(d - child[k])
    return total, own, uncovered


def layer_metrics(spans, counts):
    """Per-layer values of one traced round (without trace.overhead_ratio)."""
    total, own, uncovered = span_times(spans)
    solves = counts["solve.solve_discounted_calls"]
    values = {
        "welfare.optimize_s": total["welfare.optimize"],
        "welfare.optimize_self_s": own["welfare.optimize"],
        "welfare.long_term_s": total["welfare.long_term"],
        "solve.solve_discounted_s": total["solve.solve_discounted"],
        "solve.solve_discounted_calls": solves,
        "solve.optimal_action_set_s": total["solve.optimal_action_set"],
        "solve.pi_iterations": counts["solve.policy_value_calls"] / solves if solves else 0.0,
        "linalg.policy_values_s": total["linalg.policy_values"],
        "linalg.exact_gauss_s": total["linalg.exact_gauss"],
        "evaluate.eval_counting_s": own["evaluate.eval_counting"],
        "evaluate.eval_positional_s": total["evaluate.eval_positional"],
        "evaluate.counting_cells": counts["evaluate.counting_cells"],
        "welfare.advantages_s": total["welfare.advantages"],
        "welfare.find_kappa_s": total["welfare.find_kappa"],
        "welfare.kappa_sum": counts["welfare.kappa_sum"],
        "welfare.kappa_estimate_s": total["welfare.kappa_estimate"],
        "welfare.prefix_cells": counts["welfare.prefix_cells"],
        "model.float_view_s": total["model.float_view"],
        "model.float_view_builds": counts["model.float_view_builds"],
        "bench.sweep_self_s": own["bench.sweep_discounts"],
        "bench.cells": counts["bench.cells"],
        "oracle.threshold_decide_s": own["oracle.threshold_decide"],
        "oracle.strategies_space": counts["oracle.strategies_space"],
        "oracle.exact_confirms": counts["oracle.exact_confirms"],
        "welfare.errors": counts["welfare.errors"],
        "oracle.errors": counts["oracle.errors"],
        "bench.errors": counts["bench.errors"],
        "request.uncovered_s": sum(uncovered),
        "request.uncovered_share": sum(uncovered) / max(total["request"], 1e-12),
        "trace.spans": len(spans),
    }
    return values, uncovered


def absent_metrics(installed):
    """Metrics whose span no installed entry point records."""
    return sorted(
        name for name, (_, span) in PER_LAYER.items() if span and span not in installed
    )
