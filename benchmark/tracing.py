"""Spans around holoflow's public layer functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
holoflow module namespace that binds it (``render`` and ``flowstats``
hold their own ``eval_potential``; ``flowstats`` its own ``integrate``;
the package root re-exports most names), and wraps
``SystemSpec.velocity`` with a counter. ``uninstall`` puts the
originals back. Spans are kept in memory as
``[name, start, end, parent, op_id, rhs_at_open, rhs_at_close]`` and
written out by ``write_spans`` when the run ends.

A span's self time is its duration minus the time its child spans
cover. The process is single-threaded with one caller and no queue, so
no layer waits for another: there is no waiting time to report.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict

import holoflow
from holoflow import classify, cli, cpoly, flowstats, odeint, potential, pwcycles, render

MODULES = ("odeint", "cpoly", "pwcycles", "potential", "render", "classify",
           "flowstats", "cli")

TRACED = {
    odeint: ("return_map", "half_return", "return_map_derivative", "integrate",
             "trace_separatrix"),
    cpoly: ("roots", "real_roots", "resultant_x2", "divided_difference"),
    pwcycles: ("solve_antiholo_pair", "solve_mixed_general",
               "solve_mixed_linear_on_sigma", "crossing_transversality"),
    potential: ("build_potential", "eval_potential"),
    render: ("potential_grid", "piecewise_psi_grid", "marching_squares",
             "svg_document", "write_grid_csv"),
    classify: ("classify_cubic", "classify_equilibria", "bernoulli_portrait"),
    flowstats: ("contour_integral",),
    cli: ("main",),
}

SOLVERS = frozenset({"pwcycles.solve_antiholo_pair", "pwcycles.solve_mixed_general",
                     "pwcycles.solve_mixed_linear_on_sigma"})


def span_names():
    return [f"{mod.__name__.rsplit('.', 1)[1]}.{fn}" for mod, fns in TRACED.items()
            for fn in fns]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += [("odeint.rhs_evals", "count"), ("odeint.rhs_evals_per_return", "count"),
            ("odeint.us_per_rhs_eval", "us"), ("odeint.return_none_ratio", "ratio"),
            ("pwcycles.candidates", "count"), ("pwcycles.confirmed_ratio", "ratio"),
            ("pwcycles.oracle_reach_ratio", "ratio"),
            ("render.cells", "count"), ("render.segments", "count")]
    out += [(f"{m}.self_share", "ratio") for m in MODULES]
    out += [("trace.ops_per_s_ratio", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.rhs_evals = 0
        self.counts = defaultdict(int)
        self.solver_checks = defaultdict(int)
        # off while the harness runs reference checks between ops
        self.enabled = True
        self._saved = []

    # -- spans ---------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id,
                           self.rhs_evals, None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[6] = self.rhs_evals
        # an interrupted op may leave inner spans open; close them too
        while self.stack and self.stack.pop() != idx:
            pass

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, idx, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "holoflow" or n.startswith("holoflow."))]
        for mod, fns in TRACED.items():
            short = mod.__name__.rsplit(".", 1)[1]
            for fn_name in fns:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            self._saved.append((target, attr, original))
                            setattr(target, attr, wrapper)
        spec_cls = holoflow.SystemSpec
        velocity = spec_cls.velocity
        tracer = self

        def counted_velocity(spec, z):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0].startswith("odeint."):
                tracer.rhs_evals += 1
            return velocity(spec, z)

        self._saved.append((spec_cls, "velocity", velocity))
        spec_cls.velocity = counted_velocity

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "op_id"])
            for name, start, end, parent, op_id, _, _ in self.spans:
                writer.writerow([name, repr(start), repr(end), parent, op_id])

    def ops_reaching(self, name):
        """Distinct op ids with at least one span called ``name``."""
        return len({s[4] for s in self.spans if s[0] == name})

    def metrics(self, op_time_s, ops_per_s_ratio):
        """Per-layer metrics; op_time_s is the summed traced op time."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            dur = span[2] - span[1]
            calls[span[0]] += 1
            busy[span[0]] += dur
            if span[3] >= 0:
                child[span[3]] += dur
        self_s = defaultdict(float)
        for idx, span in enumerate(self.spans):
            self_s[span[0]] += span[2] - span[1] - child[idx]
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]

        returns = [s for s in self.spans if s[0] == "odeint.return_map"]
        rhs_in_returns = sum(s[6] - s[5] for s in returns)
        outer_odeint = sum(s[2] - s[1] for s in self.spans if s[0].startswith("odeint.")
                           and (s[3] < 0 or not self.spans[s[3]][0].startswith("odeint.")))
        out["odeint.rhs_evals"] = self.rhs_evals
        out["odeint.rhs_evals_per_return"] = _ratio(rhs_in_returns, len(returns))
        out["odeint.us_per_rhs_eval"] = _ratio(1e6 * outer_odeint, self.rhs_evals)
        out["odeint.return_none_ratio"] = _ratio(self.counts["return_none"], len(returns))

        reached = sum(1 for s in returns if s[3] >= 0 and self.spans[s[3]][0] in SOLVERS)
        out["pwcycles.candidates"] = self.counts["candidates"]
        out["pwcycles.confirmed_ratio"] = _ratio(self.counts["confirmed"],
                                                 self.counts["candidates"])
        out["pwcycles.oracle_reach_ratio"] = _ratio(reached, self.counts["candidates"])
        out["render.cells"] = self.counts["cells"]
        out["render.segments"] = self.counts["segments"]

        for mod in MODULES:
            own = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
            out[f"{mod}.self_share"] = _ratio(own, op_time_s)
        out["trace.ops_per_s_ratio"] = ops_per_s_ratio
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _observe_return(tracer, idx, args, result):
    if result is None:
        tracer.counts["return_none"] += 1


def _observe_solver(tracer, idx, args, result):
    """Candidates of the outermost solver call: the pairs it returned,
    or, when it dropped rejected pairs (mixed-linear does), the pairs it
    checked for transversality (two checks per pair)."""
    checks = tracer.solver_checks.pop(idx, 0)
    parent = tracer.spans[idx][3]
    if parent >= 0 and tracer.spans[parent][0] in SOLVERS:
        tracer.solver_checks[parent] += checks
        return
    tracer.counts["candidates"] += max(len(result), checks // 2)
    tracer.counts["confirmed"] += sum(
        1 for c in result if c.verified is pwcycles.Verified.NUMERICALLY_CONFIRMED)


def _observe_transversality(tracer, idx, args, result):
    parent = tracer.spans[idx][3]
    if parent >= 0 and tracer.spans[parent][0] in SOLVERS:
        tracer.solver_checks[parent] += 1


def _observe_contours(tracer, idx, args, result):
    ny, nx = args[2].shape
    tracer.counts["cells"] += (ny - 1) * (nx - 1)
    tracer.counts["segments"] += len(result)


OBSERVERS = {
    "odeint.return_map": _observe_return,
    "pwcycles.solve_antiholo_pair": _observe_solver,
    "pwcycles.solve_mixed_general": _observe_solver,
    "pwcycles.solve_mixed_linear_on_sigma": _observe_solver,
    "pwcycles.crossing_transversality": _observe_transversality,
    "render.marching_squares": _observe_contours,
}
