"""Span tracing from outside the program, for the traced (per-layer) run.

`Tracer.install` replaces each traced function at the name its caller
resolves: `emdarp.search.schedule_routes` (search binds it at import),
`emdarp.scheduling.solve_lp` and `emdarp.scheduling.check_routes`, and the
module attributes the benchmark itself calls.  Spans (name, start, end,
parent span, operation, round, attributes) stay in memory until `write`.
Nothing under src/ is changed; `uninstall` restores the originals.
"""

from __future__ import annotations

import json
import os
import statistics
import time


def _lp_shape(args, kwargs, result):
    c = args[0]
    a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub")
    a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
    bounds = args[5] if len(args) > 5 else kwargs.get("bounds")
    finite_ub = sum(1 for _, hi in bounds or () if hi is not None and hi != float("inf"))
    rows = len(a_ub if a_ub is not None else ()) + len(a_eq if a_eq is not None else ())
    return {"rows": rows + finite_ub, "cols": len(c), "optimal": result.status == "optimal"}


def _schedule_kind(args, kwargs, result):
    partial = args[4] if len(args) > 4 else kwargs.get("partial", False)
    return {"partial": bool(partial), "feasible": result.feasible}


def _model_size(args, kwargs, result):
    return {"cols": len(result.catalog), "rows": len(result.constraints),
            "nonzeros": sum(1 for c in result.constraints
                            for coef in c.coeffs.values() if coef != 0.0)}


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "bytes" if metric == "mps.bytes" else "count"


# (module, attribute, span name, attribute extractor)
TRACED = [
    ("emdarp.instance", "instance_from_dict", "instance.parse", None),
    ("emdarp.graph", "expand_graph", "graph.expand",
     lambda a, k, g: {"arcs": len(g.arcs) + sum(len(s) for s in g.start_arcs)}),
    ("emdarp.model", "build_model", "model.build", _model_size),
    ("emdarp.solution", "write_mps", "mps.write",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("emdarp.solution", "run_external", "solution.run_external", None),
    ("emdarp.solution", "decode_solution", "solution.decode", None),
    ("emdarp.tools.solve_mps", "read_mps", "solve_mps.read", None),
    ("emdarp.tools.solve_mps", "solve", "solve_mps.highs", None),
    ("emdarp.search", "branch_and_bound", "search",
     lambda a, k, r: {"nodes": r.nodes, "leaves": r.leaves}),
    ("emdarp.search", "schedule_routes", "scheduling.schedule", _schedule_kind),
    ("emdarp.scheduling", "check_routes", "scheduling.check",
     lambda a, k, r: {"reject": r[0] is not None}),
    ("emdarp.scheduling", "solve_lp", "lp", _lp_shape),
    ("emdarp.checker", "validate", "checker.validate", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, round, attrs]
        self.stack: list[int] = []
        self.op: str | None = None
        self.round = 0
        self._saved: list[tuple] = []

    def install(self, modules: dict) -> None:
        for mod_name, attr, span_name, extract in TRACED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, extract))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, extract):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if extract is not None:
                span[6] = extract(args, kwargs, result)
            return result
        return traced

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [name, 0.0, 0.0, parent, self.op, self.round, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "round", "attrs")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one round, as the median over rounds."""
        per_round: dict[int, list] = {}
        for idx, span in enumerate(self.spans):
            per_round.setdefault(span[5], []).append((idx, span))
        rows = [_round_metrics(spans) for _, spans in sorted(per_round.items())]
        return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def _round_metrics(spans) -> dict:
    def dur(s):
        return s[2] - s[1]

    by_name: dict[str, list] = {}
    for idx, s in spans:
        by_name.setdefault(s[0], []).append((idx, s))

    def total(name):
        return sum(dur(s) for _, s in by_name.get(name, ()))

    def count(name, attr=None):
        return sum(1 for _, s in by_name.get(name, ()) if attr is None or s[6].get(attr))

    def attr_sum(name, attr):
        return sum(s[6].get(attr, 0) for _, s in by_name.get(name, ()))

    has_lp = {s[3] for _, s in by_name.get("lp", ())}
    search_ids = {idx for idx, _ in by_name.get("search", ())}
    schedules = by_name.get("scheduling.schedule", [])
    bound = [(i, s) for i, s in schedules if s[6].get("partial")]
    leaf = [(i, s) for i, s in schedules if not s[6].get("partial")]
    lp_calls = count("lp")
    op_spans = by_name.get("op", [])

    m = {
        "instance.parse_s": total("instance.parse"),
        "graph.expand_s": total("graph.expand"),
        "graph.arcs": attr_sum("graph.expand", "arcs"),
        "model.build_s": total("model.build"),
        "model.cols": attr_sum("model.build", "cols"),
        "model.rows": attr_sum("model.build", "rows"),
        "model.nonzeros": attr_sum("model.build", "nonzeros"),
        "mps.write_s": total("mps.write"),
        "mps.bytes": attr_sum("mps.write", "bytes"),
        "solve_mps.read_s": total("solve_mps.read"),
        "solve_mps.highs_s": total("solve_mps.highs"),
        "solution.run_external_s": total("solution.run_external"),
        "solution.decode_s": total("solution.decode"),
        "lp.calls": lp_calls,
        "lp.optimal": count("lp", "optimal"),
        "lp.s": total("lp"),
        "lp.rows_mean": attr_sum("lp", "rows") / lp_calls if lp_calls else 0.0,
        "lp.cols_mean": attr_sum("lp", "cols") / lp_calls if lp_calls else 0.0,
        "scheduling.bound_calls": len(bound),
        "scheduling.bound_screened": sum(1 for i, s in bound
                                         if not s[6].get("feasible") and i not in has_lp),
        "scheduling.bound_s": sum(dur(s) for _, s in bound),
        "scheduling.leaf_calls": len(leaf),
        "scheduling.leaf_feasible": sum(1 for _, s in leaf if s[6].get("feasible")),
        "scheduling.leaf_s": sum(dur(s) for _, s in leaf),
        "scheduling.check_calls": count("scheduling.check"),
        "scheduling.check_rejects": count("scheduling.check", "reject"),
        "scheduling.check_s": total("scheduling.check"),
        "search.nodes": attr_sum("search", "nodes"),
        "search.leaves": attr_sum("search", "leaves"),
        "search.self_s": total("search") - sum(dur(s) for _, s in schedules
                                               if s[3] in search_ids),
        "checker.plans": count("checker.validate"),
        "checker.validate_s": total("checker.validate"),
        "trace.run_s": sum(dur(s) for _, s in op_spans),
    }
    # computed, not measured: the part of run_external that is neither the
    # MPS write nor the solver's own read and HiGHS time (as re-run in-process)
    m["solution.spawn_s"] = (m["solution.run_external_s"] - m["mps.write_s"]
                             - m["solve_mps.read_s"] - m["solve_mps.highs_s"])
    return m
