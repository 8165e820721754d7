"""Command-line driver tying together the modeling and solving pieces.

Subcommands: validate, build, solve, check, gen, plot.  Exit codes follow a
fixed convention: 0 success, 1 validation failure, 2 proven infeasible,
3 resource limit reached, 4 I/O, usage or configuration problem.  Every
subcommand writes only to the output paths given on the command line;
`--format json` switches the report printed on stdout from human tables to
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checker import validate
from .generate import GenConfig, generate
from .graph import expand_graph
from .instance import InstanceError, load_instance, save_instance
from .model import build_model
from .mps import write_mps
from .search import SearchConfig, branch_and_bound
from .solution import (DecodeError, ExternalSolverError, Solution, decode_solution,
                       run_external)
from .svgplot import write_svg

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_CONFIG = 4

_PRESETS = {"typical": "typical", "highdischarge": "high-discharge"}


def _json_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(args, doc: dict, human: str) -> None:
    if args.format == "json":
        sys.stdout.write(_json_dump(doc))
    else:
        sys.stdout.write(human if human.endswith("\n") else human + "\n")


def _load(path: str):
    try:
        return load_instance(path)
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot read instance: {exc}")
    except InstanceError as exc:
        raise _Exit(EXIT_VALIDATION, f"instance rejected: {exc}")


def _load_solution(path: str, inst, graph) -> Solution:
    """The solution at *path*, which must hold each field by its JSON type,
    the plan of each agent of *inst* in agent order, a value per request,
    and only nodes of its expanded *graph*."""
    try:
        with open(path, encoding="utf-8") as fh:
            sol = Solution.from_dict(json.load(fh))
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot read solution: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError, InstanceError) as exc:
        raise _Exit(EXIT_CONFIG, f"solution file malformed: {exc}")
    sizes = {"plans": inst.n_agents, "accepted": inst.n_requests,
             "request_times": inst.n_requests, "request_slacks": inst.n_requests}
    faults = [f"{key} has {len(getattr(sol, key))} entries, needs {size}"
              for key, size in sizes.items() if len(getattr(sol, key)) != size]
    faults += [f"plan {k} is for agent {plan.agent}"
               for k, plan in enumerate(sol.plans) if plan.agent != k]
    faults += [f"visit to node {rec.node}, out of range"
               for plan in sol.plans for rec in plan.visits if rec.node not in range(graph.n_nodes)]
    if faults:
        raise _Exit(EXIT_CONFIG, f"solution file malformed: {faults[0]}")
    return sol


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with the configuration exit code; argparse's
    own code 2 would read as "proven infeasible"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Exit(EXIT_CONFIG, f"{self.prog}: error: {message}")


def _nonnegative(convert):
    """An argparse type: *convert* the text and reject a negative or NaN
    value as a usage error."""
    def parse(text):
        value = convert(text)
        if not value >= 0:  # false for NaN too
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def cmd_validate(args) -> int:
    inst = _load(args.instance)
    doc = {
        "ok": True,
        "requests": inst.n_requests,
        "agents": len(inst.agents),
        "stations": len(inst.stations),
        "duplicate_visits": inst.duplicate_visits,
        "selective": inst.selective,
        "open_vrp": inst.open_vrp,
    }
    human = (f"instance ok: {doc['requests']} requests, {doc['agents']} agents, "
             f"{doc['stations']} stations (dups={doc['duplicate_visits']}), "
             f"selective={doc['selective']}, open={doc['open_vrp']}")
    _emit(args, doc, human)
    return EXIT_OK


def cmd_build(args) -> int:
    inst = _load(args.instance)
    model = build_model(inst)
    try:
        write_mps(model, args.out)
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot write model: {exc}")
    st = model.stats
    doc = {
        "out": args.out,
        "variables": st.variable_count,
        "arc_variables": st.x_count,
        "rows": st.constraint_rows,
        "big_m_time": model.big_m.time,
        "families": st.constraint_counts,
    }
    lines = [f"wrote {args.out}",
             f"{'variables':<14}{st.variable_count}",
             f"{'arc vars':<14}{st.x_count}",
             f"{'rows':<14}{st.constraint_rows}",
             f"{'big-M (time)':<14}{model.big_m.time:g}",
             "rows by family:"]
    for tag, count in st.constraint_counts.items():
        lines.append(f"  {tag:<12}{count}")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def _solve_external(inst, args):
    model = build_model(inst)
    try:
        parsed = run_external(model, command=args.solver_cmd,
                              timeout=args.time_limit)
    except ExternalSolverError as exc:
        raise _Exit(EXIT_CONFIG, f"external solver failed: {exc}")
    if parsed.status == "infeasible":
        return None, "infeasible"
    if parsed.status != "optimal":
        return None, "limit"
    try:
        sol = decode_solution(model, parsed.values, objective=parsed.objective,
                              status="optimal", engine="external")
    except DecodeError as exc:
        raise _Exit(EXIT_VALIDATION, f"solver output rejected: {exc}")
    return sol, "optimal"


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    search = {}  # the builtin search's effort, deterministic like its answer
    if args.engine == "builtin":
        result = branch_and_bound(inst, config=SearchConfig(
            node_limit=args.node_limit, time_limit=args.time_limit))
        sol, status = result.solution, result.status
        search = {"nodes": result.nodes, "leaves": result.leaves,
                  "leaf_lps": result.leaf_lps, "leaf_pivots": result.leaf_pivots,
                  "leaf_screened": result.leaf_screened,
                  "energy_pruned": result.energy_pruned}
    else:
        sol, status = _solve_external(inst, args)
    search_line = "  ".join(f"{key}: {val}" for key, val in search.items())
    if sol is None:
        _emit(args, {"status": status, **search}, f"status: {status}\n{search_line}")
        return EXIT_INFEASIBLE if status == "infeasible" else EXIT_LIMIT

    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json_dump(sol.to_dict()))
        if args.routes:
            with open(args.routes, "w", encoding="utf-8") as fh:
                fh.write(format_routes(sol))
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot write solution: {exc}")

    doc = {
        "status": status,
        "objective": sol.objective,
        "makespan": sol.makespan,
        "accepted": sol.accepted,
        "out": args.out,
        **search,
    }
    human = f"status: {status}\nobjective: {sol.objective:.6f}\n"
    if status == "feasible":  # a limited search: how far the plan may be from optimal
        doc["bound"], doc["gap"] = result.best_bound, result.gap
        human += f"bound: {result.best_bound:.6f}\ngap: {result.gap:.6f}\n"
    if search:
        human += search_line + "\n"
    human += (f"makespan: {sol.makespan:.6f}\n"
              f"accepted: {sol.accepted}\n{format_routes(sol)}")
    _emit(args, doc, human)
    if status in ("optimal",):
        return EXIT_OK
    return EXIT_LIMIT  # feasible incumbent without an optimality proof


def format_routes(sol: Solution) -> str:
    lines = []
    for plan in sol.plans:
        labels = [f"v{plan.agent}"] + [v.label for v in plan.visits]
        stops = " -> ".join(labels) if plan.visits else "(idle)"
        lines.append(f"agent {plan.agent}: {stops}  "
                     f"[duration {plan.duration:.3f}]")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    inst = _load(args.instance)
    graph = expand_graph(inst)
    report = validate(inst, graph, _load_solution(args.solution, inst, graph), tol=args.tol)
    doc = report.to_dict()
    lines = [f"checked: {'clean' if report.ok else 'VIOLATIONS'}",
             f"objective recomputed: {report.objective_recomputed:.6f} "
             f"(delta {report.objective_delta:.3g})"]
    for v in report.violations:
        lines.append(f"  family {v.tag} at {v.index}: {v.note} "
                     f"(by {v.magnitude:.3g})")
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_gen(args) -> int:
    try:
        inst = generate(GenConfig(
            seed=args.seed, n_requests=args.requests, n_agents=args.agents,
            n_stations=args.stations, duplicate_visits=args.dups,
            preset=_PRESETS[args.preset], selective=args.selective,
            open_vrp=args.open_vrp, area=args.area,
        ))
    except (ValueError, InstanceError) as exc:
        raise _Exit(EXIT_CONFIG, f"generation config rejected: {exc}")
    try:
        save_instance(inst, args.out)
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot write instance: {exc}")
    doc = {"out": args.out, "seed": args.seed, "requests": args.requests,
           "agents": args.agents, "stations": args.stations,
           "dups": args.dups, "preset": args.preset}
    _emit(args, doc, f"wrote {args.out} (seed {args.seed})")
    return EXIT_OK


def cmd_plot(args) -> int:
    inst = _load(args.instance)
    graph = expand_graph(inst)
    sol = _load_solution(args.solution, inst, graph) if args.solution else None
    try:
        write_svg(inst, graph, args.out, sol)
    except OSError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot write SVG: {exc}")
    except ValueError as exc:
        raise _Exit(EXIT_CONFIG, f"cannot plot: {exc}")
    _emit(args, {"out": args.out}, f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="emdarp",
        description="Model, solve, and inspect electric dial-a-ride instances.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["human", "json"], default="human")

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="export the MILP as an MPS file")
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--engine", choices=["builtin", "external"],
                   default="builtin")
    p.add_argument("--out", default="solution.json")
    p.add_argument("--routes", default=None,
                   help="also write a plain-text route plan")
    p.add_argument("--node-limit", type=_nonnegative(int), default=None)
    p.add_argument("--time-limit", type=_nonnegative(float), default=None)
    p.add_argument("--solver-cmd", default=None,
                   help="external solver command template with {model} and "
                        "{solution} placeholders (default: $EMDARP_SOLVER_CMD)")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="audit a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--tol", type=_nonnegative(float), default=1e-6)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a random seeded instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--requests", type=_nonnegative(int), default=3)
    p.add_argument("--agents", type=_nonnegative(int), default=2)
    p.add_argument("--stations", type=_nonnegative(int), default=0)
    p.add_argument("--dups", type=_nonnegative(int), default=0)
    p.add_argument("--preset", choices=sorted(_PRESETS), default="typical")
    p.add_argument("--area", type=float, default=2000.0)
    sel = p.add_mutually_exclusive_group()
    sel.add_argument("--selective", dest="selective", action="store_true")
    sel.add_argument("--no-selective", dest="selective", action="store_false")
    p.set_defaults(selective=True)
    vrp = p.add_mutually_exclusive_group()
    vrp.add_argument("--open", dest="open_vrp", action="store_true")
    vrp.add_argument("--closed", dest="open_vrp", action="store_false")
    p.set_defaults(open_vrp=False)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plot", help="render routes as an SVG map")
    p.add_argument("instance")
    p.add_argument("--solution", default=None)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_plot)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
