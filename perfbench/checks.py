"""Answer checks.  Each returns the list of problems found; an operation with
any problem counts as failed.

The referees are independent of the engines under test: the route checker
(`emdarp.checker.validate`) recomputes the plan, and the reference answers
come from the exhaustive oracle (see reference.py).
"""

from __future__ import annotations

TOL = 1e-6


def answer_problems(*, status, objective, bound, solution, report, selective,
                    reference=None, graph=None, slot_check=False) -> list[str]:
    """Problems with one engine answer.

    `bound` is the engine's proven lower bound, or None if it reports none;
    `report` is the checker's verdict on `solution`; `reference` is the
    oracle's {"status", "objective"} for oracle-sized instances."""
    out = []
    if reference is not None:
        if status != reference["status"]:
            out.append(f"status {status}, reference {reference['status']}")
        elif status == "optimal" and not abs(objective - reference["objective"]) <= TOL:
            out.append(f"objective {objective!r}, reference {reference['objective']!r}")
    if status == "infeasible":
        return out
    if status != "optimal":
        return out + [f"status {status} is not a proven result"]
    if solution is None:
        return out + ["optimal without a plan"]
    if not report.ok:
        out.append(f"checker: {len(report.violations)} violations, first "
                   f"{report.violations[0].tag} {report.violations[0].note}")
    if not abs(report.objective_recomputed - objective) <= TOL:
        out.append(f"objective {objective!r}, checker recomputes "
                   f"{report.objective_recomputed!r}")
    if bound is not None and not abs(bound - objective) <= TOL:
        out.append(f"optimal with bound {bound!r} != objective {objective!r}")
    if not selective and not all(solution.accepted):
        out.append("non-selective optimum rejects a request")
    if slot_check:
        out += slot_problems(graph, solution)
    return out


def slot_problems(graph, solution) -> list[str]:
    """Duplicate station slots fill from the front and never overlap: the
    earlier visit's service and charging end before the next one starts."""
    visits = {}
    for plan in solution.plans:
        for rec in plan.visits:
            if graph.is_station(rec.node):
                visits[graph.station_of(rec.node)] = rec
    out = []
    for (st, slot), rec in sorted(visits.items()):
        if slot == 0:
            continue
        prev = visits.get((st, slot - 1))
        if prev is None:
            out.append(f"station {st} slot {slot} used before slot {slot - 1}")
        elif not prev.departure <= rec.arrival + TOL:
            out.append(f"station {st} slots {slot - 1} and {slot} overlap")
    return out
