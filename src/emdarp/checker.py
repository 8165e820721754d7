"""Independent feasibility audit of a routed solution.

The checks here are written against the route view (visit sequences with
times, loads, state of charge) and deliberately do not reuse the MILP
builder, so the two code paths can cross-validate each other.  Each check is
labelled with the family tag of the corresponding model row; a report lists
every violated family together with the recomputed objective.

State-of-charge values are validated as one-sided requirements: a solution
may understate its battery level, it just may never overstate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import ExpandedGraph
from .instance import Instance, TW_PICKUP
from .solution import Solution


@dataclass
class Violation:
    tag: str
    index: tuple
    lhs: float
    rhs: float
    magnitude: float
    note: str = ""


@dataclass
class ValidationReport:
    ok: bool
    violations: list
    objective_recomputed: float
    objective_delta: float
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"tag": v.tag, "index": list(v.index), "lhs": v.lhs, "rhs": v.rhs,
                 "magnitude": v.magnitude, "note": v.note}
                for v in self.violations
            ],
            "objective_recomputed": self.objective_recomputed,
            "objective_delta": self.objective_delta,
            "counters": dict(self.counters),
        }


def charge_curve(soc_arrival: float, total_time: float, battery):
    """State of charge after plugging in for total_time, plus per-segment times.

    Charging fills each segment up to its ceiling at its rate, fastest
    first; any time left over past a full battery is idle.  ``validate``
    never calls it: it stays as the independent reference against which
    acceptance criterion 4 checks ``BatteryModel.charge_split``.
    """
    soc = soc_arrival
    times = []
    remaining = total_time
    for rate, ceiling in zip(battery.rates, battery.CEILINGS):
        span = max(0.0, ceiling - soc)
        t = min(remaining, span / rate) if rate > 0 else 0.0
        times.append(t)
        soc += rate * t
        remaining -= t
    return soc, tuple(times)


def _request_of(g: ExpandedGraph, node: int) -> tuple[int, int]:
    """(request, +1) at a pickup node, (request, -1) at a delivery node."""
    if node in g.lp:
        return g.lp.index(node), 1
    return g.ld.index(node), -1


class _Audit:
    def __init__(self, inst: Instance, graph: ExpandedGraph, sol: Solution,
                 tol: float):
        self.inst = inst
        self.graph = graph
        self.sol = sol
        self.tol = tol
        self.violations: list[Violation] = []
        self.counters: dict[str, int] = {}

    def need(self, tag, index, lhs_le_rhs, lhs, rhs, note=""):
        self.counters[tag] = self.counters.get(tag, 0) + 1
        gap = lhs - rhs if lhs_le_rhs else rhs - lhs
        if gap > self.tol:
            self.violations.append(Violation(tag, tuple(index), lhs, rhs, gap, note))

    def le(self, tag, index, lhs, rhs, note=""):
        self.need(tag, index, True, lhs, rhs, note)

    def ge(self, tag, index, lhs, rhs, note=""):
        self.need(tag, index, False, lhs, rhs, note)

    def eq(self, tag, index, lhs, rhs, note=""):
        self.counters[tag] = self.counters.get(tag, 0) + 1
        if abs(lhs - rhs) > self.tol:
            self.violations.append(
                Violation(tag, tuple(index), lhs, rhs, abs(lhs - rhs), note))


def validate(inst: Instance, graph: ExpandedGraph, sol: Solution,
             tol: float = 1e-6) -> ValidationReport:
    """Audit *sol* against every row family.  A solution without a value
    per request, or with a visit to a node outside *graph* or to an agent's
    start node, gets only its ``plan`` violations and a NaN objective:
    nothing else can be read."""
    a = _Audit(inst, graph, sol, tol)
    g = graph

    # -- one plan per agent, read by its agent --------------------------------
    plans = {}
    for plan in sol.plans:
        if plan.agent not in range(inst.n_agents):
            a.eq("plan", (plan.agent,), 1.0, 0.0, "plan for an unknown agent")
        elif plan.agent in plans:
            a.eq("plan", (plan.agent,), 2.0, 1.0, "agent planned twice")
        else:
            plans[plan.agent] = plan
    for k in sorted(set(range(inst.n_agents)) - set(plans)):
        a.eq("plan", (k,), 0.0, 1.0, "agent without a plan")
    faults = [((key,), f"{key} has {len(getattr(sol, key))} entries, needs {inst.n_requests}")
              for key in ("accepted", "request_times", "request_slacks")
              if len(getattr(sol, key)) != inst.n_requests]
    faults += [((plan.agent, rec.node), "visit to a node outside the graph")
               for plan in plans.values() for rec in plan.visits
               if rec.node not in range(g.n_nodes)]
    # a route leaves its start node and never returns to one
    faults += [((plan.agent, rec.node), "visit to an agent's start node")
               for plan in plans.values() for rec in plan.visits if rec.node in g.h0]
    if faults:
        for index, note in faults:
            a.eq("plan", index, 1.0, 0.0, note)
        return ValidationReport(ok=False, violations=a.violations, objective_recomputed=math.nan,
                                objective_delta=math.nan, counters=a.counters)

    # -- assignment structure -------------------------------------------------
    depot, station = g.depot_flag, g.station_flag
    position: dict[int, tuple[int, int]] = {}  # node -> (agent, position)
    records = {}  # node -> its visit record
    for plan in plans.values():
        for pos, rec in enumerate(plan.visits):
            if not depot[rec.node]:
                if rec.node in position:
                    a.eq("7", (rec.node,), 2.0, 1.0, f"{g.label(rec.node)} visited twice")
                position[rec.node] = (plan.agent, pos)
                records[rec.node] = rec

    for r, req in enumerate(inst.requests):
        p, d = g.pickup_node(r), g.delivery_node(r)
        if sol.accepted[r]:
            a.eq("7", (r,), 1.0 if p in position else 0.0, 1.0, "pickup served")
            a.eq("8", (r,), 1.0 if d in position else 0.0, 1.0, "delivery served")
            if p in position and d in position:
                a.eq("9", (r,), position[p][0], position[d][0], "same agent")
                if position[p][0] == position[d][0]:
                    a.le("16", (r,), position[p][1] + 1, position[d][1] + 1,
                         "pickup precedes delivery")
        else:
            a.eq("7", (r,), 1.0 if p in position else 0.0, 0.0, "rejected yet routed")
            if not inst.selective:
                a.eq("6", (r,), 0.0, 1.0, "rejection in non-selective mode")
            if req.force_accept:
                a.eq("fix-y", (r,), 0.0, 1.0, "must-serve request rejected")

    by_station: dict[int, list[int]] = {}
    for node in position:
        if station[node]:
            st, visit = g.station_of(node)
            by_station.setdefault(st, []).append(visit)
    for st, visits in by_station.items():
        got = sorted(visits)
        a.eq("10", (st,), float(len(got)), float(len(set(got))), "duplicate reused")
        if got and got != list(range(len(got))):
            a.eq("10", (st,), float(got[-1]), float(len(got) - 1),
                 "duplicates not used in index order")

    for k, plan in plans.items():
        agent = inst.agents[k]
        nodes = plan.nodes
        if agent.terminal_hub is not None:
            want = g.hub_node(agent.terminal_hub)
            ok = bool(nodes) and nodes[-1] == want
            a.eq("hub", (k,), 1.0 if ok else 0.0, 1.0, "assigned terminal depot")
        elif nodes:
            a.eq("12", (k, "terminal"), 1.0 if depot[nodes[-1]] else 0.0, 1.0,
                 "route ends at a depot")
        prev = g.start_node(k)
        for rec in plan.visits:
            ok = g.admissible(prev, rec.node, k if prev == g.start_node(k) else None)
            a.eq("12", (k, g.label(prev), g.label(rec.node)),
                 1.0 if ok else 0.0, 1.0, "admissible arc")
            if depot[rec.node]:
                break
            prev = rec.node

    # -- timing ----------------------------------------------------------------
    for plan in plans.values():
        k = plan.agent
        agent = inst.agents[k]
        prev = g.start_node(k)
        prev_dep = agent.initial_delay
        first = True
        for rec in plan.visits:
            cost = g.cost_matrix[prev][rec.node]
            if depot[rec.node]:
                cost = 0.0 if inst.open_vrp else cost
                tag = "23" if station[prev] else "22"
                a.ge(tag, (k,), plan.duration, prev_dep + cost, "return leg")
                break
            tag = "14" if first else ("19" if station[prev] or station[rec.node] else "15")
            a.ge(tag, (g.label(rec.node),), rec.arrival, prev_dep + cost, "travel time")
            if station[rec.node]:
                a.ge("19", (g.label(rec.node), "dwell"), rec.departure,
                     rec.arrival + agent.station_service_time + sum(rec.charge_times))
            else:
                service = inst.requests[_request_of(g, rec.node)[0]].service_time
                a.ge("15", (g.label(rec.node), "dwell"), rec.departure,
                     rec.arrival + service)
            prev, prev_dep, first = rec.node, rec.departure, False
        if math.isfinite(agent.max_duration):
            a.le("21", (k,), plan.duration, agent.max_duration, "shift length")
        a.le("24", (k,), plan.duration, sol.makespan, "fleet makespan")

    for r, req in enumerate(inst.requests):
        p, d = g.pickup_node(r), g.delivery_node(r)
        if not sol.accepted[r]:
            a.eq("3", (r,), sol.request_times[r], 0.0, "rejected ride time")
            a.eq("5", (r,), sol.request_slacks[r], 0.0, "rejected slack")
            continue
        if p not in records or d not in records:
            continue
        rp, rd = records[p], records[d]
        a.ge("16", (r, "time"), rd.arrival, rp.arrival + req.service_time)
        a.eq("2", (r,), sol.request_times[r], rp.arrival + rd.arrival, "arrival sum")
        windowed = rp if req.tw_kind == TW_PICKUP else rd
        tag = "17" if req.tw_kind == TW_PICKUP else "18"
        a.ge(tag, (r, "lo"), windowed.arrival + windowed.slack, req.tw_lo)
        a.le(tag, (r, "hi"), windowed.arrival - windowed.slack, req.tw_hi)
        a.eq("4", (r,), sol.request_slacks[r], windowed.slack, "slack total")

    # station availability and shared-plug sequencing
    for st in range(inst.n_stations):
        w = inst.stations[st].earliest_available
        first = g.f_node(st, 0)
        if w > 0 and first in records:
            a.ge("omega", (st,), records[first].arrival, w, "station opening")
        for visit in range(1, inst.duplicate_visits + 1):
            cur, prev = g.f_node(st, visit), g.f_node(st, visit - 1)
            if cur in records and prev in records:
                a.ge("20", (st, visit), records[cur].arrival, records[prev].departure,
                     "one vehicle per plug")

    # -- loads -------------------------------------------------------------------
    for plan in plans.values():
        agent = inst.agents[plan.agent]
        u1 = u2 = 0.0
        prev_rec = None
        for rec in plan.visits:
            if depot[rec.node] or station[rec.node]:
                a.eq("27", (plan.agent, g.label(rec.node)), u1, 0.0, "empty at stop")
                a.eq("31", (plan.agent, g.label(rec.node)), u2, 0.0, "empty at stop")
                if prev_rec is not None and prev_rec.node in g.ld:
                    a.eq("27", (plan.agent, g.label(prev_rec.node)),
                         prev_rec.load_passengers, 0.0, "load tracker cleared")
                    a.eq("31", (plan.agent, g.label(prev_rec.node)),
                         prev_rec.load_equipment, 0.0, "load tracker cleared")
                prev_rec = rec
                continue
            r, sign = _request_of(g, rec.node)
            req = inst.requests[r]
            u1 += sign * req.passengers
            u2 += sign * req.equipment
            # load trackers may overstate the true load, never understate it
            a.ge("26", (g.label(rec.node), 1), rec.load_passengers, u1, "running load")
            a.ge("30", (g.label(rec.node), 2), rec.load_equipment, u2, "running load")
            a.le("28", (g.label(rec.node),), rec.load_passengers, agent.cap_passengers)
            a.le("32", (g.label(rec.node),), rec.load_equipment, agent.cap_equipment)
            a.ge("25", (g.label(rec.node),), u1, 0.0)
            a.ge("29", (g.label(rec.node),), u2, 0.0)
            if rec.node in g.lp:
                a.le("33", (g.label(rec.node),),
                     rec.load_passengers + agent.conversion * rec.load_equipment,
                     agent.cap_passengers, "converted seating")
            prev_rec = rec

    # -- energy -------------------------------------------------------------------
    b = inst.battery
    for plan in plans.values():
        k = plan.agent
        agent = inst.agents[k]
        prev = g.start_node(k)
        prev_soc = agent.soc_init
        prev_u1 = prev_u2 = 0.0
        for rec in plan.visits:
            cost = g.cost_matrix[prev][rec.node]
            if depot[rec.node] and inst.open_vrp and not inst.open_vrp_soc_to_hub:
                cost = 0.0
            rate = b.alpha0
            if prev != g.start_node(k) and not station[prev] and not depot[prev]:
                rate += b.alpha1 * prev_u1 + b.alpha2 * prev_u2
            tag = "34" if prev == g.start_node(k) else (
                "39" if station[prev] else
                "36" if depot[rec.node] or station[rec.node] else "35")
            a.le(tag, (k, g.label(rec.node)), rec.soc_arrival, prev_soc - rate * cost,
                 "discharge along arc")
            a.ge("40", (k, g.label(rec.node), "lo"), rec.soc_arrival, agent.soc_min)
            a.le("40", (k, g.label(rec.node), "up"), rec.soc_arrival, 1.0)
            if station[rec.node]:
                xi1, xi2, xi3 = rec.charge_times
                gained = b.beta1 * xi1 + b.beta2 * xi2 + b.beta3 * xi3
                a.eq("38", (k, g.label(rec.node), "gain"),
                     rec.soc_departure, rec.soc_arrival + gained, "charge accounting")
                a.ge("37", (k, g.label(rec.node)), rec.soc_departure,
                     agent.soc_target, "departure floor")
                a.le("38", (k, g.label(rec.node)), rec.soc_departure, 1.0)
                a.le("41", (k, g.label(rec.node), "b"),
                     rec.soc_arrival + b.beta1 * xi1, b.CEILINGS[0], "fast segment ceiling")
                a.le("41", (k, g.label(rec.node), "d"),
                     rec.soc_arrival + b.beta1 * xi1 + b.beta2 * xi2, b.CEILINGS[1],
                     "middle segment ceiling")
                a.le("41", (k, g.label(rec.node), "e"), b.beta2 * xi2, b.WIDTHS[1])
                a.le("41", (k, g.label(rec.node), "f"), b.beta3 * xi3, b.WIDTHS[2])
                a.ge("41", (k, g.label(rec.node), "nonneg"), min(xi1, xi2, xi3), 0.0)
                prev_soc = rec.soc_departure
            elif depot[rec.node]:
                break
            else:
                a.eq("35", (k, g.label(rec.node), "hold"), rec.soc_departure,
                     rec.soc_arrival, "no charging away from stations")
                prev_soc = rec.soc_arrival
                prev_u1, prev_u2 = rec.load_passengers, rec.load_equipment
            prev = rec.node

    # -- objective ------------------------------------------------------------------
    w = inst.weights
    objective = sol.makespan
    for r, req in enumerate(inst.requests):
        if sol.accepted[r]:
            objective += req.priority * (w.epsilon * sol.request_times[r]
                                         + w.zeta * sol.request_slacks[r])
        else:
            objective += req.priority * w.eta
    delta = abs(objective - sol.objective)
    a.counters["objective"] = a.counters.get("objective", 0) + 1
    if delta > max(tol, 1e-6 * max(1.0, abs(objective))):
        a.violations.append(Violation("objective", (), sol.objective, objective,
                                      delta, "stated objective mismatch"))
    return ValidationReport(
        ok=not a.violations,
        violations=a.violations,
        objective_recomputed=objective,
        objective_delta=delta,
        counters=a.counters,
    )
