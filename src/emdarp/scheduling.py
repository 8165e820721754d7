"""Optimal timing and charging for fixed visit sequences.

Given one visit chain per agent (pickups, deliveries, station duplicates,
terminal depot), this module first checks the discrete feasibility conditions
(arc admissibility, pairing, precedence, capacities, station duplicate order)
and then solves a small LP for arrival times, window slacks, and per-segment
charging durations.  Charging durations are canonicalized afterwards: the
charge acquired is poured into the fastest segments first, which is never
slower and pins down the segment indicator values.

``timing_bound`` prices the timing part alone, without charging, by an exact
dynamic program instead of the LP; the branch-and-bound uses it as its node
bound and as a screen before each leaf LP.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .graph import ExpandedGraph
from .instance import Instance, TW_PICKUP
from .lp import solve_lp
from .model import compute_big_m
from .solution import RoutePlan, Solution, VisitRecord

_EPS = 1e-9


@dataclass
class ScheduleResult:
    feasible: bool
    reason: str = ""
    objective: float = math.inf
    solution: Solution | None = None


class _Rows:
    """Constraint rows gathered as (row, column, coefficient) triplets and
    scattered into one dense matrix."""

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs: list[float] = []

    def add(self, coeffs: dict, rhs: float) -> None:
        self.rows.extend([len(self.rhs)] * len(coeffs))
        self.cols.extend(coeffs)
        self.vals.extend(coeffs.values())
        self.rhs.append(rhs)

    def matrix(self, n: int) -> np.ndarray:
        out = np.zeros((len(self.rhs), n))
        out[self.rows, self.cols] = self.vals
        return out


def check_routes(inst: Instance, graph: ExpandedGraph, chains, accepted,
                 partial: bool = False):
    """Discrete feasibility screen. Returns (reason, loads) where loads maps
    node -> (passengers, equipment) on departure; reason is None when clean.

    A partial routing (*partial* true) holds only pickups and deliveries and
    may omit depots; every accepted request has both its stops placed, and a
    request not accepted yet is undecided rather than rejected."""
    seen: dict[int, int] = {}
    for k, chain in enumerate(chains):
        prev = graph.start_node(k)
        for pos, node in enumerate(chain):
            if partial and (graph.is_hub(node) or graph.is_station(node)):
                return f"partial routing visits {graph.label(node)}", None
            if graph.is_hub(node):
                if pos != len(chain) - 1:
                    return f"agent {k} visits a depot mid-route", None
            elif node in seen:
                return f"{graph.label(node)} visited twice", None
            else:
                seen[node] = k
            if not graph.admissible(prev, node, k if prev == graph.start_node(k) else None):
                return f"arc {graph.label(prev)}->{graph.label(node)} not admissible", None
            prev = node
        if chain and not partial and not graph.is_hub(chain[-1]):
            return f"agent {k} does not end at a depot", None
        agent = inst.agents[k]
        if agent.terminal_hub is not None and not partial:
            want = graph.hub_node(agent.terminal_hub)
            if not chain or chain[-1] != want:
                return f"agent {k} must end at depot {agent.terminal_hub}", None

    for r, req in enumerate(inst.requests):
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        if accepted[r]:
            if p not in seen or d not in seen:
                return f"request {r} accepted but not fully routed", None
            if seen[p] != seen[d]:
                return f"request {r} split across agents", None
            chain = chains[seen[p]]
            if chain.index(p) > chain.index(d):
                return f"request {r} delivered before pickup", None
        else:
            if not partial and not inst.selective:
                return f"request {r} cannot be rejected in non-selective mode", None
            if not partial and req.force_accept:
                return f"request {r} is must-serve but rejected", None
            if p in seen or d in seen:
                return f"request {r} rejected but routed", None

    loads: dict[int, tuple[float, float]] = {}
    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        u1 = u2 = 0.0
        for pos, node in enumerate(chain):
            if graph.is_hub(node) or graph.is_station(node):
                if u1 > _EPS or u2 > _EPS:
                    return f"agent {k} reaches {graph.label(node)} loaded", None
                continue
            req = inst.requests[graph.gamma(node)]
            sign = graph.mu(node)
            u1 += sign * req.passengers
            u2 += sign * req.equipment
            if u1 > agent.cap_passengers + _EPS:
                return f"agent {k} passenger load {u1} exceeds cap", None
            if u2 > agent.cap_equipment + _EPS:
                return f"agent {k} equipment load {u2} exceeds cap", None
            if graph.is_pickup(node) and u1 + agent.conversion * u2 > agent.cap_passengers + _EPS:
                return f"agent {k} mixed load exceeds converted capacity", None
            loads[node] = (u1, u2)

    by_station: dict[int, list[int]] = {}
    for node in seen:
        if graph.is_station(node):
            st, visit = graph.station_of(node)
            by_station.setdefault(st, []).append(visit)
    for st, visits in by_station.items():
        visits.sort()
        if visits != list(range(len(visits))):
            return f"station {st} duplicates used out of order", None
    return None, loads


def timing_bound(inst: Instance, graph: ExpandedGraph, chains, horizon: float,
                 cache: dict) -> float:
    """Exact minimum of ``T + sum_r lambda_r (epsilon (t_p + t_d) + zeta tau)``
    over the timing rows of a routing, without rejection penalties;
    ``math.inf`` when no schedule fits.

    The rows are the timing rows of ``schedule_routes`` with every charging
    duration ``xi`` at zero: a stop is reached no earlier than the previous
    departure plus the leg (the first one no earlier than the initial delay
    plus the first leg; a station's departure is its arrival plus the
    agent's station service time), every stop time is at most *horizon*,
    and an agent's return ``Tk`` is at most ``min(max_duration, horizon)``
    and at most the makespan ``T``.  A chain that ends at a depot returns
    over that leg, one without a depot over its cheapest depot leg.

    Validity.  On a partial routing (pickups and deliveries only, see
    ``check_routes``) these rows are the whole timing LP of a partial
    routing, so the value is that LP's optimum; under the triangle
    inequality no completion (more requests, charging stops, a depot) makes
    any stop earlier, so it bounds every completion's routing cost.  On a
    complete routing it is at most the leaf LP's optimum less the rejection
    penalties: the leaf LP has every row used here plus the charging
    durations, which only delay later stops, the state-of-charge rows, the
    station slot-order rows and the station opening rows, and dropping rows
    or fixing ``xi = 0`` in a relaxation can only lower its minimum.

    Method: the soft-time-window scheduling DP of Ibaraki et al.
    (Transportation Science 39(2), 2005) and Hashimoto et al. (Discrete
    Applied Mathematics 154(16), 2006).  Per agent, a forward pass over
    convex piecewise-linear functions gives ``G_k(x)``, the cheapest cost of
    the agent's stops with ``Tk <= x``: at each stop shift by the previous
    service time plus the leg, take the prefix minimum, add the stop's cost
    and clip at the horizon.  Agents meet only in the makespan, so the
    optimum is the least ``T + sum_k G_k(min(T, cap_k))``, where ``cap_k =
    min(max_duration, horizon)``, over the merged breakpoints.  *cache* keeps ``G_k`` by ``(agent, chain)``; it must only
    be reused for the same instance, graph and horizon."""
    curves = []
    for k, chain in enumerate(chains):
        if not chain:
            continue
        key = (k, tuple(chain))
        if key not in cache:
            cache[key] = _agent_curve(inst, graph, k, chain, horizon)
        if cache[key] is None:
            return math.inf
        curves.append(cache[key])
    if not curves:
        return 0.0
    start = max(xs[0] for xs, _ in curves)
    return min(t + sum(_value(xs, ys, t) for xs, ys in curves)
               for t in {start, *(x for xs, _ in curves for x in xs if x > start)})


def _agent_curve(inst: Instance, graph: ExpandedGraph, k: int, chain, horizon: float):
    """``G_k`` as convex, nonincreasing breakpoints ``(xs, ys)`` from the
    earliest return to the duration cap, constant beyond; None when the
    chain does not fit."""
    agent = inst.agents[k]
    w = inst.weights
    xs, ys = [agent.initial_delay], [0.0]
    prev, service, depot = graph.start_node(k), 0.0, None
    for node in chain:
        if graph.is_hub(node):
            depot = node
            break
        if not _advance(xs, ys, service + graph.time_cost(prev, node), horizon):
            return None
        if graph.is_station(node):
            service = agent.station_service_time
        else:
            r = graph.gamma(node)
            req = inst.requests[r]
            window = node == (graph.pickup_node(r) if req.tw_kind == TW_PICKUP
                              else graph.delivery_node(r))
            _add_stop_cost(xs, ys, req.priority * w.epsilon,
                           req.priority * w.zeta if window else 0.0, req.tw_lo, req.tw_hi)
            service = req.service_time
        prev = node
    if depot is not None:
        leg = graph.time_cost(prev, depot)
    else:
        leg = min((graph.time_cost(prev, h) for h in graph.hf), default=0.0)
    if not _advance(xs, ys, service + leg, min(agent.max_duration, horizon)):
        return None
    return xs, ys


def _lerp(xs, ys, j, x):
    """Value at *x* on the segment from breakpoint j - 1 to breakpoint j."""
    return ys[j - 1] + (ys[j] - ys[j - 1]) * (x - xs[j - 1]) / (xs[j] - xs[j - 1])


def _value(xs, ys, x):
    if x >= xs[-1]:
        return ys[-1]
    return _lerp(xs, ys, bisect.bisect_right(xs, x), x)


def _advance(xs, ys, shift, cap) -> bool:
    """In place, replace f by ``x -> min {f(s) : s <= x - shift}`` on
    ``x <= cap``.  False when even the earliest time exceeds *cap*."""
    m = ys.index(min(ys))  # f is convex: its prefix minimum is flat from here
    del xs[m + 1:], ys[m + 1:]
    xs[:] = [x + shift for x in xs]
    if xs[0] > cap + _EPS:
        return False
    j = bisect.bisect_right(xs, cap)
    if j == 0:  # the earliest time is past cap by less than the tolerance
        del xs[1:], ys[1:]
    elif j < len(xs):
        if xs[j - 1] < cap:
            y = _lerp(xs, ys, j, cap)
            xs[j], ys[j] = cap, y
            j += 1
        del xs[j:], ys[j:]
    elif xs[-1] < cap:
        xs.append(cap)
        ys.append(ys[-1])
    return True


def _add_stop_cost(xs, ys, slope, zeta, lo, hi) -> None:
    """In place, add ``slope * t + zeta * max(0, lo - t, t - hi)``."""
    if zeta:
        for kink in (lo, hi):
            j = bisect.bisect_left(xs, kink)
            if 0 < j < len(xs) and xs[j] != kink:
                y = _lerp(xs, ys, j, kink)
                xs.insert(j, kink)
                ys.insert(j, y)
    for i, x in enumerate(xs):
        ys[i] += slope * x + zeta * max(0.0, lo - x, x - hi)


def schedule_routes(inst: Instance, graph: ExpandedGraph, chains, accepted,
                    big_m=None) -> ScheduleResult:
    """Time and charge a complete routing: every chain ends at a depot."""
    reason, loads = check_routes(inst, graph, chains, accepted)
    if reason is not None:
        return ScheduleResult(feasible=False, reason=reason)

    if big_m is None:
        big_m = compute_big_m(inst, graph)
    horizon = big_m.horizon
    b = inst.battery
    visited_by = {}
    for k, chain in enumerate(chains):
        for node in chain:
            if not graph.is_hub(node):
                visited_by[node] = k

    cols: list[tuple] = []
    index: dict[tuple, int] = {}

    def var(kind, key, lb, ub):
        if (kind, key) in index:
            return index[(kind, key)]
        index[(kind, key)] = len(cols)
        cols.append((kind, key, lb, ub))
        return index[(kind, key)]

    served = [r for r in range(inst.n_requests) if accepted[r]]
    for node in visited_by:
        var("t", node, 0.0, horizon)
    for r in served:
        req = inst.requests[r]
        node = graph.pickup_node(r) if req.tw_kind == TW_PICKUP else graph.delivery_node(r)
        var("tau", node, 0.0, math.inf)
        var("Tr", r, 0.0, math.inf)
        var("Dr", r, 0.0, math.inf)
    for node in visited_by:
        if graph.is_station(node):
            for seg, cap in enumerate(b.caps, start=1):
                var("xi", (node, seg), 0.0, cap)
    for k, chain in enumerate(chains):
        for node in chain:
            var("phi", node if not graph.is_hub(node) else ("hub", k),
                inst.agents[k].soc_min, 1.0)
    for k, chain in enumerate(chains):
        if chain:
            var("Tk", k, 0.0, min(inst.agents[k].max_duration, horizon))
    i_t_total = var("T", None, 0.0, horizon)

    ub_rows, eq_rows = _Rows(), _Rows()
    row_ub, row_eq = ub_rows.add, eq_rows.add

    def xi_triplet(node):
        return [index[("xi", (node, s))] for s in (1, 2, 3)]

    def service(node):
        return inst.requests[graph.gamma(node)].service_time

    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        prev = graph.start_node(k)
        prev_t = None
        for node in chain:
            hub = graph.is_hub(node)
            cost = graph.time_cost(prev, node)
            target = index[("Tk", k)] if hub else index[("t", node)]
            if prev_t is None:
                # leave the start position after the initial delay
                row_ub({target: -1.0}, -(agent.initial_delay + cost))
            else:
                coeffs = {index[("t", prev)]: 1.0, target: -1.0}
                if graph.is_station(prev):
                    rhs = -(agent.station_service_time + cost)
                    for idx in xi_triplet(prev):
                        coeffs[idx] = 1.0
                else:
                    rhs = -(service(prev) + cost)
                row_ub(coeffs, rhs)
            if hub:
                break
            prev, prev_t = node, True
        if chain:
            row_ub({index[("Tk", k)]: 1.0, i_t_total: -1.0}, 0.0)

    for r in served:
        req = inst.requests[r]
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        node = p if req.tw_kind == TW_PICKUP else d
        it, itau = index[("t", node)], index[("tau", node)]
        row_ub({it: -1.0, itau: -1.0}, -req.tw_lo)
        row_ub({it: 1.0, itau: -1.0}, req.tw_hi)
        row_eq({index[("Tr", r)]: 1.0, index[("t", p)]: -1.0, index[("t", d)]: -1.0}, 0.0)
        row_eq({index[("Dr", r)]: 1.0, itau: -1.0}, 0.0)

    # duplicate visits to a station happen in index order, spaced by the
    # earlier visitor's plug-in time
    by_station: dict[int, list[int]] = {}
    for node in visited_by:
        if graph.is_station(node):
            st, visit = graph.station_of(node)
            by_station.setdefault(st, []).append(node)
    for st, nodes in by_station.items():
        nodes.sort(key=lambda n: graph.station_of(n)[1])
        w = inst.stations[st].earliest_available
        if w > 0:
            row_ub({index[("t", nodes[0])]: -1.0}, -w)
        for prev_f, cur_f in zip(nodes, nodes[1:]):
            k_prev = visited_by[prev_f]
            coeffs = {index[("t", prev_f)]: 1.0, index[("t", cur_f)]: -1.0}
            for idx in xi_triplet(prev_f):
                coeffs[idx] = 1.0
            row_ub(coeffs, -inst.agents[k_prev].station_service_time)

    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        prev = graph.start_node(k)
        prev_phi = None
        for node in chain:
            hub = graph.is_hub(node)
            cur = index[("phi", ("hub", k) if hub else node)]
            # the start and stations are left empty, so they have no load
            drop = b.drain(graph.energy_cost(prev, node), loads.get(prev, (0.0, 0.0)))
            if prev_phi is None:
                row_ub({cur: 1.0}, agent.soc_init - drop)
            else:
                coeffs = {cur: 1.0, prev_phi: -1.0}
                if graph.is_station(prev):
                    for idx, beta in zip(xi_triplet(prev), b.rates):
                        coeffs[idx] = -beta
                row_ub(coeffs, -drop)
            if hub:
                break
            if graph.is_station(node):
                ix1, ix2, ix3 = xi_triplet(node)
                row_ub({cur: 1.0, ix1: b.beta1}, b.CEILINGS[0])
                floor = {cur: -1.0, ix1: -b.beta1, ix2: -b.beta2, ix3: -b.beta3}
                row_ub(floor, -agent.soc_target)
                row_ub({cur: 1.0, ix1: b.beta1, ix2: b.beta2, ix3: b.beta3}, 1.0)
            prev, prev_phi = node, cur

    c = [0.0] * len(cols)
    c[i_t_total] = 1.0
    for r in served:
        lam = inst.requests[r].priority
        c[index[("Tr", r)]] = lam * inst.weights.epsilon
        c[index[("Dr", r)]] = lam * inst.weights.zeta

    n = len(cols)
    bounds = [(lb, ub) for (_, _, lb, ub) in cols]
    res = solve_lp(c, ub_rows.matrix(n), ub_rows.rhs, eq_rows.matrix(n), eq_rows.rhs,
                   bounds)
    if res.status != "optimal":
        return ScheduleResult(feasible=False, reason=f"timing LP {res.status}")

    rejected_penalty = sum(req.priority * inst.weights.eta
                           for r, req in enumerate(inst.requests) if not accepted[r])
    objective = res.objective + rejected_penalty

    sol = _assemble(inst, graph, chains, accepted, loads, index, res.x, objective)
    return ScheduleResult(feasible=True, objective=objective, solution=sol)


def canonical_charge(soc_arrival: float, gained: float, battery):
    """Split a charge amount over the three segments, fastest first.

    Returns (xi1, xi2, xi3, z1, z2) with durations in time units."""
    room = max(0.0, battery.CEILINGS[0] - soc_arrival)
    a1 = min(gained, room)
    a2 = min(gained - a1, battery.WIDTHS[1])
    a3 = gained - a1 - a2
    z1 = 1 if gained > room + 1e-12 else 0
    z2 = 1 if a3 > 1e-12 else 0
    return (a1 / battery.beta1, a2 / battery.beta2, a3 / battery.beta3, z1, z2)


def _assemble(inst, graph, chains, accepted, loads, index, x, objective) -> Solution:
    b = inst.battery
    plans = []
    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        visits = []
        for node in chain:
            if graph.is_hub(node):
                # the LP leaves Tk anywhere between its floor and the
                # makespan when the agent is not makespan-binding; report
                # the floor (actual arrival) instead
                if visits:
                    tk = visits[-1].departure + graph.time_cost(visits[-1].node, node)
                else:
                    tk = x[index[("Tk", k)]]
                phi = x[index[("phi", ("hub", k))]]
                visits.append(VisitRecord(node=node, label=graph.label(node),
                                          arrival=tk, departure=tk,
                                          soc_arrival=phi, soc_departure=phi))
                continue
            arrive = x[index[("t", node)]]
            phi = x[index[("phi", node)]]
            if graph.is_station(node):
                gained = b.gained([x[index[("xi", (node, s))]] for s in (1, 2, 3)])
                xi1, xi2, xi3, _, _ = canonical_charge(phi, gained, b)
                visits.append(VisitRecord(
                    node=node, label=graph.label(node), arrival=arrive,
                    departure=arrive + agent.station_service_time + xi1 + xi2 + xi3,
                    soc_arrival=phi, soc_departure=phi + gained,
                    charge_times=(xi1, xi2, xi3)))
            else:
                req = inst.requests[graph.gamma(node)]
                tau = 0.0
                if ("tau", node) in index:
                    tau = x[index[("tau", node)]]
                u1, u2 = loads[node]
                visits.append(VisitRecord(
                    node=node, label=graph.label(node), arrival=arrive,
                    departure=arrive + req.service_time, slack=tau,
                    load_passengers=u1, load_equipment=u2,
                    soc_arrival=phi, soc_departure=phi))
        if chain:
            duration = visits[-1].arrival if graph.is_hub(chain[-1]) \
                else x[index[("Tk", k)]]
        else:
            duration = 0.0
        plans.append(RoutePlan(agent=k, visits=visits, duration=duration))

    request_times, request_slacks = [], []
    for r in range(inst.n_requests):
        if accepted[r]:
            request_times.append(x[index[("Tr", r)]])
            request_slacks.append(x[index[("Dr", r)]])
        else:
            request_times.append(0.0)
            request_slacks.append(0.0)
    return Solution(
        status="feasible", objective=objective, plans=plans, accepted=list(accepted),
        request_times=request_times, request_slacks=request_slacks,
        makespan=x[index[("T", None)]], engine="builtin")
