"""Optimal timing and charging for fixed visit sequences.

Given one visit chain per agent (pickups, deliveries, station duplicates,
terminal depot), this module first checks the discrete feasibility conditions
(arc admissibility, pairing, precedence, capacities, station duplicate order)
and then solves a small LP for arrival times, window slacks, and per-segment
charging durations.  Charging durations are canonicalized afterwards: the
charge acquired is poured into the fastest segments first, which is never
slower and pins down the segment indicator values.

``agent_curve`` prices one agent's timing by an exact dynamic program instead
of the LP, each station of a complete chain taking the least charging time
that the state-of-charge rows allow it, and ``timing_bound`` merges the
agents' curves; the branch-and-bound uses it as its node bound (legs at
their least times) and as a screen before each leaf LP.  ``slot_releases``
brings the duplicate-slot order into that screen: the time each station
visit's slot frees at the earliest, which the curves then respect.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .graph import ExpandedGraph
from .instance import Instance
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
    pivots: int = 0  # simplex pivots of the LP, if it ran


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


def check_routes(inst: Instance, graph: ExpandedGraph, chains, accepted):
    """Discrete feasibility screen of a complete routing. Returns (reason,
    loads) where loads maps node -> (passengers, equipment) on departure;
    reason is None when clean."""
    depot, station = graph.depot_flag, graph.station_flag
    seen: dict[int, int] = {}
    for k, chain in enumerate(chains):
        prev = graph.start_node(k)
        for pos, node in enumerate(chain):
            if depot[node]:
                if pos != len(chain) - 1:
                    return f"agent {k} visits a depot mid-route", None
            elif node in seen:
                return f"{graph.label(node)} visited twice", None
            else:
                seen[node] = k
            if not graph.admissible(prev, node, k if prev == graph.start_node(k) else None):
                return f"arc {graph.label(prev)}->{graph.label(node)} not admissible", None
            prev = node
        if chain and not depot[chain[-1]]:
            return f"agent {k} does not end at a depot", None
        agent = inst.agents[k]
        if agent.terminal_hub is not None:
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
            if not inst.selective:
                return f"request {r} cannot be rejected in non-selective mode", None
            if req.force_accept:
                return f"request {r} is must-serve but rejected", None
            if p in seen or d in seen:
                return f"request {r} rejected but routed", None

    loads: dict[int, tuple[float, float]] = {}
    for k, chain in enumerate(chains):
        if (reason := load_violation(inst, graph, k, chain, loads)) is not None:
            return reason, None

    by_station: dict[int, list[int]] = {}
    for node in seen:
        if station[node]:
            st, visit = graph.station_of(node)
            by_station.setdefault(st, []).append(visit)
    for st, visits in by_station.items():
        visits.sort()
        if visits != list(range(len(visits))):
            return f"station {st} duplicates used out of order", None
    return None, loads


def load_violation(inst: Instance, graph: ExpandedGraph, k: int, chain, loads: dict):
    """Why agent *k*'s *chain* breaks a capacity rule (a cap, the converted
    capacity at a pickup, a load at a station or depot), or None.  Records
    each pickup's and delivery's departure load (passengers, equipment) in *loads*."""
    agent = inst.agents[k]
    stop_load, pickups = graph.stop_load, graph.lp
    u1 = u2 = 0.0
    for node in chain:
        stop = stop_load[node]
        if stop is None:  # a station or a depot
            if u1 > _EPS or u2 > _EPS:
                return f"agent {k} reaches {graph.label(node)} loaded"
            continue
        _, passengers, equipment = stop
        u1 += passengers
        u2 += equipment
        if u1 > agent.cap_passengers + _EPS:
            return f"agent {k} passenger load {u1} exceeds cap"
        if u2 > agent.cap_equipment + _EPS:
            return f"agent {k} equipment load {u2} exceeds cap"
        if node in pickups and u1 + agent.conversion * u2 > agent.cap_passengers + _EPS:
            return f"agent {k} mixed load exceeds converted capacity"
        loads[node] = (u1, u2)
    return None


def timing_bound(curves) -> float:
    """Exact minimum of ``T + sum_r lambda_r (epsilon (t_p + t_d) + zeta tau)``
    over the timing rows of a routing, without rejection penalties, given
    the ``agent_curve`` of each agent with stops; ``math.inf`` when one of
    them is None (its chain does not fit).

    The rows are the timing rows of ``schedule_routes`` with each station's
    charging durations ``xi`` summed to a fixed least time: a stop is
    reached no earlier than the previous departure plus the leg (the first
    one no earlier than the initial delay plus the first leg; a station's
    departure is its arrival plus the agent's station service time plus its
    least charging time), an agent's return ``Tk`` is at most
    ``max_duration`` and at most the makespan ``T``, and ``T`` is at most
    the horizon.  A chain that ends at a depot takes its own legs; one
    without a depot takes each leg's ``least_time`` and its least return.
    Every stop comes before the return, so every stop time and ``Tk`` are at
    most the horizon too; the DP clips at it.  Agents meet only in the makespan, so the optimum is
    the least ``T + sum_k G_k(min(T, cap_k))``, where ``cap_k =
    min(max_duration, horizon)``, over the merged breakpoints.

    Validity.  A partial routing holds only pickups and deliveries, each
    placed request's two stops in one chain, pickup first.  A completion
    (more requests, charging stops, a depot) keeps their order, and between
    two of them takes at least their least time on any costs, so no stop
    is earlier than here and the value bounds its routing cost.  On a
    complete routing it is at most the leaf LP's optimum less the rejection
    penalties: every LP schedule spends at least the least time charging at
    each station, which can only delay later stops, and dropping the
    state-of-charge, slot-order and station opening rows from a relaxation
    can only lower its minimum."""
    curves = list(curves)
    if any(curve is None for curve in curves):
        return math.inf
    if not curves:
        return 0.0
    start = max(xs[0] for xs, _ in curves)
    return min(t + sum(_value(xs, ys, t) for xs, ys in curves)
               for t in {start, *(x for xs, _ in curves for x in xs if x > start)})


def soc_ceilings(inst: Instance, graph: ExpandedGraph, k: int, route, loads,
                 floor: float) -> list[float]:
    """The highest state of charge agent *k* can reach each stop of *route*
    with: ``soc_init`` at the start and 1.0 out of each station, less every
    leg's ``BatteryModel.drain`` at the departure load in *loads* (the start
    and stations are left empty).  The list ends at the first stop below
    *floor*, so the walk stays at or above *floor* exactly when its last
    entry does."""
    b, leg_energy, station = inst.battery, graph.leg_energy, graph.station_flag
    soc, prev = inst.agents[k].soc_init, graph.start_node(k)
    out = []
    for node in route:
        soc -= b.drain(leg_energy[prev][node], loads.get(prev, (0.0, 0.0)))
        out.append(soc)
        if soc < floor:
            break
        if station[node]:
            soc = 1.0
        prev = node
    return out


def _least_charge(inst: Instance, graph: ExpandedGraph, k: int, chain, socs) -> dict:
    """Least charging time at each station of agent *k*'s complete *chain*,
    by position, from its ``soc_ceilings`` *socs* (see ``agent_curve``)."""
    agent, b = inst.agents[k], inst.battery
    out, after = {}, socs[-1]  # 1.0 less the drains from the last station to the depot
    for pos in reversed(range(len(chain))):
        if graph.station_flag[chain[pos]]:
            out[pos] = b.charge_time(socs[pos],
                                     max(agent.soc_target, agent.soc_min + 1.0 - after))
            after = socs[pos]
    return out


def slot_releases(inst: Instance, graph: ExpandedGraph, routes, socs):
    """The time before which no schedule of the complete *routes* reaches
    each station visit, given each agent's ``soc_ceilings`` in *socs* (empty
    for an idle agent): per agent, ``{position: release}`` for the visits
    whose earliest arrival the release delays, or None when the releases
    never settle.

    Slot 0 of a station is released at its ``earliest_available``, and slot
    s + 1 at slot s's earliest departure: its earliest arrival, plus its
    agent's ``station_service_time``, plus the least charging time that
    ``agent_curve`` gives the visit (``_least_charge``).  The earliest
    arrivals come from one forward pass per agent over its own legs, each
    station arrival raised to its release, and the passes repeat until no
    release moves.  A chain of waits holds each visit at most once, so
    with V visits V + 1 rounds settle it, the first without releases.  When
    two stations' slot orders wait on each other around a cycle, no
    schedule exists and the releases grow every round; None then.

    Validity.  Every schedule that ``schedule_routes`` allows meets its slot
    order rows (slot s + 1 arrives no earlier than slot s's arrival plus the
    service time plus the slot's charging time, which is at least the least
    one, see ``agent_curve``) and arrives at slot 0 no earlier than
    ``earliest_available``.  So if every release of a round is at most the
    arrival of every such schedule, so is each arrival of the next round's
    passes, and with it each release it sets; the first round has none."""
    leg_time, stop_load = graph.leg_time, graph.stop_load
    # _least_charge keys each agent's station visits by position
    charge = [_least_charge(inst, graph, k, route, socs[k]) if socs[k] else {}
              for k, route in enumerate(routes)]
    slots: dict[int, list] = {}  # station -> [(slot, agent, position)]
    for k, route in enumerate(routes):
        for pos in charge[k]:
            st, slot = graph.station_of(route[pos])
            slots.setdefault(st, []).append((slot, k, pos))
    for visits in slots.values():
        visits.sort()
    release: dict = {}
    for _ in range(sum(map(len, slots.values())) + 1):
        arrival, delayed = {}, [{} for _ in routes]
        for k, route in enumerate(routes):
            if not charge[k]:
                continue
            agent = inst.agents[k]
            t, prev, service = agent.initial_delay, graph.start_node(k), 0.0
            for pos, node in enumerate(route[:max(charge[k]) + 1]):
                t += service + leg_time[prev][node]
                stop = stop_load[node]
                if stop is None:  # a station
                    if release.get((k, pos), t) > t:
                        t = delayed[k][pos] = release[k, pos]
                    arrival[k, pos] = t
                    service = agent.station_service_time + charge[k][pos]
                else:
                    service = inst.requests[stop[0]].service_time
                prev = node
        settled = {}
        for st, visits in slots.items():
            ready = inst.stations[st].earliest_available
            for _, k, pos in visits:
                settled[k, pos] = ready
                ready = arrival[k, pos] + inst.agents[k].station_service_time + charge[k][pos]
        if settled == release:
            return delayed
        release = settled
    return None


def agent_curve(inst: Instance, graph: ExpandedGraph, k: int, chain, horizon: float,
                socs=(), releases=None):
    """``G_k(x)``, the cheapest cost of agent *k*'s non-empty *chain* with
    ``Tk <= x`` under the rows of ``timing_bound``, as convex, nonincreasing
    breakpoints ``(xs, ys)`` from the earliest return to ``min(max_duration,
    horizon)``, constant beyond; None when the chain does not fit.

    Method: the soft-time-window scheduling DP of Ibaraki et al.
    (Transportation Science 39(2), 2005) and Hashimoto et al. (Discrete
    Applied Mathematics 154(16), 2006): at each stop, shift by the previous
    service time plus the leg, take the prefix minimum, add the stop's cost
    and clip at *horizon*.

    Least charging time.  Given *socs*, the ``soc_ceilings`` of a complete
    chain (one that ends at a depot) at its ``load_violation`` loads, each
    station charges; without them none does.  The leaf LP caps a station's
    arrival SoC at that ceiling, and every SoC on the way is at least
    ``soc_min``, so the departure SoC is at least ``soc_target`` and at
    least ``soc_min`` plus the drains up to the next station or the depot.
    The ``xi`` rows cap segment 1 at ``CEILINGS[0]`` less the arrival SoC
    and segments 2 and 3 at their widths, so the LP charges between the two
    for at least ``BatteryModel.charge_time``.  That time never rises with
    the arrival SoC and never falls with the departure SoC, so at the two
    bounds it is at most what the LP spends at the station.

    Slot releases.  Given *releases*, ``{position: time}`` of a complete
    chain's station visits as ``slot_releases`` gives them, the DP arrives
    at each such visit no earlier than its release: after the shift the
    function is nonincreasing, so the cut keeps its value at the release
    and drops the breakpoints before it.  Every LP schedule reaches the
    visit at or after its release, so the curve still minimises over a
    superset of the LP's timings."""
    agent = inst.agents[k]
    w = inst.weights
    charge = _least_charge(inst, graph, k, chain, socs) if socs else {}
    depot = chain[-1] if graph.depot_flag[chain[-1]] else None
    # a chain with no depot yet may still get stops between two of its own
    leg_time = graph.leg_time if depot is not None else graph.least_time
    stop_load = graph.stop_load
    xs, ys = [agent.initial_delay], [0.0]
    prev, service = graph.start_node(k), 0.0
    for pos, node in enumerate(chain if depot is None else chain[:-1]):
        if not _advance(xs, ys, service + leg_time[prev][node], horizon):
            return None
        stop = stop_load[node]
        if stop is None:  # a station
            if releases and pos in releases:
                _release(xs, ys, releases[pos])
            service = agent.station_service_time + charge.get(pos, 0.0)
        else:
            r = stop[0]
            req = inst.requests[r]
            window = node == graph.window_node(r)
            _add_stop_cost(xs, ys, req.priority * w.epsilon,
                           req.priority * w.zeta if window else 0.0, req.tw_lo, req.tw_hi)
            service = req.service_time
        prev = node
    leg = min((leg_time[prev][h] for h in (graph.hf if depot is None else [depot])), default=0.0)
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


def _release(xs, ys, release) -> None:
    """In place, restrict a nonincreasing f to ``x >= release``."""
    if release > xs[0]:
        j = bisect.bisect_right(xs, release)
        xs[:j], ys[:j] = [release], [_value(xs, ys, release)]


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
    """Time and charge a complete routing: every chain ends at a depot.

    The LP minimises ``T + sum_r lambda_r (epsilon (t_p + t_d) + zeta tau)``
    over the accepted requests, plus the rejection penalties, subject to the
    MILP's timing, time-window, station opening and order, and state-of-charge
    rows on the routing, ``t, tau >= 0``, ``xi`` within its segment caps,
    ``phi >= soc_min``, ``Tk <= max_duration`` and ``T <= horizon``.  With
    every request accepted, ``t_p + t_d`` and ``tau`` need no ``Tr``/``Dr``
    aliases, and the MILP's other caps are implied: each stop comes before
    its chain's depot, so ``t <= Tk <= T <= horizon``, and ``phi <= 1``, as
    ``soc_init <= 1``, drains are nonnegative and a station's row caps ``phi
    + sum beta xi`` at 1.

    Every cost is nonnegative: ``T`` costs 1, ``t_p`` and ``t_d`` cost
    ``lambda_r epsilon`` and ``tau`` costs ``lambda_r zeta``, and validation
    requires ``priority >= 1`` and ``0 < epsilon < zeta``; ``phi``, ``xi``,
    ``Tk`` and a station's ``t`` cost nothing.  That is the precondition
    ``solve_lp`` checks: its dual simplex starts from the slack basis, which
    nonnegative costs make dual feasible.  It leaves each ``phi`` at the
    least value its rows allow, which the solution reports as the visit's
    state of charge."""
    reason, loads = check_routes(inst, graph, chains, accepted)
    if reason is not None:
        return ScheduleResult(feasible=False, reason=reason)

    if big_m is None:
        big_m = compute_big_m(inst, graph)
    b = inst.battery
    depot, station, stop_load = graph.depot_flag, graph.station_flag, graph.stop_load
    visited_by = {}
    for k, chain in enumerate(chains):
        for node in chain:
            if not depot[node]:
                visited_by[node] = k

    cols: list[tuple] = []
    index: dict[tuple, int] = {}

    def var(kind, key, lb, ub):  # check_routes leaves every (kind, key) unique
        index[(kind, key)] = len(cols)
        cols.append((kind, key, lb, ub))
        return index[(kind, key)]

    served = [r for r in range(inst.n_requests) if accepted[r]]
    for node in visited_by:
        var("t", node, 0.0, math.inf)
    for r in served:
        var("tau", graph.window_node(r), 0.0, math.inf)
    for node in visited_by:
        if station[node]:
            for seg, cap in enumerate(b.caps, start=1):
                var("xi", (node, seg), 0.0, cap)
    for k, chain in enumerate(chains):
        for node in chain:
            var("phi", node if not depot[node] else ("hub", k),
                inst.agents[k].soc_min, math.inf)
    for k, chain in enumerate(chains):
        if chain:
            var("Tk", k, 0.0, inst.agents[k].max_duration)
    i_t_total = var("T", None, 0.0, big_m.horizon)
    c = [0.0] * len(cols)
    c[i_t_total] = 1.0

    rows = _Rows()
    row_ub = rows.add

    def xi_triplet(node):
        return [index[("xi", (node, s))] for s in (1, 2, 3)]

    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        prev = graph.start_node(k)
        prev_t = None
        for node in chain:
            hub = depot[node]
            cost = graph.leg_time[prev][node]
            target = index[("Tk", k)] if hub else index[("t", node)]
            if prev_t is None:
                # leave the start position after the initial delay
                row_ub({target: -1.0}, -(agent.initial_delay + cost))
            else:
                coeffs = {index[("t", prev)]: 1.0, target: -1.0}
                if station[prev]:
                    rhs = -(agent.station_service_time + cost)
                    for idx in xi_triplet(prev):
                        coeffs[idx] = 1.0
                else:
                    rhs = -(inst.requests[stop_load[prev][0]].service_time + cost)
                row_ub(coeffs, rhs)
            if hub:
                break
            prev, prev_t = node, True
        if chain:
            row_ub({index[("Tk", k)]: 1.0, i_t_total: -1.0}, 0.0)

    for r in served:
        req = inst.requests[r]
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        node = graph.window_node(r)
        it, itau = index[("t", node)], index[("tau", node)]
        row_ub({it: -1.0, itau: -1.0}, -req.tw_lo)
        row_ub({it: 1.0, itau: -1.0}, req.tw_hi)
        c[index[("t", p)]] = c[index[("t", d)]] = req.priority * inst.weights.epsilon
        c[itau] = req.priority * inst.weights.zeta

    # duplicate visits to a station happen in index order, spaced by the
    # earlier visitor's plug-in time
    by_station: dict[int, list[int]] = {}
    for node in visited_by:
        if station[node]:
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
            hub = depot[node]
            cur = index[("phi", ("hub", k) if hub else node)]
            # the start and stations are left empty, so they have no load
            drop = b.drain(graph.leg_energy[prev][node], loads.get(prev, (0.0, 0.0)))
            if prev_phi is None:
                row_ub({cur: 1.0}, agent.soc_init - drop)
            else:
                coeffs = {cur: 1.0, prev_phi: -1.0}
                if station[prev]:
                    for idx, beta in zip(xi_triplet(prev), b.rates):
                        coeffs[idx] = -beta
                row_ub(coeffs, -drop)
            if hub:
                break
            if station[node]:
                ix1, ix2, ix3 = xi_triplet(node)
                row_ub({cur: 1.0, ix1: b.beta1}, b.CEILINGS[0])
                floor = {cur: -1.0, ix1: -b.beta1, ix2: -b.beta2, ix3: -b.beta3}
                row_ub(floor, -agent.soc_target)
                row_ub({cur: 1.0, ix1: b.beta1, ix2: b.beta2, ix3: b.beta3}, 1.0)
            prev, prev_phi = node, cur

    bounds = [(lb, ub) for (_, _, lb, ub) in cols]
    res = solve_lp(c, rows.matrix(len(cols)), rows.rhs, bounds=bounds)
    if res.status != "optimal":
        return ScheduleResult(feasible=False, reason=f"timing LP {res.status}",
                              pivots=res.pivots)

    rejected_penalty = sum(req.priority * inst.weights.eta
                           for r, req in enumerate(inst.requests) if not accepted[r])
    objective = res.objective + rejected_penalty

    sol = _assemble(inst, graph, chains, accepted, loads, index, res.x, objective)
    return ScheduleResult(feasible=True, objective=objective, solution=sol,
                          pivots=res.pivots)


def _assemble(inst, graph, chains, accepted, loads, index, x, objective) -> Solution:
    b = inst.battery
    plans = []
    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        visits = []
        for node in chain:
            if graph.depot_flag[node]:
                # the LP leaves Tk anywhere between its floor and the
                # makespan when the agent is not makespan-binding; report
                # the floor (actual arrival) instead.  check_routes rejects
                # a start -> depot arc, so a visit comes before the depot.
                tk = visits[-1].departure + graph.leg_time[visits[-1].node][node]
                phi = x[index[("phi", ("hub", k))]]
                visits.append(VisitRecord(node=node, label=graph.label(node),
                                          arrival=tk, departure=tk,
                                          soc_arrival=phi, soc_departure=phi))
                continue
            arrive = x[index[("t", node)]]
            phi = x[index[("phi", node)]]
            if graph.station_flag[node]:
                gained = b.gained([x[index[("xi", (node, s))]] for s in (1, 2, 3)])
                xi1, xi2, xi3 = b.charge_split(phi, gained)
                visits.append(VisitRecord(
                    node=node, label=graph.label(node), arrival=arrive,
                    departure=arrive + agent.station_service_time + xi1 + xi2 + xi3,
                    soc_arrival=phi, soc_departure=phi + gained,
                    charge_times=(xi1, xi2, xi3)))
            else:
                req = inst.requests[graph.stop_load[node][0]]
                tau = x[index[("tau", node)]] if ("tau", node) in index else 0.0
                u1, u2 = loads[node]
                visits.append(VisitRecord(
                    node=node, label=graph.label(node), arrival=arrive,
                    departure=arrive + req.service_time, slack=tau,
                    load_passengers=u1, load_equipment=u2,
                    soc_arrival=phi, soc_departure=phi))
        # check_routes ends every non-empty chain at a depot
        duration = visits[-1].arrival if chain else 0.0
        plans.append(RoutePlan(agent=k, visits=visits, duration=duration))

    request_times, request_slacks = [], []
    for r in range(inst.n_requests):
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        window = graph.window_node(r)
        request_times.append(x[index[("t", p)]] + x[index[("t", d)]] if accepted[r] else 0.0)
        request_slacks.append(x[index[("tau", window)]] if accepted[r] else 0.0)
    return Solution(
        status="feasible", objective=objective, plans=plans, accepted=list(accepted),
        request_times=request_times, request_slacks=request_slacks,
        makespan=x[index[("T", None)]], engine="builtin")
