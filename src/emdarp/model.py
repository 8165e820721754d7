"""Solver-agnostic MILP materialization of the routing model.

The model minimizes the fleet mission duration plus priority-weighted
arrival-time and time-window-slack terms and a large per-rejection penalty.
Constraint rows carry numeric family tags (2..42 plus "fix-y", "hub",
"omega", "end") so solutions can be cross-checked family by family.

Beyond the paper's rows, the timing columns carry three bounds that every
route obeys, over the graph's ``least_time`` (the pickup lower bound of
``build_catalog``, family 16 and the "end" rows of ``build_timing``).  They
cut no plan off; they only tighten the LP relaxation the MILP solver
branches on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import ExpandedGraph, expand_graph
from .instance import Instance

LE, GE, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    integer: bool = False


@dataclass(frozen=True)
class Constraint:
    tag: str
    index: tuple
    coeffs: dict
    sense: str
    rhs: float
    part: str = ""

    def activity(self, values: dict) -> float:
        return sum(coef * values[name] for name, coef in self.coeffs.items())

    def violation(self, values: dict) -> float:
        lhs = self.activity(values)
        if self.sense == LE:
            return max(0.0, lhs - self.rhs)
        if self.sense == GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass
class BigM:
    horizon: float
    time: float
    obj: float


class VariableCatalog:
    """Ordered variable table with the frozen external naming scheme."""

    def __init__(self):
        self.variables: dict[str, Variable] = {}
        self.x_arcs: dict[tuple[int, int, int], str] = {}  # (k, i, j) -> name
        self.x_into: dict[tuple[int, int], list[str]] = {}  # (k, j) -> names, x_arcs order

    def add(self, name: str, lb: float, ub: float, integer: bool = False) -> str:
        if name in self.variables:
            raise ValueError(f"duplicate variable {name}")
        self.variables[name] = Variable(name, lb, ub, integer)
        return name

    def __contains__(self, name: str) -> bool:
        return name in self.variables

    def __len__(self) -> int:
        return len(self.variables)

    # frozen naming scheme (stable contract for solution files)
    @staticmethod
    def x(k: int, i: int, j: int) -> str:
        return f"x_{k}_{i}_{j}"

    @staticmethod
    def y(r: int) -> str:
        return f"y_{r}"

    @staticmethod
    def t(i: int) -> str:
        return f"t_{i}"

    @staticmethod
    def tau(i: int) -> str:
        return f"tau_{i}"

    @staticmethod
    def Tr(r: int) -> str:
        return f"Tr_{r}"

    @staticmethod
    def Dr(r: int) -> str:
        return f"Dr_{r}"

    @staticmethod
    def Tk(k: int) -> str:
        return f"Tk_{k}"

    T = "T"

    @staticmethod
    def u1(i: int, k: int) -> str:
        return f"u1_{i}_{k}"

    @staticmethod
    def u2(i: int, k: int) -> str:
        return f"u2_{i}_{k}"

    @staticmethod
    def phi(i: int, k: int) -> str:
        return f"phi_{i}_{k}"

    @staticmethod
    def xi(i: int, seg: int) -> str:
        return f"xi_{i}_{seg}"

    @staticmethod
    def z(i: int, seg: int) -> str:
        return f"z_{i}_{seg}"


V = VariableCatalog  # short alias for name helpers


@dataclass
class ModelStats:
    x_count: int
    variable_count: int
    constraint_rows: int
    constraint_counts: dict = field(default_factory=dict)


@dataclass
class MilpModel:
    instance: Instance
    graph: ExpandedGraph
    catalog: VariableCatalog
    constraints: list
    objective: dict
    objective_constant: float
    big_m: BigM

    @property
    def stats(self) -> ModelStats:
        counts: dict[str, set] = {}
        for c in self.constraints:
            counts.setdefault(c.tag, set()).add(c.index)
        return ModelStats(
            x_count=len(self.catalog.x_arcs),
            variable_count=len(self.catalog),
            constraint_rows=len(self.constraints),
            constraint_counts={tag: len(ix) for tag, ix in sorted(counts.items())},
        )

    def objective_value(self, values: dict) -> float:
        return self.objective_constant + sum(
            coef * values[name] for name, coef in self.objective.items()
        )

    def check_feasible(self, values: dict, tol: float = 1e-6) -> list:
        """Substitute values into every row; return (constraint, violation) pairs."""
        bad = []
        for c in self.constraints:
            v = c.violation(values)
            if v > tol:
                bad.append((c, v))
        for var in self.catalog.variables.values():
            val = values[var.name]
            if val < var.lb - tol or val > var.ub + tol:
                bad.append((Constraint("bound", (var.name,), {var.name: 1.0}, LE, var.ub), val))
        return bad


def compute_big_m(inst: Instance, graph: ExpandedGraph) -> BigM:
    """Per-family big-M values derived from a route-length horizon.

    Some optimal plan ends by the horizon.  A stop gains from waiting only
    until its window opens (its slack ``tau``), its station opens or its
    agent is released, so only until L, the latest of those times.  Start
    every stop of an optimal plan as early as its rows allow, but no earlier
    than the sooner of its old time and L: no cost rises, and each stop then
    either starts by L or right after the stop that holds it up (its
    predecessor on the route, or the visit before it at the same station).
    Following that chain back to a start by L, every stop and return ends
    within L plus the chain's work: each request's service at both of its
    stops, each station visit's service and longest charge (which also
    bound a visit's queueing behind the one before it), and one leg of at
    most ``max_c`` into each stop and into the depot.
    """
    b = inst.battery
    n_f = len(graph.f)
    max_c = max((c for row in graph.cost_matrix for c in row), default=0.0)
    release = max([0.0, *(s.earliest_available for s in inst.stations),
                   *(r.tw_lo for r in inst.requests),
                   *(a.initial_delay for a in inst.agents)])
    horizon = (
        release
        + 2 * sum(r.service_time for r in inst.requests)
        + sum(a.station_service_time for a in inst.agents) * n_f
        + (2 * inst.n_requests + n_f + 1) * max_c
        + n_f * (b.caps[0] + b.caps[1] + b.CEILINGS[2] / b.beta3)
    )
    if not math.isfinite(horizon) or horizon > 1e15:
        raise OverflowError(f"time horizon {horizon} exceeds the representable range")
    m = BigM(horizon=horizon, time=horizon, obj=4.0 * horizon)
    override = inst.weights.big_m_override
    if override is not None:
        m.time = m.obj = override
    return m


def earliest_pickup(inst: Instance, graph: ExpandedGraph, r: int) -> float:
    """No agent reaches request r's pickup before this time: it leaves its
    start no earlier than its initial delay, and every stop on the way only
    adds time.  With no agent no request is served (flow rows 7 and 8 force
    ``y_r = 0``), so any bound holds and this one is 0."""
    p = graph.pickup_node(r)
    return min((a.initial_delay + graph.least_time[graph.start_node(k)][p]
                for k, a in enumerate(inst.agents)), default=0.0)


def build_catalog(inst: Instance, graph: ExpandedGraph, big_m: BigM) -> VariableCatalog:
    cat = VariableCatalog()
    b = inst.battery
    H = big_m.horizon

    for k in range(inst.n_agents):
        for (i, j) in graph.arcs_for_agent(k):
            name = cat.add(V.x(k, i, j), 0.0, 1.0, integer=True)
            cat.x_arcs[(k, i, j)] = name
            cat.x_into.setdefault((k, j), []).append(name)
    for r in range(inst.n_requests):
        cat.add(V.y(r), 0.0, 1.0, integer=True)
    for r in range(inst.n_requests):
        cat.add(V.t(graph.pickup_node(r)), earliest_pickup(inst, graph, r), H)
    for i in list(graph.ld) + list(graph.f):
        cat.add(V.t(i), 0.0, H)
    for r in range(inst.n_requests):
        window = graph.window_node(r)
        for node in (graph.pickup_node(r), graph.delivery_node(r)):
            cat.add(V.tau(node), 0.0, big_m.obj if node == window else 0.0)
    for r in range(inst.n_requests):
        cat.add(V.Tr(r), 0.0, big_m.obj)
        cat.add(V.Dr(r), 0.0, big_m.obj)
    for k in range(inst.n_agents):
        cat.add(V.Tk(k), 0.0, H)
    cat.add(V.T, 0.0, H)
    for k, agent in enumerate(inst.agents):
        for i in list(graph.lp) + list(graph.ld):
            cat.add(V.u1(i, k), 0.0, agent.cap_passengers, integer=inst.integer_loads)
            cat.add(V.u2(i, k), 0.0, agent.cap_equipment, integer=inst.integer_loads)
    for k in range(inst.n_agents):
        for i in list(graph.lp) + list(graph.ld) + list(graph.f) + list(graph.hf):
            cat.add(V.phi(i, k), 0.0, 1.0)
    for i in graph.f:
        for seg, cap in enumerate(b.caps, start=1):
            cat.add(V.xi(i, seg), 0.0, cap)
    for i in graph.f:
        cat.add(V.z(i, 1), 0.0, 1.0, integer=True)
        cat.add(V.z(i, 2), 0.0, 1.0, integer=True)
    return cat


def build_objective(inst: Instance, graph: ExpandedGraph, big_m: BigM):
    """Objective coefficients plus the acceptance-linearization rows (tags 2-5)."""
    w = inst.weights
    M = big_m.obj
    objective: dict[str, float] = {V.T: 1.0}
    constant = 0.0
    rows = []
    for r, req in enumerate(inst.requests):
        lam = req.priority
        objective[V.Tr(r)] = lam * w.epsilon
        objective[V.Dr(r)] = lam * w.zeta
        objective[V.y(r)] = -lam * w.eta
        constant += lam * w.eta

        p, d = graph.pickup_node(r), graph.delivery_node(r)
        tp, td = V.t(p), V.t(d)
        up, ud = V.tau(p), V.tau(d)
        rows.append(Constraint("2", (r,), {tp: 1, td: 1, V.y(r): M, V.Tr(r): -1}, LE, M, "lo"))
        rows.append(Constraint("2", (r,), {V.Tr(r): 1, tp: -1, td: -1}, LE, 0.0, "up"))
        rows.append(Constraint("3", (r,), {V.Tr(r): 1, V.y(r): -M}, LE, 0.0))
        rows.append(Constraint("4", (r,), {up: 1, ud: 1, V.y(r): M, V.Dr(r): -1}, LE, M, "lo"))
        rows.append(Constraint("4", (r,), {V.Dr(r): 1, up: -1, ud: -1}, LE, 0.0, "up"))
        rows.append(Constraint("5", (r,), {V.Dr(r): 1, V.y(r): -M}, LE, 0.0))
    return objective, constant, rows


def build_flow(inst: Instance, graph: ExpandedGraph, cat: VariableCatalog) -> list:
    rows = []
    for r, req in enumerate(inst.requests):
        if inst.selective:
            rows.append(Constraint("6", (r,), {V.y(r): 1}, LE, 1.0))
            if req.force_accept:
                rows.append(Constraint("fix-y", (r,), {V.y(r): 1}, EQ, 1.0))
        else:
            rows.append(Constraint("6", (r,), {V.y(r): 1}, EQ, 1.0))

    for r in range(inst.n_requests):
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        coeffs = {V.y(r): 1.0}
        for k in range(inst.n_agents):
            for name in cat.x_into.get((k, p), ()):
                coeffs[name] = -1.0
        rows.append(Constraint("7", (r,), coeffs, EQ, 0.0))

        coeffs = {V.y(r): 1.0}
        for k in range(inst.n_agents):
            for name in cat.x_into.get((k, d), ()):
                coeffs[name] = -1.0
        rows.append(Constraint("8", (r,), coeffs, EQ, 0.0))

    for r in range(inst.n_requests):
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        for k in range(inst.n_agents):
            coeffs: dict[str, float] = {}
            for name in cat.x_into.get((k, p), ()):
                coeffs[name] = 1.0
            for name in cat.x_into.get((k, d), ()):
                coeffs[name] = coeffs.get(name, 0.0) - 1.0
            rows.append(Constraint("9", (r, k), coeffs, EQ, 0.0))

    for st in range(inst.n_stations):
        for visit in range(1, inst.duplicate_visits + 1):
            cur, prev = graph.f_node(st, visit), graph.f_node(st, visit - 1)
            coeffs: dict[str, float] = {}
            for k in range(inst.n_agents):
                for h in graph.ld:
                    coeffs[V.x(k, h, cur)] = 1.0
                    coeffs[V.x(k, h, prev)] = -1.0
            rows.append(Constraint("10", (st, visit), coeffs, LE, 0.0, "order"))
            coeffs = {}
            for k in range(inst.n_agents):
                for h in graph.ld:
                    coeffs[V.x(k, h, prev)] = 1.0
            rows.append(Constraint("10", (st, visit), coeffs, LE, 1.0, "single"))

    for k in range(inst.n_agents):
        v = graph.start_node(k)
        coeffs = {V.x(k, v, j): 1.0 for j in graph.lp}
        rows.append(Constraint("11", (k,), coeffs, LE, 1.0))

    # flow conservation: family 12 at pickups, 13 at deliveries and stations
    for k in range(inst.n_agents):
        for h in [*graph.lp, *graph.ld, *graph.f]:
            coeffs: dict[str, float] = {}
            for name in cat.x_into.get((k, h), ()):
                coeffs[name] = 1.0
            for j in range(graph.n_nodes):
                if graph.admissible(h, j):
                    coeffs[V.x(k, h, j)] = coeffs.get(V.x(k, h, j), 0.0) - 1.0
            rows.append(Constraint("12" if h in graph.lp else "13", (h, k), coeffs,
                                   EQ, 0.0))

    for k, agent in enumerate(inst.agents):
        if agent.terminal_hub is not None:
            hub = graph.hub_node(agent.terminal_hub)
            coeffs = {V.x(k, i, hub): 1.0 for i in list(graph.ld) + list(graph.f)}
            rows.append(Constraint("hub", (k,), coeffs, EQ, 1.0))
    return rows


def build_timing(inst: Instance, graph: ExpandedGraph, big_m: BigM) -> list:
    rows = []
    M = big_m.time
    leg_time, stop_load = graph.leg_time, graph.stop_load

    for j in graph.lp:
        coeffs = {V.t(j): 1.0}
        for k, agent in enumerate(inst.agents):
            v = graph.start_node(k)
            coeffs[V.x(k, v, j)] = -(agent.initial_delay + leg_time[v][j])
        rows.append(Constraint("14", (j,), coeffs, GE, 0.0))

    loc = list(graph.lp) + list(graph.ld)
    for i in loc:
        s_i = inst.requests[stop_load[i][0]].service_time
        for j in loc:
            if not graph.admissible(i, j):
                continue
            coeffs = {V.t(i): 1.0, V.t(j): -1.0}
            for k in range(inst.n_agents):
                coeffs[V.x(k, i, j)] = M
            rows.append(Constraint("15", (i, j), coeffs, LE, M - s_i - leg_time[i][j]))

    # family 16: the route runs from the pickup to the delivery, and every
    # stop on the way only adds time, so the paper's t_d >= t_p + s_r holds
    # with the least time added
    for r, req in enumerate(inst.requests):
        p, d = graph.pickup_node(r), graph.delivery_node(r)
        rows.append(Constraint("16", (r,), {V.t(p): 1.0, V.t(d): -1.0}, LE,
                               -req.service_time - graph.least_time[p][d]))

        node = graph.window_node(r)
        tag = "17" if node == p else "18"
        rows.append(Constraint(tag, (r,), {V.t(node): -1.0, V.tau(node): -1.0}, LE, -req.tw_lo, "lo"))
        rows.append(Constraint(tag, (r,), {V.t(node): 1.0, V.tau(node): -1.0}, LE, req.tw_hi, "up"))

    for i in graph.ld:
        s_i = inst.requests[stop_load[i][0]].service_time
        for j in graph.f:
            coeffs = {V.t(i): 1.0, V.t(j): -1.0}
            for k in range(inst.n_agents):
                coeffs[V.x(k, i, j)] = M
            rows.append(Constraint("19", (i, j), coeffs, LE, M - s_i - leg_time[i][j]))
    for i in graph.f:
        for j in graph.lp:
            coeffs = {V.t(i): 1.0, V.t(j): -1.0,
                      V.xi(i, 1): 1.0, V.xi(i, 2): 1.0, V.xi(i, 3): 1.0}
            for k, agent in enumerate(inst.agents):
                coeffs[V.x(k, i, j)] = M + agent.station_service_time
            rows.append(Constraint("19", (i, j), coeffs, LE, M - leg_time[i][j]))

    for st in range(inst.n_stations):
        for visit in range(1, inst.duplicate_visits + 1):
            cur, prev = graph.f_node(st, visit), graph.f_node(st, visit - 1)
            coeffs = {V.t(prev): 1.0, V.t(cur): -1.0,
                      V.xi(prev, 1): 1.0, V.xi(prev, 2): 1.0, V.xi(prev, 3): 1.0}
            for k, agent in enumerate(inst.agents):
                for h in graph.ld:
                    coeffs[V.x(k, h, prev)] = agent.station_service_time + M
                    coeffs[V.x(k, h, cur)] = M
            rows.append(Constraint("20", (st, visit), coeffs, LE, 2 * M))

    for i in graph.f:
        st, visit = graph.station_of(i)
        w = inst.stations[st].earliest_available
        if visit == 0 and w > 0:
            rows.append(Constraint("omega", (i,), {V.t(i): 1.0}, GE, w))

    for k, agent in enumerate(inst.agents):
        if math.isfinite(agent.max_duration):
            rows.append(Constraint("21", (k,), {V.Tk(k): 1.0}, LE, agent.max_duration))

    for k, agent in enumerate(inst.agents):
        for i in graph.ld:
            s_i = inst.requests[stop_load[i][0]].service_time
            coeffs = {V.t(i): 1.0, V.Tk(k): -1.0}
            for j in graph.hf:
                coeffs[V.x(k, i, j)] = leg_time[i][j] + M
            rows.append(Constraint("22", (i, k), coeffs, LE, M - s_i))
        for i in graph.f:
            coeffs = {V.t(i): 1.0, V.Tk(k): -1.0,
                      V.xi(i, 1): 1.0, V.xi(i, 2): 1.0, V.xi(i, 3): 1.0}
            for j in graph.hf:
                coeffs[V.x(k, i, j)] = leg_time[i][j] + M
            rows.append(Constraint("23", (i, k), coeffs, LE, M - agent.station_service_time))

    for k in range(inst.n_agents):
        rows.append(Constraint("24", (k,), {V.Tk(k): 1.0, V.T: -1.0}, LE, 0.0))

    # "end": an accepted request's route goes on from its delivery to a
    # depot, no sooner than the least time to the nearest one (0 on open
    # routes).  So T >= t_d + s_r + ret_r when y_r = 1; with y_r = 0 the
    # right side drops to t_d - H <= 0.
    H = big_m.horizon
    for r, req in enumerate(inst.requests):
        d = graph.delivery_node(r)
        ret = min((graph.least_time[d][h] for h in graph.hf), default=0.0)
        m_r = H + req.service_time + ret
        rows.append(Constraint("end", (r,), {V.t(d): 1.0, V.y(r): m_r, V.T: -1.0}, LE,
                               m_r - req.service_time - ret))
    return rows


def build_capacity(inst: Instance, graph: ExpandedGraph) -> list:
    rows = []
    loc = list(graph.lp) + list(graph.ld)
    stop_load = graph.stop_load
    for k, agent in enumerate(inst.agents):
        v = graph.start_node(k)
        for cap, u, field, base in (  # field: the signed load's place in stop_load
            (agent.cap_passengers, V.u1, 1, 25),
            (agent.cap_equipment, V.u2, 2, 29),
        ):
            for j in graph.lp:
                q = stop_load[j][field]
                coeffs = {u(j, k): -1.0, V.x(k, v, j): float(cap)}
                for i in graph.f:
                    coeffs[V.x(k, i, j)] = float(cap)
                rows.append(Constraint(str(base), (j, k), coeffs, LE, float(cap) - q))
            for i in loc:
                for j in loc:
                    if not graph.admissible(i, j):
                        continue
                    q = stop_load[j][field]
                    coeffs = {u(i, k): 1.0, u(j, k): -1.0, V.x(k, i, j): float(cap)}
                    rows.append(Constraint(str(base + 1), (i, j, k), coeffs, LE, float(cap) - q))
            for i in graph.ld:
                coeffs = {u(i, k): 1.0}
                for j in list(graph.f) + list(graph.hf):
                    coeffs[V.x(k, i, j)] = float(cap)
                rows.append(Constraint(str(base + 2), (i, k), coeffs, LE, float(cap)))
            for i in loc:
                rows.append(Constraint(str(base + 3), (i, k), {u(i, k): 1.0}, LE, float(cap)))

        q_tilde = agent.combined_cap
        for i in graph.lp:
            coeffs = {V.u1(i, k): 1.0, V.u2(i, k): agent.conversion}
            for j in loc:
                if graph.admissible(i, j):
                    coeffs[V.x(k, i, j)] = q_tilde
            rows.append(Constraint("33", (i, k), coeffs, LE, agent.cap_passengers + q_tilde))
    return rows


def build_energy(inst: Instance, graph: ExpandedGraph) -> list:
    rows = []
    b = inst.battery
    loc = list(graph.lp) + list(graph.ld)
    leg_energy = graph.leg_energy

    (w1, w2, w3), (c1, c2, _) = b.WIDTHS, b.CEILINGS
    for k, agent in enumerate(inst.agents):
        v = graph.start_node(k)
        for j in graph.lp:
            coeffs = {V.phi(j, k): 1.0, V.x(k, v, j): 1.0}
            rows.append(Constraint("34", (j, k), coeffs, LE,
                                   agent.soc_init - b.alpha0 * leg_energy[v][j] + 1.0))

        for i in loc:
            for j in loc:
                if not graph.admissible(i, j):
                    continue
                c = leg_energy[i][j]
                coeffs = {V.phi(j, k): 1.0, V.phi(i, k): -1.0,
                          V.u1(i, k): b.alpha1 * c, V.u2(i, k): b.alpha2 * c,
                          V.x(k, i, j): 1.0}
                rows.append(Constraint("35", (i, j, k), coeffs, LE, 1.0 - b.alpha0 * c))

        for i in graph.ld:
            for j in list(graph.f) + list(graph.hf):
                c = leg_energy[i][j]
                coeffs = {V.phi(j, k): 1.0, V.phi(i, k): -1.0, V.x(k, i, j): 1.0}
                rows.append(Constraint("36", (i, j, k), coeffs, LE, 1.0 - b.alpha0 * c))

        for i in graph.f:
            leave = [V.x(k, i, j) for j in list(graph.lp) + list(graph.hf)]
            coeffs = {V.phi(i, k): -1.0, V.xi(i, 1): -b.beta1, V.xi(i, 2): -b.beta2,
                      V.xi(i, 3): -b.beta3}
            for name in leave:
                coeffs[name] = 1.0
            rows.append(Constraint("37", (i, k), coeffs, LE, 1.0 - agent.soc_target))
            coeffs = {V.phi(i, k): 1.0, V.xi(i, 1): b.beta1, V.xi(i, 2): b.beta2,
                      V.xi(i, 3): b.beta3}
            for name in leave:
                coeffs[name] = 1.0
            rows.append(Constraint("38", (i, k), coeffs, LE, 2.0))

        for i in graph.f:
            for j in list(graph.lp) + list(graph.hf):
                c = leg_energy[i][j]
                coeffs = {V.phi(j, k): 1.0, V.phi(i, k): -1.0,
                          V.xi(i, 1): -b.beta1, V.xi(i, 2): -b.beta2, V.xi(i, 3): -b.beta3,
                          V.x(k, i, j): 1.0}
                rows.append(Constraint("39", (i, j, k), coeffs, LE, 1.0 - b.alpha0 * c))

        for i in list(graph.lp) + list(graph.ld) + list(graph.f) + list(graph.hf):
            rows.append(Constraint("40", (i, k), {V.phi(i, k): 1.0}, GE, agent.soc_min, "lo"))
            rows.append(Constraint("40", (i, k), {V.phi(i, k): 1.0}, LE, 1.0, "up"))

        for j in graph.f:
            enter = {V.x(k, i, j): 1.0 for i in graph.ld}
            rows.append(Constraint("41", (j, k), {V.phi(j, k): 1.0, **enter}, LE, 1.0 + c1, "a"))
            rows.append(Constraint("41", (j, k),
                                   {V.phi(j, k): 1.0, V.xi(j, 1): b.beta1, **enter}, LE, 1.0 + c1, "b"))
            coeffs = {V.phi(j, k): -1.0, V.z(j, 1): w1, V.xi(j, 1): -b.beta1, **enter}
            rows.append(Constraint("41", (j, k), coeffs, LE, 1.0, "c"))
            rows.append(Constraint("41", (j, k),
                                   {V.phi(j, k): 1.0, V.xi(j, 1): b.beta1, V.xi(j, 2): b.beta2,
                                    **enter}, LE, 1.0 + c2, "d-up"))
            coeffs = {V.phi(j, k): -1.0, V.z(j, 2): w2, V.z(j, 1): w1,
                      V.xi(j, 1): -b.beta1, V.xi(j, 2): -b.beta2, **enter}
            rows.append(Constraint("41", (j, k), coeffs, LE, 1.0, "d-lo"))

    for j in graph.f:
        enter_all = {V.x(k, i, j): 1.0 for k in range(inst.n_agents) for i in graph.ld}
        rows.append(Constraint("41", (j,), {V.xi(j, 2): b.beta2, V.z(j, 1): -w2, **enter_all},
                               LE, 1.0, "e"))
        rows.append(Constraint("41", (j,), {V.xi(j, 3): b.beta3, V.z(j, 2): -w3, **enter_all},
                               LE, 1.0, "f"))
        rows.append(Constraint("42", (j,), {V.z(j, 2): 1.0, V.z(j, 1): -1.0}, LE, 0.0))
    return rows


def build_model(inst: Instance, graph: ExpandedGraph | None = None) -> MilpModel:
    """Compose the full model: catalog, objective, and all constraint families."""
    if graph is None:
        graph = expand_graph(inst)
    big_m = compute_big_m(inst, graph)
    cat = build_catalog(inst, graph, big_m)
    objective, constant, rows = build_objective(inst, graph, big_m)
    constraints = list(rows)
    constraints += build_flow(inst, graph, cat)
    constraints += build_timing(inst, graph, big_m)
    constraints += build_capacity(inst, graph)
    constraints += build_energy(inst, graph)

    for c in constraints:
        for name in c.coeffs:
            if name not in cat:
                raise AssertionError(f"constraint {c.tag}{c.index} references unknown {name}")
    return MilpModel(
        instance=inst, graph=graph, catalog=cat, constraints=constraints,
        objective=objective, objective_constant=constant, big_m=big_m,
    )
