"""Exact route construction: depth-first branch and bound plus a brute-force
reference enumerator.

Branching fixes one request at a time (highest priority first): either reject
it or insert its pickup/delivery pair into one agent's chain at every
position pair.  Interior nodes carry a timing-only LP relaxation as lower
bound; that bound is only valid when arc costs satisfy the triangle
inequality, so on non-metric instances the bound degrades to the rejection
penalties already committed.  Charging stops and terminal depots are decided
at the leaves, where combinations are screened with a best-case state-of-charge
walk before the full scheduling LP runs.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

from .graph import ExpandedGraph, expand_graph
from .instance import Instance
from .model import compute_big_m
from .scheduling import ScheduleResult, schedule_routes
from .solution import Solution

_EPS = 1e-9


@dataclass
class SearchConfig:
    node_limit: int | None = None
    time_limit: float | None = None


@dataclass
class SearchResult:
    status: str  # optimal | feasible | infeasible | limit
    solution: Solution | None
    objective: float
    best_bound: float
    gap: float
    nodes: int
    leaves: int


class _LimitReached(Exception):
    pass


def request_order(inst: Instance):
    return sorted(range(inst.n_requests),
                  key=lambda r: (-inst.requests[r].priority, r))


def _departure_loads(inst: Instance, graph: ExpandedGraph, chains):
    """node -> (passengers, equipment) on board when leaving it, for chains of
    pickups and deliveries."""
    loads = {}
    for chain in chains:
        u1 = u2 = 0.0
        for node in chain:
            req = inst.requests[graph.gamma(node)]
            sign = graph.mu(node)
            u1 += sign * req.passengers
            u2 += sign * req.equipment
            loads[node] = (u1, u2)
    return loads


def _charging_gaps(graph: ExpandedGraph, chains, loads):
    """(agent, position) pairs where a charging stop may be inserted:
    directly after a delivery that empties the vehicle."""
    return [(k, pos) for k, chain in enumerate(chains) for pos, node in enumerate(chain)
            if graph.is_delivery(node) and loads[node] == (0.0, 0.0)]


def _insertions(chain, p, d):
    """All chains obtained by inserting pickup p and delivery d (p first)."""
    out = []
    for ip in range(len(chain) + 1):
        with_p = chain[:ip] + [p] + chain[ip:]
        for jd in range(ip + 1, len(with_p) + 1):
            out.append(with_p[:jd] + [d] + with_p[jd:])
    return out


class _Search:
    def __init__(self, inst: Instance, graph: ExpandedGraph, config: SearchConfig):
        self.inst = inst
        self.graph = graph
        self.config = config
        self.big_m = compute_big_m(inst, graph)
        self.order = request_order(inst)
        self.nodes = 0
        self.leaves = 0
        self.best: ScheduleResult | None = None
        self.best_obj = math.inf
        self.frontier: list[float] = []
        self.t0 = time.monotonic()

    # -- limits ---------------------------------------------------------------

    def _tick(self):
        self.nodes += 1
        cfg = self.config
        if cfg.node_limit is not None and self.nodes > cfg.node_limit:
            raise _LimitReached
        self._check_time()

    def _check_time(self):
        cfg = self.config
        if cfg.time_limit is not None and time.monotonic() - self.t0 > cfg.time_limit:
            raise _LimitReached

    # -- lower bound ----------------------------------------------------------

    def _penalty(self, accepted, requests):
        return sum(self.inst.requests[r].priority * self.inst.weights.eta
                   for r in requests if not accepted[r])

    def _bound(self, chains, accepted, depth):
        """Lower bound for the subtree; math.inf means provably infeasible."""
        if self.graph.metric:
            res = schedule_routes(self.inst, self.graph, chains, accepted,
                                  partial=True, big_m=self.big_m)
            if not res.feasible:
                return math.inf
            return res.objective + self._penalty(accepted, self.order[:depth])
        # non-metric: only the combinatorial screen and sunk penalties are safe
        from .scheduling import check_routes
        reason, _ = check_routes(self.inst, self.graph, chains, accepted, partial=True)
        if reason is not None:
            return math.inf
        return self._penalty(accepted, self.order[:depth])

    # -- leaf evaluation --------------------------------------------------------

    def _hub_options(self, chains):
        opts = []
        for k, chain in enumerate(chains):
            agent = self.inst.agents[k]
            if not chain:
                if agent.terminal_hub is not None:
                    return None  # a pinned depot cannot be reached by an idle agent
                opts.append([None])
            elif agent.terminal_hub is not None:
                opts.append([self.graph.hub_node(agent.terminal_hub)])
            else:
                opts.append([self.graph.hub_node(h)
                             for h in range(len(self.inst.final_depots))])
        return opts

    def _precheck_soc(self, chains_full, loads):
        """Best-case walk: can the route survive even with full recharges?
        *loads* are the leaf's departure loads; the start, stations and
        depots carry none."""
        inst, g = self.inst, self.graph
        b = inst.battery
        for k, chain in enumerate(chains_full):
            agent = inst.agents[k]
            soc = agent.soc_init
            prev = g.start_node(k)
            for node in chain:
                soc -= b.drain(g.energy_cost(prev, node), loads.get(prev, (0.0, 0.0)))
                if soc < agent.soc_min - _EPS:
                    return False
                if g.is_station(node):
                    soc = 1.0
                prev = node
        return True

    def _slot_orders(self, gaps, gap_ids):
        """Duplicate-slot permutations for one station's visits.  Two visits
        by the same agent must take slots in route order; only cross-agent
        interleavings are genuine choices."""
        out = []
        for perm in itertools.permutations(range(len(gap_ids))):
            ok = True
            for a in range(len(gap_ids)):
                ka, pa = gaps[gap_ids[a]]
                for b in range(a + 1, len(gap_ids)):
                    kb, pb = gaps[gap_ids[b]]
                    if ka == kb and (pa < pb) != (perm[a] < perm[b]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(perm)
        return out

    def evaluate_leaf(self, chains, accepted, inst: Instance | None = None):
        """Best complete schedule for fixed chains: enumerate depots, charging
        stops, and duplicate orderings.  The schedule meets the acceptance
        rules of *inst*, by default the instance searched."""
        inst, g = inst or self.inst, self.graph
        hub_opts = self._hub_options(chains)
        if hub_opts is None:
            return None
        loads = _departure_loads(inst, g, chains)
        gaps = _charging_gaps(g, chains, loads)
        max_visits = inst.duplicate_visits + 1
        best: ScheduleResult | None = None
        feasible_sets: list[frozenset] = []

        for count in range(0, min(len(gaps), inst.n_stations * max_visits) + 1):
            for gap_subset in itertools.combinations(range(len(gaps)), count):
                for stations in itertools.product(range(inst.n_stations), repeat=count):
                    per_station: dict[int, list[int]] = {}
                    for gi, st in zip(gap_subset, stations):
                        per_station.setdefault(st, []).append(gi)
                    if any(len(v) > max_visits for v in per_station.values()):
                        continue
                    combo_key = frozenset(zip(gap_subset, stations))
                    if g.metric and any(fs < combo_key for fs in feasible_sets):
                        continue  # strict superset of a cheaper feasible combo
                    found = self._eval_combo(inst, chains, accepted, hub_opts, gaps,
                                             loads, per_station)
                    if found is None:
                        continue
                    feasible_sets.append(combo_key)
                    if best is None or found.objective < best.objective - _EPS:
                        best = found
        return best

    def _eval_combo(self, inst, chains, accepted, hub_opts, gaps, loads, per_station):
        """Try one charging-stop placement with every duplicate ordering and
        depot choice; returns the best feasible schedule or None."""
        g = self.graph
        best = None
        dup_orders = [self._slot_orders(gaps, v) for v in per_station.values()]
        stations = list(per_station)
        for ordering in itertools.product(*dup_orders):
            self._check_time()
            node_at_gap: dict[int, int] = {}
            for st, perm in zip(stations, ordering):
                for slot, gi in zip(perm, per_station[st]):
                    node_at_gap[gi] = g.f_node(st, slot)
            for hubs in itertools.product(*hub_opts):
                full = [list(c) for c in chains]
                inserts: dict[int, list[int]] = {}
                for gi, node in node_at_gap.items():
                    k, pos = gaps[gi]
                    inserts.setdefault(k, []).append((pos, node))
                for k, items in inserts.items():
                    for pos, node in sorted(items, reverse=True):
                        full[k].insert(pos + 1, node)
                for k, hub in enumerate(hubs):
                    if hub is not None:
                        full[k].append(hub)
                if not self._precheck_soc(full, loads):
                    continue
                res = schedule_routes(inst, g, full, accepted, big_m=self.big_m)
                if res.feasible and (best is None or res.objective < best.objective - _EPS):
                    best = res
        return best

    # -- tree walk -----------------------------------------------------------

    def run(self):
        chains = [[] for _ in range(self.inst.n_agents)]
        accepted = [False] * self.inst.n_requests
        try:
            self._greedy_incumbent()
            self._visit(chains, accepted, 0)
            status = "optimal" if self.best is not None else "infeasible"
            bound = self.best_obj
        except _LimitReached:
            status = "feasible" if self.best is not None else "limit"
            bound = min(self.frontier + [self.best_obj])
        objective = self.best_obj
        gap = 0.0
        if self.best is not None and objective > 0:
            gap = max(0.0, (objective - bound) / max(1e-9, abs(objective)))
        elif self.best is None:
            gap = math.inf
        solution = None
        if self.best is not None:
            solution = self.best.solution
            solution.status = status
        return SearchResult(status=status, solution=solution, objective=objective,
                            best_bound=bound, gap=gap, nodes=self.nodes,
                            leaves=self.leaves)

    def _visit(self, chains, accepted, depth):
        self._tick()
        if depth == len(self.order):
            self.leaves += 1
            res = self.evaluate_leaf(chains, accepted)
            if res is not None and res.objective < self.best_obj - _EPS:
                self.best = res
                self.best_obj = res.objective
            return

        r = self.order[depth]
        req = self.inst.requests[r]
        p, d = self.graph.pickup_node(r), self.graph.delivery_node(r)
        children = []
        for k in range(self.inst.n_agents):
            for new_chain in _insertions(chains[k], p, d):
                cand = list(chains)
                cand[k] = new_chain
                acc = list(accepted)
                acc[r] = True
                bnd = self._bound(cand, acc, depth + 1)
                if bnd < self.best_obj - _EPS:
                    children.append((bnd, k, cand, acc))
        if self.inst.selective and not req.force_accept:
            acc = list(accepted)
            acc[r] = False
            bnd = self._bound(chains, acc, depth + 1)
            if bnd < self.best_obj - _EPS:
                children.append((bnd, self.inst.n_agents, list(chains), acc))

        children.sort(key=lambda item: (item[0], item[1]))
        for idx, (bnd, _, cand, acc) in enumerate(children):
            if bnd >= self.best_obj - _EPS:
                self.frontier.extend(c[0] for c in children[idx:])
                break
            try:
                self._visit(cand, acc, depth + 1)
            except _LimitReached:
                self.frontier.extend(c[0] for c in children[idx + 1:])
                raise

    _GREEDY_MOVES = 6  # insertion candidates scheduled per request

    def _greedy_incumbent(self):
        """Insert requests one at a time, keeping the cheapest placement that
        yields a complete feasible schedule.  Every schedule found along the
        way (undecided requests treated as rejected) is itself a feasible
        incumbent, which is what gives the tree search teeth: once a mostly
        accepting incumbent exists, any rejection branch is dominated by its
        penalty and dies immediately.  A plan that leaves out a mandatory
        request (must-serve, or any in a non-selective instance) is scored on a
        copy of the instance that lets every request be rejected, and is no
        incumbent."""
        inst = self.inst
        chains = [[] for _ in range(inst.n_agents)]
        accepted = [False] * inst.n_requests
        mandatory = [r for r, req in enumerate(inst.requests)
                     if not inst.selective or req.force_accept]
        scoring = inst
        if mandatory:
            scoring = replace(inst, selective=True, requests=tuple(
                replace(req, force_accept=False) for req in inst.requests))
        else:
            res = self.evaluate_leaf(chains, accepted)
            if res is not None and res.objective < self.best_obj - _EPS:
                self.best = res
                self.best_obj = res.objective

        for r in self.order:
            p, d = self.graph.pickup_node(r), self.graph.delivery_node(r)
            acc = list(accepted)
            acc[r] = True
            moves = []
            for k in range(inst.n_agents):
                for new_chain in _insertions(chains[k], p, d):
                    cand = list(chains)
                    cand[k] = new_chain
                    bnd = self._bound(cand, acc, inst.n_requests)
                    if math.isfinite(bnd):
                        moves.append((bnd, k, cand))
            moves.sort(key=lambda m: (m[0], m[1]))
            chosen = None
            for _, _, cand in moves[:self._GREEDY_MOVES]:
                res = self.evaluate_leaf(cand, acc, scoring)
                if res is not None and (chosen is None
                                        or res.objective < chosen[0] - _EPS):
                    chosen = (res.objective, cand, res)
            if chosen is not None:
                chains = chosen[1]
                accepted = acc
                if chosen[0] < self.best_obj - _EPS and all(acc[q] for q in mandatory):
                    self.best = chosen[2]
                    self.best_obj = chosen[0]
            elif r in mandatory:
                return  # a mandatory request has no greedy placement


def branch_and_bound(inst: Instance, graph: ExpandedGraph | None = None,
                     config: SearchConfig | None = None) -> SearchResult:
    if graph is None:
        graph = expand_graph(inst)
    return _Search(inst, graph, config or SearchConfig()).run()


# -- reference enumerator ------------------------------------------------------

ORACLE_MAX_REQUESTS = 4
ORACLE_MAX_AGENTS = 2
ORACLE_MAX_STATION_NODES = 2


def _interleavings(pairs):
    """All orderings of the given (pickup, delivery) pairs with each pickup
    ahead of its delivery."""
    if not pairs:
        return [[]]
    out = []

    def rec(seq, remaining_p, onboard):
        if not remaining_p and not onboard:
            out.append(list(seq))
            return
        for idx, (p, d) in enumerate(remaining_p):
            seq.append(p)
            rec(seq, remaining_p[:idx] + remaining_p[idx + 1:], onboard + [(p, d)])
            seq.pop()
        for idx, (p, d) in enumerate(onboard):
            seq.append(d)
            rec(seq, remaining_p, onboard[:idx] + onboard[idx + 1:])
            seq.pop()

    rec([], list(pairs), [])
    return out


def exhaustive_oracle(inst: Instance, graph: ExpandedGraph | None = None):
    """Provably optimal reference answer by complete enumeration.

    Only intended for tiny instances; raises ValueError beyond the caps.
    Ties are broken toward the lexicographically smallest route encoding."""
    if graph is None:
        graph = expand_graph(inst)
    n_station_nodes = inst.n_stations * (inst.duplicate_visits + 1)
    if (inst.n_requests > ORACLE_MAX_REQUESTS or inst.n_agents > ORACLE_MAX_AGENTS
            or n_station_nodes > ORACLE_MAX_STATION_NODES):
        raise ValueError("oracle caps exceeded")

    big_m = compute_big_m(inst, graph)
    best = None
    best_key = None

    def consider(chains, accepted):
        nonlocal best, best_key
        res = schedule_routes(inst, graph, chains, accepted, big_m=big_m)
        if not res.feasible:
            return
        key = (round(res.objective, 9), tuple(tuple(c) for c in chains))
        if (best is None or res.objective < best.objective - 1e-9
                or (abs(res.objective - best.objective) <= 1e-9 and key < best_key)):
            best, best_key = res, key

    requests = list(range(inst.n_requests))
    station_nodes = [graph.f_node(st, v) for st in range(inst.n_stations)
                     for v in range(inst.duplicate_visits + 1)]

    for mask in range(1 << inst.n_requests):
        accepted = [bool(mask >> r & 1) for r in requests]
        if any(not accepted[r] and inst.requests[r].force_accept for r in requests):
            continue
        if not inst.selective and not all(accepted):
            continue
        chosen = [r for r in requests if accepted[r]]
        for owners in itertools.product(range(inst.n_agents), repeat=len(chosen)):
            per_agent = [[] for _ in range(inst.n_agents)]
            for r, k in zip(chosen, owners):
                per_agent[k].append((graph.pickup_node(r), graph.delivery_node(r)))
            for seqs in itertools.product(*[_interleavings(pairs)
                                            for pairs in per_agent]):
                base = [list(s) for s in seqs]
                # every way to scatter station duplicates after zero-load stops
                slots = _charging_gaps(graph, base, _departure_loads(inst, graph, base))
                for n_st in range(0, min(len(slots), len(station_nodes)) + 1):
                    for slot_pick in itertools.combinations(slots, n_st):
                        for nodes in itertools.permutations(station_nodes, n_st):
                            full0 = [list(c) for c in base]
                            for (k, pos), node in sorted(zip(slot_pick, nodes),
                                                         reverse=True):
                                full0[k].insert(pos + 1, node)
                            hub_lists = []
                            ok = True
                            for k, chain in enumerate(full0):
                                agent = inst.agents[k]
                                if not chain:
                                    if agent.terminal_hub is not None:
                                        ok = False
                                    hub_lists.append([None])
                                elif agent.terminal_hub is not None:
                                    hub_lists.append(
                                        [graph.hub_node(agent.terminal_hub)])
                                else:
                                    hub_lists.append(
                                        [graph.hub_node(h) for h in
                                         range(len(inst.final_depots))])
                            if not ok:
                                continue
                            for hubs in itertools.product(*hub_lists):
                                full = [list(c) for c in full0]
                                for k, hub in enumerate(hubs):
                                    if hub is not None:
                                        full[k].append(hub)
                                consider(full, accepted)
    if best is None:
        return SearchResult(status="infeasible", solution=None, objective=math.inf,
                            best_bound=math.inf, gap=math.inf, nodes=0, leaves=0)
    best.solution.status = "optimal"
    return SearchResult(status="optimal", solution=best.solution,
                        objective=best.objective, best_bound=best.objective,
                        gap=0.0, nodes=0, leaves=0)
