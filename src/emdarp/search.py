"""Exact route construction: depth-first branch and bound plus a brute-force
reference enumerator.

Branching fixes one request at a time (highest priority first): either
reject it or insert its pickup/delivery pair into one agent's chain at every
position pair where that chain passes ``scheduling.load_violation``.  For
each pickup position the delivery moves later until the first overload,
since every later delivery overloads too.
Interior nodes are bounded by the exact timing DP of ``timing_bound`` plus
the rejection penalties already committed, and a child whose changed chain
no completion can drive within its state-of-charge floor is cut where it
is made (``_Search._energy_ok``, counted in ``energy_pruned``).  Both price
a partial chain's legs at their least costs, which a completion's route
between two chain stops never undercuts, metric costs or not.  Charging
stops and terminal depots are decided at the leaves.  There each agent's
stop sets pass a best-case state-of-charge walk on their own, per depot;
each depot that passes keeps the DP curve of its completed chain, each
station taking the least charging time that walk allows.  Each (agent,
chain) is walked once per solve, so each curve serves every leaf that
shares the chain and every slot order of its stations.

A leaf is skipped whole before any placement is enumerated when the agents'
curves over their pickups and deliveries (the node bound's), merged from
the latest of each agent's earliest return on (the least first breakpoint
of its end curves), cannot beat the best plan so far (``leaf_cut``).  The
survivors are combined across agents and given duplicate slots, and each
placement merges its agents' end curves into a lower bound on its LP.
Where a station serves two or more agents, a later slot waits for the
earlier one: ``scheduling.slot_releases`` gives each visit the earliest
time its slot frees, and each agent that waits is re-timed from those
releases.  Every LP schedule keeps the slot order and charges at least the
least time, so this bound stays below the LP too.

A placement whose bound cannot beat the best plan so far is skipped
(``leaf_screened``).  The others wait in one queue keyed by (bound,
discovery order): after each leaf that queued one, the search solves the
queued LP of least bound, and it solves the rest once the tree is done,
skipping each whose bound has reached the incumbent (also
``leaf_screened``).  The LPs solved are ``leaf_lps``, with their simplex
pivots in ``leaf_pivots``, so the simplex runs only at the leaves.  Of two
plans whose objectives tie within the tolerance, the one found first in
depth-first order stays, whichever LP the queue solves first
(``_Search._beats``), so every answer is the one that solving each LP as
soon as it is found would give.

The incumbent comes only from the tree: children are visited cheapest bound
first, so the first dive reaches a complete plan within a few nodes, and
each better leaf replaces it.  A node or time limit returns ``feasible``
with the smallest bound left unexplored, queued LPs included, or ``limit``
when no complete plan was found yet.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

from .graph import ExpandedGraph, expand_graph
from .instance import Instance
from .model import compute_big_m
from .scheduling import (
    ScheduleResult, agent_curve, load_violation, schedule_routes, slot_releases, soc_ceilings,
    timing_bound,
)
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
    nodes: int  # nodes visited; a node limit stops before counting one more
    leaves: int
    leaf_lps: int  # schedule_routes calls made at the leaves
    leaf_pivots: int  # simplex pivots of those calls' LPs
    leaf_screened: int  # (placement, depots) pairs the timing screens skipped
    leaf_cut: int  # leaves the earliest-return screen ruled out before any placement
    energy_pruned: int  # children cut at insertion by the energy screen (_energy_ok)


class _LimitReached(Exception):
    pass


def request_order(inst: Instance):
    return sorted(range(inst.n_requests),
                  key=lambda r: (-inst.requests[r].priority, r))


def _charging_gaps(graph: ExpandedGraph, chain, loads):
    """Positions in *chain* after which a charging stop may be inserted:
    directly after a delivery that empties the vehicle."""
    return [pos for pos, node in enumerate(chain)
            if node in graph.ld and loads[node] == (0.0, 0.0)]


class _Search:
    def __init__(self, inst: Instance, graph: ExpandedGraph, config: SearchConfig):
        self.inst = inst
        self.graph = graph
        self.config = config
        self.big_m = compute_big_m(inst, graph)
        self.order = request_order(inst)
        self.nodes = 0
        self.leaves = 0
        self.leaf_lps = 0
        self.leaf_pivots = 0
        self.leaf_screened = 0
        self.leaf_cut = 0
        self.energy_pruned = 0
        self.best: ScheduleResult | None = None
        self.best_obj = math.inf
        self.best_found = math.inf  # the incumbent's place in the discovery order
        self.open_bound = math.inf  # least bound of a subtree left unexplored
        # (bound, discovery order, complete routing, accepted) of each leaf LP
        # that passed every screen and is not solved yet
        self.queue: list = []
        self.found = 0  # leaf LPs queued so far: the next one's discovery order
        # (agent, chain of pickups and deliveries) -> agent_curve, legs at their least
        self.curves: dict = {}
        self.stop_sets: dict = {}  # (agent, leaf chain) -> _agent_stop_sets
        # the depots each agent may end at: its pinned depot, else every depot
        self.hubs = [list(graph.hf) if agent.terminal_hub is None
                     else [graph.hub_node(agent.terminal_hub)] for agent in inst.agents]
        # per node v, over each station's slot-0 node f (duplicates share its
        # base_of costs): the most charge left on reaching v out of a station,
        # and the least an empty vehicle drains from v to a station
        slot0 = [graph.f_node(st, 0) for st in range(inst.n_stations)]
        alpha0, least = inst.battery.alpha0, graph.least_energy
        self.refill = [max((1.0 - alpha0 * least[f][v] for f in slot0), default=-math.inf)
                       for v in range(graph.n_nodes)]
        self.reach = [min((alpha0 * least[v][f] for f in slot0), default=math.inf)
                      for v in range(graph.n_nodes)]
        self.t0 = time.monotonic()

    # -- limits ---------------------------------------------------------------

    def _tick(self):
        if self.config.node_limit is not None and self.nodes >= self.config.node_limit:
            raise _LimitReached
        self._check_time()
        self.nodes += 1

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
        penalty = self._penalty(accepted, self.order[:depth])
        return timing_bound(self._known(self.curves, k, chain, self._curve)
                            for k, chain in enumerate(chains) if chain) + penalty

    def _curve(self, k, chain):
        return agent_curve(self.inst, self.graph, k, chain, self.big_m.horizon)

    def _known(self, table: dict, k, chain, walk):
        """``walk(k, chain)``, once per (agent, chain), kept in *table*."""
        key = (k, tuple(chain))
        if key not in table:
            table[key] = walk(k, chain)
        return table[key]

    def _energy_ok(self, k, chain, loads):
        """False when no completion of agent *k*'s *chain* of pickups and
        deliveries (departure *loads* as ``load_violation`` records them)
        keeps its state of charge at or above ``soc_min``.

        The walk keeps, at each node, the highest SoC any completion can
        arrive with: ``soc_init`` at the start, less each leg's
        ``BatteryModel.drain`` of its least energy cost (``least_energy``)
        at the chain's departure load; where the chain runs empty (the start
        included) and some station is reachable at or above ``soc_min``
        (``reach``), also up to ``refill`` at the next node.  At the end some
        allowed depot must be reached, directly or through a station.

        Validity.  A completion inserts more requests, then charging stops,
        then a depot; the chain's nodes keep their order.  Between two
        consecutive chain nodes a and b the completion carries at least the
        chain's load after a, since inserted requests only add load, so it
        stops at a station there only if the chain runs empty after a (or
        before its first node).  Its path from a to b costs at least their
        least energy cost, whatever the costs are; ``drain`` is linear in
        the cost and never falls with the load (validation keeps ``alpha1``
        and ``alpha2`` above 0), so it drains at least the walk's leg; with
        stations in between, at least ``alpha0`` times the least cost from a
        to the first station f and from the last one f' to b, which charges
        to at most 1.0.  So each value the walk keeps is at least the
        completion's SoC there, and a complete chain whose leaf has a
        placement that passes ``soc_ceilings`` passes here too."""
        b, least = self.inst.battery, self.graph.least_energy
        reach, refill = self.reach, self.refill
        agent = self.inst.agents[k]
        floor = agent.soc_min - _EPS
        soc, prev = agent.soc_init, self.graph.start_node(k)
        for node in chain:
            load = loads.get(prev, (0.0, 0.0))
            via_station = load == (0.0, 0.0) and soc - reach[prev] >= floor
            soc -= b.drain(least[prev][node], load)
            if via_station:
                soc = max(soc, refill[node])
            if soc < floor:
                return False
            prev = node
        via_station = soc - reach[prev] >= floor  # every placed request is delivered
        return any(soc - b.drain(least[prev][hub], loads.get(prev, (0.0, 0.0))) >= floor
                   or (via_station and refill[hub] >= floor) for hub in self.hubs[k])

    # -- leaf evaluation --------------------------------------------------------

    def _agent_stop_sets(self, k, chain):
        """(stops, ends) for each set of (position, station) stops in the
        charging gaps of agent *k*'s *chain* whose best-case SoC walk
        (``soc_ceilings``) reaches some of the agent's depots (``hubs``), with
        each such (depot, ``agent_curve`` of the completed chain, the walk)
        in *ends*.  An idle agent has the one option ``([], [(None, None,
        ())])``, or none when its depot is pinned.  A stop is walked and
        timed as slot 0 of its station, which is exact: every duplicate has
        its station's base-node costs (``base_of``), and the DP has no
        slot-order or opening rows; ``evaluate_leaf`` adds the slot order."""
        inst, g, horizon = self.inst, self.graph, self.big_m.horizon
        agent = inst.agents[k]
        if not chain:
            return [] if agent.terminal_hub is not None else [([], [(None, None, ())])]
        loads = {}  # every leaf chain passed load_violation at insertion
        load_violation(inst, g, k, chain, loads)
        positions = _charging_gaps(g, chain, loads)
        floor = agent.soc_min - _EPS
        out = []
        for count in range(min(len(positions), len(g.f)) + 1):
            for picked in itertools.combinations(positions, count):
                for stations in itertools.product(range(inst.n_stations), repeat=count):
                    stops = list(zip(picked, stations))
                    route = list(chain)
                    for pos, st in reversed(stops):
                        route.insert(pos + 1, g.f_node(st, 0))
                    ends = []
                    for full in (route + [hub] for hub in self.hubs[k]):
                        socs = soc_ceilings(inst, g, k, full, loads, floor)
                        if socs[-1] >= floor:
                            ends.append((full[-1], agent_curve(inst, g, k, full, horizon, socs),
                                         socs))
                    if ends:
                        out.append((stops, ends))
        return tuple(out)  # kept all solve long: a tuple is the smaller record

    def _placements(self, per_agent):
        """Every charging placement of a leaf whose agents have the
        ``_agent_stop_sets`` *per_agent*, as a list of ((agent, position)
        gap, station node) pairs with the ends left to each agent: by stop
        count, then gap subset, then the station of each picked gap, then
        the duplicate slots of each station in order of first appearance.  A
        station takes its slots from the front, and one agent's visits to it
        take increasing slots: gaps are in route order, so only cross-agent
        interleavings are choices."""
        max_visits = self.inst.duplicate_visits + 1
        combos = []
        for parts in itertools.product(*per_agent):
            stops = [((k, pos), st) for k, (own, _) in enumerate(parts) for pos, st in own]
            stations = [st for _, st in stops]
            if all(stations.count(st) <= max_visits for st in stations):
                # gaps sort by (agent, position), which is route order
                combos.append(((len(stops), [gap for gap, _ in stops], stations),
                               stops, [ends for _, ends in parts]))
        combos.sort(key=lambda combo: combo[0])
        for _, stops, ends in combos:
            per_station: dict[int, list] = {}
            for gap, st in stops:
                per_station.setdefault(st, []).append(gap)
            slot_choices = []
            for st, visits in per_station.items():
                same_agent = [(a, b) for a, b in
                              itertools.combinations(range(len(visits)), 2)
                              if visits[a][0] == visits[b][0]]
                slot_choices.append(
                    [[(gap, self.graph.f_node(st, slot)) for gap, slot in zip(visits, perm)]
                     for perm in itertools.permutations(range(len(visits)))
                     if all(perm[a] < perm[b] for a, b in same_agent)])
            for parts in itertools.product(*slot_choices):
                yield [pair for part in parts for pair in part], ends

    def evaluate_leaf(self, chains, accepted):
        """Screen the placements and depots of the leaf *chains* that pass the
        SoC walks, and queue the leaf LP of each that passes every screen
        (``_solve_next``).  A pair whose bound plus the rejection penalties
        cannot beat the incumbent is skipped and counted in
        ``leaf_screened``, and a leaf whose least such bound cannot is
        skipped whole and counted in ``leaf_cut``.

        A pair's bound merges the ``agent_curve`` of each agent's completed
        chain, which its end keeps (``_agent_stop_sets``).  Where a station
        serves two or more agents, each agent that a slot release delays
        (``slot_releases``) is re-timed from its releases
        (``_released_bound``).  Every LP schedule reaches each station visit
        at or after its release, so either bound is at most the pair's LP
        optimum less the penalties, and a skipped pair cannot beat the
        incumbent.

        Leaf cut.  The agents' curves over their pickups and deliveries (the
        node bound's, kept in ``curves``), merged with a makespan no earlier
        than the latest of each agent's least earliest return over its ends
        (an end curve's first breakpoint, ``timing_bound``'s *earliest*),
        bound every pair of the leaf: ``timing_bound`` never falls when
        *earliest* rises, and with the pair's own latest earliest return it
        is at most the pair's merged end curves.  So no pair of a cut leaf
        can beat the incumbent."""
        inst, g = self.inst, self.graph
        penalty = self._penalty(accepted, range(inst.n_requests))
        per_agent = [self._known(self.stop_sets, k, chain, self._agent_stop_sets)
                     for k, chain in enumerate(chains)]
        if not all(per_agent):
            return  # an agent reaches no depot: no placement
        own = [self._known(self.curves, k, chain, self._curve)
               for k, chain in enumerate(chains) if chain]
        leaf_earliest = max((min(math.inf if curve is None else curve[0][0]
                                 for _, ends in sets for _, curve, _ in ends)
                             for sets, chain in zip(per_agent, chains) if chain), default=0.0)
        if timing_bound(own, leaf_earliest) + penalty >= self.best_obj - _EPS:
            self.leaf_cut += 1
            return
        before = self.found
        for placement, agent_ends in self._placements(per_agent):
            self._check_time()
            routed = [list(c) for c in chains]
            for (k, pos), node in sorted(placement, reverse=True):
                routed[k].insert(pos + 1, node)
            # some station has visitors from two or more agents
            users = {(g.station_of(node)[0], k) for (k, _), node in placement}
            shared = len(users) > len({st for st, _ in users})
            for ends in itertools.product(*agent_ends):
                full = [c if hub is None else c + [hub] for c, (hub, _, _) in zip(routed, ends)]
                bound = timing_bound(curve for hub, curve, _ in ends if hub is not None) + penalty
                if shared and bound < self.best_obj - _EPS:
                    bound = max(bound, self._released_bound(full, ends) + penalty)
                if bound >= self.best_obj - _EPS:
                    self.leaf_screened += 1
                    continue
                self._enqueue(bound, full, accepted)
        if self.found > before:
            self._solve_next()

    def _released_bound(self, full, ends):
        """``timing_bound`` of the complete routing *full*, each agent that a
        slot release delays re-timed from its releases, the others taking
        the curves of their *ends*; -inf when none does or the releases never
        settle (the plain screen has run already)."""
        releases = slot_releases(self.inst, self.graph, full, [socs for _, _, socs in ends])
        if releases is None or not any(releases):
            return -math.inf
        return timing_bound(
            curve if not releases[k] else agent_curve(self.inst, self.graph, k, full[k],
                                                      self.big_m.horizon, socs, releases[k])
            for k, (hub, curve, socs) in enumerate(ends) if hub is not None)

    def _enqueue(self, bound, full, accepted):
        heapq.heappush(self.queue, (bound, self.found, full, accepted))
        self.found += 1

    def _beats(self, value, found):
        """Whether a plan of objective at least *value*, queued *found*-th,
        may replace the incumbent: it is lower by more than the tolerance,
        or it is no higher by more than the tolerance and was queued first.

        Tie rule.  Leaves are visited depth-first and a leaf queues its
        pairs in ``_placements`` order, so the discovery order is the order
        in which the search would price every pair if it solved each LP as
        soon as it is found, keeping a new plan only when it is lower by more
        than the tolerance.  That keeps, of the plans within the tolerance
        of the least objective, the first found; so does this rule, whatever
        order the queue solves them in.  A pair being found now comes after
        the incumbent in that order, so for it the rule is the plain test,
        which the screens and the tree's node bounds apply."""
        return (value < self.best_obj - _EPS
                or (found < self.best_found and value <= self.best_obj + _EPS))

    def _solve_next(self):
        """Solve the queued leaf LP of least bound, ties by discovery order,
        that can still beat the incumbent (``_beats``), and keep its plan if
        it does; the ones popped before it cannot and count as screened."""
        while self.queue:
            bound, found, full, accepted = heapq.heappop(self.queue)
            if not self._beats(bound, found):
                self.leaf_screened += 1
                continue
            self.leaf_lps += 1
            res = schedule_routes(self.inst, self.graph, full, accepted, big_m=self.big_m)
            self.leaf_pivots += res.pivots
            if res.feasible and self._beats(res.objective, found):
                self.best, self.best_obj, self.best_found = res, res.objective, found
            return

    # -- tree walk -----------------------------------------------------------

    def run(self):
        chains = [[] for _ in range(self.inst.n_agents)]
        accepted = [False] * self.inst.n_requests
        try:
            self._visit(chains, accepted, 0)
            while self.queue:
                self._check_time()
                self._solve_next()
            status = "optimal" if self.best is not None else "infeasible"
            bound = self.best_obj
        except _LimitReached:
            status = "feasible" if self.best is not None else "limit"
            # a queued LP is at least its bound
            self.open_bound = min([self.open_bound, *(entry[0] for entry in self.queue)])
            # no open bound means the root never branched; every objective
            # term is nonnegative, so 0 is then the only bound
            bound = min(self.open_bound, self.best_obj) if self.open_bound < math.inf else 0.0
        solution, gap = None, math.inf
        if self.best is not None:
            solution = self.best.solution
            solution.status = status
            gap = (self.best_obj - bound) / max(1e-9, self.best_obj)  # bound <= objective
        return SearchResult(status=status, solution=solution, objective=self.best_obj,
                            best_bound=bound, gap=gap, nodes=self.nodes,
                            leaves=self.leaves, leaf_lps=self.leaf_lps,
                            leaf_pivots=self.leaf_pivots,
                            leaf_screened=self.leaf_screened, leaf_cut=self.leaf_cut,
                            energy_pruned=self.energy_pruned)

    def _visit(self, chains, accepted, depth):
        self._tick()
        if depth == len(self.order):
            self.leaves += 1
            self.evaluate_leaf(chains, accepted)
            return

        r = self.order[depth]
        p, d = self.graph.pickup_node(r), self.graph.delivery_node(r)
        acc = accepted[:r] + [True] + accepted[r + 1:]
        children = []
        for k, chain in enumerate(chains):
            for ip in range(len(chain) + 1):
                with_p = chain[:ip] + [p] + chain[ip:]
                for jd in range(ip + 1, len(with_p) + 1):
                    new_chain = with_p[:jd] + [d] + with_p[jd:]
                    # capacity is the one discrete rule an insertion can break (a
                    # request sits once in one chain, pickup first, so the one pruned
                    # arc, d_r -> p_r, never appears); the energy screen reads the
                    # loads it records.  Stops outside p..d keep the parent's loads,
                    # which pass, and each stop inside carries them plus r's load
                    # whatever jd is; a later jd only widens p..d, so once one jd
                    # overloads, every later one does (integer loads: exact in floats)
                    loads = {}
                    if load_violation(self.inst, self.graph, k, new_chain, loads) is not None:
                        break
                    if not self._energy_ok(k, new_chain, loads):
                        self.energy_pruned += 1
                        continue
                    cand = list(chains)
                    cand[k] = new_chain
                    bnd = self._bound(cand, acc, depth + 1)
                    if bnd < self.best_obj - _EPS:
                        children.append((bnd, k, cand, acc))
        if self.inst.selective and not self.inst.requests[r].force_accept:
            bnd = self._bound(chains, accepted, depth + 1)  # r stays False: rejected
            if bnd < self.best_obj - _EPS:
                children.append((bnd, self.inst.n_agents, chains, accepted))

        children.sort(key=lambda item: (item[0], item[1]))
        # children are sorted, so a cut or interrupted child's bound is the
        # least of those left unexplored
        for bnd, _, cand, acc in children:
            if bnd >= self.best_obj - _EPS:
                self.open_bound = min(self.open_bound, bnd)
                break
            try:
                self._visit(cand, acc, depth + 1)
            except _LimitReached:
                # the interrupted child's subtree is unfinished too
                self.open_bound = min(self.open_bound, bnd)
                raise


def branch_and_bound(inst: Instance, graph: ExpandedGraph | None = None,
                     config: SearchConfig | None = None) -> SearchResult:
    if graph is None:
        graph = expand_graph(inst)
    return _Search(inst, graph, config or SearchConfig()).run()


# -- reference enumerator ------------------------------------------------------

ORACLE_MAX_REQUESTS = 4
ORACLE_MAX_AGENTS = 2
ORACLE_MAX_STATION_NODES = 3


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
                # no station or depot relieves an overload: skip the completions
                loads = {}
                if any(load_violation(inst, graph, k, c, loads) for k, c in enumerate(base)):
                    continue
                # every way to scatter station duplicates after zero-load stops
                slots = [(k, pos) for k, c in enumerate(base)
                         for pos in _charging_gaps(graph, c, loads)]
                for n_st in range(0, min(len(slots), len(station_nodes)) + 1):
                    for slot_pick in itertools.combinations(slots, n_st):
                        for nodes in itertools.permutations(station_nodes, n_st):
                            full0 = [list(c) for c in base]
                            for (k, pos), node in sorted(zip(slot_pick, nodes),
                                                         reverse=True):
                                full0[k].insert(pos + 1, node)
                            # every depot ends every non-empty chain; a
                            # pinned depot is left to check_routes
                            hub_lists = [graph.hf if c else [None] for c in full0]
                            for hubs in itertools.product(*hub_lists):
                                consider([c if hub is None else c + [hub]
                                          for c, hub in zip(full0, hubs)], accepted)
    if best is None:
        status, solution, objective, gap = "infeasible", None, math.inf, math.inf
    else:
        status, solution, objective, gap = "optimal", best.solution, best.objective, 0.0
        solution.status = status
    return SearchResult(status=status, solution=solution, objective=objective,
                        best_bound=objective, gap=gap, nodes=0, leaves=0, leaf_lps=0,
                        leaf_pivots=0, leaf_screened=0, leaf_cut=0, energy_pruned=0)
