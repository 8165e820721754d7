import itertools
import json
import math
import random

import pytest

from emdarp.generate import GenConfig, generate, generate_document
from emdarp.graph import expand_graph
from emdarp.instance import base_node_count, derive_costs, instance_from_dict
from emdarp.model import build_model
from emdarp.mps import write_mps
from emdarp import search
from emdarp.scheduling import load_violation, schedule_routes, slot_releases, timing_bound
from emdarp.checker import validate
from emdarp.search import (
    SearchConfig, branch_and_bound, exhaustive_oracle, request_order, _charging_gaps, _Search,
)
from emdarp.solution import encode_plan
from emdarp.tools.solve_mps import read_mps, solve

from conftest import (
    earliest_bound, fresh_curve, fresh_socs, leaf_placements, make_doc, make_instance,
    release_bound, routing_bound,
)
from test_acceptance import corpus_config


def _random_doc_over(rng, n_requests, n_agents, n_stations):
    def pt():
        return [round(rng.uniform(0.0, 300.0), 1), round(rng.uniform(0.0, 300.0), 1)]

    requests = []
    for _ in range(n_requests):
        lo = round(rng.uniform(0.0, 20.0), 1)
        requests.append({
            "pickup": pt(), "delivery": pt(),
            "passengers": rng.randint(1, 2), "equipment": rng.randint(0, 1),
            "service_time": round(rng.uniform(0.5, 2.0), 1),
            "tw_kind": rng.choice(["pickup", "delivery"]),
            "tw_lo": lo, "tw_hi": lo + round(rng.uniform(20.0, 60.0), 1),
            "priority": rng.choice([1.0, 2.0, 5.0]),
        })
    agents = [{
        "start": pt(), "initial_delay": round(rng.uniform(0.0, 2.0), 1),
        "cap_passengers": 3, "cap_equipment": 2, "conversion": 1.0,
        "max_duration": 600.0, "station_service_time": 2.0,
        "soc_min": 0.25, "soc_init": 1.0, "soc_target": 0.85,
    } for _ in range(n_agents)]
    stations = [{"pos": pt(), "earliest_available": 0.0} for _ in range(n_stations)]
    return {"requests": requests, "agents": agents, "stations": stations,
            "depots": [pt()]}


def _departure_loads(inst, g, chains):
    """node -> (passengers, equipment) on departure, for chains within capacity."""
    loads = {}
    for k, chain in enumerate(chains):
        assert load_violation(inst, g, k, chain, loads) is None
    return loads


def test_request_order_by_priority():
    over = {"requests": [
        {"pickup": [10.0, 0.0], "delivery": [10.0, 50.0], "passengers": 1,
         "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
         "priority": 1.0},
        {"pickup": [20.0, 0.0], "delivery": [20.0, 50.0], "passengers": 1,
         "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
         "priority": 5.0},
        {"pickup": [30.0, 0.0], "delivery": [30.0, 50.0], "passengers": 1,
         "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
         "priority": 5.0},
    ]}
    inst = make_instance(n_requests=3, over=over)
    assert request_order(inst) == [1, 2, 0]


def test_insertion_children_match_brute_force(monkeypatch):
    # at every interior node the search asks the energy screen about exactly
    # the chains a brute force keeps: each agent, each (pickup, delivery)
    # position pair of the parent chain, in that order, filtered by
    # load_violation.  So stopping the delivery loop at the first overload
    # loses no child
    configs = [*map(corpus_config, range(25)),
               GenConfig(seed=3, n_requests=4, n_agents=2, n_stations=1,
                         duplicate_visits=2, preset="high-discharge")]
    checked = 0
    for cfg in configs:
        inst = generate(cfg)
        g = expand_graph(inst)
        nodes = []

        class Recording(_Search):
            def _visit(self, chains, accepted, depth):
                # a node asks about all its children before it visits one
                self.asked = []
                nodes.append((chains, depth, self.asked))
                super()._visit(chains, accepted, depth)

            def _energy_ok(self, k, chain, loads):
                self.asked.append((k, chain))
                return super()._energy_ok(k, chain, loads)

        recording = Recording(inst, g, SearchConfig())
        recording.run()
        for chains, depth, asked in nodes:
            if depth == len(recording.order):
                continue
            r = recording.order[depth]
            p, d = g.pickup_node(r), g.delivery_node(r)
            kept = []
            for k, chain in enumerate(chains):
                for ip, jd in itertools.combinations(range(len(chain) + 2), 2):
                    cand = list(chain)
                    cand.insert(ip, p)
                    cand.insert(jd, d)
                    if load_violation(inst, g, k, cand, {}) is None:
                        kept.append((k, cand))
            assert asked == kept, (cfg, chains, r)
            checked += len(kept)
    assert checked >= 300, checked

    # the break's saving, pinned: the criterion-5 make-up at n = 6 walked
    # 44,604 chains when every position pair was built and walked
    calls = []

    def counted(*args):
        calls.append(None)
        return load_violation(*args)

    monkeypatch.setattr(search, "load_violation", counted)
    branch_and_bound(generate(GenConfig(seed=1, n_requests=6, n_agents=2, n_stations=1,
                                        duplicate_visits=2, preset="high-discharge")))
    assert len(calls) == 14_944


def _brute_force_placements(g, gaps):
    """Every injective map from a subset of *gaps* to the station nodes in
    which each station's slots are used from the front and one agent's
    visits to a station take increasing slots."""
    out = []
    for count in range(len(g.f) + 1):
        for picked in itertools.combinations(gaps, count):
            for nodes in itertools.permutations(g.f, count):
                used = {}
                for gap, node in zip(picked, nodes):
                    st, slot = g.station_of(node)
                    used.setdefault(st, []).append((gap, slot))
                if all(sorted(slot for _, slot in visits) == list(range(len(visits)))
                       and all(sa < sb for (ga, sa), (gb, sb)
                               in itertools.combinations(sorted(visits), 2) if ga[0] == gb[0])
                       for visits in used.values()):
                    out.append(frozenset(zip(picked, nodes)))
    return out


@pytest.mark.parametrize("n_stations, dups", [(1, 2), (2, 1), (2, 0)])
@pytest.mark.parametrize("shapes, gaps", [
    (["pdpd", "pdpd"], [(0, 1), (0, 3), (1, 1), (1, 3)]),
    (["ppdd", "pdpd"], [(0, 3), (1, 1), (1, 3)]),
], ids=["gaps0", "gaps1"])
def test_leaf_placements_match_brute_force(n_stations, dups, shapes, gaps):
    # the oracle covers at most three station nodes; this covers three and four.
    # Each agent serves two requests, and a delivery that empties the vehicle
    # opens a gap.  A near-zero discharge keeps every stop set through the
    # SoC walk.
    inst = make_instance(n_requests=4, n_agents=2, n_stations=n_stations, dups=dups,
                         over={"battery": {"alpha0": 1e-9, "alpha1": 1e-9, "alpha2": 1e-9}})
    g = expand_graph(inst)
    chains = []
    for r, shape in zip((0, 2), shapes):
        nodes = {"p": [g.pickup_node(r), g.pickup_node(r + 1)],
                 "d": [g.delivery_node(r), g.delivery_node(r + 1)]}
        chains.append([nodes[kind].pop(0) for kind in shape])
    search = _Search(inst, g, SearchConfig())
    placements = [p for p, _ in leaf_placements(search, chains)]
    assert {gap for p in placements for gap, _ in p} == set(gaps)
    got = [frozenset(p) for p in placements]
    assert all(len(p) == len(q) for p, q in zip(placements, got))
    assert len(set(got)) == len(got)
    assert set(got) == set(_brute_force_placements(g, gaps))


def _soc_walk_passes(inst, g, chains_full, loads):
    """Best-case walk of every agent at once, with full recharges."""
    for k, chain in enumerate(chains_full):
        agent = inst.agents[k]
        soc, prev = agent.soc_init, g.start_node(k)
        for node in chain:
            soc -= inst.battery.drain(g.leg_energy[prev][node], loads.get(prev, (0.0, 0.0)))
            if soc < agent.soc_min - 1e-9:
                return False
            if g.station_flag[node]:
                soc = 1.0
            prev = node
    return True


def _depot_options(inst, g, chains):
    """Each agent's depots at a leaf: its pinned depot, else every depot;
    [None] when idle.  None when an idle agent is pinned to a depot."""
    opts = []
    for k, chain in enumerate(chains):
        agent = inst.agents[k]
        if not chain:
            if agent.terminal_hub is not None:
                return None
            opts.append([None])
        elif agent.terminal_hub is not None:
            opts.append([g.hub_node(agent.terminal_hub)])
        else:
            opts.append([g.hub_node(h) for h in range(len(inst.final_depots))])
    return opts


def _reference_leaf_sequence(search, chains):
    """Every (placement, depots) pair of a leaf, and whether it passes the
    cross-agent SoC walk, in the order of nested loops over stop count, gap
    subset, stations, duplicate-slot order and depots."""
    inst, g = search.inst, search.graph
    hub_opts = _depot_options(inst, g, chains)
    if hub_opts is None:
        return []
    loads = _departure_loads(inst, g, chains)
    gaps = [(k, pos) for k, chain in enumerate(chains)
            for pos in _charging_gaps(g, chain, loads)]
    max_visits = inst.duplicate_visits + 1
    out = []
    for count in range(min(len(gaps), inst.n_stations * max_visits) + 1):
        for picked in itertools.combinations(gaps, count):
            for stations in itertools.product(range(inst.n_stations), repeat=count):
                per_station = {}
                for gap, st in zip(picked, stations):
                    per_station.setdefault(st, []).append(gap)
                if any(len(v) > max_visits for v in per_station.values()):
                    continue
                slot_choices = []
                for st, visits in per_station.items():
                    same_agent = [(a, b) for a, b in
                                  itertools.combinations(range(len(visits)), 2)
                                  if visits[a][0] == visits[b][0]]
                    slot_choices.append(
                        [[(gap, g.f_node(st, slot)) for gap, slot in zip(visits, perm)]
                         for perm in itertools.permutations(range(len(visits)))
                         if all(perm[a] < perm[b] for a, b in same_agent)])
                for parts in itertools.product(*slot_choices):
                    placement = [pair for part in parts for pair in part]
                    routed = [list(c) for c in chains]
                    for (k, pos), node in sorted(placement, reverse=True):
                        routed[k].insert(pos + 1, node)
                    for hubs in itertools.product(*hub_opts):
                        full = [c if hub is None else c + [hub]
                                for c, hub in zip(routed, hubs)]
                        out.append((placement, hubs,
                                    _soc_walk_passes(inst, g, full, loads)))
    return out


def _with_depot(cfg, depot, terminal_hub=None):
    doc = generate_document(cfg)
    doc["depots"].append(depot)
    if terminal_hub is not None:
        doc["agents"][0]["terminal_hub"] = terminal_hub
    return instance_from_dict(doc)


@pytest.mark.parametrize("make, shows", [
    # the criterion-5 make-up at 4 requests: 1 station x 3 slots
    (lambda: generate(GenConfig(seed=3, n_requests=4, n_agents=2, n_stations=1,
                                duplicate_visits=2, preset="high-discharge")), "walk"),
    (lambda: generate(GenConfig(seed=0, n_requests=3, n_agents=2, n_stations=2,
                                duplicate_visits=1, preset="high-discharge")), "walk"),
    (lambda: _with_depot(GenConfig(seed=0, n_requests=3, n_agents=2, n_stations=1,
                                   duplicate_visits=1, preset="high-discharge",
                                   open_vrp=True), [0.0, 0.0]), "depot"),
    (lambda: _with_depot(GenConfig(seed=1, n_requests=3, n_agents=2, n_stations=1,
                                   duplicate_visits=1, preset="high-discharge"),
                         [2000.0, 2000.0], terminal_hub=1), "pinned"),
    (lambda: generate(GenConfig(seed=2, n_requests=3, n_agents=2, n_stations=2,
                                duplicate_visits=1, preset="high-discharge")), "idle"),
], ids=["c5-makeup", "two-stations-two-slots", "open-two-depots", "terminal-hub",
        "empty-chain"])
def test_leaf_placements_keep_order(make, shows):
    """The per-agent generator yields the (placement, depots) pairs that pass
    the cross-agent SoC walk in the order of the nested loops, at every leaf
    the search visits: screens, LPs and ties see the same sequence.  One more
    leaf is built directly, with every request on the last agent in turn and
    the others idle: with the energy screen, the search on the terminal-hub
    instance reaches no leaf where its pinned agent 0 is idle."""
    inst = make()
    leaves = []

    class Recording(_Search):
        def evaluate_leaf(self, chains, accepted):
            leaves.append([list(c) for c in chains])
            return super().evaluate_leaf(chains, accepted)

    search = Recording(inst, expand_graph(inst), SearchConfig())
    search.run()
    g = search.graph
    leaves.append([[] for _ in range(inst.n_agents - 1)]
                  + [[node for r in range(inst.n_requests)
                      for node in (g.pickup_node(r), g.delivery_node(r))]])
    seen = set()
    for chains in leaves:
        reference = _reference_leaf_sequence(search, chains)
        hub_opts = _depot_options(inst, g, chains)
        got = [(placement, tuple(hub for hub, _, _ in ends))
               for placement, agent_ends in leaf_placements(search, chains)
               for ends in itertools.product(*agent_ends)]
        assert got == [(placement, hubs) for placement, hubs, ok in reference if ok]
        if any(not ok for _, _, ok in reference):
            seen.add("walk")
        by_placement = {}
        for placement, _, ok in reference:
            by_placement.setdefault(tuple(placement), set()).add(ok)
        if any(len(oks) == 2 for oks in by_placement.values()):
            seen.add("depot")  # a placement that reaches one depot but not another
        if hub_opts is None:
            seen.add("pinned")  # an idle agent cannot reach its pinned depot
        if hub_opts is not None and any(not c for c in chains) and got:
            seen.add("idle")
    assert shows in seen


def test_single_request_served():
    inst = make_instance()
    g = expand_graph(inst)
    res = branch_and_bound(inst, g)
    assert res.status == "optimal"
    chains = [[g.pickup_node(0), g.delivery_node(0), g.hf[0]]]
    want = schedule_routes(inst, g, chains, [True]).objective
    assert res.objective == pytest.approx(want)
    assert res.solution.accepted == [True]
    assert res.gap == 0.0


def test_unservable_request_is_rejected():
    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 5,
        "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
    }]}
    inst = make_instance(over=over)
    res = branch_and_bound(inst)
    assert res.status == "optimal"
    assert res.solution.accepted == [False]
    assert res.objective == pytest.approx(10000.0)


def test_nonselective_overload_is_infeasible():
    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 5,
        "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
    }], "config": {"duplicate_visits": 0, "selective": False, "open_vrp": False,
                   "weights": {"epsilon": 0.001, "zeta": 1.0, "eta": 10000.0}}}
    inst = make_instance(over=over)
    res = branch_and_bound(inst)
    assert res.status == "infeasible"
    assert res.solution is None
    oracle = exhaustive_oracle(inst)
    assert oracle.status == "infeasible"


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_nonselective_matches_oracle(seed):
    # the node bound charges only requests already rejected, not those still
    # unplaced, so it stays finite above the leaves of a non-selective search
    inst = generate(GenConfig(seed=seed, n_requests=3, n_agents=2, selective=False))
    bb = branch_and_bound(inst)
    oracle = exhaustive_oracle(inst)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert bb.solution.accepted == [True, True, True]


def test_undecided_must_serve_request_is_not_rejected():
    # the must-serve request comes last in the branching order, so every
    # node above the leaves has it unplaced, and undecided is not rejected
    doc = generate_document(GenConfig(seed=3, n_requests=3, n_agents=1))
    doc["requests"][1]["force_accept"] = True
    inst = instance_from_dict(doc)
    assert request_order(inst)[-1] == 1
    bb = branch_and_bound(inst)
    oracle = exhaustive_oracle(inst)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert bb.solution.accepted == oracle.solution.accepted


def _matrix_instance(cfg):
    """The generated instance with matrix costs: each entry is the Euclidean
    time between two base nodes times a factor in [0.3, 1.7], so the costs
    are neither symmetric nor metric."""
    doc = generate_document(cfg)
    inst = instance_from_dict(doc)
    cost, n = derive_costs(inst), base_node_count(inst)
    rng = random.Random(cfg.seed)
    doc["costs"] = {"mode": "matrix", "matrix": [
        [0.0 if i == j else cost(i, j) * rng.uniform(0.3, 1.7) for j in range(n)]
        for i in range(n)]}
    return instance_from_dict(doc)


def _charging_makeup(seed):
    return GenConfig(seed, n_requests=3, n_agents=1, n_stations=1, duplicate_visits=1,
                     preset="high-discharge")


@pytest.mark.parametrize("cfg", [
    # a timing DP over direct arc times prunes the optimum at seeds 7, 19 and
    # 31 here and 31 and 37 below, and the B&B returns a worse plan as
    # optimal (141.704 against 98.238 at s7); one over least times does not
    *[_charging_makeup(seed) for seed in (7, 19, 31, 0, 1, 2)],
    *[GenConfig(seed, n_requests=2, n_agents=2) for seed in (31, 37, 0, 1, 2, 3)],
], ids=lambda cfg: f"s{cfg.seed}-k{cfg.n_agents}")
def test_non_metric_costs_match_oracle(cfg):
    inst = _matrix_instance(cfg)
    g = expand_graph(inst)
    c = g.cost_matrix
    assert any(c[i][j] > c[i][h] + c[h][j]
               for i, j, h in itertools.product(range(g.n_nodes), repeat=3))
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status
    if bb.status == "optimal":
        assert bb.objective == pytest.approx(oracle.objective, rel=1e-6)
        assert validate(inst, g, bb.solution).ok


def test_matrix_costs_bound_and_screen_pinned():
    # the criterion-5 make-up on matrix costs: the node bound and the energy
    # screen act on them too.  With the bound cut to the rejection penalties
    # and the screen off, the search took 833 nodes, 768 leaves and 21 leaf
    # LPs, and screened 789 placements.  The slot releases screen 2 of the
    # 10 leaf LPs it took before them.  Solving the queued LPs least bound
    # first takes 7 instead of 8, and the earliest-return screen cuts 7
    # leaves whole, so 210 placements are screened instead of 256
    inst = _matrix_instance(GenConfig(seed=3, n_requests=4, n_agents=2, n_stations=1,
                                      duplicate_visits=2, preset="high-discharge"))
    result = branch_and_bound(inst)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(118.59501388943329, rel=1e-12)
    assert (result.nodes, result.leaves, result.leaf_lps, result.leaf_screened,
            result.leaf_cut, result.energy_pruned) == (172, 137, 7, 210, 7, 66)


def test_forced_charging_stop():
    # drains too much to finish on one battery; the optimum plugs in en route
    matrix = [
        [0.0, 10.0, 20.0, 30.0, 40.0],
        [10.0, 0.0, 10.0, 20.0, 30.0],
        [20.0, 10.0, 0.0, 5.0, 10.0],
        [30.0, 20.0, 5.0, 0.0, 5.0],
        [40.0, 30.0, 10.0, 5.0, 0.0],
    ]
    over = {
        "costs": {"mode": "matrix", "matrix": matrix},
        "battery": {"alpha0": 0.025, "alpha1": 0.001, "alpha2": 0.0005,
                    "beta1": 0.034, "beta2": 0.012, "beta3": 0.005},
        "requests": [{"pickup": [0.0, 0.0], "delivery": [0.0, 0.0],
                      "passengers": 1, "service_time": 1.0, "tw_kind": "pickup",
                      "tw_lo": 0.0, "tw_hi": 60.0, "force_accept": True}],
    }
    inst = make_instance(n_stations=1, dups=0, over=over)
    g = expand_graph(inst)
    res = branch_and_bound(inst, g)
    assert res.status == "optimal"
    nodes = res.solution.plans[0].nodes
    assert g.f_node(0, 0) in nodes
    oracle = exhaustive_oracle(inst, g)
    assert oracle.objective == pytest.approx(res.objective)


@pytest.mark.parametrize("seed", [1, 11, 16, 17], ids=lambda s: f"corpus-{s}")
def test_node_limit_reports_gap(seed):
    # every node limit up to the full search: the reported bound never
    # exceeds the optimum, and only the full search claims optimality
    inst = generate(corpus_config(seed))
    g = expand_graph(inst)
    full = branch_and_bound(inst, g)
    assert full.status == "optimal"
    for limit in range(full.nodes + 1):
        res = branch_and_bound(inst, g, SearchConfig(node_limit=limit))
        where = f"node_limit={limit}: {res.status}, bound {res.best_bound!r}"
        assert res.best_bound <= full.objective * (1 + 1e-9), where
        assert (res.status == "optimal") == (limit == full.nodes), where
        if res.status == "feasible":
            assert res.gap >= 0.0, where
            assert res.best_bound <= res.objective, where
            report = validate(inst, g, res.solution)
            assert report.ok, (where, report.violations)


def test_limited_search_bounds_its_queued_lps():
    # a leaf LP that passed every screen waits in the search's queue until
    # it is the least; a search stopped with LPs queued reports a bound at
    # most the least of their bounds, and at most the optimum.  The drain
    # after the tree is stopped by its time check at its first LP, where
    # only the queue and the incumbent are open
    inst = generate(GenConfig(seed=11, n_requests=4, n_agents=2, n_stations=1,
                              duplicate_visits=2, preset="high-discharge"))
    g = expand_graph(inst)
    full = branch_and_bound(inst, g)
    queued = 0
    for limit in range(full.nodes):
        limited = _Search(inst, g, SearchConfig(node_limit=limit))
        res = limited.run()
        assert res.best_bound <= full.objective * (1 + 1e-9), limit
        if limited.queue:
            assert res.best_bound <= min(bound for bound, *_ in limited.queue), limit
            queued += 1
    assert queued >= 40, queued

    class StoppedAfterTheTree(_Search):
        def _visit(self, chains, accepted, depth):
            super()._visit(chains, accepted, depth)
            self.tree_done = depth == 0

        def _check_time(self):
            if getattr(self, "tree_done", False):
                raise search._LimitReached

    stopped = StoppedAfterTheTree(inst, g, SearchConfig())
    res = stopped.run()
    assert res.status == "feasible" and stopped.queue
    least = min(bound for bound, *_ in stopped.queue)
    assert res.best_bound == min(least, res.objective) <= full.objective
    assert res.leaf_lps < full.leaf_lps


def test_queue_keeps_the_first_found_plan_on_equal_objectives():
    # the queue solves its LPs least bound first, so a plan found later may be
    # solved first.  Of two plans with the same objective (two agents alike
    # in every field, one request), the one found first stays: here it is
    # queued first with the higher bound, solved second, and replaces the
    # plan found later.  Queued the other way round, the later plan's LP is
    # never solved: its bound is at least the incumbent's objective
    doc = make_doc(n_agents=2)
    doc["agents"][1]["start"] = doc["agents"][0]["start"]
    inst = instance_from_dict(doc)
    g = expand_graph(inst)
    p, d, hub = g.pickup_node(0), g.delivery_node(0), g.hf[0]
    routings = [[[p, d, hub], []], [[], [p, d, hub]]]
    objective = schedule_routes(inst, g, routings[0], [True]).objective
    for bounds, lps in (((objective, objective - 1.0), 2), ((objective - 1.0, objective), 1)):
        queue = _Search(inst, g, SearchConfig())
        for bound, routing in zip(bounds, routings):
            queue._enqueue(bound, routing, [True])
        while queue.queue:
            queue._solve_next()
        assert queue.best_obj == objective and queue.best_found == 0
        assert queue.best.solution.plans[0].nodes == [p, d, hub]
        assert (queue.leaf_lps, queue.leaf_screened) == (lps, 2 - lps)


def test_solution_satisfies_full_model():
    inst = make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1)
    g = expand_graph(inst)
    res = branch_and_bound(inst, g)
    assert res.status == "optimal"
    model = build_model(inst, g)
    values = encode_plan(model, res.solution)
    bad = model.check_feasible(values)
    assert bad == [], [(c.tag, c.index, c.part, v) for c, v in bad[:8]]
    assert model.objective_value(values) == pytest.approx(res.objective)


@pytest.mark.parametrize("seed, n_stations", [
    (seed, n_stations) for seed in (0, 1, 9, 10) for n_stations in (0, 1)
])
def test_high_discharge_plan_satisfies_full_model(seed, n_stations):
    # a leg may drain more than soc_min here, so the off-route
    # state-of-charge convention must not sit at the floor
    inst = generate(GenConfig(seed=seed, n_requests=3, n_agents=2, n_stations=n_stations,
                              preset="high-discharge"))
    g = expand_graph(inst)
    res = branch_and_bound(inst, g)
    assert res.status == "optimal"
    model = build_model(inst, g)
    values = encode_plan(model, res.solution)
    bad = model.check_feasible(values)
    assert bad == [], [(c.tag, c.index, c.part, v) for c, v in bad[:8]]
    assert model.objective_value(values) == pytest.approx(res.objective)


@pytest.mark.parametrize("seed", range(6))
def test_terminal_depot_and_station_opening_match_oracle(seed):
    # agent 0 must end at a second depot, and the station opens late
    doc = generate_document(GenConfig(
        seed=seed, n_requests=2 + seed % 2, n_agents=1 + (seed // 2) % 2, n_stations=1,
        duplicate_visits=1, preset=("typical", "high-discharge")[seed % 2],
        open_vrp=seed == 5))
    doc["depots"].append([0.0, 0.0])
    doc["agents"][0]["terminal_hub"] = 1
    doc["stations"][0]["earliest_available"] = 15.0
    inst = instance_from_dict(doc)
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert validate(inst, g, bb.solution).ok
    visits = bb.solution.plans[0].visits
    assert not visits or visits[-1].node == g.hub_node(1)
    model = build_model(inst, g)
    bad = model.check_feasible(encode_plan(model, bb.solution))
    assert bad == [], [(c.tag, c.index, c.part, v) for c, v in bad[:8]]


def test_station_opening_past_route_horizon(tmp_path):
    # the only station opens late, long after a plan that did not charge
    # would end; the plan must wait for it, and all three engines must find
    # that plan.  The opening is 50 past the horizon of the same instance
    # with the station open from 0, as that horizon read when it counted
    # each request's service once and no window start.
    doc = generate_document(GenConfig(seed=24, n_requests=1, n_agents=1, n_stations=1,
                                      preset="high-discharge", selective=False))
    doc["stations"][0]["earliest_available"] = 429.59643513521326
    inst = instance_from_dict(doc)
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert bb.objective == pytest.approx(466.738, abs=1e-3)
    assert validate(inst, g, bb.solution).ok
    pytest.importorskip("scipy")
    path = str(tmp_path / "m.mps")
    write_mps(build_model(inst, g), path)
    status, objective, _ = solve(read_mps(path))
    assert status == "optimal"
    assert objective == pytest.approx(bb.objective, abs=1e-5)


def _long_service():
    doc = generate_document(GenConfig(seed=3, n_requests=1, n_agents=1, n_stations=0,
                                      duplicate_visits=0))
    doc["requests"][0]["service_time"] = 40.0
    return instance_from_dict(doc)


@pytest.mark.parametrize("inst, want", [
    # the request waits for its window start before a long drive
    pytest.param(generate(corpus_config(24)), 101.90012530862306, id="corpus-24"),
    # service at both stops takes longer than the drive
    pytest.param(_long_service(), 138.08202303374057, id="service-40"),
])
def test_horizon_covers_served_request(inst, want, tmp_path):
    # a horizon that counted each service once and no window start ended
    # before the plan that serves the request, so all three engines
    # rejected it (244.848 and 49830.0)
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status == "optimal"
    assert bb.solution.accepted == [True]
    assert bb.objective == pytest.approx(want, rel=1e-12)
    assert oracle.objective == pytest.approx(want, rel=1e-12)
    assert validate(inst, g, bb.solution).ok
    pytest.importorskip("scipy")
    path = str(tmp_path / "m.mps")
    write_mps(build_model(inst, g), path)
    status, objective, _ = solve(read_mps(path))
    assert status == "optimal"
    assert objective == pytest.approx(want, abs=1e-5)


def test_oracle_caps():
    with pytest.raises(ValueError, match="oracle caps exceeded"):
        exhaustive_oracle(make_instance(n_requests=5))
    with pytest.raises(ValueError, match="oracle caps exceeded"):
        exhaustive_oracle(make_instance(n_agents=3))
    with pytest.raises(ValueError, match="oracle caps exceeded"):
        exhaustive_oracle(make_instance(n_stations=1, dups=3))


@pytest.mark.parametrize("seed", range(10))
def test_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    n_requests = rng.randint(1, 3)
    n_agents = rng.randint(1, 2)
    n_stations = rng.randint(0, 1)
    over = _random_doc_over(rng, n_requests, n_agents, n_stations)
    inst = make_instance(n_requests=n_requests, n_agents=n_agents,
                         n_stations=n_stations, dups=0, over=over)
    g = expand_graph(inst)
    res = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert res.status == oracle.status
    if res.status == "optimal":
        assert res.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert res.solution.accepted == oracle.solution.accepted


def test_deterministic_runs():
    inst = make_instance(n_requests=3, n_agents=2)
    a = branch_and_bound(inst)
    b = branch_and_bound(inst)
    assert a.objective == b.objective
    assert [p.nodes for p in a.solution.plans] == [p.nodes for p in b.solution.plans]
    assert (a.nodes, a.leaves) == (b.nodes, b.leaves)


@pytest.mark.parametrize("cfg", [
    GenConfig(seed=1000 + s, n_requests=2 + s % 2, n_agents=1 + s // 2 % 2, n_stations=1,
              duplicate_visits=s % 2, preset="high-discharge", open_vrp=True,
              selective=bool(s % 5), area=2000.0 + 500.0 * (s % 3))
    for s in (0, 9, 11, 24, 27, 35)
], ids=lambda cfg: f"s{cfg.seed}")
def test_open_routes_without_depot_energy_match_oracle(cfg):
    # without open_vrp_soc_to_hub the last leg of an open route draws no
    # energy; on each of these instances that moves the optimum
    doc = generate_document(cfg)
    doc["config"]["open_vrp_soc_to_hub"] = False
    inst = instance_from_dict(doc)
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert validate(inst, g, bb.solution).ok


def _fault_1b(seed, n_agents, open_vrp, area):
    return GenConfig(seed=seed, n_requests=3, n_agents=n_agents, n_stations=2,
                     duplicate_visits=0, preset="high-discharge", open_vrp=open_vrp,
                     area=area)


def _one_slot_pair(seed, n_requests=3, selective=True):
    return GenConfig(seed=seed, n_requests=n_requests, n_agents=1, n_stations=1,
                     duplicate_visits=1, preset="high-discharge", selective=selective,
                     area=2000.0)


@pytest.mark.parametrize("cfg, want", [
    pytest.param(_fault_1b(88, 2, False, 4000.0), 293.1725940695023, id="1b-s88"),
    pytest.param(_fault_1b(192, 1, True, 3000.0), 22984.526804936802, id="1b-s192"),
    pytest.param(_fault_1b(237, 1, True, 4000.0), 651.9279156686844, id="1b-s237"),
    pytest.param(_one_slot_pair(26), 338.499524468405, id="slots-s26"),
    pytest.param(_one_slot_pair(29), 162.0458969975248, id="slots-s29"),
    pytest.param(_one_slot_pair(35), 310.32780942603193, id="slots-s35"),
    pytest.param(_one_slot_pair(102, selective=False), 172.88517200238712,
                 id="slots-s102-nonselective"),
    pytest.param(_one_slot_pair(198, n_requests=4, selective=False), 648.9142900122504,
                 id="slots-s198-nonselective"),
])
def test_charging_supersets_are_not_pruned(cfg, want):
    # with decreasing charge rates two short charges can beat one long one,
    # so a placement with more stops than a feasible one is still a
    # candidate; the objectives are the exhaustive oracle's
    inst = generate(cfg)
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    assert bb.status == "optimal"
    assert bb.objective == pytest.approx(want, rel=1e-12)
    assert validate(inst, g, bb.solution).ok


def _sweep():
    grid = itertools.product(((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)), ((1, 1), (2, 0)),
                             ("high-discharge", "typical"), (True, False), (False, True),
                             (2000.0, 3000.0, 4000.0))
    for seed, ((n_requests, n_agents), (n_stations, dups), preset, selective, open_vrp,
               area) in enumerate(grid):
        cfg = GenConfig(seed=seed, n_requests=n_requests, n_agents=n_agents,
                        n_stations=n_stations, duplicate_visits=dups, preset=preset,
                        selective=selective, open_vrp=open_vrp, area=area)
        yield pytest.param(cfg, id=f"s{seed}",
                           marks=() if n_requests == 2 else pytest.mark.slow)


def _makeup_slice():
    # the criterion-5 make-up, 2 agents and 1 station with 3 slots, where
    # the leaf walks and curves act on up to three charging stops
    grid = itertools.product((2, 3), ("high-discharge", "typical"), (True, False),
                             (False, True))
    for seed, (n_requests, preset, selective, open_vrp) in enumerate(grid):
        cfg = GenConfig(seed=seed, n_requests=n_requests, n_agents=2, n_stations=1,
                        duplicate_visits=2, preset=preset, selective=selective,
                        open_vrp=open_vrp)
        yield pytest.param(cfg, id=f"c5-s{seed}",
                           marks=() if n_requests == 2 else pytest.mark.slow)
    # seeds of the make-up itself whose oracle optima charge: once or twice
    # at 2 requests, two or three times at 3, where the energy screen and the
    # leaf curves both act on the plan that wins
    for n_requests, seeds in ((2, (11, 14, 19, 42, 43, 47, 67, 78)),
                              (3, (11, 14, 24, 25, 32, 54, 71, 78))):
        for seed in seeds:
            cfg = GenConfig(seed=seed, n_requests=n_requests, n_agents=2, n_stations=1,
                            duplicate_visits=2, preset="high-discharge")
            yield pytest.param(cfg, id=f"c5-charge-n{n_requests}-s{seed}",
                               marks=() if n_requests == 2 else pytest.mark.slow)


def _matches_oracle(inst):
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status
    if oracle.status == "optimal":
        assert bb.objective == pytest.approx(oracle.objective, rel=1e-6)
        assert validate(inst, g, bb.solution).ok


@pytest.mark.parametrize("cfg", [*_sweep(), *_makeup_slice()])
def test_differential_sweep(cfg):
    # the 96 two-request configurations of the grid and the 8 + 8 of the
    # make-up slice run in tier-1; the other 144 + 16 are marked slow, and
    # `-m ''` runs them all (about ten minutes, mostly the oracle)
    _matches_oracle(generate(cfg))


@pytest.mark.parametrize("cfg", [*_sweep(), *_makeup_slice()])
def test_differential_sweep_matrix_costs(cfg):
    # the same configurations on asymmetric, non-metric matrix costs, where
    # the node bound and the energy screen price a partial chain's legs at
    # their least costs, not at its arc costs; the same 112 run in tier-1
    _matches_oracle(_matrix_instance(cfg))


def test_energy_screen_keeps_every_optimal_subrouting():
    # the interior energy screen is a necessary condition: every sub-routing
    # of an optimal plan (each agent's pickups and deliveries in plan order,
    # restricted to any non-empty subset of its requests) is a node the
    # search may pass through, so it must fit and pass the screen.  On
    # matrix costs the plans are the oracle's, found without the screen; a
    # screen over arc energy costs cuts optimal sub-routings at s101 and s152
    configs = [*map(corpus_config, range(25)), *(p.values[0] for p in _makeup_slice()),
               *(GenConfig(seed=1, n_requests=n, n_agents=2, n_stations=1,
                           duplicate_visits=2, preset="high-discharge") for n in (5, 6))]
    matrix_configs = [*(_charging_makeup(seed) for seed in (7, 19, 31, 0, 1, 2)),
                      *(p.values[0] for p in _makeup_slice() if p.values[0].n_requests == 2),
                      *(p.values[0] for p in _sweep() if p.id in ("s101", "s152"))]
    cases = [(cfg, generate(cfg), branch_and_bound) for cfg in configs]
    cases += [(cfg, _matrix_instance(cfg), exhaustive_oracle) for cfg in matrix_configs]
    checked = 0
    for cfg, inst, solve in cases:
        g = expand_graph(inst)
        result = solve(inst, g)
        if result.solution is None:
            continue
        screen = _Search(inst, g, SearchConfig())
        for k, plan in enumerate(result.solution.plans):
            chain = [v.node for v in plan.visits if g.stop_load[v.node] is not None]
            served = sorted({g.stop_load[node][0] for node in chain})
            for size in range(1, len(served) + 1):
                for subset in itertools.combinations(served, size):
                    sub = [node for node in chain if g.stop_load[node][0] in subset]
                    loads = {}
                    assert load_violation(inst, g, k, sub, loads) is None, (cfg, sub)
                    assert screen._energy_ok(k, sub, loads), (cfg, sub)
                    checked += 1
    assert checked >= 230, checked


@pytest.mark.parametrize("n_requests, objective, counts", [
    pytest.param(6, 11415.051676880359, (1689, 816, 4, 142, 46), id="n6"),
    pytest.param(7, 11617.38841906904, (8387, 5104, 6, 401, 350), id="n7",
                 marks=pytest.mark.slow),
    pytest.param(8, 43515.80693751369, (7844, 1892, 7, 497, 493), id="n8",
                 marks=pytest.mark.slow),
])
def test_criterion_5_reach(n_requests, objective, counts):
    # the criterion-5 make-up, proven optimal within a node budget rather
    # than a wall-time one.  Before the energy screen n = 6 took 6,009 nodes
    # (5,061 of its 5,136 leaves energy-dead), and n = 8 ended a 180 s
    # search at 521,938 nodes with gap 0.9987.  The slot releases of the
    # leaf screen cut the leaf LPs from 15, 21 and 24 to 6, 8 and 9, and
    # left the nodes, leaves and optima as they were.  Solving the queued
    # leaf LPs least bound first cut them to 4, 6 and 7, and the
    # earliest-return screen rules out 46, 350 and 493 leaves whole
    inst = generate(GenConfig(seed=1, n_requests=n_requests, n_agents=2, n_stations=1,
                              duplicate_visits=2, preset="high-discharge"))
    result = branch_and_bound(inst, config=SearchConfig(node_limit=20_000))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(objective, rel=1e-12)
    assert (result.nodes, result.leaves, result.leaf_lps, result.leaf_screened,
            result.leaf_cut) == counts


def _relabelled(doc, rng):
    """*doc* with its requests shuffled, its agents rotated by one (each
    keeps its start, battery and depot) and both renumbered; every
    coordinate stays, so every cost is the same float."""
    doc = json.loads(json.dumps(doc))
    rng.shuffle(doc["requests"])
    doc["agents"] = doc["agents"][1:] + doc["agents"][:1]
    for key in ("requests", "agents"):
        for idx, item in enumerate(doc[key]):
            item["id"] = idx
    return doc


@pytest.mark.slow
@pytest.mark.parametrize("cfg, nodes", [
    *[(GenConfig(seed=s, n_requests=6, n_agents=2, n_stations=1, duplicate_visits=2,
                 preset="high-discharge"), nodes)
      for s, nodes in ((1, (1689, 1689, 1689)), (2, (316, 306, 306)), (3, (289, 289, 289)))],
    (GenConfig(seed=1, n_requests=7, n_agents=2, n_stations=1, duplicate_visits=2,
               preset="high-discharge"), (8387, 8387, 8387)),
    (GenConfig(seed=3, n_requests=6, n_agents=2, n_stations=1, duplicate_visits=2,
               preset="high-discharge", area=1000.0), (850, 850, 850)),
], ids=["n6-s1", "n6-s2", "n6-s3", "n7-s1", "area1000-n6-s3"])
def test_relabelled_makeup_keeps_its_optimum(cfg, nodes):
    # relabelling the requests and the agents gives an isomorphic instance,
    # so the same optimum, which the checker passes.  The search orders
    # requests by priority, then index, and breaks bound ties by agent, so a
    # copy may walk a different tree: at n = 6, seed 2 both copies take 306
    # nodes against 316
    doc = generate_document(cfg)
    base = branch_and_bound(instance_from_dict(doc))
    assert base.status == "optimal"
    rng = random.Random(f"relabel:{cfg.seed}:{cfg.n_requests}:{cfg.area}")
    walked = [base.nodes]
    for _ in range(2):
        copy = _relabelled(doc, rng)
        inst = instance_from_dict(copy)
        g = expand_graph(inst)
        result = branch_and_bound(inst, g)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(base.objective, rel=1e-9)
        assert validate(inst, g, result.solution).ok
        walked.append(result.nodes)
    assert tuple(walked) == nodes


@pytest.mark.parametrize("cfg", [
    *[pytest.param(corpus_config(i), id=f"corpus-{i}") for i in range(25)],
    *[p for p in _sweep() if p.values[0].n_requests == 2]])
def test_timing_bound_below_oracle_lps(cfg, monkeypatch):
    # the leaf screen is sound: on every complete routing the oracle prices,
    # the timing DP with its least charging times plus the rejection
    # penalties stays at or below the leaf LP's objective, with and without
    # the slot releases, and the pickups' and deliveries' own curves cut at
    # the earliest return stay at or below the DP
    inst = generate(cfg)
    g = expand_graph(inst)
    priced = []

    def audited(inst, graph, chains, accepted):
        res = schedule_routes(inst, graph, chains, accepted)
        if res.feasible:
            penalty = sum(req.priority * inst.weights.eta
                          for req, acc in zip(inst.requests, accepted) if not acc)
            tol = 1e-7 * max(1.0, abs(res.objective))
            earliest = earliest_bound(inst, graph, chains) + penalty
            plain = routing_bound(inst, graph, chains) + penalty
            released = release_bound(inst, graph, chains) + penalty
            assert earliest <= plain <= released <= res.objective + tol, chains
            priced.append(chains)
        return res

    monkeypatch.setattr(search, "schedule_routes", audited)
    oracle = exhaustive_oracle(inst, g)
    assert (oracle.status == "optimal") == bool(priced)


def _shares_a_station(g, chains):
    users = {(g.station_of(node)[0], k) for k, chain in enumerate(chains)
             for node in chain if g.station_flag[node]}
    return len(users) > len({st for st, _ in users})


@pytest.mark.parametrize("seed, tighter_at_least", [(3, 90), (11, 60)], ids=["3", "11"])
def test_timing_bound_below_leaf_lps(seed, tighter_at_least):
    # the same on the criterion-5 make-up, where the oracle takes ~20 s: at every
    # leaf the search visits, each (placement, depots) pair it prices or
    # screens, most with two or more stations in one chain.  The curve and
    # the SoC walk the search holds for each end, walked and timed at slot
    # 0, are the routed chain's own with its real slots, bit for bit.  Its
    # leaf cut (each agent's pickups' and deliveries' curve, merged from the
    # largest first breakpoint of the end curves on) is the bound of those
    # curves each cut at its own agent's return.  On every pair that bound
    # is at or below the plain one, which is at or below the slot-release
    # bound, which is at or below the LP; on pairs whose station serves both
    # agents the one the screen takes is strictly tighter than the plain
    # bound on at least *tighter_at_least* of them
    inst = generate(GenConfig(seed=seed, n_requests=4, n_agents=2, n_stations=1,
                              duplicate_visits=2, preset="high-discharge"))
    priced, later_slots, tighter = [], 0, 0

    class Audited(_Search):
        def evaluate_leaf(self, chains, accepted):
            nonlocal later_slots, tighter
            g = self.graph
            penalty = self._penalty(accepted, range(inst.n_requests))
            own = [fresh_curve(inst, g, k, chain) for k, chain in enumerate(chains) if chain]
            for placement, agent_ends in leaf_placements(self, chains):
                routed = [list(c) for c in chains]
                for (k, pos), node in sorted(placement, reverse=True):
                    routed[k].insert(pos + 1, node)
                for ends in itertools.product(*agent_ends):
                    full = [c if hub is None else c + [hub]
                            for c, (hub, _, _) in zip(routed, ends)]
                    for k, (hub, curve, socs) in enumerate(ends):
                        if hub is not None:
                            fresh = fresh_curve(inst, g, k, full[k])
                            assert repr(curve) == repr(fresh), full  # -0.0 too
                            assert socs == fresh_socs(inst, g, k, full[k]), full
                            later_slots += any(g.station_flag[node] and g.station_of(node)[1] > 0
                                               for node in full[k])
                    res = schedule_routes(inst, g, full, accepted)
                    if res.feasible:
                        tol = 1e-7 * max(1.0, abs(res.objective))
                        earliest = earliest_bound(inst, g, full) + penalty
                        plain = routing_bound(inst, g, full) + penalty
                        released = release_bound(inst, g, full) + penalty
                        assert earliest <= plain <= released <= res.objective + tol, full
                        latest = max(curve[0][0] for hub, curve, _ in ends if hub is not None)
                        assert timing_bound(own, latest) + penalty == pytest.approx(
                            earliest, rel=1e-12), full
                        if _shares_a_station(g, full):
                            screen = self._released_bound(full, ends) + penalty
                            assert screen in (released, -math.inf), full
                            tighter += screen > plain + tol
                        priced.append(full)
            return super().evaluate_leaf(chains, accepted)

    Audited(inst, expand_graph(inst), SearchConfig()).run()
    assert len(priced) >= 50 and later_slots >= 50
    assert tighter >= tighter_at_least, tighter


def test_equal_objectives_keep_the_depth_first_plan():
    # two agents alike in every field, start included, and one request: the
    # plan with agent 0 and the one with agent 1 have the same LP, so the
    # same objective, bit for bit.  Children are visited by (bound, agent),
    # so agent 0's leaf comes first in depth-first order, and its plan stays
    doc = make_doc(n_agents=2)
    doc["agents"][1]["start"] = doc["agents"][0]["start"]
    inst = instance_from_dict(doc)
    g = expand_graph(inst)
    p, d, hub = g.pickup_node(0), g.delivery_node(0), g.hf[0]
    first = schedule_routes(inst, g, [[p, d, hub], []], [True])
    second = schedule_routes(inst, g, [[], [p, d, hub]], [True])
    assert first.objective == second.objective
    result = branch_and_bound(inst, g)
    assert result.status == "optimal" and result.objective == first.objective
    assert [plan.nodes for plan in result.solution.plans] == [[p, d, hub], []]
    first.solution.status = "optimal"
    assert result.solution.to_dict() == first.solution.to_dict()


def test_crossing_slot_orders_keep_the_plain_screen():
    # two stations with two slots each.  Crosswise, agent 0 takes station
    # 0's slot 1 and then station 1's slot 0, and agent 1 station 1's slot 1
    # and then station 0's slot 0: each waits on the other around a cycle,
    # so no schedule exists, the releases grow every round and never settle,
    # and the screen keeps the plain bound.  With station 0's slots swapped
    # they settle at once: agent 1 waits at station 1 for agent 0, which the
    # plain bound does not see
    inst = make_instance(n_requests=4, n_agents=2, n_stations=2, dups=1)
    g = expand_graph(inst)
    p, d, f, hub = g.pickup_node, g.delivery_node, g.f_node, g.hf[0]
    search = _Search(inst, g, SearchConfig())

    def bounds(chains):
        socs = [fresh_socs(inst, g, k, chain) for k, chain in enumerate(chains)]
        ends = [(chain[-1], fresh_curve(inst, g, k, chain), socs[k])
                for k, chain in enumerate(chains)]
        return (slot_releases(inst, g, chains, socs), routing_bound(inst, g, chains),
                search._released_bound(chains, ends))

    crossing = [[p(0), d(0), f(0, 1), p(1), d(1), f(1, 0), hub],
                [p(2), d(2), f(1, 1), p(3), d(3), f(0, 0), hub]]
    releases, plain, screen = bounds(crossing)
    assert releases is None and screen == -math.inf
    assert release_bound(inst, g, crossing) == plain
    assert not schedule_routes(inst, g, crossing, [True] * 4).feasible

    settled = [[p(0), d(0), f(0, 0), p(1), d(1), f(1, 0), hub],
               [p(2), d(2), f(1, 1), p(3), d(3), f(0, 1), hub]]
    releases, plain, screen = bounds(settled)
    assert releases[0] == {} and list(releases[1]) == [2]  # agent 1's first station
    res = schedule_routes(inst, g, settled, [True] * 4)
    assert plain + 10.0 < screen <= res.objective
    assert screen == release_bound(inst, g, settled)


def test_each_leaf_chain_walked_once():
    # sibling leaves share all but one chain, and the search keeps each
    # (agent, leaf chain)'s stop sets and curves for the whole solve
    inst = generate(GenConfig(seed=3, n_requests=4, n_agents=2, n_stations=1,
                              duplicate_visits=2, preset="high-discharge"))
    walks = []

    class Counting(_Search):
        def _agent_stop_sets(self, k, chain):
            walks.append((k, tuple(chain)))
            return super()._agent_stop_sets(k, chain)

    counts = []
    for _ in range(2):  # a second solve walks its chains afresh
        walks.clear()
        assert Counting(inst, expand_graph(inst), SearchConfig()).run().leaves == 52
        assert len(set(walks)) == len(walks)
        counts.append(len(walks))
    assert counts[0] == counts[1] < 2 * 52, counts


@pytest.mark.parametrize("cfg", [
    pytest.param(p.values[0], id=p.id, marks=pytest.mark.slow) for p in _sweep()
    if p.values[0].n_agents == 1 and p.values[0].n_requests <= 3] + [
    pytest.param(p.values[0], id=p.id, marks=pytest.mark.slow) for p in _makeup_slice()
    if p.id.startswith("c5-charge-n3-")])
def test_external_sweep(cfg, tmp_path):
    # the external MILP referees the B&B's leaf LP and charging gaps, which
    # the oracle shares; 1e-5 is criterion 3's tolerance, as HiGHS can end
    # 1e-6 below the optimum on its feasibility tolerance.  The two-agent
    # make-up seeds at 3 requests charge at their optima, so HiGHS checks
    # the leaf LP's charging and SoC rows there (2.5-10 s of HiGHS each)
    pytest.importorskip("scipy")
    inst = generate(cfg)
    bb = branch_and_bound(inst)
    path = str(tmp_path / "m.mps")
    write_mps(build_model(inst), path)
    status, objective, _ = solve(read_mps(path))
    assert status == bb.status
    if status == "optimal":
        assert objective == pytest.approx(bb.objective, abs=1e-5)
