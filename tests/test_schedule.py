import ast
import inspect
import math
import random

import numpy as np
import pytest

from emdarp.generate import GenConfig, generate_document
from emdarp.graph import expand_graph
from emdarp.instance import instance_from_dict
from emdarp import scheduling
from emdarp.lp import solve_lp
from emdarp.model import compute_big_m
from emdarp.scheduling import check_routes, load_violation, schedule_routes, timing_bound
from emdarp.search import branch_and_bound, exhaustive_oracle

from conftest import fresh_curve, make_doc, make_instance, routing_bound


def _chain_ids(g, labels):
    return [g.node_by_label(s) for s in labels]


def test_single_route_hand_times():
    inst = make_instance()
    g = expand_graph(inst)
    chains = [_chain_ids(g, ["p0", "d0", "h0"])]
    res = schedule_routes(inst, g, chains, [True])
    assert res.feasible
    plan = res.solution.plans[0]
    tp, td = 100 / 60, 100 / 60 + 1 + 300 / 60
    assert plan.visits[0].arrival == pytest.approx(tp)
    assert plan.visits[1].arrival == pytest.approx(td)
    assert plan.duration == pytest.approx(td + 1 + 100 / 60)
    assert res.solution.request_times[0] == pytest.approx(tp + td)
    assert res.solution.request_slacks[0] == pytest.approx(0.0)
    assert res.objective == pytest.approx(plan.duration + 0.001 * (tp + td))


def test_window_slack_beats_waiting():
    # zeta (1.0) < 1 + 2 * epsilon, so violating the window start is cheaper
    # than pushing the whole route later
    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 1,
        "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 10.0, "tw_hi": 60.0,
    }]}
    inst = make_instance(over=over)
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "h0"])], [True])
    assert res.feasible
    tp = 100 / 60
    assert res.solution.plans[0].visits[0].arrival == pytest.approx(tp)
    assert res.solution.request_slacks[0] == pytest.approx(10.0 - tp)


def test_all_rejected_costs_eta():
    inst = make_instance(n_requests=2)
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [[]], [False, False])
    assert res.feasible
    assert res.objective == pytest.approx(2 * 10000.0)


def test_reject_screens():
    inst = make_instance(n_requests=2, n_agents=2)
    g = expand_graph(inst)
    p0, d0 = g.pickup_node(0), g.delivery_node(0)
    h = g.hf[0]
    reason, _ = check_routes(inst, g, [[p0, d0, h], []], [True, True])
    assert "not fully routed" in reason
    reason, _ = check_routes(inst, g, [[p0, h], [g.pickup_node(1), d0]], [True, True])
    assert "not admissible" in reason or "split" in reason
    reason, _ = check_routes(inst, g, [[p0, d0, h], []], [True, False])
    assert reason is None
    reason, _ = check_routes(inst, g, [[], [p0, d0, h]], [False, True])
    assert "rejected but routed" in reason


def test_capacity_screens():
    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 5,
        "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
    }]}
    inst = make_instance(over=over)
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "h0"])], [True])
    assert not res.feasible and "exceeds cap" in res.reason

    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 1,
        "equipment": 2, "service_time": 1.0,
        "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
    }]}
    inst = make_instance(over=over)
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "h0"])], [True])
    assert not res.feasible and "converted capacity" in res.reason


def _charging_instance(soc_target=0.85, alpha0=0.01, n_agents=1):
    # base nodes: start, p0, d0, f0, depot; every further agent starts 1
    # from the first and has the first start's costs to the other nodes
    matrix = [
        [0.0, 10.0, 20.0, 30.0, 40.0],
        [10.0, 0.0, 10.0, 20.0, 30.0],
        [20.0, 10.0, 0.0, 5.0, 10.0],
        [30.0, 20.0, 5.0, 0.0, 5.0],
        [40.0, 30.0, 10.0, 5.0, 0.0],
    ]
    matrix = [[row[0]] * n_agents + row[1:] for row in matrix]
    matrix = [[0.0 if i == j else 1.0 for j in range(n_agents)] + matrix[0][n_agents:]
              for i in range(n_agents)] + matrix[1:]
    over = {
        "costs": {"mode": "matrix", "matrix": matrix},
        "battery": {"alpha0": alpha0, "alpha1": 0.001, "alpha2": 0.0005,
                    "beta1": 0.034, "beta2": 0.012, "beta3": 0.005},
        "agents": [dict(start=[0.0, 0.0], initial_delay=0.0, cap_passengers=4,
                        cap_equipment=2, conversion=2.0, max_duration=600.0,
                        station_service_time=2.0, soc_min=0.25, soc_init=1.0,
                        soc_target=soc_target)] * n_agents,
    }
    return make_instance(n_stations=1, dups=0, over=over)


def test_station_charge_amount():
    inst = _charging_instance()
    g = expand_graph(inst)
    chains = [_chain_ids(g, ["p0", "d0", "f0^0", "h0"])]
    res = schedule_routes(inst, g, chains, [True])
    assert res.feasible
    station = res.solution.plans[0].visits[2]
    # drains: 0.1 to p, (0.01 + 0.001)*10 = 0.11 to d, 0.05 to the station;
    # the departure floor 0.85 then forces exactly 0.11 of charge in segment 1
    assert station.soc_arrival == pytest.approx(0.74)
    assert station.charge_times[0] == pytest.approx(0.11 / 0.034)
    assert station.charge_times[1] == pytest.approx(0.0)
    assert station.soc_departure == pytest.approx(0.85)
    assert station.arrival == pytest.approx(22 + 5)
    assert res.solution.plans[0].duration == pytest.approx(
        27 + 2 + 0.11 / 0.034 + 5)


def test_leaf_lp_states_each_condition_once(monkeypatch):
    # the leaf LP through a station, seen where the benchmark tracer sees it
    calls = []

    def traced(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(scheduling, "solve_lp", traced)
    inst = _charging_instance()
    g = expand_graph(inst)
    assert schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "f0^0", "h0"])], [True]).feasible
    (args, kwargs), = calls
    call = inspect.signature(solve_lp).bind(*args, **kwargs).arguments
    c, bounds = call["c"], call["bounds"]
    # t at p0, d0, f0; tau at p0; three xi; phi at p0, d0, f0, h0; Tk; T
    assert len(c) == 13
    uppers = sorted(hi for _, hi in bounds if math.isfinite(hi))
    horizon = compute_big_m(inst, g).horizon
    assert uppers == sorted([*inst.battery.caps, inst.agents[0].max_duration, horizon])


def test_charge_spills_into_second_segment():
    inst = _charging_instance(soc_target=0.95)
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "f0^0", "h0"])], [True])
    assert res.feasible
    station = res.solution.plans[0].visits[2]
    assert station.charge_times[0] == pytest.approx(0.11 / 0.034)
    assert station.charge_times[1] == pytest.approx(0.1 / 0.012)
    assert station.charge_times[2] == pytest.approx(0.0)
    assert station.soc_departure == pytest.approx(0.95)


def test_soc_floor_makes_route_infeasible():
    inst = _charging_instance(alpha0=0.05)  # drains 0.5 to p, 0.55 more to d
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "h0"])], [True])
    assert not res.feasible and "LP" in res.reason


def test_canonical_charge_splits():
    inst = make_instance()
    b = inst.battery
    assert b.charge_split(0.8, 0.15) == pytest.approx((0.05 / b.beta1, 0.1 / b.beta2, 0.0))
    assert b.charge_split(0.8, 0.18) == pytest.approx(
        (0.05 / b.beta1, 0.1 / b.beta2, 0.03 / b.beta3))
    assert b.charge_split(0.5, 0.2) == pytest.approx((0.2 / b.beta1, 0.0, 0.0))


def test_station_visits_are_sequenced():
    inst = make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1,
                         over={"battery": {"alpha0": 0.004, "alpha1": 0.0002,
                                           "alpha2": 0.0001, "beta1": 0.034,
                                           "beta2": 0.012, "beta3": 0.005}})
    g = expand_graph(inst)
    c0 = [g.pickup_node(0), g.delivery_node(0), g.f_node(0, 0), g.hf[0]]
    c1 = [g.pickup_node(1), g.delivery_node(1), g.f_node(0, 1), g.hf[0]]
    res = schedule_routes(inst, g, [c0, c1], [True, True])
    assert res.feasible
    first = res.solution.plans[0].visits[2]
    second = res.solution.plans[1].visits[2]
    assert second.arrival >= first.departure - 1e-6


def test_out_of_order_duplicates_rejected():
    inst = make_instance(n_stations=1, dups=1)
    g = expand_graph(inst)
    chain = [g.pickup_node(0), g.delivery_node(0), g.f_node(0, 1), g.hf[0]]
    reason, _ = check_routes(inst, g, [chain], [True])
    assert "out of order" in reason


def test_partial_bound_is_lower_bound():
    inst = make_instance(n_requests=2)
    g = expand_graph(inst)
    full = [_chain_ids(g, ["p0", "d0", "p1", "d1", "h0"])]
    part = [_chain_ids(g, ["p0", "d0", "p1", "d1"])]
    res_full = schedule_routes(inst, g, full, [True, True])
    part_bound = routing_bound(inst, g, part, compute_big_m(inst, g).horizon)
    assert res_full.feasible and math.isfinite(part_bound)
    assert part_bound <= res_full.objective + 1e-9


def _request(x, passengers=1, equipment=0):
    return {"pickup": [x, 0.0], "delivery": [x, 300.0], "passengers": passengers,
            "equipment": equipment, "service_time": 1.0, "tw_kind": "pickup",
            "tw_lo": 0.0, "tw_hi": 60.0}


def test_load_violation_reasons():
    # one agent with 4 seats and 2 equipment slots, each slot worth 2 seats
    inst = make_instance(n_stations=1, over={"requests": [
        _request(100.0, passengers=5), _request(200.0, equipment=3),
        _request(300.0, equipment=2), _request(400.0, passengers=2, equipment=1)]})
    g = expand_graph(inst)
    p, d = g.pickup_node, g.delivery_node
    for chain, why in [
        ([p(0), d(0)], "agent 0 passenger load 5.0 exceeds cap"),
        ([p(1), d(1)], "agent 0 equipment load 3.0 exceeds cap"),
        ([p(2), d(2)], "agent 0 mixed load exceeds converted capacity"),
        ([p(3), g.f_node(0, 0), d(3)], "agent 0 reaches f0^0 loaded"),
        ([p(3), g.hf[0]], "agent 0 reaches h0 loaded"),
    ]:
        assert load_violation(inst, g, 0, chain, {}) == why, chain
    loads = {}
    assert load_violation(inst, g, 0, [p(3), d(3), g.f_node(0, 0), g.hf[0]], loads) is None
    assert loads == {p(3): (2.0, 1.0), d(3): (0.0, 0.0)}


def test_only_check_routes_walks_loads():
    # the curve builder charges from SoC ceilings its caller already walked,
    # so in this module only check_routes runs the load walk
    tree = ast.parse(inspect.getsource(scheduling))
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for call in ast.walk(fn) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "load_violation"}
    assert callers == {"check_routes"}


@pytest.mark.parametrize("conversion, overlap", [(2.0, False), (1.0, True)])
def test_conversion_decides_visit_order(conversion, overlap):
    # both aboard at once: 3 passengers and 1 equipment unit, 5 seats when
    # the unit takes 2, so only back-to-back service fits at conversion 2
    inst = make_instance(n_requests=2, over={
        "requests": [_request(100.0, equipment=1), _request(110.0, passengers=2)],
        "agents": [dict(make_doc()["agents"][0], conversion=conversion)]})
    g = expand_graph(inst)
    p0, d0, p1, d1 = g.pickup_node(0), g.delivery_node(0), g.pickup_node(1), g.delivery_node(1)
    assert (load_violation(inst, g, 0, [p0, p1, d0, d1], {}) is None) == overlap
    assert load_violation(inst, g, 0, [p0, d0, p1, d1], {}) is None
    bb, oracle = branch_and_bound(inst, g), exhaustive_oracle(inst, g)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-9)
    route = bb.solution.plans[0].nodes
    assert route == oracle.solution.plans[0].nodes
    assert bb.solution.accepted == [True, True]
    aboard = max(route.index(p0), route.index(p1)) < min(route.index(d0), route.index(d1))
    assert aboard == overlap


def test_partial_objective_carries_no_rejection_penalty():
    inst = make_instance(n_requests=2)
    g = expand_graph(inst)
    part = [_chain_ids(g, ["p0", "d0"])]
    horizon = compute_big_m(inst, g).horizon
    bound = routing_bound(inst, g, part, horizon)
    assert math.isfinite(bound)
    assert bound < inst.weights.eta
    assert routing_bound(inst, g, [[]], horizon) == 0.0
    full = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "h0"])], [True, False])
    assert bound <= full.objective - inst.weights.eta + 1e-9


def test_max_duration_enforced():
    over = {"agents": [dict(start=[0.0, 0.0], initial_delay=0.0, cap_passengers=4,
                            cap_equipment=2, conversion=2.0, max_duration=5.0,
                            station_service_time=2.0, soc_min=0.25, soc_init=1.0,
                            soc_target=0.85)]}
    inst = make_instance(over=over)
    g = expand_graph(inst)
    res = schedule_routes(inst, g, [_chain_ids(g, ["p0", "d0", "h0"])], [True])
    assert not res.feasible


def _timing_lp(inst, g, chains, horizon):
    """The timing rows of a routing, stations as service-only stops, written
    out and solved with the simplex: the referee for timing_bound."""
    w = inst.weights
    bounds, c, rows, rhs = [], [], [], []

    def var(ub, cost=0.0):
        bounds.append((0.0, ub))
        c.append(cost)
        return len(c) - 1

    def row(coeffs, b):
        rows.append(coeffs)
        rhs.append(b)

    total = var(horizon, 1.0)
    for k, chain in enumerate(chains):
        if not chain:
            continue
        agent = inst.agents[k]
        prev, prev_col, gap, depot = g.start_node(k), None, agent.initial_delay, None
        for node in chain:
            if g.depot_flag[node]:
                depot = node
                break
            col = var(horizon)
            row({col: -1.0, **({} if prev_col is None else {prev_col: 1.0})},
                -(gap + g.leg_time[prev][node]))
            if g.station_flag[node]:
                gap = agent.station_service_time
            else:
                r = g.stop_load[node][0]
                req = inst.requests[r]
                c[col] += req.priority * w.epsilon
                if node == (g.pickup_node(r) if req.tw_kind == "pickup" else g.delivery_node(r)):
                    tau = var(math.inf, req.priority * w.zeta)
                    row({col: -1.0, tau: -1.0}, -req.tw_lo)
                    row({col: 1.0, tau: -1.0}, req.tw_hi)
                gap = req.service_time
            prev, prev_col = node, col
        if depot is not None:
            leg = g.leg_time[prev][depot]
        else:
            leg = min(g.leg_time[prev][h] for h in g.hf)
        tk = var(min(agent.max_duration, horizon))
        row({tk: -1.0, **({} if prev_col is None else {prev_col: 1.0})}, -(gap + leg))
        row({tk: 1.0, total: -1.0}, 0.0)
    a_ub = np.zeros((len(rows), len(c)))
    for i, coeffs in enumerate(rows):
        for j, v in coeffs.items():
            a_ub[i, j] = v
    res = solve_lp(c, a_ub, rhs, bounds=bounds)
    assert res.status in ("optimal", "infeasible")
    return res.objective if res.status == "optimal" else math.inf


def _random_routing(rng, inst, g, complete):
    """Random chains: each request on a random agent or left out, pickups
    ahead of deliveries; a complete routing also gets stations at random
    places and a depot at the end of every non-empty chain."""
    chains = [[] for _ in range(inst.n_agents)]
    for r in range(inst.n_requests):
        k = rng.randrange(inst.n_agents + 1)
        if k < inst.n_agents:
            chain = chains[k]
            ip = rng.randint(0, len(chain))
            chain.insert(ip, g.pickup_node(r))
            chain.insert(rng.randint(ip + 1, len(chain)), g.delivery_node(r))
    if complete:
        for node in g.f:
            chain = chains[rng.randrange(inst.n_agents)]
            if chain and rng.random() < 0.5:
                chain.insert(rng.randint(1, len(chain)), node)
        for k, chain in enumerate(chains):
            if chain:
                chain.append(rng.choice(g.hf))
    return chains


def test_timing_bound_equals_timing_lp():
    # station-free routings: the DP is the timing LP's exact optimum; with a
    # station the DP adds a least charging time, so it can only lie above
    # the service-only LP, and with the full horizon it stays below the leaf
    # LP less the rejection penalties
    rng = random.Random(6)
    outcomes = {"finite": 0, "infeasible": 0, "charged": 0}
    for case in range(60):
        doc = generate_document(GenConfig(
            seed=case, n_requests=rng.randint(1, 4), n_agents=rng.randint(1, 2),
            n_stations=rng.randint(0, 2), open_vrp=rng.random() < 0.5))
        for req in doc["requests"]:
            req["tw_kind"] = rng.choice(["pickup", "delivery"])
        for agent in doc["agents"]:
            agent["initial_delay"] = rng.choice([0.0, round(rng.uniform(0.0, 15.0), 2)])
            agent["max_duration"] = rng.choice([math.inf, round(rng.uniform(20.0, 250.0), 2)])
        if rng.random() < 0.5:
            doc["depots"].append([round(rng.uniform(0.0, 2000.0), 3), 0.0])
        inst = instance_from_dict(doc)
        g = expand_graph(inst)
        full_horizon = compute_big_m(inst, g).horizon
        for _ in range(6):
            chains = _random_routing(rng, inst, g, complete=rng.random() < 0.5)
            horizon = full_horizon if rng.random() < 0.5 else rng.uniform(10.0, 150.0)
            want = _timing_lp(inst, g, chains, horizon)
            got = routing_bound(inst, g, chains, horizon)
            charged = any(g.station_flag[node] for chain in chains for node in chain)
            if math.isinf(want):
                assert got == math.inf, (case, chains, horizon)
                outcomes["infeasible"] += 1
                continue
            outcomes["finite"] += 1
            if not charged:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (case, chains, horizon)
                continue
            assert got >= want - 1e-9 * max(1.0, abs(want)), (case, chains, horizon)
            if horizon != full_horizon:
                continue
            accepted = [any(g.pickup_node(r) in chain for chain in chains)
                        for r in range(inst.n_requests)]
            res = schedule_routes(inst, g, chains, accepted)
            if res.feasible:
                penalty = sum(req.priority * inst.weights.eta
                              for req, acc in zip(inst.requests, accepted) if not acc)
                assert got + penalty <= res.objective + 1e-7 * max(1.0, abs(res.objective)), \
                    (case, chains)
                outcomes["charged"] += 1
    assert min(outcomes["finite"], outcomes["infeasible"]) >= 50, outcomes
    assert outcomes["charged"] >= 5, outcomes


@pytest.mark.parametrize("soc_target, charge", [
    (0.85, 0.11 / 0.034),                # segment 1 alone
    (0.95, 0.11 / 0.034 + 0.1 / 0.012),  # spills into segment 2
], ids=["segment-1", "segment-2"])
def test_timing_bound_prices_least_charge(soc_target, charge):
    # the station is reached with at most 1.0 - 0.1 - 0.11 - 0.05 = 0.74 and
    # left with at least max(soc_target, 0.25 + 0.05); the leaf LP charges
    # exactly that, so the bound is tight: p0 at 10, d0 at 21, the station at
    # 27, 2 of service, the charge, and 5 to the depot
    inst = _charging_instance(soc_target=soc_target)
    g = expand_graph(inst)
    chains = [_chain_ids(g, ["p0", "d0", "f0^0", "h0"])]
    assert load_violation(inst, g, 0, chains[0], {}) is None
    bound = routing_bound(inst, g, chains, compute_big_m(inst, g).horizon)
    assert bound == pytest.approx(27 + 2 + charge + 5 + 0.001 * (10 + 21), rel=1e-12)
    res = schedule_routes(inst, g, chains, [True])
    assert res.feasible and bound == pytest.approx(res.objective, rel=1e-9)


def test_charge_split_is_least_time():
    # fastest first is the least total time that gains the charge within
    # the caps of the scheduling LP's xi rows, here solved as an LP
    b = make_instance().battery
    for arrival in (0.0, 0.3, 0.74, 0.85, 0.9, 0.97):
        for gained in (0.0, 0.05, 0.11, 0.2, 0.26, 0.6):
            if arrival + gained > 1.0:
                continue
            caps = [max(0.0, b.CEILINGS[0] - arrival) / b.beta1, *b.caps[1:]]
            # the least time charges exactly `gained`, so -rates @ xi <= -gained
            least = solve_lp([1.0, 1.0, 1.0], A_ub=[[-r for r in b.rates]], b_ub=[-gained],
                             bounds=[(0.0, cap) for cap in caps])
            assert least.status == "optimal", (arrival, gained)
            split = b.charge_split(arrival, gained)
            assert all(0.0 <= t <= cap + 1e-12 for t, cap in zip(split, caps))
            assert b.gained(split) == pytest.approx(gained, rel=1e-12, abs=1e-12)
            assert b.charge_time(arrival, arrival + gained) == pytest.approx(
                least.objective, rel=1e-9, abs=1e-12), (arrival, gained)
    assert b.charge_time(0.9, 0.5) == 0.0


def test_timing_bound_cache_is_per_agent_chain():
    # a complete chain with a station, its curve walked once, serves two
    # routings: the curve holds the chain's least charging time (segment-1
    # case above)
    inst = _charging_instance(n_agents=2)
    g = expand_graph(inst)
    horizon = compute_big_m(inst, g).horizon
    curve = fresh_curve(inst, g, 0, _chain_ids(g, ["p0", "d0", "f0^0", "h0"]), horizon)
    assert timing_bound([curve, fresh_curve(inst, g, 1, [g.hf[0]], horizon)]) == pytest.approx(
        40 + 0.001 * (10 + 21), rel=1e-12)  # agent 1 returns at 40
    assert timing_bound([curve]) == pytest.approx(
        27 + 2 + 0.11 / 0.034 + 5 + 0.001 * (10 + 21), rel=1e-12)
