import math
import random

import numpy as np
import pytest

from emdarp.generate import GenConfig, generate_document
from emdarp.graph import expand_graph
from emdarp.instance import instance_from_dict
from emdarp.lp import solve_lp
from emdarp.model import compute_big_m
from emdarp.scheduling import canonical_charge, check_routes, schedule_routes, timing_bound
from emdarp.search import SearchConfig, _Search

from conftest import make_instance


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


def _charging_instance(soc_target=0.85, alpha0=0.01):
    # base nodes: start, p0, d0, f0, depot
    matrix = [
        [0.0, 10.0, 20.0, 30.0, 40.0],
        [10.0, 0.0, 10.0, 20.0, 30.0],
        [20.0, 10.0, 0.0, 5.0, 10.0],
        [30.0, 20.0, 5.0, 0.0, 5.0],
        [40.0, 30.0, 10.0, 5.0, 0.0],
    ]
    over = {
        "costs": {"mode": "matrix", "matrix": matrix},
        "battery": {"alpha0": alpha0, "alpha1": 0.001, "alpha2": 0.0005,
                    "beta1": 0.034, "beta2": 0.012, "beta3": 0.005},
        "agents": [dict(start=[0.0, 0.0], initial_delay=0.0, cap_passengers=4,
                        cap_equipment=2, conversion=2.0, max_duration=600.0,
                        station_service_time=2.0, soc_min=0.25, soc_init=1.0,
                        soc_target=soc_target)],
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
    xi1, xi2, xi3, z1, z2 = canonical_charge(0.8, 0.15, b)
    assert (xi1, xi2, xi3) == pytest.approx((0.05 / b.beta1, 0.1 / b.beta2, 0.0))
    assert (z1, z2) == (1, 0)
    xi1, xi2, xi3, z1, z2 = canonical_charge(0.8, 0.18, b)
    assert xi3 == pytest.approx(0.03 / b.beta3)
    assert (z1, z2) == (1, 1)
    xi1, xi2, xi3, z1, z2 = canonical_charge(0.5, 0.2, b)
    assert (xi1, xi2, xi3) == pytest.approx((0.2 / b.beta1, 0.0, 0.0))
    assert (z1, z2) == (0, 0)


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
    part_bound = timing_bound(inst, g, part, compute_big_m(inst, g).horizon, {})
    assert res_full.feasible and math.isfinite(part_bound)
    assert part_bound <= res_full.objective + 1e-9


def test_partial_routing_holds_only_placed_requests():
    inst = make_instance(n_requests=2, n_stations=1)
    g = expand_graph(inst)
    p0, d0, p1, d1 = (g.pickup_node(0), g.delivery_node(0),
                      g.pickup_node(1), g.delivery_node(1))
    station, depot = g.f_node(0, 0), g.hf[0]
    for chain, accepted, why in [
        ([p0, d0, station], [True, False], "partial routing visits"),
        ([p0, d0, depot], [True, False], "partial routing visits"),
        ([p0, d0], [True, True], "request 1 accepted but not fully routed"),
        ([p0, d0, p1], [True, True], "request 1 accepted but not fully routed"),
        ([p0, d0, p1], [True, False], "request 1 rejected but routed"),
    ]:
        reason, _ = check_routes(inst, g, [chain], accepted, partial=True)
        assert reason is not None and why in reason, (chain, accepted, reason)
        assert _Search(inst, g, SearchConfig())._bound([chain], accepted, 2) == math.inf
    reason, _ = check_routes(inst, g, [[p0, d0]], [True, False], partial=True)
    assert reason is None


def test_partial_objective_carries_no_rejection_penalty():
    inst = make_instance(n_requests=2)
    g = expand_graph(inst)
    part = [_chain_ids(g, ["p0", "d0"])]
    horizon = compute_big_m(inst, g).horizon
    bound = timing_bound(inst, g, part, horizon, {})
    assert math.isfinite(bound)
    assert bound < inst.weights.eta
    assert timing_bound(inst, g, [[]], horizon, {}) == 0.0
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
            if g.is_hub(node):
                depot = node
                break
            col = var(horizon)
            row({col: -1.0, **({} if prev_col is None else {prev_col: 1.0})},
                -(gap + g.time_cost(prev, node)))
            if g.is_station(node):
                gap = agent.station_service_time
            else:
                r = g.gamma(node)
                req = inst.requests[r]
                c[col] += req.priority * w.epsilon
                if node == (g.pickup_node(r) if req.tw_kind == "pickup" else g.delivery_node(r)):
                    tau = var(math.inf, req.priority * w.zeta)
                    row({col: -1.0, tau: -1.0}, -req.tw_lo)
                    row({col: 1.0, tau: -1.0}, req.tw_hi)
                gap = req.service_time
            prev, prev_col = node, col
        if depot is not None:
            leg = g.time_cost(prev, depot)
        else:
            leg = min(g.time_cost(prev, h) for h in g.hf)
        tk = var(min(agent.max_duration, horizon))
        row({tk: -1.0, **({} if prev_col is None else {prev_col: 1.0})}, -(gap + leg))
        row({tk: 1.0, total: -1.0}, 0.0)
    a_ub = np.zeros((len(rows), len(c)))
    for i, coeffs in enumerate(rows):
        for j, v in coeffs.items():
            a_ub[i, j] = v
    res = solve_lp(c, a_ub, rhs, None, None, bounds)
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
    rng = random.Random(6)
    outcomes = {"finite": 0, "infeasible": 0}
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
            got = timing_bound(inst, g, chains, horizon, {})
            if math.isinf(want):
                assert got == math.inf, (case, chains, horizon)
                outcomes["infeasible"] += 1
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (case, chains, horizon)
                outcomes["finite"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_timing_bound_cache_is_per_agent_chain():
    inst = make_instance(n_requests=2, n_agents=2)
    g = expand_graph(inst)
    horizon = compute_big_m(inst, g).horizon
    cache = {}
    a = [g.pickup_node(0), g.delivery_node(0)]
    b = [g.pickup_node(1), g.delivery_node(1)]
    both = timing_bound(inst, g, [a, b], horizon, cache)
    assert set(cache) == {(0, tuple(a)), (1, tuple(b))}
    assert timing_bound(inst, g, [a, b], horizon, {}) == both
    assert timing_bound(inst, g, [b, a], horizon, cache) == timing_bound(inst, g, [b, a],
                                                                         horizon, {})
