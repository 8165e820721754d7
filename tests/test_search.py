import itertools
import math
import random

import pytest

from emdarp.generate import GenConfig, generate, generate_document
from emdarp.graph import expand_graph
from emdarp.instance import instance_from_dict
from emdarp.model import build_model
from emdarp.scheduling import schedule_routes
from emdarp.checker import validate
from emdarp.search import (
    SearchConfig, branch_and_bound, exhaustive_oracle, request_order, _insertions, _Search,
)
from emdarp.solution import encode_plan

from conftest import make_instance


def _random_doc_over(rng, n_requests, n_agents, n_stations, dups):
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


def test_insertions_cover_all_position_pairs():
    chains = _insertions([10, 11], 1, 2)
    assert len(chains) == 6  # 3 pickup slots before each, triangular pairs
    assert [1, 2, 10, 11] in chains
    assert [10, 1, 11, 2] in chains
    for chain in chains:
        assert chain.index(1) < chain.index(2)


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
    # requests a partial routing has not placed yet are undecided, not
    # rejected, so the partial-chain bound stays finite above the leaves
    inst = generate(GenConfig(seed=seed, n_requests=3, n_agents=2, selective=False))
    bb = branch_and_bound(inst)
    oracle = exhaustive_oracle(inst)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert bb.solution.accepted == [True, True, True]


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_greedy_incumbent_on_nonselective(seed):
    # a greedy plan that still leaves requests out is scored, not discarded;
    # it becomes the incumbent once every request is placed
    inst = generate(GenConfig(seed=seed, n_requests=3, n_agents=2, selective=False))
    g = expand_graph(inst)
    search = _Search(inst, g, SearchConfig())
    search._greedy_incumbent()
    assert math.isfinite(search.best_obj)
    sol = search.best.solution
    assert sol.accepted == [True, True, True]
    assert validate(inst, g, sol).ok
    assert search.best_obj >= exhaustive_oracle(inst, g).objective - 1e-6


def test_undecided_must_serve_request_is_not_rejected():
    # the must-serve request comes last in the branching order, so every
    # partial routing above it leaves it undecided
    doc = generate_document(GenConfig(seed=3, n_requests=3, n_agents=1))
    doc["requests"][1]["force_accept"] = True
    inst = instance_from_dict(doc)
    assert request_order(inst)[-1] == 1
    bb = branch_and_bound(inst)
    oracle = exhaustive_oracle(inst)
    assert bb.status == oracle.status == "optimal"
    assert bb.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert bb.solution.accepted == oracle.solution.accepted


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


def test_node_limit_reports_gap():
    inst = make_instance(n_requests=3, n_agents=2)
    res = branch_and_bound(inst, config=SearchConfig(node_limit=1))
    assert res.status in ("feasible", "limit")
    if res.solution is not None:
        assert res.status == "feasible"
        assert res.gap >= 0.0
        assert res.best_bound <= res.objective + 1e-9


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


def test_oracle_caps():
    with pytest.raises(ValueError, match="oracle caps exceeded"):
        exhaustive_oracle(make_instance(n_requests=5))
    with pytest.raises(ValueError, match="oracle caps exceeded"):
        exhaustive_oracle(make_instance(n_agents=3))
    with pytest.raises(ValueError, match="oracle caps exceeded"):
        exhaustive_oracle(make_instance(n_stations=1, dups=2))


@pytest.mark.parametrize("seed", range(10))
def test_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    n_requests = rng.randint(1, 3)
    n_agents = rng.randint(1, 2)
    n_stations = rng.randint(0, 1)
    over = _random_doc_over(rng, n_requests, n_agents, n_stations, dups=1 - 1)
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


@pytest.mark.parametrize("cfg", list(_sweep()))
def test_differential_sweep(cfg):
    # the 96 two-request configurations run in tier-1; the other 144 are
    # marked slow, and `-m ''` runs the whole grid (about ten minutes, mostly
    # the oracle)
    inst = generate(cfg)
    g = expand_graph(inst)
    bb = branch_and_bound(inst, g)
    oracle = exhaustive_oracle(inst, g)
    assert bb.status == oracle.status
    if oracle.status == "optimal":
        assert bb.objective == pytest.approx(oracle.objective, rel=1e-6)
        assert validate(inst, g, bb.solution).ok
