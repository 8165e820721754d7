import copy
import random
import shlex
import sys

import pytest
from hypothesis import given, settings, strategies as st

from emdarp.checker import charge_curve, validate
from emdarp.generate import GenConfig, generate
from emdarp.graph import expand_graph
from emdarp.model import build_model
from emdarp.scheduling import schedule_routes
from emdarp.search import branch_and_bound
from emdarp.solution import decode_solution, run_external

from conftest import make_instance
from test_search import _random_doc_over


def _served(inst=None, **kw):
    inst = inst or make_instance(**kw)
    g = expand_graph(inst)
    chains = [[g.pickup_node(r), g.delivery_node(r)]
              for r in range(inst.n_requests)][: inst.n_agents]
    # fold leftover requests into the first chain
    for r in range(inst.n_agents, inst.n_requests):
        chains[0] += [g.pickup_node(r), g.delivery_node(r)]
    chains = [c + [g.hf[0]] for c in chains]
    while len(chains) < inst.n_agents:
        chains.append([])
    res = schedule_routes(inst, g, chains, [True] * inst.n_requests)
    assert res.feasible, res.reason
    return inst, g, res.solution


def test_clean_solution_passes():
    inst, g, sol = _served(n_requests=2, n_agents=2)
    report = validate(inst, g, sol)
    assert report.ok, report.to_dict()["violations"]
    assert report.objective_delta <= 1e-9
    for tag in ("7", "9", "15", "17", "26", "35", "40", "24"):
        assert report.counters.get(tag, 0) > 0, tag


def test_charging_solution_passes():
    inst = make_instance(n_requests=1, n_stations=1, dups=0, over={
        "battery": {"alpha0": 0.004, "alpha1": 0.0002, "alpha2": 0.0001,
                    "beta1": 0.034, "beta2": 0.012, "beta3": 0.005}})
    g = expand_graph(inst)
    chains = [[g.pickup_node(0), g.delivery_node(0), g.f_node(0, 0), g.hf[0]]]
    res = schedule_routes(inst, g, chains, [True])
    assert res.feasible
    report = validate(inst, g, res.solution)
    assert report.ok, report.to_dict()["violations"]
    assert report.counters.get("37", 0) > 0
    assert report.counters.get("41", 0) > 0


def _tamper(sol, fn):
    out = copy.deepcopy(sol)
    fn(out)
    return out


def test_tampered_arrival_flagged():
    inst, g, sol = _served()
    bad = _tamper(sol, lambda s: setattr(s.plans[0].visits[1], "arrival",
                                         s.plans[0].visits[1].arrival - 1.0))
    report = validate(inst, g, bad)
    assert not report.ok
    assert any(v.tag in ("15", "16", "2") for v in report.violations)


def _bnb_solved(seed, n_requests):
    inst = generate(GenConfig(seed=seed, n_requests=n_requests, n_agents=2))
    g = expand_graph(inst)
    sol = branch_and_bound(inst, g).solution
    report = validate(inst, g, sol)
    assert report.ok, report.to_dict()["violations"]
    return inst, g, sol, report


@pytest.mark.parametrize("seed, n_requests", [(1, 2), (2, 1)])
def test_plans_read_by_agent(seed, n_requests):
    # each plan is read by its agent, not by its place in the list: reversed,
    # a clean plan used to show false family-2 "arrival sum" violations
    # (seed 1) or raise IndexError (seed 2)
    inst, g, sol, clean = _bnb_solved(seed, n_requests)
    report = validate(inst, g, _tamper(sol, lambda s: s.plans.reverse()))
    assert report.ok, report.to_dict()["violations"]
    assert report.counters == clean.counters


@pytest.mark.parametrize("seed, n_requests, tamper, want", [
    (2, 1, lambda s: s.plans.pop(), [((1,), "agent without a plan")]),
    (2, 1, lambda s: s.plans.append(copy.deepcopy(s.plans[0])), [((0,), "agent planned twice")]),
    (2, 1, lambda s: setattr(s.plans[1], "agent", 2),
     [((2,), "plan for an unknown agent"), ((1,), "agent without a plan")]),
    (1, 2, lambda s: s.accepted.pop(), [(("accepted",), "accepted has 1 entries, needs 2")]),
    (1, 2, lambda s: s.request_times.pop(),
     [(("request_times",), "request_times has 1 entries, needs 2")]),
    (1, 2, lambda s: s.request_slacks.pop(),
     [(("request_slacks",), "request_slacks has 1 entries, needs 2")]),
    (1, 2, lambda s: setattr(s.plans[0].visits[0], "node", 999),
     [((0, 999), "visit to a node outside the graph")]),
], ids=["dropped", "repeated", "unknown", "short-accepted", "short-request-times",
        "short-request-slacks", "node-out-of-range"])
def test_plan_per_agent_flagged(seed, n_requests, tamper, want):
    # a missing, repeated or unknown agent, a list without a value per
    # request and a node outside the graph are violations, not crashes (each
    # but the repeated and unknown agent used to raise IndexError)
    inst, g, sol, _ = _bnb_solved(seed, n_requests)
    report = validate(inst, g, _tamper(sol, tamper))
    assert [(v.index, v.note) for v in report.violations if v.tag == "plan"] == want
    assert report.ok is False


def test_tampered_window_flagged():
    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 1,
        "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 10.0, "tw_hi": 60.0,
    }]}
    inst, g, sol = _served(make_instance(over=over))
    bad = _tamper(sol, lambda s: (setattr(s.plans[0].visits[0], "slack", 0.0),
                                  s.request_slacks.__setitem__(0, 0.0)))
    report = validate(inst, g, bad)
    assert any(v.tag == "17" for v in report.violations)


def test_understated_load_flagged():
    inst, g, sol = _served()
    bad = _tamper(sol, lambda s: setattr(s.plans[0].visits[0], "load_passengers", 0.0))
    report = validate(inst, g, bad)
    assert any(v.tag == "26" for v in report.violations)


def test_overstated_soc_flagged():
    inst, g, sol = _served()
    bad = _tamper(sol, lambda s: setattr(s.plans[0].visits[1], "soc_arrival", 1.0))
    report = validate(inst, g, bad)
    assert any(v.tag in ("35", "36") for v in report.violations)


def test_wrong_objective_flagged():
    inst, g, sol = _served()
    bad = _tamper(sol, lambda s: setattr(s, "objective", s.objective - 5.0))
    report = validate(inst, g, bad)
    assert any(v.tag == "objective" for v in report.violations)
    assert report.objective_delta == pytest.approx(5.0)


def test_rejected_but_routed_flagged():
    inst, g, sol = _served()
    bad = _tamper(sol, lambda s: s.accepted.__setitem__(0, False))
    report = validate(inst, g, bad)
    assert any(v.tag == "7" for v in report.violations)


def test_charge_below_target_flagged():
    # discharge fast enough that the station is reached below the 0.85 target
    inst = make_instance(n_requests=1, n_stations=1, dups=0, over={
        "battery": {"alpha0": 0.05, "alpha1": 0.001, "alpha2": 0.0005,
                    "beta1": 0.034, "beta2": 0.012, "beta3": 0.005}})
    g = expand_graph(inst)
    chains = [[g.pickup_node(0), g.delivery_node(0), g.f_node(0, 0), g.hf[0]]]
    res = schedule_routes(inst, g, chains, [True])
    assert res.feasible

    def cut_charge(s):
        rec = s.plans[0].visits[2]
        rec.charge_times = (0.0, 0.0, 0.0)
        rec.soc_departure = rec.soc_arrival

    report = validate(inst, g, _tamper(res.solution, cut_charge))
    assert any(v.tag == "37" for v in report.violations)


def test_report_serializes():
    inst, g, sol = _served()
    doc = validate(inst, g, sol).to_dict()
    assert doc["ok"] is True
    assert isinstance(doc["counters"], dict)
    import json
    json.dumps(doc)


def test_charge_curve_hand_values():
    inst = make_instance()
    b = inst.battery
    final, times = charge_curve(0.74, 0.11 / b.beta1, b)
    assert final == pytest.approx(0.85)
    assert times == pytest.approx((0.11 / b.beta1, 0.0, 0.0))
    final, times = charge_curve(0.8, 1e9, b)
    assert final == pytest.approx(1.0)
    assert times == pytest.approx((0.05 / b.beta1, 0.1 / b.beta2, 0.05 / b.beta3))
    final, times = charge_curve(0.5, 0.0, b)
    assert final == 0.5 and times == (0.0, 0.0, 0.0)


@given(soc=st.floats(0.0, 0.85), duration=st.floats(0.0, 1e4))
@settings(max_examples=200, deadline=None)
def test_charge_curve_properties(soc, duration):
    inst = make_instance()
    b = inst.battery
    final, times = charge_curve(soc, duration, b)
    assert soc - 1e-12 <= final <= 1.0 + 1e-9
    assert all(t >= 0 for t in times)
    assert sum(times) <= duration + 1e-9
    # pouring in the recorded segment times reproduces the final level
    regained = b.beta1 * times[0] + b.beta2 * times[1] + b.beta3 * times[2]
    assert final == pytest.approx(soc + regained)
    # monotone in duration
    final2, _ = charge_curve(soc, duration * 0.5, b)
    assert final2 <= final + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_search_solutions_always_validate(seed):
    rng = random.Random(seed)
    over = _random_doc_over(rng, n_requests=rng.randint(1, 3),
                            n_agents=rng.randint(1, 2), n_stations=0)
    inst = make_instance(n_requests=len(over["requests"]),
                         n_agents=len(over["agents"]), n_stations=0, dups=0,
                         over=over)
    g = expand_graph(inst)
    res = branch_and_bound(inst, g)
    if res.solution is None:
        return
    report = validate(inst, g, res.solution)
    assert report.ok, report.to_dict()["violations"]


def test_external_solution_validates():
    pytest.importorskip("scipy")
    inst = make_instance(n_requests=2)
    model = build_model(inst)
    cmd = f"{shlex.quote(sys.executable)} -m emdarp.tools.solve_mps {{model}} {{solution}}"
    parsed = run_external(model, command=cmd, timeout=300)
    assert parsed.status == "optimal"
    sol = decode_solution(model, parsed.values, objective=parsed.objective,
                          engine="external")
    report = validate(inst, model.graph, sol)
    assert report.ok, report.to_dict()["violations"]
