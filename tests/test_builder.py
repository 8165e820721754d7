import pytest

from emdarp.graph import arc_count_closed_form, expand_graph
from emdarp.model import V, build_model, earliest_pickup

from conftest import make_instance


def _dump(model):
    rows = []
    for c in model.constraints:
        rows.append((c.tag, c.index, c.part, sorted(c.coeffs.items()), c.sense, c.rhs))
    return (list(model.catalog.variables), rows,
            sorted(model.objective.items()), model.objective_constant)


def test_same_agent_pairing_count():
    inst = make_instance(n_requests=3, n_agents=2)
    model = build_model(inst)
    assert model.stats.constraint_counts["9"] == 6  # one row per (request, agent)


def test_station_order_rows():
    one = build_model(make_instance(n_stations=1, dups=1))
    assert one.stats.constraint_counts["10"] == 1
    none = build_model(make_instance(n_stations=1, dups=0))
    assert "10" not in none.stats.constraint_counts
    two = build_model(make_instance(n_stations=2, dups=2))
    assert two.stats.constraint_counts["10"] == 4


def test_x_count_matches_arc_catalog():
    inst = make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1)
    g = expand_graph(inst)
    model = build_model(inst, g)
    # one x per agent and shared arc, plus the agent-specific start arcs
    want = inst.n_agents * len(g.arcs) + sum(len(s) for s in g.start_arcs)
    assert model.stats.x_count == want
    assert arc_count_closed_form(g) == len(g.arcs) + sum(len(s) for s in g.start_arcs)


def test_family_coverage():
    inst = make_instance(n_requests=2, n_agents=1, n_stations=1, dups=1)
    counts = build_model(inst).stats.constraint_counts
    expected = {str(tag) for tag in range(2, 43)} - {"18", "21"}
    # requests here carry pickup-side windows and max_duration is finite
    expected |= {"17", "21"}
    assert expected <= set(counts)
    assert "18" not in counts

    r = inst.requests[0]
    over = {"requests": [{
        "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 1,
        "service_time": 1.0, "tw_kind": "delivery", "tw_lo": 0.0, "tw_hi": 60.0,
    }]}
    counts2 = build_model(make_instance(over=over)).stats.constraint_counts
    assert "18" in counts2 and "17" not in counts2


def test_time_continuity_row_count():
    # two requests: 2 P->P + 4 P->D + 2 D->P (own pickup excluded) + 2 D->D
    model = build_model(make_instance(n_requests=2))
    assert model.stats.constraint_counts["15"] == 10
    assert model.stats.constraint_counts["14"] == 2
    assert model.stats.constraint_counts["16"] == 2


@pytest.mark.parametrize("open_vrp, ret", [(False, 4.0), (True, 0.0)])
def test_time_bounds_follow_shortest_paths(open_vrp, ret):
    # base nodes: start, pickup, delivery, depot.  Detours beat the direct
    # arcs, so each bound takes the least time: start -> pickup 5 (via the
    # delivery), pickup -> delivery 3 and delivery -> depot 4 (via the other
    # stop); an open route's return takes no time
    matrix = [[0, 10, 2, 5], [10, 0, 8, 1], [2, 3, 0, 9], [5, 1, 2, 0]]
    inst = make_instance(over={"costs": {"mode": "matrix", "matrix": matrix},
                               "config": {"open_vrp": open_vrp}})
    model = build_model(inst)
    g, H = model.graph, model.graph.horizon
    assert model.catalog.variables[V.t(g.pickup_node(0))].lb == 5.0
    (row16,) = [c for c in model.constraints if c.tag == "16"]
    assert row16.rhs == -(1.0 + 3.0)
    (end,) = [c for c in model.constraints if c.tag == "end"]
    assert end.coeffs == {V.t(g.delivery_node(0)): 1.0, V.y(0): H + 1.0 + ret, V.T: -1.0}
    assert end.rhs == pytest.approx(H)


def test_forced_acceptance_rows():
    over = {"requests": [
        {"pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 1,
         "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
         "force_accept": True},
        {"pickup": [200.0, 0.0], "delivery": [200.0, 300.0], "passengers": 1,
         "service_time": 1.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0},
    ]}
    model = build_model(make_instance(n_requests=2, over=over))
    assert model.stats.constraint_counts["fix-y"] == 1
    assert model.stats.constraint_counts["6"] == 2

    strict = make_instance(n_requests=2, over={
        "config": {"selective": False, "duplicate_visits": 0, "open_vrp": False,
                   "weights": {"epsilon": 0.001, "zeta": 1.0, "eta": 10000.0}}})
    model2 = build_model(strict)
    assert all(c.sense == "=" for c in model2.constraints if c.tag == "6")
    assert "fix-y" not in model2.stats.constraint_counts


def test_build_is_deterministic():
    a = build_model(make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1))
    b = build_model(make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1))
    assert _dump(a) == _dump(b)


def test_override_reaches_rows():
    over = {"config": {"duplicate_visits": 0, "selective": True, "open_vrp": False,
                       "weights": {"epsilon": 0.001, "zeta": 1.0, "eta": 10000.0,
                                   "big_m": 777.0}}}
    model = build_model(make_instance(over=over))
    row3 = next(c for c in model.constraints if c.tag == "3")
    assert row3.coeffs[V.y(0)] == -777.0


def _idle_values(model):
    """All agents parked, every request rejected."""
    inst, g = model.instance, model.graph
    values = {name: 0.0 for name in model.catalog.variables}
    for r, req in enumerate(inst.requests):
        p, d = g.pickup_node(r), g.delivery_node(r)
        values[V.t(p)] = earliest_pickup(inst, g, r)
        values[V.t(d)] = values[V.t(p)] + req.service_time + g.least_time[p][d]
    for k, agent in enumerate(inst.agents):
        for r, req in enumerate(inst.requests):
            values[V.u1(g.pickup_node(r), k)] = float(req.passengers)
            values[V.u2(g.pickup_node(r), k)] = float(req.equipment)
        for i in list(g.lp) + list(g.ld) + list(g.f) + list(g.hf):
            values[V.phi(i, k)] = agent.soc_min
    return values


def test_idle_point_satisfies_every_row():
    inst = make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1)
    model = build_model(inst)
    values = _idle_values(model)
    assert model.check_feasible(values) == []
    eta = inst.weights.eta
    want = sum(r.priority for r in inst.requests) * eta
    assert model.objective_value(values) == pytest.approx(want)


def test_variable_bounds():
    inst = make_instance(n_stations=1, dups=1)
    model = build_model(inst)
    b = inst.battery
    f0 = model.graph.f[0]
    cat = model.catalog.variables
    assert cat[V.xi(f0, 1)].ub == pytest.approx(0.85 / b.beta1)
    assert cat[V.xi(f0, 2)].ub == pytest.approx(0.1 / b.beta2)
    assert cat[V.xi(f0, 3)].ub == pytest.approx(0.05 / b.beta3)
    assert cat[V.x(0, model.graph.start_node(0), model.graph.lp[0])].integer
    assert cat[V.u1(model.graph.lp[0], 0)].integer
    assert not cat[V.t(model.graph.lp[0])].integer
    # pickup-side window: delivery slack is pinned at zero
    assert cat[V.tau(model.graph.delivery_node(0))].ub == 0.0
    assert cat[V.tau(model.graph.pickup_node(0))].ub > 0.0
