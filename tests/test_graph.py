import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from emdarp.generate import generate, generate_document
from emdarp.graph import arc_count_closed_form, expand_graph
from emdarp.instance import instance_from_dict

from conftest import make_doc, make_instance
from test_acceptance import corpus_config


def test_station_duplication_m1_n2():
    inst = make_instance(n_stations=1, dups=2)
    g = expand_graph(inst)
    assert len(g.f) == 3
    assert [g.station_of(i) for i in g.f] == [(0, 0), (0, 1), (0, 2)]


def test_station_duplication_m2_n0():
    inst = make_instance(n_stations=2, dups=0)
    g = expand_graph(inst)
    assert len(g.f) == 2
    assert [g.station_of(i) for i in g.f] == [(0, 0), (1, 0)]


def test_node_universe_count():
    inst = make_instance(n_agents=2, n_requests=6, n_stations=1, dups=2, n_depots=1)
    g = expand_graph(inst)
    assert g.n_nodes == 2 + 12 + 3 + 1 == 18


def test_duplicates_share_position_and_omega():
    inst = make_instance(n_stations=1, dups=2,
                         over={"stations": [{"pos": [50.0, 150.0], "earliest_available": 7.5}]})
    g = expand_graph(inst)
    nodes = list(g.f)
    assert len({g.position(i) for i in nodes}) == 1
    assert all(inst.stations[g.station_of(i)[0]].earliest_available == 7.5 for i in nodes)
    # zero travel time between duplicates of the same station
    assert g.cost_matrix[nodes[0]][nodes[1]] == 0.0


def test_arc_topology_exhaustive():
    inst = make_instance(n_agents=2, n_requests=3, n_stations=1, dups=1)
    g = expand_graph(inst)
    for i, j in itertools.product(range(g.n_nodes), repeat=2):
        ok = any(g.admissible(i, j, k) for k in range(inst.n_agents))
        if j in g.h0:
            assert not ok, "no arc may enter H0"
        if i in g.hf:
            assert not ok, "no arc may leave Hf"
        if i in g.h0:
            assert ok == (j in g.lp)
        if i in g.f:
            assert ok == (j in g.lp or j in g.hf), "F goes only to Lp or Hf"
        if i in g.lp:
            assert ok == ((j in g.lp and i != j) or j in g.ld)
        if i in g.ld:
            if j in g.lp:
                assert ok == (j - g.lp.start != i - g.ld.start), "own-pickup return arc is pruned"
            elif j in g.ld:
                assert ok == (i != j)
            else:
                assert ok == (j in g.f or j in g.hf)


def test_start_arcs_are_agent_specific():
    inst = make_instance(n_agents=2, n_requests=2)
    g = expand_graph(inst)
    v0, v1 = g.start_node(0), g.start_node(1)
    p0 = g.pickup_node(0)
    assert g.admissible(v0, p0, 0)
    assert not g.admissible(v0, p0, 1)
    assert g.admissible(v1, p0, 1)


def test_arc_count_closed_form():
    for kw in [dict(n_agents=1, n_requests=1), dict(n_agents=2, n_requests=3, n_stations=1, dups=1),
               dict(n_agents=2, n_requests=4, n_stations=2, dups=2, n_depots=2)]:
        g = expand_graph(make_instance(**kw))
        catalog = len(g.arcs) + sum(len(s) for s in g.start_arcs)
        assert catalog == arc_count_closed_form(g)


def test_gamma_bijection_and_mu():
    # the paper's gamma (a stop's request) and mu (+1 at a pickup, -1 at a
    # delivery) as stop_load holds them: the request, then its loads times mu
    doc = make_doc(n_requests=3)
    for r, req in enumerate(doc["requests"]):
        req["passengers"], req["equipment"] = r + 1, 1
    g = expand_graph(instance_from_dict(doc))
    assert [g.stop_load[i] for i in g.lp] == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    assert [g.stop_load[i] for i in g.ld] == [(0, -1, -1), (1, -2, -1), (2, -3, -1)]


def _workload_configs():
    """The GenConfig of every spec of the benchmark's workloads."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [cfg for workload in module.WORKLOADS for _, _, cfg, _, _ in module._specs(workload)]


def test_least_costs_equal_euclidean_arc_costs():
    # on Euclidean costs the least tables are the arc costs bit for bit, so
    # every bound and screen that reads them gives what the arc costs give
    configs = [*map(corpus_config, range(25)), *_workload_configs()]
    assert len(configs) == 25 + 16
    for cfg in configs:
        g = expand_graph(generate(cfg))
        for i, j in itertools.product(range(g.n_nodes), repeat=2):
            assert g.least_time[i][j] == g.leg_time[i][j], (cfg, i, j)
            assert g.least_energy[i][j] == g.leg_energy[i][j], (cfg, i, j)


@pytest.mark.parametrize("open_vrp, soc_to_hub", [(False, True), (True, True), (True, False)])
def test_least_costs_take_detours(open_vrp, soc_to_hub):
    # base nodes: start, pickup, delivery, depot.  Detours beat the direct
    # arcs start -> pickup (2 + 3 via the delivery) and delivery -> depot
    # (3 + 1 via the pickup); an open route reaches a depot in no time, and
    # without open_vrp_soc_to_hub without discharging
    matrix = [[0, 10, 2, 5], [10, 0, 8, 1], [2, 3, 0, 9], [5, 1, 2, 0]]
    g = expand_graph(make_instance(over={
        "costs": {"mode": "matrix", "matrix": matrix},
        "config": {"open_vrp": open_vrp, "open_vrp_soc_to_hub": soc_to_hub}}))
    v, p, d, h = g.start_node(0), g.pickup_node(0), g.delivery_node(0), g.hf[0]
    for table in (g.least_time, g.least_energy):
        assert (table[v][p], table[p][d], table[d][p]) == (5.0, 3.0, 3.0)
    assert [g.least_time[i][h] for i in (v, p, d)] == ([0.0] * 3 if open_vrp else [5.0, 1.0, 4.0])
    free = open_vrp and not soc_to_hub
    assert [g.least_energy[i][h] for i in (v, p, d)] == ([0.0] * 3 if free else [5.0, 1.0, 4.0])


@pytest.mark.parametrize("soc_to_hub", [True, False])
@pytest.mark.parametrize("i", range(25), ids=lambda i: f"corpus-{i}")
def test_node_tables_match_the_methods(i, soc_to_hub):
    # each table against its fact worked out here: every leg's time and
    # energy from cost_matrix with the open-route rules (an odd corpus
    # configuration has open routes), each pickup's and delivery's request
    # from its offset in lp or ld with the request's loads signed + or -,
    # the flags from the f and hf ranges, and is_station from its flag
    doc = generate_document(corpus_config(i))
    doc["config"]["open_vrp_soc_to_hub"] = soc_to_hub
    inst = instance_from_dict(doc)
    g = expand_graph(inst)
    for a, b in itertools.product(range(g.n_nodes), repeat=2):
        free = inst.open_vrp and b in g.hf
        assert g.leg_time[a][b] == (0.0 if free else g.cost_matrix[a][b])
        assert g.leg_energy[a][b] == (0.0 if free and not soc_to_hub else g.cost_matrix[a][b])
    stops = {}
    for r, req in enumerate(inst.requests):
        stops[g.lp.start + r] = (r, req.passengers, req.equipment)
        stops[g.ld.start + r] = (r, -req.passengers, -req.equipment)
    for node in range(g.n_nodes):
        assert g.stop_load[node] == stops.get(node), node
        assert g.station_flag[node] == (node in g.f) == g.is_station(node), node
        assert g.depot_flag[node] == (node in g.hf), node
