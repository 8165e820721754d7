import itertools

from emdarp.graph import arc_count_closed_form, expand_graph

from conftest import make_instance


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
    assert all(g.omega(i) == 7.5 for i in nodes)
    # zero travel time between duplicates of the same station
    assert g.cost(nodes[0], nodes[1]) == 0.0


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
            r = g.gamma(i)
            if j in g.lp:
                assert ok == (g.gamma(j) != r), "own-pickup return arc is pruned"
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
    inst = make_instance(n_requests=3)
    g = expand_graph(inst)
    assert [g.gamma(i) for i in g.lp] == [0, 1, 2]
    assert [g.gamma(i) for i in g.ld] == [0, 1, 2]
    assert all(g.mu(i) == 1 for i in g.lp)
    assert all(g.mu(i) == -1 for i in g.ld)


def test_euclidean_costs_are_metric():
    g = expand_graph(make_instance(n_requests=2, n_stations=1))
    assert g.metric
