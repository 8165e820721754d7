import math

import pytest

from emdarp.graph import expand_graph
from emdarp.model import compute_big_m

from conftest import make_instance


def _matrix_instance(**kw):
    # 4 base nodes: agent start, pickup, delivery, depot; max arc cost 10
    matrix = [
        [0, 10, 4, 5],
        [10, 0, 10, 6],
        [4, 10, 0, 10],
        [5, 6, 10, 0],
    ]
    over = {"costs": {"mode": "matrix", "matrix": matrix}}
    over.update(kw.pop("over", {}))
    return make_instance(over=over, **kw)


def test_horizon_hand_value():
    # release 0 + service 2 at both stops + 3 legs * max cost 10 = 34, no
    # station terms
    inst = _matrix_instance(over={"requests": [{
        "pickup": [0.0, 0.0], "delivery": [0.0, 0.0], "passengers": 1,
        "service_time": 2.0, "tw_kind": "pickup", "tw_lo": 0.0, "tw_hi": 60.0,
    }]})
    bm = compute_big_m(inst, expand_graph(inst))
    assert bm.horizon == pytest.approx(34.0)
    assert bm.time == pytest.approx(34.0)
    assert bm.obj == pytest.approx(136.0)


def test_horizon_charge_terms():
    inst = make_instance(n_stations=1, dups=1)
    g = expand_graph(inst)
    bm = compute_big_m(inst, g)
    b = inst.battery
    max_c = max(c for row in g.cost_matrix for c in row)
    expected = (
        2 * sum(r.service_time for r in inst.requests)
        + 2 * inst.agents[0].station_service_time
        + (2 * 1 + 2 + 1) * max_c
        + 2 * (0.85 / b.beta1 + 0.1 / b.beta2 + 1.0 / b.beta3)
    )
    assert bm.horizon == pytest.approx(expected)


def test_initial_delay_enters_horizon():
    base = _matrix_instance()
    delayed = _matrix_instance(over={"agents": [dict(
        start=[0.0, 0.0], initial_delay=7.5, cap_passengers=4, cap_equipment=2,
        conversion=2.0, max_duration=600.0, station_service_time=2.0,
        soc_min=0.25, soc_init=1.0, soc_target=0.85,
    )]})
    g1, g2 = expand_graph(base), expand_graph(delayed)
    assert compute_big_m(delayed, g2).horizon == pytest.approx(
        compute_big_m(base, g1).horizon + 7.5)


def test_station_opening_enters_horizon():
    # a plan may wait for the latest opening, then run as if no station waited
    base = make_instance(n_stations=2)
    late = make_instance(n_stations=2, over={"stations": [
        {"pos": [50.0, 150.0], "earliest_available": 40.0},
        {"pos": [90.0, 150.0], "earliest_available": 12.5},
    ]})
    assert compute_big_m(late, expand_graph(late)).horizon == pytest.approx(
        compute_big_m(base, expand_graph(base)).horizon + 40.0)


def test_latest_release_enters_horizon():
    # a plan waits at most until the latest window start, opening or
    # initial delay, so the horizon takes their maximum, not their sum
    base = make_instance(n_stations=1)
    late = make_instance(n_stations=1, over={
        "stations": [{"pos": [50.0, 150.0], "earliest_available": 12.5}],
        "agents": [dict(
            start=[0.0, 0.0], initial_delay=7.5, cap_passengers=4, cap_equipment=2,
            conversion=2.0, max_duration=600.0, station_service_time=2.0,
            soc_min=0.25, soc_init=1.0, soc_target=0.85,
        )],
        "requests": [{
            "pickup": [100.0, 0.0], "delivery": [100.0, 300.0], "passengers": 1,
            "service_time": 1.0, "tw_kind": "delivery", "tw_lo": 30.0, "tw_hi": 60.0,
        }],
    })
    assert compute_big_m(late, expand_graph(late)).horizon == pytest.approx(
        compute_big_m(base, expand_graph(base)).horizon + 30.0)


def test_override_replaces_both_families():
    inst = _matrix_instance(over={"config": {"weights": {
        "epsilon": 0.001, "zeta": 1.0, "eta": 10000.0, "big_m": 500.0,
    }}})
    bm = compute_big_m(inst, expand_graph(inst))
    assert bm.time == 500.0 and bm.obj == 500.0
    assert bm.horizon == pytest.approx(32.0)  # service_time defaults to 1 here


def test_horizon_overflow_rejected():
    inst = _matrix_instance(over={"battery": {
        "alpha0": 0.002, "alpha1": 0.0002, "alpha2": 0.0001,
        "beta1": 1e-18, "beta2": 1e-19, "beta3": 1e-20,
    }}, n_stations=0, dups=0)
    # no stations: tiny charge rates are harmless because |F| = 0
    assert math.isfinite(compute_big_m(inst, expand_graph(inst)).horizon)
    inst2 = make_instance(n_stations=1, dups=0, over={"battery": {
        "alpha0": 0.002, "alpha1": 0.0002, "alpha2": 0.0001,
        "beta1": 1e-18, "beta2": 1e-19, "beta3": 1e-20,
    }})
    with pytest.raises(OverflowError):
        compute_big_m(inst2, expand_graph(inst2))
