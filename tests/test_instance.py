import pytest

from emdarp.instance import (
    ParseError,
    ValidationError,
    derive_costs,
    instance_from_dict,
    load_instance,
    save_instance,
)

from conftest import make_doc, make_instance


def test_minimal_document():
    inst = make_instance(n_requests=1, n_agents=1, n_stations=0, n_depots=1)
    assert inst.n_requests == 1
    assert inst.n_agents == 1
    assert inst.n_stations == 0
    assert inst.duplicate_visits == 0


def test_tw_order_rejected():
    doc = make_doc()
    doc["requests"][0]["tw_lo"] = 50.0
    doc["requests"][0]["tw_hi"] = 40.0
    with pytest.raises(ValidationError) as err:
        instance_from_dict(doc)
    assert "requests[0]" in str(err.value)


def test_unrepresentable_horizon_rejected():
    # each window is a finite number in range, but the latest window start
    # puts the time horizon past 1e15
    doc = make_doc(n_requests=1, n_agents=1)
    doc["requests"][0]["tw_lo"] = 1e16
    doc["requests"][0]["tw_hi"] = 2e16
    with pytest.raises(ValidationError) as err:
        instance_from_dict(doc)
    assert "time horizon" in str(err.value)


def test_charging_rates_must_strictly_decrease():
    doc = make_doc()
    doc["battery"]["beta2"] = 0.05  # > beta1
    with pytest.raises(ValidationError) as err:
        instance_from_dict(doc)
    assert "charging rates must strictly decrease" in str(err.value)


def test_unknown_keys_rejected():
    doc = make_doc()
    doc["requests"][0]["surprise"] = 1
    with pytest.raises(ParseError):
        instance_from_dict(doc)
    doc = make_doc()
    doc["bogus_section"] = {}
    with pytest.raises(ParseError):
        instance_from_dict(doc)


def test_matrix_mode_preserves_asymmetry():
    # base nodes: 1 agent + 1 pickup + 1 delivery + 1 depot = 4
    matrix = [
        [0.0, 5.0, 2.0, 3.0],
        [7.0, 0.0, 1.0, 4.0],
        [2.0, 3.0, 0.0, 2.0],
        [3.0, 4.0, 2.0, 0.0],
    ]
    inst = make_instance(over={"costs": {"mode": "matrix", "matrix": matrix}})
    cost = derive_costs(inst)
    assert cost(0, 1) == 5.0
    assert cost(1, 0) == 7.0
    assert cost(2, 2) == 0.0


def test_matrix_diagonal_must_be_zero():
    matrix = [[0.0, 1.0, 1.0, 1.0],
              [1.0, 1.0, 1.0, 1.0],
              [1.0, 1.0, 0.0, 1.0],
              [1.0, 1.0, 1.0, 0.0]]
    with pytest.raises(ValidationError):
        make_instance(over={"costs": {"mode": "matrix", "matrix": matrix}})


def test_matrix_dimension_mismatch():
    with pytest.raises(ValidationError):
        make_instance(over={"costs": {"mode": "matrix", "matrix": [[0.0]]}})


def test_euclidean_cost_345_triangle():
    doc = make_doc()
    doc["meta"]["time_unit"] = "seconds"
    doc["agents"][0]["start"] = [0.0, 0.0]
    doc["requests"][0]["pickup"] = [3.0, 4.0]
    inst = instance_from_dict(doc)
    cost = derive_costs(inst)
    assert cost(0, 1) == pytest.approx(5.0)
    assert cost(1, 1) == 0.0


def test_time_unit_scales_costs():
    inst = make_instance()  # minutes
    doc = make_doc()
    doc["meta"]["time_unit"] = "seconds"
    inst_s = instance_from_dict(doc)
    c_min = derive_costs(inst)(0, 1)
    c_sec = derive_costs(inst_s)(0, 1)
    assert c_sec == pytest.approx(60.0 * c_min)


def test_missing_coordinate_in_euclidean_mode():
    doc = make_doc()
    doc["agents"][0]["start"] = None
    with pytest.raises(ValidationError):
        instance_from_dict(doc)


def test_weight_ordering_enforced():
    with pytest.raises(ValidationError):
        make_instance(over={"config": {"weights": {"epsilon": 2.0, "zeta": 1.0, "eta": 10.0}}})


def test_closed_vrp_needs_depot():
    doc = make_doc(n_depots=0)
    with pytest.raises(ValidationError):
        instance_from_dict(doc)
    doc = make_doc(n_depots=0)
    doc["config"]["open_vrp"] = True
    instance_from_dict(doc)  # open mode is fine without depots


def test_round_trip_file(tmp_path):
    inst = make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_instance(path)
