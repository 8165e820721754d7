import hashlib
import json
import math

import pytest

from emdarp.generate import GenConfig, battery_for, generate, generate_document
from emdarp.graph import expand_graph
from emdarp.instance import instance_from_dict, instance_to_dict, validate_instance

from test_acceptance import corpus_config


def test_same_seed_byte_identical():
    cfg = GenConfig(seed=42, n_requests=4, n_agents=2, n_stations=1,
                    duplicate_visits=1)
    a = json.dumps(generate_document(cfg), sort_keys=True)
    b = json.dumps(generate_document(cfg), sort_keys=True)
    assert a == b


def test_different_seed_differs():
    a = generate_document(GenConfig(seed=1, n_requests=3))
    b = generate_document(GenConfig(seed=2, n_requests=3))
    assert a != b


def test_generated_instances_validate():
    for seed in range(12):
        cfg = GenConfig(seed=seed, n_requests=1 + seed % 4,
                        n_agents=1 + seed % 3, n_stations=seed % 2,
                        duplicate_visits=seed % 2,
                        preset="typical" if seed % 2 else "high-discharge",
                        selective=bool(seed % 3), open_vrp=bool(seed % 2))
        inst = generate(cfg)
        validate_instance(inst)  # raises on a rule relating two or more fields
        # each field's own type and range are checked as a document is read
        assert instance_from_dict(instance_to_dict(inst)) == inst


def test_generated_documents_pinned():
    # the writer's key order and values: json.dumps does not sort the keys,
    # and perfbench builds its instance documents the same way
    digest = hashlib.sha256()
    for seed in range(25):
        digest.update(json.dumps(generate_document(corpus_config(seed))).encode() + b"\n")
    assert digest.hexdigest() == "493a4e8e706369e4df9c498266d7dbed9a93bf7363a9194230d29a3610298d26"


def test_shapes_and_flags():
    inst = generate(GenConfig(seed=7, n_requests=6, n_agents=2, n_stations=1,
                              duplicate_visits=2, preset="high-discharge",
                              selective=True, open_vrp=False))
    assert len(inst.requests) == 6
    assert len(inst.agents) == 2
    assert len(inst.stations) == 1
    assert inst.duplicate_visits == 2
    assert inst.selective and not inst.open_vrp
    g = expand_graph(inst)
    assert len(g.f) == 1 * (2 + 1)

    inst2 = generate(GenConfig(seed=8, n_requests=8, n_agents=3, n_stations=0,
                               preset="typical", selective=False,
                               open_vrp=True))
    assert len(inst2.requests) == 8 and len(inst2.agents) == 3
    assert not inst2.stations
    assert not inst2.selective and inst2.open_vrp


def test_battery_presets_scale_with_area():
    area = 3000.0
    diag_minutes = math.sqrt(2.0) * area / 60.0
    typ = battery_for("typical", area)
    hot = battery_for("high-discharge", area)
    assert typ["alpha0"] == pytest.approx(1.0 / (8.0 * diag_minutes))
    assert hot["alpha0"] == pytest.approx(1.0 / (2.0 * diag_minutes))
    assert hot["alpha0"] == pytest.approx(4.0 * typ["alpha0"])
    # one diagonal crossing never drains a full battery outright
    assert hot["alpha0"] * diag_minutes <= 1.0
    for b in (typ, hot):
        assert b["alpha1"] == pytest.approx(b["alpha0"] / 8.0)
        assert b["alpha2"] == pytest.approx(b["alpha0"] / 10.0)
        assert b["beta1"] > b["beta2"] > b["beta3"]


def test_demands_within_capacity():
    for seed in range(6):
        inst = generate(GenConfig(seed=seed, n_requests=5))
        for r in inst.requests:
            assert all(r.passengers <= a.cap_passengers for a in inst.agents)
            assert all(r.equipment <= a.cap_equipment for a in inst.agents)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        GenConfig(preset="nuclear")


def test_round_trip_document():
    inst = generate(GenConfig(seed=5, n_requests=2, n_stations=1,
                              duplicate_visits=1))
    doc = instance_to_dict(inst)
    assert doc == generate_document(GenConfig(seed=5, n_requests=2,
                                              n_stations=1,
                                              duplicate_visits=1))
