import math

import pytest

from emdarp.instance import instance_from_dict
from emdarp.scheduling import (
    agent_curve, load_violation, slot_releases, soc_ceilings, timing_bound,
)


def make_doc(n_requests=1, n_agents=1, n_stations=0, dups=0, n_depots=1, **over):
    """Small well-formed instance document with positions on a grid."""
    doc = {
        "meta": {"time_unit": "minutes"},
        "requests": [
            {
                "pickup": [100.0 * (r + 1), 0.0],
                "delivery": [100.0 * (r + 1), 300.0],
                "passengers": 1,
                "equipment": 0,
                "service_time": 1.0,
                "tw_kind": "pickup",
                "tw_lo": 0.0,
                "tw_hi": 60.0,
                "priority": 1.0,
            }
            for r in range(n_requests)
        ],
        "agents": [
            {
                "start": [0.0, 50.0 * k],
                "initial_delay": 0.0,
                "cap_passengers": 4,
                "cap_equipment": 2,
                "conversion": 2.0,
                "max_duration": 600.0,
                "station_service_time": 2.0,
                "soc_min": 0.25,
                "soc_init": 1.0,
                "soc_target": 0.85,
            }
            for k in range(n_agents)
        ],
        "stations": [
            {"pos": [50.0 + 40.0 * s, 150.0], "earliest_available": 0.0}
            for s in range(n_stations)
        ],
        "depots": [[0.0, 300.0]] * n_depots,
        "costs": {"mode": "euclidean"},
        "battery": {
            "alpha0": 0.002,
            "alpha1": 0.0002,
            "alpha2": 0.0001,
            "beta1": 0.034,
            "beta2": 0.012,
            "beta3": 0.005,
        },
        "config": {
            "duplicate_visits": dups,
            "selective": True,
            "open_vrp": False,
            "weights": {"epsilon": 0.001, "zeta": 1.0, "eta": 10000.0},
        },
    }
    doc.update(over)
    return doc


def make_instance(**kw):
    over = kw.pop("over", {})
    doc = make_doc(**kw)
    _deep_update(doc, over)
    return instance_from_dict(doc)


def _deep_update(doc, over):
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(doc.get(key), dict):
            _deep_update(doc[key], val)
        else:
            doc[key] = val


def fresh_socs(inst, graph, k, chain):
    """The ``soc_ceilings`` of agent *k*'s *chain* at its own
    ``load_violation`` loads when it ends at a depot, else ()."""
    if not chain or not graph.depot_flag[chain[-1]]:
        return ()
    loads = {}
    load_violation(inst, graph, k, chain, loads)
    return soc_ceilings(inst, graph, k, chain, loads, -math.inf)


def fresh_curve(inst, graph, k, chain, horizon, releases=None):
    """Agent *k*'s ``agent_curve`` walked from scratch: a chain that ends at
    a depot charges from its ``fresh_socs``."""
    return agent_curve(inst, graph, k, chain, horizon,
                       fresh_socs(inst, graph, k, chain), releases)


def routing_bound(inst, graph, chains, horizon):
    """``timing_bound`` of a routing, over a fresh curve of each agent with
    stops."""
    return timing_bound(fresh_curve(inst, graph, k, chain, horizon)
                        for k, chain in enumerate(chains) if chain)


def release_bound(inst, graph, chains, horizon):
    """``routing_bound`` of a complete routing with each agent timed from
    its ``slot_releases``; the plain one when they never settle."""
    socs = [fresh_socs(inst, graph, k, chain) for k, chain in enumerate(chains)]
    releases = slot_releases(inst, graph, chains, socs) or [None] * len(chains)
    return timing_bound(fresh_curve(inst, graph, k, chain, horizon, releases[k])
                        for k, chain in enumerate(chains) if chain)


@pytest.fixture
def tiny_instance():
    return make_instance()
