"""Seeded random instance generator.

Uses Python's random.Random (Mersenne Twister), which is stable across
platforms and versions for the distributions used here, so a seed fully
determines the instance.  The draw order is frozen: per request pickup x/y,
delivery x/y, passengers, equipment, service time, window side, window start,
window width, priority; then per agent start x/y and initial delay; then per
station x/y; then the depot x/y.  Changing this order invalidates seeds.

Two battery presets mirror common experiment setups: "typical" sizes the
discharge rate so a full battery covers roughly eight area diagonals,
"high-discharge" roughly two, which forces mid-route charging stops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .instance import Instance, instance_from_dict, instance_to_dict

PRESETS = ("typical", "high-discharge")
TW_WIDTH = (20.0, 60.0)  # minutes
PRIORITY = (1.0, 5.0)
# demands fit every agent's capacity (4 seats, 2 equipment slots)
PASSENGERS = (1, 2)
EQUIPMENT = (0, 1)


@dataclass
class GenConfig:
    seed: int = 0
    n_requests: int = 3
    n_agents: int = 2
    n_stations: int = 0
    duplicate_visits: int = 0
    area: float = 2000.0  # square side in meters
    preset: str = "typical"
    selective: bool = True
    open_vrp: bool = False

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown battery preset {self.preset!r}")
        if not 0.0 < self.area < math.inf:
            raise ValueError(f"area must be positive and finite, got {self.area!r}")


def battery_for(preset: str, area: float) -> dict:
    """Discharge/charge rates scaled to the playing field size."""
    diag_minutes = math.sqrt(2.0) * area / 60.0  # at 1 m/s
    reach = 8.0 if preset == "typical" else 2.0
    alpha0 = 1.0 / (reach * diag_minutes)
    return {
        "alpha0": alpha0,
        "alpha1": alpha0 / 8.0,
        "alpha2": alpha0 / 10.0,
        "beta1": 0.034,
        "beta2": 0.012,
        "beta3": 0.005,
    }


def generate(config: GenConfig) -> Instance:
    rng = random.Random(config.seed)
    area = config.area

    def pt():
        return [round(rng.uniform(0.0, area), 3), round(rng.uniform(0.0, area), 3)]

    diag_minutes = math.sqrt(2.0) * area / 60.0
    requests = []
    for _ in range(config.n_requests):
        pickup = pt()
        delivery = pt()
        q1 = rng.randint(*PASSENGERS)
        q2 = rng.randint(*EQUIPMENT)
        service = round(rng.uniform(0.5, 2.0), 3)
        side = rng.choice(["pickup", "delivery"])
        tw_lo = round(rng.uniform(0.0, 2.0 * diag_minutes), 3)
        width = round(rng.uniform(*TW_WIDTH), 3)
        prio = round(rng.uniform(*PRIORITY), 3)
        requests.append({
            "pickup": pickup, "delivery": delivery,
            "passengers": q1, "equipment": q2, "service_time": service,
            "tw_kind": side, "tw_lo": tw_lo, "tw_hi": round(tw_lo + width, 3),
            "priority": prio,
        })

    agents = []
    for _ in range(config.n_agents):
        start = pt()
        delay = round(rng.uniform(0.0, 2.0), 3)
        agents.append({
            "start": start, "initial_delay": delay,
            "cap_passengers": 4, "cap_equipment": 2,
            "conversion": 2.0, "station_service_time": 2.0,
            "soc_min": 0.25, "soc_init": 1.0, "soc_target": 0.85,
        })

    stations = [{"pos": pt(), "earliest_available": 0.0}
                for _ in range(config.n_stations)]
    depot = pt()

    doc = {
        "meta": {"time_unit": "minutes"},
        "requests": requests,
        "agents": agents,
        "stations": stations,
        "depots": [depot],
        "costs": {"mode": "euclidean"},
        "battery": battery_for(config.preset, area),
        "config": {
            "duplicate_visits": config.duplicate_visits,
            "selective": config.selective,
            "open_vrp": config.open_vrp,
            "weights": {"epsilon": 0.001, "zeta": 1.0, "eta": 10000.0},
        },
    }
    return instance_from_dict(doc)


def generate_document(config: GenConfig) -> dict:
    """Same as generate() but returning the raw instance document."""
    return instance_to_dict(generate(config))
