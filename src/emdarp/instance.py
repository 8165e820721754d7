"""Domain types, instance file schema, and travel-cost derivation.

An instance is a declarative description of one routing problem: customer
requests, vehicle agents, charging stations, final depots, the cost model,
the battery model, and the variant configuration.  Everything downstream
(graph expansion, model building, solving, validation) consumes the frozen
:class:`Instance` produced here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar


class InstanceError(ValueError):
    """Base error for malformed or invalid instance documents."""

    def __init__(self, path: str, message: str):
        self.field_path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ParseError(InstanceError):
    """The document is not syntactically well-formed."""


class ValidationError(InstanceError):
    """The document parses but violates an instance invariant."""


TW_PICKUP = "pickup"
TW_DELIVERY = "delivery"

TIME_UNIT_SECONDS = {"seconds": 1.0, "minutes": 60.0, "hours": 3600.0}


@dataclass(frozen=True)
class Request:
    id: int
    pickup_pos: tuple[float, float] | None
    delivery_pos: tuple[float, float] | None
    passengers: int
    equipment: int
    service_time: float
    tw_kind: str  # TW_PICKUP or TW_DELIVERY
    tw_lo: float
    tw_hi: float
    priority: float = 1.0
    force_accept: bool = False


@dataclass(frozen=True)
class Agent:
    id: int
    start_pos: tuple[float, float] | None
    initial_delay: float
    cap_passengers: int
    cap_equipment: int
    conversion: float
    max_duration: float
    station_service_time: float
    soc_min: float
    soc_init: float
    soc_target: float
    terminal_hub: int | None = None

    @property
    def combined_cap(self) -> float:
        """Seat budget with every equipment slot converted to seats."""
        return self.cap_passengers + self.conversion * self.cap_equipment


@dataclass(frozen=True)
class BatteryModel:
    """Discharge linear in distance and load (see ``drain``); charging at
    rate beta1, beta2, beta3 up to the state of charge in CEILINGS.  WIDTHS are literals: ``0.95 - 0.85`` is not
    ``0.1`` in floating point, and every model row and bound uses ``0.1``."""

    alpha0: float
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    beta3: float

    WIDTHS: ClassVar[tuple[float, float, float]] = (0.85, 0.1, 0.05)
    CEILINGS: ClassVar[tuple[float, float, float]] = (0.85, 0.95, 1.0)

    @property
    def rates(self) -> tuple[float, float, float]:
        return (self.beta1, self.beta2, self.beta3)

    @property
    def caps(self) -> tuple[float, float, float]:
        """Longest useful charging time in each segment (width / rate)."""
        return tuple(w / r for w, r in zip(self.WIDTHS, self.rates))

    def gained(self, xi) -> float:
        """Charge acquired from per-segment charging times *xi*."""
        return sum(r * t for r, t in zip(self.rates, xi))

    def drain(self, cost: float, load: tuple[float, float]) -> float:
        """Charge used on a leg of energy cost *cost* driven with *load*
        (passengers, equipment) on board.  An empty vehicle drains
        ``alpha0 * cost`` exactly: the load term adds ``0.0``."""
        u1, u2 = load
        return self.alpha0 * cost + (self.alpha1 * u1 + self.alpha2 * u2) * cost

    def charge_split(self, arrival: float, gained: float) -> tuple[float, float, float]:
        """Per-segment charging times that gain *gained* from state of
        charge *arrival* on the curve the scheduling LP relaxes, fastest
        first: segment 1 up to ``CEILINGS[0] - arrival``, then ``WIDTHS[1]``
        at beta2 and the rest at beta3.  Past 1.0 the LP is infeasible, and
        the excess is priced at beta3."""
        a1 = min(gained, max(0.0, self.CEILINGS[0] - arrival))
        a2 = min(gained - a1, self.WIDTHS[1])
        return (a1 / self.beta1, a2 / self.beta2, (gained - a1 - a2) / self.beta3)

    def charge_time(self, arrival: float, departure: float) -> float:
        """Least charging time from state of charge *arrival* to *departure*
        (``charge_split``).  It never rises with *arrival* and never falls
        with *departure*."""
        need = departure - arrival
        if need <= 0.0:
            return 0.0
        xi1, xi2, xi3 = self.charge_split(arrival, need)
        return xi1 + xi2 + xi3


@dataclass(frozen=True)
class Station:
    id: int
    pos: tuple[float, float] | None
    earliest_available: float = 0.0


@dataclass(frozen=True)
class ObjectiveWeights:
    epsilon: float = 1e-3
    zeta: float = 1.0
    eta: float = 1e4
    big_m_override: float | None = None


@dataclass(frozen=True)
class Instance:
    requests: tuple[Request, ...]
    agents: tuple[Agent, ...]
    stations: tuple[Station, ...]
    final_depots: tuple[tuple[float, float] | None, ...]
    duplicate_visits: int
    cost_mode: str  # "euclidean" | "matrix"
    cost_matrix: tuple[tuple[float, ...], ...] | None
    battery: BatteryModel
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    selective: bool = True
    open_vrp: bool = False
    time_unit: str = "minutes"
    open_vrp_soc_to_hub: bool = True
    integer_loads: bool = True

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_stations(self) -> int:
        return len(self.stations)


# --- base node bookkeeping -------------------------------------------------
#
# Every positioned entity owns one "base" node.  The expanded routing graph
# later clones station nodes per allowed visit; clones share the base node of
# their station.  Base ordering (frozen, documented in the README):
# agent starts, pickups, deliveries, stations, final depots.


def base_node_count(inst: Instance) -> int:
    return inst.n_agents + 2 * inst.n_requests + inst.n_stations + len(inst.final_depots)


def base_positions(inst: Instance) -> list[tuple[float, float] | None]:
    pos: list[tuple[float, float] | None] = [a.start_pos for a in inst.agents]
    pos += [r.pickup_pos for r in inst.requests]
    pos += [r.delivery_pos for r in inst.requests]
    pos += [s.pos for s in inst.stations]
    pos += list(inst.final_depots)
    return pos


def derive_costs(inst: Instance):
    """Return the base-node travel-time function ``(i, j) -> time``.

    Euclidean mode: straight-line distance at 1 m/s, converted to the
    instance time unit.  Matrix mode: the matrix entry verbatim.  The
    diagonal is always zero.
    """
    n = base_node_count(inst)
    if inst.cost_mode == "matrix":
        matrix = inst.cost_matrix
        if matrix is None or len(matrix) != n or any(len(row) != n for row in matrix):
            got = 0 if matrix is None else len(matrix)
            raise ValidationError(
                "costs.matrix", f"matrix must be {n}x{n} (base node count), got {got} rows"
            )

        def cost(i: int, j: int) -> float:
            return 0.0 if i == j else matrix[i][j]

        return cost

    positions = base_positions(inst)
    for idx, p in enumerate(positions):
        if p is None:
            raise ValidationError(
                f"base node {idx}", "missing coordinates (required in euclidean cost mode)"
            )
    scale = TIME_UNIT_SECONDS[inst.time_unit]

    def cost(i: int, j: int) -> float:
        if i == j:
            return 0.0
        (x0, y0), (x1, y1) = positions[i], positions[j]
        return math.hypot(x1 - x0, y1 - y0) / scale

    return cost


# --- invariant validation ----------------------------------------------------


def validate_instance(inst: Instance) -> None:
    """Check every instance invariant; raise ValidationError naming the field."""
    for idx, r in enumerate(inst.requests):
        where = f"requests[{idx}]"
        if r.passengers < 1:
            raise ValidationError(f"{where}.passengers", "must be >= 1")
        if r.equipment < 0:
            raise ValidationError(f"{where}.equipment", "must be >= 0")
        if r.service_time < 0:
            raise ValidationError(f"{where}.service_time", "must be >= 0")
        if r.tw_kind not in (TW_PICKUP, TW_DELIVERY):
            raise ValidationError(f"{where}.tw_kind", f"must be pickup or delivery, got {r.tw_kind!r}")
        if not r.tw_hi > r.tw_lo:
            raise ValidationError(f"{where}.tw_hi", f"time window upper bound {r.tw_hi} must exceed lower bound {r.tw_lo}")
        if r.tw_lo < 0:
            raise ValidationError(f"{where}.tw_lo", "must be >= 0")
        if r.priority < 1:
            raise ValidationError(f"{where}.priority", "must be >= 1")

    for idx, a in enumerate(inst.agents):
        where = f"agents[{idx}]"
        if a.initial_delay < 0:
            raise ValidationError(f"{where}.initial_delay", "must be >= 0")
        if a.cap_passengers < 1:
            raise ValidationError(f"{where}.cap_passengers", "must be >= 1")
        if a.cap_equipment < 1:
            raise ValidationError(f"{where}.cap_equipment", "must be >= 1")
        if a.conversion < 1:
            raise ValidationError(f"{where}.conversion", "must be >= 1")
        if not a.max_duration >= 0:  # false for NaN too
            raise ValidationError(f"{where}.max_duration", "must be >= 0")
        if a.station_service_time < 0:
            raise ValidationError(f"{where}.station_service_time", "must be >= 0")
        if not 0 < a.soc_min <= 1:
            raise ValidationError(f"{where}.soc_min", "must be in (0, 1]")
        if not a.soc_min <= a.soc_init <= 1:
            raise ValidationError(f"{where}.soc_init", f"must be in [soc_min={a.soc_min}, 1]")
        if not a.soc_min <= a.soc_target <= 1:
            raise ValidationError(f"{where}.soc_target", f"must be in [soc_min={a.soc_min}, 1]")
        if not math.isfinite(a.combined_cap):
            raise ValidationError(f"{where}.conversion", "combined capacity bound must be finite")
        if a.terminal_hub is not None and not 0 <= a.terminal_hub < len(inst.final_depots):
            raise ValidationError(f"{where}.terminal_hub", f"depot index {a.terminal_hub} out of range")

    b = inst.battery
    for name in ("alpha0", "alpha1", "alpha2", "beta1", "beta2", "beta3"):
        if getattr(b, name) <= 0:
            raise ValidationError(f"battery.{name}", "must be strictly positive")
    if not b.beta3 < b.beta2 < b.beta1:
        raise ValidationError("battery", "charging rates must strictly decrease (beta1 > beta2 > beta3)")

    for idx, s in enumerate(inst.stations):
        if s.earliest_available < 0:
            raise ValidationError(f"stations[{idx}].earliest_available", "must be >= 0")

    if inst.duplicate_visits < 0:
        raise ValidationError("config.duplicate_visits", "must be >= 0")
    if not inst.open_vrp and not inst.final_depots:
        raise ValidationError("depots", "closed-VRP instances need at least one final depot")

    w = inst.weights
    if not 0 < w.epsilon < w.zeta < w.eta:
        raise ValidationError("config.weights", f"need 0 < epsilon < zeta < eta, got ({w.epsilon}, {w.zeta}, {w.eta})")
    if w.big_m_override is not None and w.big_m_override <= 0:
        raise ValidationError("config.weights.big_m", "must be positive")

    if inst.time_unit not in TIME_UNIT_SECONDS:
        raise ValidationError("meta.time_unit", f"unknown time unit {inst.time_unit!r}")

    if inst.cost_mode not in ("euclidean", "matrix"):
        raise ValidationError("costs.mode", f"must be 'euclidean' or 'matrix', got {inst.cost_mode!r}")
    derive_costs(inst)  # raises on a misshapen matrix or missing coordinates
    if inst.cost_mode == "matrix":
        m = inst.cost_matrix
        for i in range(len(m)):
            for j in range(len(m)):
                if i == j and m[i][j] != 0:
                    raise ValidationError(f"costs.matrix[{i}][{j}]", "diagonal entries must be 0")
                if i != j and not m[i][j] > 0:
                    raise ValidationError(f"costs.matrix[{i}][{j}]", "off-diagonal entries must be > 0")


# --- document schema ---------------------------------------------------------

_TOP_KEYS = {"meta", "requests", "agents", "stations", "depots", "costs", "battery", "config"}
_META_KEYS = {"time_unit"}
_REQUEST_KEYS = {
    "id", "pickup", "delivery", "passengers", "equipment", "service_time",
    "tw_kind", "tw_lo", "tw_hi", "priority", "force_accept",
}
_AGENT_KEYS = {
    "id", "start", "initial_delay", "cap_passengers", "cap_equipment", "conversion",
    "max_duration", "station_service_time", "soc_min", "soc_init", "soc_target",
    "terminal_hub",
}
_STATION_KEYS = {"id", "pos", "earliest_available"}
_COSTS_KEYS = {"mode", "matrix"}
_BATTERY_KEYS = {"alpha0", "alpha1", "alpha2", "beta1", "beta2", "beta3"}
_CONFIG_KEYS = {
    "duplicate_visits", "selective", "open_vrp", "weights",
    "open_vrp_soc_to_hub", "integer_loads",
}
_WEIGHT_KEYS = {"epsilon", "zeta", "eta", "big_m"}


def _check_keys(doc: dict, allowed: set, where: str, required: set | None = None) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(where, f"unknown keys: {sorted(unknown)}")
    if required:
        missing = required - set(doc)
        if missing:
            raise ParseError(where, f"missing keys: {sorted(missing)}")


def _finite(value, where: str) -> float:
    """*value* as a float, rejected if NaN or infinite (``json.load`` reads both)."""
    number = float(value)
    if not math.isfinite(number):
        raise ValidationError(where, f"must be finite, got {value!r}")
    return number


def _point(value, where: str) -> tuple[float, float] | None:
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(where, f"expected [x, y] coordinates, got {value!r}")
    return (_finite(value[0], f"{where}[0]"), _finite(value[1], f"{where}[1]"))


def instance_from_dict(doc: dict) -> Instance:
    """Build and validate an Instance from a schema document."""
    if not isinstance(doc, dict):
        raise ParseError("$", "top-level document must be an object")
    _check_keys(doc, _TOP_KEYS, "$", required={"requests", "agents", "battery", "config"})

    meta = doc.get("meta", {})
    _check_keys(meta, _META_KEYS, "meta")
    time_unit = meta.get("time_unit", "minutes")

    requests = []
    for idx, rd in enumerate(doc.get("requests", [])):
        where = f"requests[{idx}]"
        _check_keys(rd, _REQUEST_KEYS, where,
                    required={"passengers", "tw_kind", "tw_lo", "tw_hi"})
        requests.append(Request(
            id=int(_finite(rd.get("id", idx), f"{where}.id")),
            pickup_pos=_point(rd.get("pickup"), f"{where}.pickup"),
            delivery_pos=_point(rd.get("delivery"), f"{where}.delivery"),
            passengers=int(_finite(rd["passengers"], f"{where}.passengers")),
            equipment=int(_finite(rd.get("equipment", 0), f"{where}.equipment")),
            service_time=_finite(rd.get("service_time", 0.0), f"{where}.service_time"),
            tw_kind=str(rd["tw_kind"]),
            tw_lo=_finite(rd["tw_lo"], f"{where}.tw_lo"),
            tw_hi=_finite(rd["tw_hi"], f"{where}.tw_hi"),
            priority=_finite(rd.get("priority", 1.0), f"{where}.priority"),
            force_accept=bool(rd.get("force_accept", False)),
        ))

    agents = []
    for idx, ad in enumerate(doc.get("agents", [])):
        where = f"agents[{idx}]"
        _check_keys(ad, _AGENT_KEYS, where, required={"cap_passengers", "cap_equipment"})
        agents.append(Agent(
            id=int(_finite(ad.get("id", idx), f"{where}.id")),
            start_pos=_point(ad.get("start"), f"{where}.start"),
            initial_delay=_finite(ad.get("initial_delay", 0.0), f"{where}.initial_delay"),
            cap_passengers=int(_finite(ad["cap_passengers"], f"{where}.cap_passengers")),
            cap_equipment=int(_finite(ad["cap_equipment"], f"{where}.cap_equipment")),
            conversion=_finite(ad.get("conversion", 1.0), f"{where}.conversion"),
            max_duration=float(ad.get("max_duration", math.inf)),  # +inf: no shift limit
            station_service_time=_finite(ad.get("station_service_time", 0.0),
                                         f"{where}.station_service_time"),
            soc_min=_finite(ad.get("soc_min", 0.25), f"{where}.soc_min"),
            soc_init=_finite(ad.get("soc_init", 1.0), f"{where}.soc_init"),
            soc_target=_finite(ad.get("soc_target", 0.85), f"{where}.soc_target"),
            terminal_hub=(None if ad.get("terminal_hub") is None
                          else int(_finite(ad["terminal_hub"], f"{where}.terminal_hub"))),
        ))

    stations = []
    for idx, sd in enumerate(doc.get("stations", [])):
        where = f"stations[{idx}]"
        _check_keys(sd, _STATION_KEYS, where)
        stations.append(Station(
            id=int(_finite(sd.get("id", idx), f"{where}.id")),
            pos=_point(sd.get("pos"), f"{where}.pos"),
            earliest_available=_finite(sd.get("earliest_available", 0.0),
                                       f"{where}.earliest_available"),
        ))

    depots = tuple(_point(p, f"depots[{i}]") for i, p in enumerate(doc.get("depots", [])))

    costs = doc.get("costs", {"mode": "euclidean"})
    _check_keys(costs, _COSTS_KEYS, "costs", required={"mode"})
    matrix = None
    if costs.get("matrix") is not None:
        matrix = tuple(tuple(_finite(v, f"costs.matrix[{i}][{j}]") for j, v in enumerate(row))
                       for i, row in enumerate(costs["matrix"]))

    bat = doc["battery"]
    _check_keys(bat, _BATTERY_KEYS, "battery", required=_BATTERY_KEYS)
    battery = BatteryModel(**{k: _finite(bat[k], f"battery.{k}") for k in _BATTERY_KEYS})

    cfg = doc["config"]
    _check_keys(cfg, _CONFIG_KEYS, "config", required={"duplicate_visits"})
    wd = cfg.get("weights", {})
    _check_keys(wd, _WEIGHT_KEYS, "config.weights")
    weights = ObjectiveWeights(
        epsilon=_finite(wd.get("epsilon", 1e-3), "config.weights.epsilon"),
        zeta=_finite(wd.get("zeta", 1.0), "config.weights.zeta"),
        eta=_finite(wd.get("eta", 1e4), "config.weights.eta"),
        big_m_override=(None if wd.get("big_m") is None
                        else _finite(wd["big_m"], "config.weights.big_m")),
    )

    inst = Instance(
        requests=tuple(requests),
        agents=tuple(agents),
        stations=tuple(stations),
        final_depots=depots,
        duplicate_visits=int(_finite(cfg["duplicate_visits"], "config.duplicate_visits")),
        cost_mode=str(costs["mode"]),
        cost_matrix=matrix,
        battery=battery,
        weights=weights,
        selective=bool(cfg.get("selective", True)),
        open_vrp=bool(cfg.get("open_vrp", False)),
        time_unit=str(time_unit),
        open_vrp_soc_to_hub=bool(cfg.get("open_vrp_soc_to_hub", True)),
        integer_loads=bool(cfg.get("integer_loads", True)),
    )
    validate_instance(inst)
    return inst


def instance_to_dict(inst: Instance) -> dict:
    """Inverse of :func:`instance_from_dict` (stable key order)."""
    doc = {
        "meta": {"time_unit": inst.time_unit},
        "requests": [
            {
                "id": r.id,
                "pickup": list(r.pickup_pos) if r.pickup_pos else None,
                "delivery": list(r.delivery_pos) if r.delivery_pos else None,
                "passengers": r.passengers,
                "equipment": r.equipment,
                "service_time": r.service_time,
                "tw_kind": r.tw_kind,
                "tw_lo": r.tw_lo,
                "tw_hi": r.tw_hi,
                "priority": r.priority,
                "force_accept": r.force_accept,
            }
            for r in inst.requests
        ],
        "agents": [
            {
                "id": a.id,
                "start": list(a.start_pos) if a.start_pos else None,
                "initial_delay": a.initial_delay,
                "cap_passengers": a.cap_passengers,
                "cap_equipment": a.cap_equipment,
                "conversion": a.conversion,
                "max_duration": a.max_duration,
                "station_service_time": a.station_service_time,
                "soc_min": a.soc_min,
                "soc_init": a.soc_init,
                "soc_target": a.soc_target,
                "terminal_hub": a.terminal_hub,
            }
            for a in inst.agents
        ],
        "stations": [
            {"id": s.id, "pos": list(s.pos) if s.pos else None, "earliest_available": s.earliest_available}
            for s in inst.stations
        ],
        "depots": [list(p) if p else None for p in inst.final_depots],
        "costs": {"mode": inst.cost_mode},
        "battery": {
            "alpha0": inst.battery.alpha0,
            "alpha1": inst.battery.alpha1,
            "alpha2": inst.battery.alpha2,
            "beta1": inst.battery.beta1,
            "beta2": inst.battery.beta2,
            "beta3": inst.battery.beta3,
        },
        "config": {
            "duplicate_visits": inst.duplicate_visits,
            "selective": inst.selective,
            "open_vrp": inst.open_vrp,
            "open_vrp_soc_to_hub": inst.open_vrp_soc_to_hub,
            "integer_loads": inst.integer_loads,
            "weights": {
                "epsilon": inst.weights.epsilon,
                "zeta": inst.weights.zeta,
                "eta": inst.weights.eta,
                "big_m": inst.weights.big_m_override,
            },
        },
    }
    if inst.cost_mode == "matrix":
        doc["costs"]["matrix"] = [list(row) for row in inst.cost_matrix]
    return doc


def load_instance(path) -> Instance:
    """Load, parse, and validate an instance document from *path*."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(str(path), f"malformed document: {exc}") from exc
    return instance_from_dict(doc)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")
