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
from dataclasses import MISSING, dataclass
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
    priority: float
    force_accept: bool


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
    terminal_hub: int | None

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
    earliest_available: float


@dataclass(frozen=True)
class ObjectiveWeights:
    epsilon: float
    zeta: float
    eta: float
    big_m_override: float | None


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
    weights: ObjectiveWeights
    selective: bool
    open_vrp: bool
    time_unit: str
    open_vrp_soc_to_hub: bool
    integer_loads: bool

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
    """Check the rules that relate two or more fields, raising
    ValidationError naming the field; ``instance_from_dict`` checks the rest."""
    for idx, r in enumerate(inst.requests):
        if not r.tw_hi > r.tw_lo:
            raise ValidationError(f"requests[{idx}].tw_hi", f"time window upper bound {r.tw_hi} must exceed lower bound {r.tw_lo}")

    for idx, a in enumerate(inst.agents):
        where = f"agents[{idx}]"
        if not a.soc_min <= a.soc_init <= 1:
            raise ValidationError(f"{where}.soc_init", f"must be in [soc_min={a.soc_min}, 1]")
        if not a.soc_min <= a.soc_target <= 1:
            raise ValidationError(f"{where}.soc_target", f"must be in [soc_min={a.soc_min}, 1]")
        if not math.isfinite(a.combined_cap):
            raise ValidationError(f"{where}.conversion", "combined capacity bound must be finite")
        if a.terminal_hub is not None and not 0 <= a.terminal_hub < len(inst.final_depots):
            raise ValidationError(f"{where}.terminal_hub", f"depot index {a.terminal_hub} out of range")

    b = inst.battery
    if not b.beta3 < b.beta2 < b.beta1:
        raise ValidationError("battery", "charging rates must strictly decrease (beta1 > beta2 > beta3)")

    if not inst.open_vrp and not inst.final_depots:
        raise ValidationError("depots", "closed-VRP instances need at least one final depot")

    w = inst.weights
    if not 0 < w.epsilon < w.zeta < w.eta:
        raise ValidationError("config.weights", f"need 0 < epsilon < zeta < eta, got ({w.epsilon}, {w.zeta}, {w.eta})")

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
#
# Each document object is one Table of rows (key, attribute, default, kind),
# in the order instance_to_dict writes them.  A kind reads a JSON value,
# checking its JSON type and the field's own range, and writes the attribute
# back.  A missing key reads as its default, and a key whose default is null
# may be null: MISSING marks a required key, _POSITION an id that defaults to
# the object's place in its list.  A row without an attribute is a section
# whose fields belong to its holder.

_POSITION = object()
_OMIT = object()  # written for a key that stays out of the document


class Kind:
    """A field's JSON type: ``read(value, path)`` checks a value and returns
    the attribute, raising InstanceError naming *path*; ``write`` turns the
    attribute back into a JSON value."""

    __slots__ = ("read", "write")

    def __init__(self, read, write=lambda value: value):
        self.read = read
        self.write = write


def number(rule=None, message="", finite=True) -> Kind:
    """A JSON number read as a float, finite unless *finite* is false, and
    rejected with *message* unless it passes *rule*."""
    def read(value, where):
        if not isinstance(value, (float, int)) or type(value) is bool:
            raise ParseError(where, f"must be a number, got {value!r}")
        try:
            real = float(value)
        except OverflowError:  # an integer past the largest float
            real = math.inf
        if finite and not math.isfinite(real):
            raise ValidationError(where, f"must be finite, got {value!r}")
        if rule is not None and not rule(real):
            raise ValidationError(where, message)
        return real
    return Kind(read)


def integer(rule=None, message="") -> Kind:
    """A JSON number with an integral value, read as an int and rejected
    with *message* unless it passes *rule*."""
    def read(value, where):
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValidationError(where, f"must be finite, got {value!r}")
            if value.is_integer():
                value = int(value)
        if not isinstance(value, int) or type(value) is bool:
            raise ParseError(where, f"must be an integer, got {value!r}")
        if rule is not None and not rule(value):
            raise ValidationError(where, message)
        return value
    return Kind(read)


def _read_boolean(value, where):
    if type(value) is not bool:
        raise ParseError(where, f"must be true or false, got {value!r}")
    return value


BOOLEAN = Kind(_read_boolean)


def string(choices=None, message="must be a string, got {!r}") -> Kind:
    """A JSON string, one of *choices* when given, else rejected with
    *message* formatted with the value."""
    def read(value, where):
        if type(value) is not str or choices is not None and value not in choices:
            raise ValidationError(where, message.format(value))
        return value
    return Kind(read)


def _entries(value, where, size=None):
    if not isinstance(value, (list, tuple)):
        raise ParseError(where, f"must be a list, got {value!r}")
    if size is not None and len(value) != size:
        raise ParseError(where, f"must be a list of {size} entries, got {value!r}")
    return enumerate(value)


def list_of(item: Kind, into=tuple, size=None) -> Kind:
    """A JSON list of *item*, of *size* entries when given, read into *into*."""
    def read(value, where):
        return into(item.read(v, f"{where}[{i}]") for i, v in _entries(value, where, size))
    return Kind(read, lambda values: [item.write(v) for v in values])


def objects(table: Table, into=tuple) -> Kind:
    """A JSON list of *table* objects, read into *into*."""
    def read(value, where):
        return into(table.read(v, f"{where}[{i}]", i) for i, v in _entries(value, where))
    return Kind(read, lambda values: [table.write(v) for v in values])


class Table:
    """One document object, read into a *cls* (a dict of attributes when
    None).  A row ``(key, default, kind)`` names its attribute like the key."""

    def __init__(self, cls, *rows):
        self.cls = cls
        self.rows = tuple(row if len(row) == 4 else (row[0], *row) for row in rows)
        self.keys = frozenset(row[0] for row in self.rows)
        self.required = frozenset(row[0] for row in self.rows if row[2] is MISSING)

    def read(self, doc, where, position=None):
        if not isinstance(doc, dict):
            raise ParseError(where, f"must be an object, got {doc!r}")
        unknown = doc.keys() - self.keys
        if unknown:
            raise ParseError(where, f"unknown keys: {sorted(unknown)}")
        missing = self.required - doc.keys()
        if missing:
            raise ParseError(where, f"missing keys: {sorted(missing)}")
        prefix = "" if where == "$" else where + "."
        attrs = {}
        for key, attr, default, kind in self.rows:
            value = doc.get(key, default)
            if value is not None or default is not None:  # null may stand for a null default
                value = kind.read(position if value is _POSITION else value, prefix + key)
            if attr is None:
                attrs.update(value)
            else:
                attrs[attr] = value
        return attrs if self.cls is None else self.cls(**attrs)

    def write(self, obj) -> dict:
        doc = {}
        for key, attr, _, kind in self.rows:
            value = kind.write(obj if attr is None else getattr(obj, attr))
            if value is not _OMIT:
                doc[key] = value
        return doc


def _read_point(value, where):
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(where, f"expected [x, y] coordinates, got {value!r}")
    return (_REAL.read(value[0], f"{where}[0]"), _REAL.read(value[1], f"{where}[1]"))


_REAL = number()
_NONNEGATIVE = number(lambda v: v >= 0, "must be >= 0")
_AT_LEAST_1 = number(lambda v: v >= 1, "must be >= 1")
_POSITIVE = number(lambda v: v > 0, "must be strictly positive")
_INTEGER = integer()
_COUNT = integer(lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE_COUNT = integer(lambda v: v >= 0, "must be >= 0")
_POINT = Kind(_read_point, lambda p: None if p is None else list(p))

_REQUEST = Table(
    Request,
    ("id", _POSITION, _INTEGER),
    ("pickup", "pickup_pos", None, _POINT),
    ("delivery", "delivery_pos", None, _POINT),
    ("passengers", MISSING, _COUNT),
    ("equipment", 0, _NONNEGATIVE_COUNT),
    ("service_time", 0.0, _NONNEGATIVE),
    ("tw_kind", MISSING, string((TW_PICKUP, TW_DELIVERY), "must be pickup or delivery, got {!r}")),
    ("tw_lo", MISSING, _NONNEGATIVE),
    ("tw_hi", MISSING, _REAL),
    ("priority", 1.0, _AT_LEAST_1),
    ("force_accept", False, BOOLEAN),
)
_AGENT = Table(
    Agent,
    ("id", _POSITION, _INTEGER),
    ("start", "start_pos", None, _POINT),
    ("initial_delay", 0.0, _NONNEGATIVE),
    ("cap_passengers", MISSING, _COUNT),
    ("cap_equipment", MISSING, _COUNT),
    ("conversion", 1.0, _AT_LEAST_1),
    ("max_duration", math.inf, number(lambda v: v >= 0, "must be >= 0", finite=False)),  # +inf: no shift limit
    ("station_service_time", 0.0, _NONNEGATIVE),
    ("soc_min", 0.25, number(lambda v: 0 < v <= 1, "must be in (0, 1]")),
    ("soc_init", 1.0, _REAL),
    ("soc_target", 0.85, _REAL),
    ("terminal_hub", None, _INTEGER),  # its range depends on the depots
)
_STATION = Table(Station, ("id", _POSITION, _INTEGER), ("pos", None, _POINT),
                 ("earliest_available", 0.0, _NONNEGATIVE))
_BATTERY = Table(BatteryModel, *((name, MISSING, _POSITIVE)
                                 for name in ("alpha0", "alpha1", "alpha2", "beta1", "beta2", "beta3")))
_WEIGHTS = Table(ObjectiveWeights, ("epsilon", 1e-3, _REAL), ("zeta", 1.0, _REAL), ("eta", 1e4, _REAL),
                 ("big_m", "big_m_override", None, number(lambda v: v > 0, "must be positive")))
_META = Table(None, ("time_unit", "minutes", string(TIME_UNIT_SECONDS, "unknown time unit {!r}")))
_COSTS = Table(
    None,
    ("mode", "cost_mode", MISSING, string(("euclidean", "matrix"), "must be 'euclidean' or 'matrix', got {!r}")),
    ("matrix", "cost_matrix", None, Kind(list_of(list_of(_REAL)).read,
                                         lambda m: _OMIT if m is None else [list(row) for row in m])),
)
_CONFIG = Table(
    None,
    ("duplicate_visits", MISSING, _NONNEGATIVE_COUNT),
    ("selective", True, BOOLEAN),
    ("open_vrp", False, BOOLEAN),
    ("open_vrp_soc_to_hub", True, BOOLEAN),
    ("integer_loads", True, BOOLEAN),
    ("weights", {}, _WEIGHTS),
)
_DOCUMENT = Table(
    Instance,
    ("meta", None, {}, _META),
    ("requests", MISSING, objects(_REQUEST)),
    ("agents", MISSING, objects(_AGENT)),
    ("stations", [], objects(_STATION)),
    ("depots", "final_depots", [], list_of(_POINT)),
    ("costs", None, {"mode": "euclidean"}, _COSTS),
    ("battery", MISSING, _BATTERY),
    ("config", None, MISSING, _CONFIG),
)


def instance_from_dict(doc: dict) -> Instance:
    """Build and validate an Instance from a schema document."""
    if not isinstance(doc, dict):
        raise ParseError("$", "top-level document must be an object")
    inst = _DOCUMENT.read(doc, "$")
    validate_instance(inst)
    return inst


def instance_to_dict(inst: Instance) -> dict:
    """Inverse of :func:`instance_from_dict` (stable key order)."""
    return _DOCUMENT.write(inst)


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
