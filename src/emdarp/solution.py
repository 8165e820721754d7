"""Solution data structures plus conversions to and from variable assignments.

A Solution is route-centric: per-agent visit sequences annotated with times,
loads, state of charge, and charge durations.  decode_solution() recovers that
view from a raw variable assignment (builtin or external solver);
encode_plan() goes the other way and fills in the conventional values for
deactivated variables so the assignment satisfies the model's rows.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, asdict, fields

from .instance import BOOLEAN, Table, integer, list_of, number, objects, string
from .model import MilpModel, V, earliest_pickup
from .mps import write_mps

BINARY_TOL = 1e-4

DEFAULT_SOLVER_ENV = "EMDARP_SOLVER_CMD"


class SolutionFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DecodeError(ValueError):
    pass


class ExternalSolverError(RuntimeError):
    pass


@dataclass
class VisitRecord:
    node: int
    label: str
    arrival: float
    departure: float
    slack: float = 0.0
    load_passengers: float = 0.0
    load_equipment: float = 0.0
    soc_arrival: float = 1.0
    soc_departure: float = 1.0
    charge_times: tuple = (0.0, 0.0, 0.0)


@dataclass
class RoutePlan:
    agent: int
    visits: list  # VisitRecord, including the terminal depot when one is reached
    duration: float = 0.0

    @property
    def nodes(self) -> list:
        return [v.node for v in self.visits]


@dataclass
class Solution:
    status: str
    objective: float
    plans: list
    accepted: list
    request_times: list
    request_slacks: list
    makespan: float
    engine: str = ""

    def to_dict(self) -> dict:
        doc = asdict(self)
        for plan in doc["plans"]:
            for rec in plan["visits"]:
                rec["charge_times"] = list(rec["charge_times"])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Solution":
        """The solution in *doc*, a ``to_dict`` document; raises
        InstanceError naming a field that is missing, unknown or of the
        wrong JSON type."""
        if isinstance(doc, dict) and "gap" in doc:  # written before `gap` was dropped
            doc = {key: value for key, value in doc.items() if key != "gap"}
        return _SOLUTION.read(doc, "$")


def _table(cls, **kinds) -> Table:
    """The document table of dataclass *cls*: a key per field, read by its
    kind in *kinds*; a field with a default may be left out."""
    return Table(cls, *((f.name, f.default, kinds[f.name]) for f in fields(cls)))


_NUMBER, _INTEGER, _STRING = number(), integer(), string()
_NUMBERS = list_of(_NUMBER, list)
_VISIT = _table(
    VisitRecord, node=_INTEGER, label=_STRING, arrival=_NUMBER, departure=_NUMBER,
    slack=_NUMBER, load_passengers=_NUMBER, load_equipment=_NUMBER, soc_arrival=_NUMBER,
    soc_departure=_NUMBER, charge_times=list_of(_NUMBER, size=3))
_PLAN = _table(RoutePlan, agent=_INTEGER, visits=objects(_VISIT, list), duration=_NUMBER)
_SOLUTION = _table(
    Solution, status=_STRING, objective=_NUMBER, plans=objects(_PLAN, list),
    accepted=list_of(BOOLEAN, list), request_times=_NUMBERS, request_slacks=_NUMBERS,
    makespan=_NUMBER, engine=_STRING)


@dataclass
class ParsedSolution:
    status: str
    objective: float | None
    values: dict


def parse_solution(text: str, known_names=None) -> ParsedSolution:
    """Parse "name value" lines; leading "objective v" and "#" comments allowed."""
    status = "optimal"
    objective = None
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        comment = raw.strip()
        if comment.startswith("# status"):
            parts = comment.split()
            if len(parts) >= 3:
                status = parts[2]
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SolutionFormatError(f"expected 'name value', got {raw.strip()!r}", lineno)
        name, text_val = fields
        try:
            val = float(text_val)
        except ValueError:
            raise SolutionFormatError(f"bad numeric value {text_val!r}", lineno)
        if name == "objective" and objective is None and not values:
            objective = val
            continue
        if name in values:
            raise SolutionFormatError(f"duplicate assignment for {name}", lineno)
        if known_names is not None and name not in known_names:
            raise SolutionFormatError(f"unknown variable {name}", lineno)
        values[name] = val
    return ParsedSolution(status=status, objective=objective, values=values)


def run_external(model: MilpModel, command: str | None = None,
                 timeout: float | None = None) -> ParsedSolution:
    """Export the model to MPS, run the configured solver command, parse its output.

    The command template must contain {model} and {solution} placeholders, e.g.
    "python3 -m emdarp.tools.solve_mps {model} {solution}".
    """
    command = command or os.environ.get(DEFAULT_SOLVER_ENV)
    if not command:
        raise ExternalSolverError(
            f"no external solver configured (set {DEFAULT_SOLVER_ENV} or pass a command)")
    if "{model}" not in command or "{solution}" not in command:
        raise ExternalSolverError("solver command must contain {model} and {solution}")
    with tempfile.TemporaryDirectory(prefix="emdarp-") as tmp:
        model_path = os.path.join(tmp, "model.mps")
        sol_path = os.path.join(tmp, "out.sol")
        write_mps(model, model_path)
        argv = [a.format(model=model_path, solution=sol_path)
                for a in shlex.split(command)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return ParsedSolution(status="limit", objective=None, values={})
        except OSError as exc:
            raise ExternalSolverError(f"failed to launch solver: {exc}")
        if proc.returncode == 2:
            return ParsedSolution(status="infeasible", objective=None, values={})
        if proc.returncode == 3:
            return ParsedSolution(status="limit", objective=None, values={})
        if proc.returncode != 0:
            raise ExternalSolverError(
                f"solver exited with code {proc.returncode}: {proc.stderr.strip()[:500]}")
        try:
            with open(sol_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ExternalSolverError(f"solver produced no solution file: {exc}")
    parsed = parse_solution(text, known_names=set(model.catalog.variables))
    if parsed.status == "optimal" and not parsed.values:
        raise ExternalSolverError("solver reported success but wrote no values")
    return parsed


def _round_binary(val: float, name: str) -> int:
    if abs(val) <= BINARY_TOL:
        return 0
    if abs(val - 1.0) <= BINARY_TOL:
        return 1
    raise DecodeError(f"{name} = {val} is not within {BINARY_TOL} of 0 or 1")


def decode_solution(model: MilpModel, values: dict, objective: float | None = None,
                    status: str = "optimal", engine: str = "") -> Solution:
    """Reconstruct per-agent routes from a variable assignment."""
    inst, g = model.instance, model.graph
    succ: dict[tuple[int, int], int] = {}
    active = 0
    for (k, i, j), name in model.catalog.x_arcs.items():
        if _round_binary(values.get(name, 0.0), name):
            if (k, i) in succ:
                raise DecodeError(f"node {g.label(i)} has two outgoing arcs for agent {k}")
            succ[(k, i)] = j
            active += 1

    plans = []
    used = 0
    for k, agent in enumerate(inst.agents):
        node = g.start_node(k)
        visits = []
        seen = {node}
        while (k, node) in succ:
            node = succ[(k, node)]
            used += 1
            if node in seen:
                raise DecodeError(f"agent {k} route revisits {g.label(node)}")
            seen.add(node)
            visits.append(_visit_from_values(model, values, node, k))
            if g.depot_flag[node]:
                break
        if visits and not g.depot_flag[visits[-1].node]:
            raise DecodeError(f"agent {k} route ends at {g.label(visits[-1].node)}, not a depot")
        plans.append(RoutePlan(agent=k, visits=visits,
                               duration=values.get(V.Tk(k), 0.0)))
    if used != active:
        raise DecodeError(
            f"{active - used} active arcs form cycles detached from any agent start")

    accepted = [bool(_round_binary(values.get(V.y(r), 0.0), V.y(r)))
                for r in range(inst.n_requests)]
    sol = Solution(
        status=status,
        objective=model.objective_value({n: values.get(n, 0.0)
                                         for n in model.catalog.variables})
        if objective is None else objective,
        plans=plans,
        accepted=accepted,
        request_times=[values.get(V.Tr(r), 0.0) for r in range(inst.n_requests)],
        request_slacks=[values.get(V.Dr(r), 0.0) for r in range(inst.n_requests)],
        makespan=values.get(V.T, 0.0),
        engine=engine,
    )
    return sol


def _visit_from_values(model: MilpModel, values: dict, node: int, k: int) -> VisitRecord:
    inst, g = model.instance, model.graph
    if g.depot_flag[node]:
        return VisitRecord(node=node, label=g.label(node),
                           arrival=values.get(V.Tk(k), 0.0),
                           departure=values.get(V.Tk(k), 0.0),
                           soc_arrival=values.get(V.phi(node, k), 0.0),
                           soc_departure=values.get(V.phi(node, k), 0.0))
    arrival = values.get(V.t(node), 0.0)
    soc = values.get(V.phi(node, k), 0.0)
    if g.station_flag[node]:
        xi = tuple(values.get(V.xi(node, s), 0.0) for s in (1, 2, 3))
        return VisitRecord(
            node=node, label=g.label(node), arrival=arrival,
            departure=arrival + inst.agents[k].station_service_time + sum(xi),
            soc_arrival=soc, soc_departure=soc + inst.battery.gained(xi), charge_times=xi)
    service = inst.requests[g.stop_load[node][0]].service_time
    return VisitRecord(
        node=node, label=g.label(node), arrival=arrival,
        departure=arrival + service,
        slack=values.get(V.tau(node), 0.0),
        load_passengers=values.get(V.u1(node, k), 0.0),
        load_equipment=values.get(V.u2(node, k), 0.0),
        soc_arrival=soc, soc_departure=soc)


def encode_plan(model: MilpModel, solution: Solution) -> dict:
    """Variable assignment reproducing the solution and satisfying every row,
    provided no leg drains more than ``(1 + soc_min) / 2`` of the battery
    (see the state-of-charge convention below).

    Deactivated variables take their conventional values: a rejected
    request's pickup sits at its earliest time and its delivery its least
    time and a service later (the model's time bounds, which the horizon
    leaves room for), unused load trackers carry the node demand, and idle
    state-of-charge variables rest halfway between the agent floor and a
    full battery.
    """
    inst, g = model.instance, model.graph
    values = {name: 0.0 for name in model.catalog.variables}

    visited_pairs: set[tuple[int, int]] = set()
    for plan in solution.plans:
        prev = g.start_node(plan.agent)
        for rec in plan.visits:
            values[V.x(plan.agent, prev, rec.node)] = 1.0
            visited_pairs.add((rec.node, plan.agent))
            prev = rec.node
        values[V.Tk(plan.agent)] = plan.duration
        for rec in plan.visits:
            k = plan.agent
            if g.depot_flag[rec.node]:
                values[V.phi(rec.node, k)] = rec.soc_arrival
                continue
            values[V.t(rec.node)] = rec.arrival
            values[V.phi(rec.node, k)] = rec.soc_arrival
            if g.station_flag[rec.node]:
                for s, amount in zip((1, 2, 3), rec.charge_times):
                    values[V.xi(rec.node, s)] = amount
                values[V.z(rec.node, 1)] = 1.0 if (rec.charge_times[1] > 0
                                                   or rec.charge_times[2] > 0) else 0.0
                values[V.z(rec.node, 2)] = 1.0 if rec.charge_times[2] > 0 else 0.0
            else:
                values[V.tau(rec.node)] = rec.slack
                values[V.u1(rec.node, k)] = rec.load_passengers
                values[V.u2(rec.node, k)] = rec.load_equipment

    for r, req in enumerate(inst.requests):
        p, d = g.pickup_node(r), g.delivery_node(r)
        if solution.accepted[r]:
            values[V.y(r)] = 1.0
            values[V.Tr(r)] = values[V.t(p)] + values[V.t(d)]
            values[V.Dr(r)] = values[V.tau(p)] + values[V.tau(d)]
        else:
            values[V.t(p)] = earliest_pickup(inst, g, r)
            values[V.t(d)] = values[V.t(p)] + req.service_time + g.least_time[p][d]
            node = g.window_node(r)
            t_node = values[V.t(node)]
            values[V.tau(node)] = max(0.0, req.tw_lo - t_node, t_node - req.tw_hi)

    # conventions for agent/node pairs that never meet
    for k, agent in enumerate(inst.agents):
        for r, req in enumerate(inst.requests):
            p, d = g.pickup_node(r), g.delivery_node(r)
            if (p, k) not in visited_pairs:
                values[V.u1(p, k)] = float(req.passengers)
                values[V.u2(p, k)] = float(req.equipment)
            if (d, k) not in visited_pairs:
                values[V.u1(d, k)] = 0.0
                values[V.u2(d, k)] = 0.0
        # With x = 0, a row of families 35, 36 and 39 reads
        # phi_j - phi_i + drain <= 1 (family 39 also subtracts the charge,
        # which only helps); a row between two stops of the route takes the
        # plan's own values.  When both ends are off the route the left side
        # is the drain alone.  When one end is on it, that end lies in
        # [soc_min, 1], and an off-route end at the midpoint keeps
        # phi_j - phi_i <= (1 - soc_min) / 2.  So the rows hold for any drain
        # up to (1 + soc_min) / 2, the widest margin a single value gives.
        # At the floor soc_min, a leg into a stop reached fully charged could
        # drain only soc_min, which high-discharge plans exceed.
        for i in list(g.lp) + list(g.ld) + list(g.f) + list(g.hf):
            if (i, k) not in visited_pairs:
                values[V.phi(i, k)] = (agent.soc_min + 1.0) / 2

    for i in g.f:
        st, visit = g.station_of(i)
        w = inst.stations[st].earliest_available
        if w > 0 and not any((i, k) in visited_pairs for k in range(inst.n_agents)):
            values[V.t(i)] = w

    values[V.T] = solution.makespan
    return values
