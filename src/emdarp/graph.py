"""Expansion of a raw instance into the indexed routing graph.

Global node layout (contiguous per class):

    H0  agent start nodes              [0, K)
    Lp  pickup nodes                   [K, K+R)
    Ld  delivery nodes                 [K+R, K+2R)
    F   station visit nodes            [K+2R, K+2R+m*(n+1)), ordered by
        visit number then station: index = K+2R + j*m + i for visit j of
        station i
    Hf  final depots                   tail

Admissible arcs follow the class topology: H0->Lp (only out of the owning
agent's start node), Lp->Lp, Lp->Ld, Ld->Lp, Ld->Ld, Ld->F, Ld->Hf, F->Lp,
F->Hf.  The arc from a request's delivery back to its own pickup is pruned:
pickup always precedes delivery, so it can never be traversed.

``leg_time`` and ``leg_energy`` hold every arc's travel time and
discharging cost, an open route's free leg into a depot applied once, and
``least_time`` and ``least_energy`` the least cost between every two nodes
over any node sequence, which bounds a route between two of its stops on any
costs, metric or not.  ``stop_load``, ``station_flag`` and ``depot_flag``
classify each node once.  These tables are the one way the engine reads a
node's class, request, signed load and leg costs; ``is_station`` stays for
callers outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import TW_PICKUP, Instance, base_positions, derive_costs


@dataclass(frozen=True)
class ExpandedGraph:
    instance: Instance
    n_nodes: int
    h0: range
    lp: range
    ld: range
    f: range
    hf: range
    cost_matrix: tuple[tuple[float, ...], ...]
    arcs: tuple[tuple[int, int], ...]          # agent-independent arcs
    arc_set: frozenset[tuple[int, int]]        # the same arcs, for membership
    start_arcs: tuple[tuple[tuple[int, int], ...], ...]  # per agent: (v^k, j) arcs
    base_of: tuple[int, ...]                   # expanded node -> base node
    # per node pair: the travel time, none on an open route's leg into a
    # depot; the discharging cost, which that leg has only with
    # open_vrp_soc_to_hub; and the least of each over any node sequence
    leg_time: tuple[tuple[float, ...], ...]
    leg_energy: tuple[tuple[float, ...], ...]
    least_time: tuple[tuple[float, ...], ...]
    least_energy: tuple[tuple[float, ...], ...]
    # per node: (request, signed passengers, signed equipment) at a pickup
    # (+) or a delivery (-), None elsewhere
    stop_load: tuple[tuple[int, int, int] | None, ...]
    station_flag: tuple[bool, ...]             # per node: a station visit
    depot_flag: tuple[bool, ...]               # per node: a final depot

    # -- node classification ------------------------------------------------

    def is_station(self, i: int) -> bool:
        return self.station_flag[i]

    def start_node(self, k: int) -> int:
        return self.h0[k]

    def pickup_node(self, r: int) -> int:
        return self.lp[r]

    def delivery_node(self, r: int) -> int:
        return self.ld[r]

    def window_node(self, r: int) -> int:
        """The stop of request *r* that carries its time window."""
        return self.lp[r] if self.instance.requests[r].tw_kind == TW_PICKUP else self.ld[r]

    def station_of(self, i: int) -> tuple[int, int]:
        """F-node -> (station index, visit number)."""
        if i not in self.f:
            raise KeyError(f"node {i} is not a station visit node")
        off = i - self.f.start
        m = self.instance.n_stations
        return (off % m, off // m)

    def f_node(self, station: int, visit: int) -> int:
        m = self.instance.n_stations
        return self.f.start + visit * m + station

    def hub_node(self, depot: int) -> int:
        return self.hf[depot]

    def label(self, i: int) -> str:
        if i in self.h0:
            return f"v{i - self.h0.start}"
        if i in self.lp:
            return f"p{i - self.lp.start}"
        if i in self.ld:
            return f"d{i - self.ld.start}"
        if i in self.f:
            st, visit = self.station_of(i)
            return f"f{st}^{visit}"
        return f"h{i - self.hf.start}"

    def node_by_label(self, label: str) -> int:
        for i in range(self.n_nodes):
            if self.label(i) == label:
                return i
        raise KeyError(label)

    def position(self, i: int) -> tuple[float, float] | None:
        return base_positions(self.instance)[self.base_of[i]]

    # -- arcs -------------------------------------------------------------------

    def admissible(self, i: int, j: int, k: int | None = None) -> bool:
        if i in self.h0:
            if k is not None and i != self.start_node(k):
                return False
            return j in self.lp
        return (i, j) in self.arc_set

    def arcs_for_agent(self, k: int):
        """All (i, j) arcs agent k may traverse, start arcs first."""
        return self.start_arcs[k] + self.arcs


def expand_graph(inst: Instance) -> ExpandedGraph:
    """Build the indexed node universe and the admissible arc catalog."""
    K, R, m = inst.n_agents, inst.n_requests, inst.n_stations
    n_f = m * (inst.duplicate_visits + 1)
    n_hf = len(inst.final_depots)

    h0 = range(0, K)
    lp = range(K, K + R)
    ld = range(K + R, K + 2 * R)
    f = range(K + 2 * R, K + 2 * R + n_f)
    hf = range(f.stop, f.stop + n_hf)
    n_nodes = hf.stop

    # expanded -> base node mapping (station duplicates share their base node)
    base_of = list(range(K + 2 * R))
    base_of += [K + 2 * R + st for _ in range(inst.duplicate_visits + 1) for st in range(m)]
    base_of += [K + 2 * R + m + q for q in range(n_hf)]

    base_cost = derive_costs(inst)
    cost_rows = tuple(
        tuple(0.0 if i == j else base_cost(base_of[i], base_of[j]) for j in range(n_nodes))
        for i in range(n_nodes)
    )

    # class pair by class pair, as in the module docstring; the MILP's x
    # columns follow this order
    arcs = [(i, j) for i in lp for j in lp if i != j]
    arcs += [(i, j) for i in lp for j in ld]
    arcs += [(i, j) for i in ld for j in lp
             if i - ld.start != j - lp.start]  # d^r -> p^r can never be feasible
    arcs += [(i, j) for i in ld for j in ld if i != j]
    arcs += [(i, j) for i in ld for j in f]
    arcs += [(i, j) for i in ld for j in hf]
    arcs += [(i, j) for i in f for j in lp]
    arcs += [(i, j) for i in f for j in hf]
    start_arcs = tuple(tuple((h0[k], j) for j in lp) for k in range(K))

    # an open route's leg into a depot takes no time, and drains only with
    # open_vrp_soc_to_hub
    free = tuple(tuple(0.0 if j in hf else c for j, c in enumerate(row)) for row in cost_rows)
    leg_time = free if inst.open_vrp else cost_rows
    leg_energy = free if inst.open_vrp and not inst.open_vrp_soc_to_hub else cost_rows
    least_time, least_energy = _least_costs(cost_rows, leg_time, leg_energy)
    stop_load = [None] * n_nodes
    for r, req in enumerate(inst.requests):
        stop_load[lp[r]] = (r, req.passengers, req.equipment)
        stop_load[ld[r]] = (r, -req.passengers, -req.equipment)
    return ExpandedGraph(
        instance=inst,
        n_nodes=n_nodes,
        h0=h0, lp=lp, ld=ld, f=f, hf=hf,
        cost_matrix=cost_rows,
        arcs=tuple(arcs),
        arc_set=frozenset(arcs),
        start_arcs=start_arcs,
        base_of=tuple(base_of),
        leg_time=leg_time, leg_energy=leg_energy,
        least_time=least_time, least_energy=least_energy,
        stop_load=tuple(stop_load),
        station_flag=tuple(i in f for i in range(n_nodes)),
        depot_flag=tuple(i in hf for i in range(n_nodes)),
    )


def _least_costs(cost_rows, *legs):
    """Per leg table, Floyd-Warshall on *cost_rows* capped by the leg's own
    cost, which is lower only on an open route's free leg into a depot."""
    n = len(cost_rows)
    least = [list(row) for row in cost_rows]
    for h in range(n):
        via = least[h]
        for i in range(n):
            d_ih = least[i][h]
            row = least[i]
            for j in range(n):
                if d_ih + via[j] < row[j]:
                    row[j] = d_ih + via[j]
    return [tuple(tuple(min(c, leg[i][j]) for j, c in enumerate(row))
                  for i, row in enumerate(least)) for leg in legs]


def arc_count_closed_form(graph: ExpandedGraph) -> int:
    """Admissible (agent, arc) pair count by the per-class closed form."""
    R = graph.instance.n_requests
    K = graph.instance.n_agents
    nf = len(graph.f)
    nh = len(graph.hf)
    shared = (
        R * (R - 1)      # Lp->Lp
        + R * R          # Lp->Ld
        + R * (R - 1)    # Ld->Lp (same-request arc pruned)
        + R * (R - 1)    # Ld->Ld
        + R * nf         # Ld->F
        + R * nh         # Ld->Hf
        + nf * R         # F->Lp
        + nf * nh        # F->Hf
    )
    return shared + K * R  # plus agent-specific H0->Lp arcs
