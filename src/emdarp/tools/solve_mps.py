"""Stand-alone MIP runner: read a free-format MPS file, solve, write a solution.

This module deliberately re-parses MPS on its own instead of reusing the model
builder, so it doubles as an independent cross-check of the export path.  The
actual optimization is delegated to scipy's HiGHS backend (install the
"external" extra).  Usage:

    python3 -m emdarp.tools.solve_mps MODEL.mps OUT.sol

The solution file has one "name value" pair per line, preceded by an
"objective <value>" line and "# status <status>" comment, then HiGHS's
own account of the search as "# nodes", "# dual_bound" (with the objective
constant added back) and "# gap" comments.

HiGHS is run at a zero relative MIP gap, so status "optimal" means HiGHS
proved the incumbent optimal (up to its default absolute gap of 1e-6).  At
HiGHS's default relative gap of 1e-4 it could stop several units short: the
rejection penalties sit in the objective row's constant, which HiGHS does not
see, so its own objective is a large negative number and 1e-4 of it is wide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field


@dataclass
class MpsProblem:
    name: str = ""
    objective_row: str = ""
    row_sense: dict = field(default_factory=dict)      # row -> 'L'|'G'|'E'
    row_order: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)        # var -> {row: coef}
    col_order: list = field(default_factory=list)
    integer: dict = field(default_factory=dict)        # var -> bool
    rhs: dict = field(default_factory=dict)            # row -> value
    lower: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)

    @property
    def objective_constant(self) -> float:
        return -self.rhs.get(self.objective_row, 0.0)


_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")
# bound code -> the (lower, upper) it sets: None keeps that side, "v" takes the line's value
_BOUNDS = {"UP": (None, "v"), "UI": (None, "v"), "LO": ("v", None), "LI": ("v", None),
           "FX": ("v", "v"), "BV": (0.0, 1.0), "FR": (-math.inf, None),
           "MI": (-math.inf, None), "PL": (None, math.inf)}


def read_mps(path: str) -> MpsProblem:
    """The problem in the free-format MPS file at *path*.  Raises ValueError
    naming *path* and the line of the first entry it cannot read exactly:
    a section, row sense or bound code it does not know (OBJSENSE and
    RANGES among them), a line short of a field or with a value missing, a
    second objective row or a row declared twice, an entry on a row or a
    bound on a column that was not declared, or a value that is no number."""
    prob, section, in_integer = MpsProblem(), None, False
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0].startswith("*"):
                continue
            try:
                if not line[0].isspace():
                    section = fields[0].upper()
                    if section not in _SECTIONS:
                        raise ValueError(f"unsupported section {fields[0]!r}")
                    if section == "NAME" and len(fields) > 1:
                        prob.name = fields[1]
                    if section == "ENDATA":
                        break
                else:
                    in_integer = _read_entry(prob, section, fields, in_integer)
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc} ({' '.join(fields)})") from None
    if not prob.objective_row:
        raise ValueError(f"{path}: no objective (N) row found")
    return prob


def _read_entry(prob: MpsProblem, section, fields, in_integer: bool) -> bool:
    """Add the data line *fields* of *section* to *prob*; return whether the
    columns after it are integer."""
    head, n = fields[0], len(fields)
    if section == "ROWS":
        sense, row = head.upper(), fields[-1]
        if n != 2 or sense not in ("N", "L", "G", "E"):
            raise ValueError("not a sense (N, L, G or E) and a row")
        if row == prob.objective_row or row in prob.row_sense or sense == "N" and prob.objective_row:
            raise ValueError("a second objective (N) row or a row declared twice")
        if sense == "N":
            prob.objective_row = row
        else:
            prob.row_sense[row] = sense
            prob.row_order.append(row)
    elif section == "COLUMNS" and n == 3 and fields[1] == "'MARKER'":
        return fields[2] == "'INTORG'"
    elif section in ("COLUMNS", "RHS"):
        if n < 3 or n % 2 == 0:
            raise ValueError("not a name and (row, value) pairs")
        pairs = [(row, float(val)) for row, val in zip(fields[1::2], fields[2::2])]
        for row, _ in pairs:
            if row != prob.objective_row and row not in prob.row_sense:
                raise ValueError(f"row {row!r} is not declared in ROWS")
        if section == "RHS":
            prob.rhs.update(pairs)
            return in_integer
        if head not in prob.columns:
            prob.columns[head], prob.integer[head] = {}, in_integer
            prob.col_order.append(head)
        for row, coef in pairs:
            prob.columns[head][row] = prob.columns[head].get(row, 0.0) + coef
    elif section == "BOUNDS":
        code = head.upper()
        if code not in _BOUNDS or n != 3 + ("v" in _BOUNDS[code]):
            raise ValueError("not a known bound code, a set, a column and its value if any")
        var = fields[2]
        if var not in prob.columns:
            raise ValueError(f"bound on column {var!r}, not declared in COLUMNS")
        for side, new in zip((prob.lower, prob.upper), _BOUNDS[code]):
            if new is not None:
                side[var] = float(fields[3]) if new == "v" else new
        if code == "BV":
            prob.integer[var] = True
    else:
        raise ValueError("data line outside ROWS, COLUMNS, RHS and BOUNDS")
    return in_integer


def solve(prob: MpsProblem, info: dict | None = None):
    """Return (status, objective, {var: value}); status in optimal/infeasible/unbounded/error.

    The MILP is solved to a zero relative gap: "optimal" means HiGHS closed
    the gap and proved the returned objective optimal.  Presolve is off:
    with it, HiGHS (scipy 1.17.1) cut off the optimum of a generated
    instance and still reported "optimal", 11076.480 against 908.174
    (seed 54 in tests/test_mps.py, whose row coefficients run from 0.005 to
    3,349 and objective coefficients from 0.001 to 46,480).  Without
    presolve, HiGHS matches the builtin engine on all 120 instances of that
    test's grid.

    If *info* is a dict, it receives HiGHS's node count, its dual bound
    (objective constant included) and its relative gap.  On an infeasible
    model scipy (1.17.1) returns all three as None, so *info* stays empty.
    """
    import numpy as np
    from scipy import optimize, sparse

    n = len(prob.col_order)
    col_of = {v: i for i, v in enumerate(prob.col_order)}
    c = np.zeros(n)
    for var, entries in prob.columns.items():
        c[col_of[var]] = entries.get(prob.objective_row, 0.0)

    row_of = {r: i for i, r in enumerate(prob.row_order)}
    data, ri, ci = [], [], []
    for var, entries in prob.columns.items():
        for row, coef in entries.items():
            if row == prob.objective_row:
                continue
            data.append(coef)
            ri.append(row_of[row])
            ci.append(col_of[var])
    a = sparse.coo_matrix((data, (ri, ci)), shape=(len(prob.row_order), n))
    lo = np.full(len(prob.row_order), -np.inf)
    hi = np.full(len(prob.row_order), np.inf)
    for row, i in row_of.items():
        b = prob.rhs.get(row, 0.0)
        sense = prob.row_sense[row]
        if sense in ("L", "E"):
            hi[i] = b
        if sense in ("G", "E"):
            lo[i] = b

    lb = np.array([prob.lower.get(v, 0.0) for v in prob.col_order])
    ub = np.array([prob.upper.get(v, np.inf) for v in prob.col_order])
    integrality = np.array([1 if prob.integer.get(v) else 0 for v in prob.col_order])

    res = optimize.milp(
        c,
        constraints=optimize.LinearConstraint(a, lo, hi),
        integrality=integrality,
        bounds=optimize.Bounds(lb, ub),
        options={"mip_rel_gap": 0.0, "presolve": False},
    )
    if info is not None:
        for key, attr, kind in (("nodes", "mip_node_count", int),
                                ("dual_bound", "mip_dual_bound", float),
                                ("gap", "mip_gap", float)):
            value = getattr(res, attr, None)
            if value is not None:
                info[key] = kind(value)
        if "dual_bound" in info:
            info["dual_bound"] += prob.objective_constant
    if res.status == 0:
        values = {v: float(res.x[col_of[v]]) for v in prob.col_order}
        return "optimal", float(res.fun) + prob.objective_constant, values
    if res.status == 2:
        return "infeasible", None, None
    if res.status == 3:
        return "unbounded", None, None
    return "error", None, None


def write_solution(path: str, status: str, objective, values, info: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"# status {status}\n")
        for key, value in info.items():
            fh.write(f"# {key} {value!r}\n")
        if status == "optimal":
            fh.write(f"objective {objective!r}\n")
            for name, val in values.items():
                fh.write(f"{name} {val!r}\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 -m emdarp.tools.solve_mps MODEL.mps OUT.sol", file=sys.stderr)
        return 4
    model_path, sol_path = argv
    try:
        prob = read_mps(model_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    info: dict = {}
    status, objective, values = solve(prob, info)
    write_solution(sol_path, status, objective, values, info)
    if status == "optimal":
        return 0
    if status == "infeasible":
        return 2
    return 3


if __name__ == "__main__":
    sys.exit(main())
