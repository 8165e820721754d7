"""Stand-alone MIP runner: read a free-format MPS file, solve, write a solution.

This module deliberately re-parses MPS on its own instead of reusing the model
builder, so it doubles as an independent cross-check of the export path.  The
actual optimization is delegated to HiGHS through scipy's compiled binding
(scipy 1.15 or later; install the "external" extra), without importing
scipy.optimize itself.  The model is built in HiGHS by scalar binding calls
(the rows, then each column in file order with its entries sorted by row
index), so the child imports neither numpy nor scipy.optimize.  Usage:

    python3 -m emdarp.tools.solve_mps MODEL.mps OUT.sol

The solution file starts with a "# status <status>" comment.  On "optimal"
it goes on with HiGHS's own account of the search as "# nodes",
"# dual_bound" (with the objective constant added back) and "# gap"
comments (for a model with an integer column), then an "objective <value>"
line and one "name value" pair per line.  Exit codes: 0 optimal, 2
infeasible (as HiGHS proved it), 1 any other status HiGHS ends with
("unbounded", or "error" with HiGHS's status name on stderr), 4 a file it
cannot read.

HiGHS is run at a zero relative MIP gap, so status "optimal" means HiGHS
proved the incumbent optimal (up to its default absolute gap of 1e-6).  At
HiGHS's default relative gap of 1e-4 it could stop several units short: the
rejection penalties sit in the objective row's constant, which HiGHS does not
see, so its own objective is a large negative number and 1e-4 of it is wide.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader


class MpsProblem:
    """What read_mps takes from an MPS file: rows and columns in file order,
    each column's coefficients by row, and the right-hand sides and bounds
    the file sets (a column's default bounds are 0 and infinity)."""

    def __init__(self):
        self.name = ""
        self.objective_row = ""
        self.row_sense = {}     # row -> 'L'|'G'|'E'
        self.row_order = []
        self.columns = {}       # var -> {row: coef}
        self.col_order = []
        self.integer = {}       # var -> bool
        self.rhs = {}           # row -> value
        self.lower = {}
        self.upper = {}

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
    bound on a column that was not declared, or a value that is no number or
    not finite (an infinite bound is written as FR, MI or PL)."""
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


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"value {text!r} is not finite")
    return value


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
        pairs = [(row, _number(val)) for row, val in zip(fields[1::2], fields[2::2])]
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
                side[var] = _number(fields[3]) if new == "v" else new
        if code == "BV":
            prob.integer[var] = True
    else:
        raise ValueError("data line outside ROWS, COLUMNS, RHS and BOUNDS")
    return in_integer


def _highs():
    """scipy's compiled HiGHS binding, ``scipy.optimize._highspy._core``
    (scipy 1.15 or later), loaded without running ``scipy.optimize``'s
    package import, which is most of a solver child's start-up.

    The module is loaded under its own name and registered in sys.modules
    before it runs, as the import system would, so a later ``import
    scipy.optimize`` in the same process finds this module instead of
    initialising the extension again."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("scipy is not installed (install the 'external' extra)")
    folder = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.exists(path):
            break
    else:
        raise ModuleNotFoundError(f"no HiGHS binding {name} in {folder} (scipy>=1.15 needed)")
    loader = ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    sys.modules[name] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _hand_over(h, highs, prob: MpsProblem):
    """Pass the options solve() explains (no log, zero relative gap, no
    presolve) and *prob* to *highs*, one binding call at a time, and yield
    each call's HighsStatus.  The rows go in first, with their bounds and no
    columns; then each column in file order, with its bounds, cost, entries
    in row-index order and integrality.  HiGHS ends up with the column-wise
    matrix that one ``HighsLp`` would give it, and every value crosses the
    binding as a Python float or list, so numpy is never imported."""
    options = h.HighsOptions()
    options.log_to_console, options.mip_rel_gap, options.presolve = False, 0.0, "off"
    yield highs.passOptions(options)
    row_lower, row_upper = [], []
    for row in prob.row_order:
        b, sense = prob.rhs.get(row, 0.0), prob.row_sense[row]
        row_lower.append(b if sense in ("G", "E") else -math.inf)
        row_upper.append(b if sense in ("L", "E") else math.inf)
    lp = h.HighsLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = len(prob.row_order)
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    yield highs.passModel(lp)
    row_of = {r: i for i, r in enumerate(prob.row_order)}
    for j, var in enumerate(prob.col_order):
        entries = prob.columns[var]
        yield highs.addVar(prob.lower.get(var, 0.0), prob.upper.get(var, math.inf))
        yield highs.changeColCost(j, entries.get(prob.objective_row, 0.0))
        for i, coef in sorted((row_of[row], coef) for row, coef in entries.items()
                              if row != prob.objective_row):
            yield highs.changeCoeff(i, j, coef)
        if prob.integer.get(var):
            yield highs.changeColIntegrality(j, h.HighsVarType(1))


def solve(prob: MpsProblem, info: dict | None = None):
    """Return (status, objective, {var: value}); status in optimal/infeasible/unbounded/error.

    HiGHS ends up with the column-wise model scipy's own ``milp`` would hand
    it (columns in file order, each column's rows sorted by row index), built
    by calls to scipy's HiGHS binding (``_highs``, ``_hand_over``) that pass
    only Python numbers and lists, so no numpy is imported.  Only HiGHS's
    "infeasible" is reported as infeasible; "unbounded" is its unbounded, and
    every other status it ends with is "error", whose HiGHS name goes to
    stderr.  A model that a binding call or run() refuses ends as HiGHS's
    "Model error".

    The MILP is solved to a zero relative gap: "optimal" means HiGHS closed
    the gap and proved the returned objective optimal.  Presolve is off:
    with it, HiGHS (scipy 1.17.1) cut off the optimum of a generated
    instance and still reported "optimal", 11076.480 against 908.174
    (seed 54 in tests/test_mps.py, whose row coefficients run from 0.005 to
    3,349 and objective coefficients from 0.001 to 46,480).  Without
    presolve, HiGHS matches the builtin engine on all 120 instances of that
    test's grid.

    If *info* is a dict and HiGHS proves a model with an integer column
    optimal, it receives HiGHS's node count, its dual bound (objective
    constant included) and its relative gap; otherwise it stays empty.
    """
    h = _highs()
    highs = h._Highs()
    model_status = h.HighsModelStatus.kModelError
    if all(status != h.HighsStatus.kError for status in _hand_over(h, highs, prob)):
        highs.run()
        # changeCoeff takes a value that passModel refuses (above HiGHS's
        # large_matrix_value); run() then refuses the model and sets no status
        if highs.getModelStatus() != h.HighsModelStatus.kNotset:
            model_status = highs.getModelStatus()
    if model_status == h.HighsModelStatus.kOptimal:
        hinfo = highs.getInfo()
        if info is not None and any(prob.integer.values()):
            info["nodes"] = int(hinfo.mip_node_count)
            info["dual_bound"] = float(hinfo.mip_dual_bound) + prob.objective_constant
            info["gap"] = float(hinfo.mip_gap)
        x = highs.getSolution().col_value
        return ("optimal", float(hinfo.objective_function_value) + prob.objective_constant,
                {v: float(x[i]) for i, v in enumerate(prob.col_order)})
    if model_status == h.HighsModelStatus.kInfeasible:
        return "infeasible", None, None
    print(f"HiGHS: {highs.modelStatusToString(model_status)}", file=sys.stderr)
    return ("unbounded" if model_status == h.HighsModelStatus.kUnbounded else "error"), None, None


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
    return {"optimal": 0, "infeasible": 2}.get(status, 1)


if __name__ == "__main__":
    sys.exit(main())
