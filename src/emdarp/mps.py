"""Free-format MPS export for the routing model.

The model is always named EMDARP.  Rows are emitted in model order as c0,
c1, ... and the objective row is OBJ.  The objective constant is carried on
the RHS of the OBJ row (negated), which is the convention most solvers
follow.
"""

from __future__ import annotations

import math

from .model import EQ, GE, LE, MilpModel

_SENSE_CODE = {LE: "L", GE: "G", EQ: "E"}


def format_mps(model: MilpModel) -> str:
    lines = ["NAME EMDARP", "ROWS", " N OBJ"]
    row_names = []
    for i, c in enumerate(model.constraints):
        rn = f"c{i}"
        row_names.append(rn)
        lines.append(f" {_SENSE_CODE[c.sense]} {rn}")

    # column-major entries, in catalog order
    by_var: dict[str, list[tuple[str, float]]] = {v: [] for v in model.catalog.variables}
    for name, coef in model.objective.items():
        if coef != 0.0:
            by_var[name].append(("OBJ", coef))
    for rn, c in zip(row_names, model.constraints):
        for name, coef in c.coeffs.items():
            if coef != 0.0:
                by_var[name].append((rn, coef))

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for var in model.catalog.variables.values():
        if var.integer != in_int:
            kind = "'INTORG'" if var.integer else "'INTEND'"
            lines.append(f" MARKER{marker} 'MARKER' {kind}")
            marker += 1
            in_int = var.integer
        for rn, coef in by_var[var.name]:
            lines.append(f" {var.name} {rn} {coef!r}")
        if not by_var[var.name]:
            # keep unused columns visible so the variable set round-trips
            lines.append(f" {var.name} OBJ 0")
    if in_int:
        lines.append(f" MARKER{marker} 'MARKER' 'INTEND'")

    lines.append("RHS")
    if model.objective_constant != 0.0:
        lines.append(f" RHS OBJ {-model.objective_constant!r}")
    for rn, c in zip(row_names, model.constraints):
        if c.rhs != 0.0:
            lines.append(f" RHS {rn} {c.rhs!r}")

    lines.append("BOUNDS")
    for var in model.catalog.variables.values():
        if var.integer and var.lb == 0.0 and var.ub == 1.0:
            lines.append(f" BV BND {var.name}")
            continue
        if var.lb == var.ub:
            lines.append(f" FX BND {var.name} {var.lb!r}")
            continue
        if var.lb != 0.0:
            lines.append(f" LO BND {var.name} {var.lb!r}")
        if math.isfinite(var.ub):
            code = "UI" if var.integer else "UP"
            lines.append(f" {code} BND {var.name} {var.ub!r}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps(model: MilpModel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_mps(model))
