import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emdarp
from emdarp.generate import GenConfig, generate, generate_document
from emdarp.instance import instance_from_dict
from emdarp.model import build_model
from emdarp.mps import format_mps, write_mps
from emdarp.search import branch_and_bound
from emdarp.solution import parse_solution
from emdarp.tools.solve_mps import main, read_mps, solve

from conftest import make_instance
from test_acceptance import corpus_config


def test_solver_child_loads_only_its_module():
    # a solver child imports emdarp.tools.solve_mps alone: the package
    # resolves its exports on first use, and solve() imports numpy and scipy
    src = str(Path(emdarp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]))
    code = ("import sys, emdarp.tools.solve_mps; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('emdarp', 'numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["emdarp", "emdarp.tools", "emdarp.tools.solve_mps"]


def test_package_exports_resolve_on_first_use():
    # every name of __all__ is the object its submodule defines, also
    # generate, a function that shares its name with its submodule
    from emdarp import generate as generate_export
    from emdarp import search

    for name in emdarp.__all__:
        assert getattr(emdarp, name) is getattr(sys.modules[f"emdarp.{emdarp._HOME[name]}"], name)
    assert generate_export is generate and search.branch_and_bound is branch_and_bound
    with pytest.raises(AttributeError):
        emdarp.no_such_export


@pytest.fixture
def small_model():
    return build_model(make_instance(n_requests=2, n_stations=1, dups=1))


def _write_and_read(model, tmp_path):
    path = tmp_path / "model.mps"
    write_mps(model, str(path))
    return read_mps(str(path))


def test_round_trip_rows_and_columns(small_model, tmp_path):
    prob = _write_and_read(small_model, tmp_path)
    assert prob.name == "EMDARP"
    assert len(prob.row_order) == len(small_model.constraints)
    sense_map = {"<=": "L", ">=": "G", "=": "E"}
    for row_name, con in zip(prob.row_order, small_model.constraints):
        assert prob.row_sense[row_name] == sense_map[con.sense]
        assert prob.rhs.get(row_name, 0.0) == con.rhs

    assert prob.col_order == list(small_model.catalog.variables)
    for row_name, con in zip(prob.row_order, small_model.constraints):
        for var, coef in con.coeffs.items():
            if coef != 0.0:
                assert prob.columns[var][row_name] == coef


def test_round_trip_objective(small_model, tmp_path):
    prob = _write_and_read(small_model, tmp_path)
    obj_row = prob.objective_row
    for var, coef in small_model.objective.items():
        if coef != 0.0:
            assert prob.columns[var][obj_row] == coef
    assert prob.objective_constant == pytest.approx(small_model.objective_constant)


def test_round_trip_bounds_and_integrality(small_model, tmp_path):
    prob = _write_and_read(small_model, tmp_path)
    for var in small_model.catalog.variables.values():
        assert prob.integer.get(var.name, False) == var.integer, var.name
        lo = prob.lower.get(var.name, 0.0)
        hi = prob.upper.get(var.name, math.inf)
        assert lo == pytest.approx(var.lb)
        if math.isfinite(var.ub):
            assert hi == pytest.approx(var.ub)
        else:
            assert not math.isfinite(hi)


def test_export_is_deterministic(small_model):
    again = build_model(make_instance(n_requests=2, n_stations=1, dups=1))
    assert format_mps(small_model) == format_mps(again)


def test_free_format_is_plain_ascii(small_model):
    text = format_mps(small_model)
    assert text.startswith("NAME")
    assert text.rstrip().endswith("ENDATA")
    assert text.isascii()
    sections = [line for line in text.splitlines() if line and not line[0].isspace()]
    assert sections == ["NAME EMDARP", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"]


_HAND_MPS = """NAME HAND
ROWS
 N OBJ
 L c0
COLUMNS
 x OBJ 1.0 c0 1.0
RHS
 RHS c0 4.0
BOUNDS
 UP BND x 3.0
ENDATA
"""


def test_hand_written_mps_reads(tmp_path):
    path = tmp_path / "hand.mps"
    path.write_text(_HAND_MPS)
    prob = read_mps(str(path))
    assert (prob.objective_row, prob.row_sense, prob.col_order) == ("OBJ", {"c0": "L"}, ["x"])
    assert (prob.columns, prob.rhs, prob.upper) == ({"x": {"OBJ": 1.0, "c0": 1.0}}, {"c0": 4.0},
                                                    {"x": 3.0})


@pytest.mark.parametrize("old, new, line", [
    (" L c0\n", " L\n", 4),                        # a row without its name
    (" L c0\n", " Q c0\n", 4),                     # a sense that is none of N, L, G, E
    (" L c0\n", " L c0\n N OBJ2\n", 5),            # a second objective row
    (" L c0\n", " L c0\n G c0\n", 5),              # a row declared twice
    (" x OBJ 1.0 c0 1.0", " x OBJ 1.0 c9 1.0", 6),  # an entry on an undeclared row
    (" x OBJ 1.0 c0 1.0", " x OBJ 1.0 c0", 6),      # a row without its value
    (" RHS c0 4.0", " RHS c9 4.0", 8),              # a right-hand side on an undeclared row
    (" UP BND x 3.0", " UP BND", 10),               # a bound short of its column
    (" UP BND x 3.0", " UP BND y 3.0", 10),         # a bound on an undeclared column
    (" UP BND x 3.0", " UP BND x 3.0x", 10),        # a value that is no number
    *[(" UP BND x 3.0", f" {code} BND x", 10) for code in ("UP", "LO", "FX", "UI", "LI")],
    ("ROWS\n", "OBJSENSE\n    MAX\nROWS\n", 2),   # a section the reader does not know
    ("ROWS\n", " x\nROWS\n", 2),                   # a data line before any section
], ids=["rows-one-field", "unknown-sense", "second-objective", "row-twice",
        "columns-undeclared-row", "columns-odd-fields", "rhs-undeclared-row", "bounds-two-fields",
        "bounds-undeclared-column", "bounds-not-a-number", "up-no-value", "lo-no-value",
        "fx-no-value", "ui-no-value", "li-no-value", "objsense", "no-section"])
def test_malformed_mps_exits_4(old, new, line, tmp_path, capsys):
    # the reader referees the export path: a file it cannot read exactly is
    # an error naming the line, never a traceback or a different problem
    assert _HAND_MPS.count(old) == 1
    model_path, sol_path = tmp_path / "bad.mps", tmp_path / "out.sol"
    model_path.write_text(_HAND_MPS.replace(old, new))
    assert main([str(model_path), str(sol_path)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {model_path}, line {line}: ")
    assert not sol_path.exists()


@pytest.mark.parametrize("cfg", [
    # at its default relative gap of 1e-4, HiGHS (scipy 1.17.1) stopped short and
    # called it optimal: 64.0234 for 61.7023, 117.8722 for 113.7190, 121.4659
    # for 118.5072
    GenConfig(seed=46, n_requests=2, n_agents=2, preset="high-discharge"),
    GenConfig(seed=50, n_requests=3, n_agents=1),
    GenConfig(seed=58, n_requests=2, n_agents=1),
], ids=["s46", "s50", "s58"])
def test_solve_closes_the_relative_gap(cfg, tmp_path):
    pytest.importorskip("scipy")
    inst = generate(cfg)
    bb = branch_and_bound(inst)
    assert bb.status == "optimal"
    status, objective, _ = solve(_write_and_read(build_model(inst), tmp_path))
    assert status == "optimal"
    assert objective == pytest.approx(bb.objective, abs=1e-6)


def _presolve_grid():
    # fault 1d's make-up: with presolve, HiGHS cut off seed 54's optimum and
    # reported 11076.480 as optimal; that case runs in tier-1, the other 119
    # are slow
    for seed in range(60):
        for n_requests, n_agents in ((3, 1), (2, 2)):
            cfg = GenConfig(seed=seed, n_requests=n_requests, n_agents=n_agents,
                            n_stations=1, duplicate_visits=1, preset="high-discharge")
            tier1 = (seed, n_agents) == (54, 1)
            yield pytest.param(cfg, id=f"s{seed}-a{n_agents}",
                               marks=() if tier1 else pytest.mark.slow)


@pytest.mark.parametrize("cfg", list(_presolve_grid()))
def test_solve_matches_bnb_without_presolve(cfg, tmp_path):
    pytest.importorskip("scipy")
    inst = generate(cfg)
    bb = branch_and_bound(inst)
    status, objective, _ = solve(_write_and_read(build_model(inst), tmp_path))
    assert status == bb.status
    if status == "optimal":
        assert objective == pytest.approx(bb.objective, abs=1e-5)
    if (cfg.seed, cfg.n_agents) == (54, 1):
        assert objective == pytest.approx(908.174, abs=1e-3)


def test_solution_file_reports_the_search(small_model, tmp_path):
    # the solver child writes HiGHS's node count, its dual bound (objective
    # constant included) and its gap; the count depends on the HiGHS
    # version, so only its presence is checked
    pytest.importorskip("scipy")
    model_path, sol_path = tmp_path / "model.mps", tmp_path / "out.sol"
    write_mps(small_model, str(model_path))
    assert main([str(model_path), str(sol_path)]) == 0
    comments = dict(line[2:].split(" ", 1) for line in sol_path.read_text().splitlines()
                    if line.startswith("# "))
    assert set(comments) == {"status", "nodes", "dual_bound", "gap"}
    assert comments["status"] == "optimal" and int(comments["nodes"]) >= 0
    parsed = parse_solution(sol_path.read_text())
    assert float(comments["dual_bound"]) <= parsed.objective + 1e-6
    assert 0.0 <= float(comments["gap"]) <= 1e-6


# sha256 of the MPS text of each acceptance-corpus configuration; any change to
# a row, a coefficient order or a number's digits shows here
PINNED_MPS = [
    "2fdfc0f01fc4a51ec6c5e9a31c43cae6ce21fad7064c51688d2a2bfee27a7402",
    "fdae71b6d33a73655c758310990109d63b4a1fa8c0790a168c995949f26de636",
    "82806967c7ba4d5a8772ce1186d47aca7eac93131d463aa17e6cf99b3d77fc21",
    "05d702cdad33e15e3244129dfeebe47c7e7a4ed7f5add92ada28f095d96d3960",
    "de51913fd77bc1daf916f8a85e50ca37b0b4405f0a81963f654fd6c5ec728c8d",
    "32c44b2b342ab41c7ff65fba2f431eb2a724bc22efb99f8c20e0bc82db4450e3",
    "f6b64350daa04f093cd623f318d1099f822befb8428893d75886a7b613ae86ae",
    "11e790c158e7fe9d17e0e66b5e4a2084574b94ba302337e81b0eec02b1ce5c7d",
    "7641729581250715de512441e7687925521cda37cdcbd8a45c1b69371d8ef034",
    "1ff140ca29b88a1761d8f66cf1e43c72ff77e928e8bfe29a9c0d8455822c0847",
    "bebfce27c4647a47437e140f4dcee6dfc9ffc49ee854e35126e2d194b73685a0",
    "20063fc311a5fe45549c1770f6bbe42ec56fc1843f939edf413b29cde5f460b2",
    "3a85ca233e63aa776338e602892a0375f460e27bdcc78e1cb6a3e6c4f200f631",
    "98929c18fa75c82985b9f97dc2da595abe30ffeaf1c30f743c8e094c794a5fcc",
    "d67c60c72540855ec1dacae9ab0a422b7f936419a636a8a34840c29c7612dc51",
    "be97402f6878f854920ef97afc2f163701e55dc0968cf0422d49173b326f484d",
    "5d64a9e0c57b421e613b19674b1e06b74ed91d9fb9f0d713b9ff08c473de4f3a",
    "5fe1743dcb9c6705c9bf5e1700497843b878271e68318621a1554b37098b06a3",
    "97d85cdb0f5b2c9780b936fd6b682443edba17ba094f11967b06c77c5c73e6ce",
    "90ebfaeabbc313f31cfb67b837070aa9d519626ade5d8bb5bc972e54f4d7a9ff",
    "e29f1b9f0dae499f25d61e1c8773d224874730240d6d08872c175904b71d7cc9",
    "2fcf11f6ffaaf9f8149a2f0865772431c1327c52474e20c7bd1c8b0b3b45d9c0",
    "fa03ec955c6a8e5003e9400ffa074c444a4129084ec26b4958de4e79c134553e",
    "7f33c7f10f4fde8ef9b4c6a8ecf236a141e304b3690fcb33db7556ffed765aae",
    "54dc1790f325fbc3fb7a5549531627f7a1d8044465ef787d65ce689374605a6c",
]


def _no_hub_energy(cfg):
    doc = generate_document(cfg)
    doc["config"]["open_vrp_soc_to_hub"] = False
    return instance_from_dict(doc)


@pytest.mark.parametrize("inst, digest", [
    *[(generate(corpus_config(i)), d) for i, d in enumerate(PINNED_MPS)],
    # closed, high-discharge, one station with three slots
    (generate(GenConfig(seed=3, n_requests=4, n_agents=2, n_stations=1,
                        duplicate_visits=2, preset="high-discharge")),
     "1b730cc6cce1d1223d187cb395f4353538012291db7797ee8ebb824dd888705c"),
    # open routes whose leg into the depot draws no energy
    (_no_hub_energy(corpus_config(1)),
     "fa075bcb1c20d3fb9bb53867d9ea1e528f0f3709695be97163cb37b481383a87"),
], ids=[f"corpus-{i}" for i in range(len(PINNED_MPS))] + ["c5-n4-s3", "corpus-1-no-hub-energy"])
def test_mps_text_pinned(inst, digest):
    assert hashlib.sha256(format_mps(build_model(inst)).encode()).hexdigest() == digest
