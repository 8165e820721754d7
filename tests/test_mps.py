import hashlib
import math

import pytest

from emdarp.generate import GenConfig, generate, generate_document
from emdarp.instance import instance_from_dict
from emdarp.model import build_model
from emdarp.mps import format_mps, write_mps
from emdarp.search import branch_and_bound
from emdarp.tools.solve_mps import read_mps, solve

from conftest import make_instance
from test_acceptance import corpus_config


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


# sha256 of the MPS text of each acceptance-corpus configuration; any change to
# a row, a coefficient order or a number's digits shows here
PINNED_MPS = [
    "622e3efd6648d1b9641fcc3dc317c21abeec8da9c2a5b21aa76026b1cd06fa0d",
    "e3ae76f348fc2e55bececd9b84347f2057df1a1f7cc00553525b9a51651a1420",
    "a973f4a16a1eeba1c7f4d7ae23cdfcaf5933e05511250cdcd25304a79248fa95",
    "5c8ad7d3bf06c77e4d2a1e4e31278d3f1153d45d5d448958c154cee537857569",
    "fb0aff9ab623e796cf0415bd34983b150cc91f6bbb4cb057c1717d8a89676872",
    "8899f2b551a159b24c383dac8d77104664e2e0725acfc9f788e43aa23859efb7",
    "2955d06ceaee75dfb46653fa62e62558f9dc503bebef114325de7db653a58e54",
    "1ca942ba92592a9897780e59f84c5bc6595aa5f74b353fc32d88ea9dd057cf14",
    "41f868e49933da69aff297730b748f5b987ed08ea8b0bdd739665f04b6a9db92",
    "1867fd7772067a4bcd400cac3e2e5c9c877e1301459476309d5ba3001e39504a",
    "8d375434fb3a596014be908d6ce0dfa5984198a2b47d1e8cae8f93d2390641de",
    "df24caa9cca4e5c98572b6f56f783cacd28e97d093d288a2b7b85b1ee23953e7",
    "a73cf8314fe65a0b1531f24dc35276eda5b244a4ec606b032e028f83781b2e5d",
    "41d972c905d617860bf83057e62f19cf7f65b5a859badac4ae9cfae56bdd8d2d",
    "291ed9ba8491a6ae2cbc406db6dc0e9b224cb23aec3a66c72ab4bcfcbe298e8e",
    "8a72a222548e3b2d49d44bc3edd2878ac62e31c5c2658a32dfebea76a7c4704b",
    "3df6edd78a9016537b9a7f4828aa218997f83876ca39f9db6953e3e8986c7cf6",
    "ac730d4a3099fa2c0b30a92baf702e8b1f8a2f8fa8bce94186b20f49500af71b",
    "ecffa83ad1898d11331d45dbe98ca9ecfb509d603201cd36f5c6a42e28c2d6db",
    "8097e9503ad2629e2e135b27f43cd776c3e64d215a3bca30a99f25d0708b5e04",
    "de27ecaf80e171a24b2dace46ba2b731b33cc28fd3424b9308d1477fcde79f8e",
    "638b3b04ecb0ab14b0bfaf3dc4cb713de56a9135882adfd757404ed52dba17ba",
    "3c5c98df32015b9408283fa28a13a7cb7299a4102f2d4f4dfadef3382750b705",
    "2bac1af8b50d90d1301c2b464b108748b15fbf2b004613702d492b81e50b8f28",
    "f7acd7465b59aa0d5ac9196fcfed6cc9880fe0836d6a4c8994f69d638bd86bc8",
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
     "84a8b66af0fdf0dc577d0ec49b5abe33c8dc731f65b19b1b425106e4a3052a6b"),
    # open routes whose leg into the depot draws no energy
    (_no_hub_energy(corpus_config(1)),
     "dca70f4b76ff774c84598362f4d6d3356ef2ef9d871587f61ab3d51000cb0e48"),
], ids=[f"corpus-{i}" for i in range(len(PINNED_MPS))] + ["c5-n4-s3", "corpus-1-no-hub-energy"])
def test_mps_text_pinned(inst, digest):
    assert hashlib.sha256(format_mps(build_model(inst)).encode()).hexdigest() == digest
