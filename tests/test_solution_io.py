import shlex
import sys

import pytest

from emdarp.graph import expand_graph
from emdarp.model import build_model
from emdarp.scheduling import schedule_routes
from emdarp.solution import (
    Solution, SolutionFormatError, decode_solution, encode_plan, parse_solution,
    run_external, ExternalSolverError,
)

from conftest import make_instance


def _scheduled(inst, chains, accepted):
    g = expand_graph(inst)
    res = schedule_routes(inst, g, chains, accepted)
    assert res.feasible, res.reason
    return g, res.solution


def test_parse_basic():
    parsed = parse_solution("# status optimal\nobjective 12.5\nx_0_0_1 1\nt_1 3.25\n")
    assert parsed.status == "optimal"
    assert parsed.objective == 12.5
    assert parsed.values == {"x_0_0_1": 1.0, "t_1": 3.25}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SolutionFormatError) as err:
        parse_solution("t_1 1.0\nt_1 2.0\n")
    assert "line 2" in str(err.value) and "duplicate" in str(err.value)
    with pytest.raises(SolutionFormatError) as err:
        parse_solution("t_1 abc\n")
    assert "line 1" in str(err.value)
    with pytest.raises(SolutionFormatError) as err:
        parse_solution("bogus 1.0\n", known_names={"t_1"})
    assert "unknown variable" in str(err.value)
    with pytest.raises(SolutionFormatError):
        parse_solution("a b c\n")


def test_parse_trailing_comments_and_blanks():
    parsed = parse_solution("\n# a comment\nt_1 2.0  # arrival\n\n")
    assert parsed.values == {"t_1": 2.0}


def test_solution_json_round_trip():
    inst = make_instance(n_requests=2)
    g = expand_graph(inst)
    chains = [[g.pickup_node(0), g.delivery_node(0), g.hf[0]]]
    _, sol = _scheduled(inst, chains, [True, False])
    doc = sol.to_dict()
    assert "gap" not in doc
    back = Solution.from_dict(doc)
    assert back == sol
    # files written before the field was dropped carry "gap": null
    assert Solution.from_dict({**doc, "gap": None}) == sol


def test_encode_satisfies_model_rows():
    inst = make_instance(n_requests=2, n_agents=2, n_stations=1, dups=1, over={
        "battery": {"alpha0": 0.004, "alpha1": 0.0002, "alpha2": 0.0001,
                    "beta1": 0.034, "beta2": 0.012, "beta3": 0.005}})
    g = expand_graph(inst)
    chains = [
        [g.pickup_node(0), g.delivery_node(0), g.f_node(0, 0), g.hf[0]],
        [g.pickup_node(1), g.delivery_node(1), g.hf[0]],
    ]
    res = schedule_routes(inst, g, chains, [True, True])
    assert res.feasible, res.reason
    model = build_model(inst, g)
    values = encode_plan(model, res.solution)
    bad = model.check_feasible(values)
    assert bad == [], [(c.tag, c.index, c.part, v) for c, v in bad[:8]]
    assert model.objective_value(values) == pytest.approx(res.objective)


def test_encode_with_rejections_satisfies_model_rows():
    inst = make_instance(n_requests=3)
    g = expand_graph(inst)
    chains = [[g.pickup_node(1), g.delivery_node(1), g.hf[0]]]
    res = schedule_routes(inst, g, chains, [False, True, False])
    assert res.feasible
    model = build_model(inst, g)
    values = encode_plan(model, res.solution)
    bad = model.check_feasible(values)
    assert bad == [], [(c.tag, c.index, c.part, v) for c, v in bad[:8]]
    assert model.objective_value(values) == pytest.approx(res.objective)


def test_decode_round_trip():
    inst = make_instance(n_requests=2, n_agents=2)
    g = expand_graph(inst)
    chains = [
        [g.pickup_node(0), g.delivery_node(0), g.hf[0]],
        [g.pickup_node(1), g.delivery_node(1), g.hf[0]],
    ]
    res = schedule_routes(inst, g, chains, [True, True])
    model = build_model(inst, g)
    values = encode_plan(model, res.solution)
    back = decode_solution(model, values, engine="test")
    assert [p.nodes for p in back.plans] == chains
    assert back.accepted == [True, True]
    assert back.objective == pytest.approx(res.objective)
    assert back.plans[0].visits[0].arrival == pytest.approx(
        res.solution.plans[0].visits[0].arrival)


def test_decode_rejects_broken_chain():
    inst = make_instance()
    g = expand_graph(inst)
    model = build_model(inst, g)
    values = {name: 0.0 for name in model.catalog.variables}
    # pickup entered but never left
    values[f"x_0_{g.start_node(0)}_{g.pickup_node(0)}"] = 1.0
    with pytest.raises(Exception) as err:
        decode_solution(model, values)
    assert "not a depot" in str(err.value)


def test_decode_rejects_detached_cycle():
    inst = make_instance(n_requests=2)
    g = expand_graph(inst)
    model = build_model(inst, g)
    values = {name: 0.0 for name in model.catalog.variables}
    p0, p1 = g.pickup_node(0), g.pickup_node(1)
    values[f"x_0_{p0}_{p1}"] = 1.0
    values[f"x_0_{p1}_{p0}"] = 1.0
    with pytest.raises(Exception) as err:
        decode_solution(model, values)
    assert "cycle" in str(err.value)


def test_decode_rejects_fractional_binary():
    inst = make_instance()
    g = expand_graph(inst)
    model = build_model(inst, g)
    values = {name: 0.0 for name in model.catalog.variables}
    values["y_0"] = 0.5
    with pytest.raises(Exception) as err:
        decode_solution(model, values)
    assert "0 or 1" in str(err.value)


def test_run_external_requires_configuration(monkeypatch):
    monkeypatch.delenv("EMDARP_SOLVER_CMD", raising=False)
    inst = make_instance()
    model = build_model(inst)
    with pytest.raises(ExternalSolverError):
        run_external(model)
    with pytest.raises(ExternalSolverError):
        run_external(model, command="solver-without-placeholders")


def test_run_external_with_bundled_tool():
    pytest.importorskip("scipy")
    inst = make_instance()
    model = build_model(inst)
    cmd = f"{shlex.quote(sys.executable)} -m emdarp.tools.solve_mps {{model}} {{solution}}"
    parsed = run_external(model, command=cmd, timeout=120)
    assert parsed.status == "optimal"
    sol = decode_solution(model, parsed.values, objective=parsed.objective,
                          engine="external")
    # optimum serves the lone request; compare against the scheduled route
    g = model.graph
    chains = [[g.pickup_node(0), g.delivery_node(0), g.hf[0]]]
    res = schedule_routes(inst, g, chains, [True])
    assert sol.objective == pytest.approx(res.objective, abs=1e-5)
    assert [p.nodes for p in sol.plans] == chains
