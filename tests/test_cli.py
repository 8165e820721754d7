import hashlib
import json
import shlex
import sys
import xml.etree.ElementTree as ET

import pytest

from emdarp.cli import main
from emdarp.instance import load_instance
from emdarp.model import build_model
from emdarp.search import branch_and_bound, exhaustive_oracle
from emdarp.solution import encode_plan

from conftest import make_doc

SOLVER_CMD = f"{shlex.quote(sys.executable)} -m emdarp.tools.solve_mps {{model}} {{solution}}"


def write_doc(tmp_path, name="inst.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(make_doc(**kw)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def test_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, n_requests=2, n_agents=2)
    code, out = run(capsys, "validate", path)
    assert code == 0
    assert "2 requests, 2 agents" in out.out

    code, out = run(capsys, "validate", path, "--format", "json")
    assert code == 0
    doc = json.loads(out.out)
    assert doc["ok"] and doc["requests"] == 2


def test_validate_rejects_bad_instance(tmp_path, capsys):
    doc = make_doc()
    doc["requests"][0]["tw_hi"] = -5.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "rejected" in out.err


def test_overflowing_horizon_is_rejected(tmp_path, capsys):
    # every field is in range, but the time horizon the model and the search
    # derive from the window is past 1e15: each subcommand that reads the
    # instance rejects it, and no solver child starts.  These used to pass
    # validate and end build and solve in an OverflowError traceback
    doc = make_doc(n_requests=1, n_agents=1)
    doc["requests"][0].update(tw_lo=1e16, tw_hi=2e16)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    marker = tmp_path / "child-ran"
    child = (f"{shlex.quote(sys.executable)} -c 'import sys; open(sys.argv[1], \"w\")' "
             f"{shlex.quote(str(marker))} {{model}} {{solution}}")
    for argv in (["validate"], ["build", "--out", str(tmp_path / "m.mps")],
                 ["solve", "--out", str(tmp_path / "s.json")],
                 ["solve", "--engine", "external", "--solver-cmd", child,
                  "--out", str(tmp_path / "s.json")]):
        code, out = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 1, argv
        assert "instance rejected" in out.err and "horizon" in out.err, argv
    assert not marker.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


NAN, INF = float("nan"), float("inf")


def _matrix_doc():
    """A one-station document on matrix costs with every optional section."""
    doc = make_doc(n_stations=1)
    doc["config"]["weights"]["big_m"] = 500.0
    n = 5  # base nodes: start, pickup, delivery, station, depot
    doc["costs"] = {"mode": "matrix",
                    "matrix": [[0.0 if i == j else 10.0 for j in range(n)] for i in range(n)]}
    return doc


def _validate_with(tmp_path, capsys, keys, value):
    """`validate` on _matrix_doc with the field at *keys* set to *value*:
    the exit code, stderr and the field's path."""
    doc = _matrix_doc()
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    return code, out.err, "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _keys_id(value):
    return ".".join(map(str, value)) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize("keys, value", [
    (("requests", 0, "service_time"), NAN),
    (("requests", 0, "tw_hi"), INF),
    (("requests", 0, "priority"), INF),
    (("requests", 0, "pickup", 0), NAN),
    (("agents", 0, "initial_delay"), NAN),
    (("agents", 0, "max_duration"), NAN),
    (("agents", 0, "station_service_time"), INF),
    (("agents", 0, "start", 1), -INF),
    (("stations", 0, "earliest_available"), NAN),
    (("stations", 0, "pos", 0), INF),
    (("depots", 0, 1), NAN),
    (("costs", "matrix", 0, 1), INF),
    (("battery", "alpha0"), INF),
    (("battery", "alpha1"), NAN),
    (("battery", "beta1"), INF),
    (("config", "weights", "eta"), INF),
    (("config", "weights", "big_m"), NAN),
    pytest.param(("requests", 0, "tw_hi"), 10 ** 400, id="requests.0.tw_hi-10**400"),
], ids=_keys_id)
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, keys, value):
    # json.load reads NaN and Infinity, and each of these instances used to
    # pass `validate`; the B&B then raised, answered as if the field were
    # absent, or fed inf to the simplex.  An integer past the largest float
    # ended `validate` in an OverflowError traceback
    code, err, field = _validate_with(tmp_path, capsys, keys, value)
    assert code == 1
    assert f"instance rejected: {field}: must be" in err


@pytest.mark.parametrize("keys, value", [
    # each of these ended `validate` in a TypeError or ValueError traceback
    (("requests",), 5),
    (("requests", 0, "tw_lo"), "abc"),
    (("requests", 0, "passengers"), None),
    (("agents", 0, "cap_passengers"), "x"),
    (("agents", 0, "max_duration"), None),
    (("stations",), None),
    (("stations", 0, "earliest_available"), None),
    (("battery", "beta1"), None),
    (("config", "weights"), None),
    (("config", "weights", "big_m"), "x"),
    (("meta",), None),
    (("costs",), None),
    (("costs", "matrix", 0), 5),
    # each of these passed `validate`, read as another value
    (("config", "selective"), "false"),  # as true
    (("config", "open_vrp"), "false"),  # as true
    (("requests", 0, "force_accept"), "false"),  # as true
    (("requests", 0, "passengers"), 1.7),  # as 1
    (("agents", 0, "terminal_hub"), 0.5),  # as depot 0
    (("config", "duplicate_visits"), 0.5),  # as 0
    (("config", "integer_loads"), 0),  # as false
    (("requests", 0, "tw_hi"), "60"),
    (("battery", "alpha0"), "0.002"),
    (("config", "weights", "eta"), "1e4"),
    (("costs", "matrix", 0, 1), "10"),
], ids=_keys_id)
def test_validate_rejects_ill_typed_fields(tmp_path, capsys, keys, value):
    # every field is read by its JSON type: a finite number, an integral
    # integer, true or false, an object, a list.  With "selective": "false",
    # the seed-1 high-discharge make-up (3 requests, 1 agent, area 4000)
    # solved `optimal` with two requests rejected where the document's
    # instance is infeasible
    code, err, field = _validate_with(tmp_path, capsys, keys, value)
    assert code == 1
    assert f"instance rejected: {field}: must be" in err
    assert "Traceback" not in err


def test_unlimited_shift_is_valid(tmp_path, capsys):
    # +inf, the default max_duration, means no shift limit; as Infinity it
    # round-trips through an instance file
    doc = make_doc()
    doc["agents"][0]["max_duration"] = INF
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path))[0] == 0
    assert load_instance(str(path)).agents[0].max_duration == INF


def test_missing_file_is_config_error(tmp_path, capsys):
    code, out = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 4


@pytest.mark.parametrize("payload", [b'{"requests": [', b'\xff\xfe{'],
                         ids=["truncated", "not-utf8"])
def test_malformed_document_is_validation_failure(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert "instance rejected" in out.err


def test_build_writes_deterministic_mps(tmp_path, capsys):
    path = write_doc(tmp_path, n_stations=1, dups=1)
    out1 = tmp_path / "a.mps"
    out2 = tmp_path / "b.mps"
    code, cap = run(capsys, "build", path, "--out", str(out1),
                    "--format", "json")
    assert code == 0
    doc = json.loads(cap.out)
    assert doc["rows"] > 0 and doc["variables"] > 0
    code, _ = run(capsys, "build", path, "--out", str(out2))
    assert code == 0
    h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
    assert h1 == h2


def test_gen_round_trip(tmp_path, capsys):
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    argv = ["gen", "--seed", "42", "--requests", "3", "--agents", "2",
            "--stations", "1", "--dups", "1", "--preset", "highdischarge",
            "--no-selective", "--open"]
    code, _ = run(capsys, *argv, "--out", str(out1))
    assert code == 0
    code, _ = run(capsys, *argv, "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = load_instance(str(out1))
    assert not inst.selective and inst.open_vrp
    assert len(inst.stations) == 1 and inst.duplicate_visits == 1


@pytest.mark.parametrize("area", ["0", "-5", "nan", "inf"])
def test_gen_rejects_bad_area(tmp_path, capsys, area):
    # `--area 0` used to end in a ZeroDivisionError traceback; the others
    # failed only because the windows drawn happened to fail validation
    out = tmp_path / "g.json"
    code, cap = run(capsys, "gen", "--seed", "1", "--area", area, "--out", str(out))
    assert code == 4
    assert "area must be positive and finite" in cap.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--requests", "--agents", "--stations", "--dups"])
def test_gen_rejects_negative_counts(tmp_path, capsys, flag):
    # `gen --requests -1` and `--agents -1` used to exit 0 and write an
    # instance; a negative count is a usage error, caught before generation
    out = tmp_path / "g.json"
    code, cap = run(capsys, "gen", "--seed", "1", flag, "-1", "--out", str(out))
    assert code == 4
    assert flag in cap.err and ">= 0" in cap.err
    assert not out.exists()


def test_solve_then_check_clean(tmp_path, capsys):
    path = write_doc(tmp_path)
    sol_path = tmp_path / "plan.json"
    routes = tmp_path / "routes.txt"
    code, cap = run(capsys, "solve", path, "--out", str(sol_path),
                    "--routes", str(routes))
    assert code == 0
    assert "status: optimal" in cap.out
    assert ("\nnodes: 2  leaves: 1  leaf_lps: 1  leaf_pivots: 6  leaf_screened: 0"
            "  leaf_cut: 0  energy_pruned: 0\n") in cap.out
    assert "v0 -> p0 -> d0 -> h0" in routes.read_text().replace(
        "agent 0: ", "")
    code, cap = run(capsys, "check", path, str(sol_path))
    assert code == 0
    assert "clean" in cap.out


def test_check_flags_tampered_soc(tmp_path, capsys):
    path = write_doc(tmp_path)
    sol_path = tmp_path / "plan.json"
    code, _ = run(capsys, "solve", path, "--out", str(sol_path))
    assert code == 0
    doc = json.loads(sol_path.read_text())
    touched = False
    for plan in doc["plans"]:
        for rec in plan["visits"]:
            rec["soc_arrival"] = 0.01  # below the operating floor
            rec["soc_departure"] = 0.01
            touched = True
    assert touched
    sol_path.write_text(json.dumps(doc))
    code, cap = run(capsys, "check", path, str(sol_path), "--format", "json")
    assert code == 1
    report = json.loads(cap.out)
    assert not report["ok"]
    assert any(v["tag"] == "40" for v in report["violations"])


def test_check_flags_a_start_node_mid_route(tmp_path, capsys):
    # another agent's start node inserted after the first visit of a clean
    # plan is in range, so the solution reader lets it through; `check` used
    # to end in a ValueError traceback from the checker, and now reports a
    # plan violation and exits 1
    path = str(tmp_path / "g.json")
    assert run(capsys, "gen", "--seed", "1", "--requests", "2", "--agents", "2",
               "--out", path)[0] == 0
    sol_path = tmp_path / "plan.json"
    assert run(capsys, "solve", path, "--out", str(sol_path))[0] == 0
    doc = json.loads(sol_path.read_text())
    visits = next(plan for plan in doc["plans"] if plan["agent"] == 0)["visits"]
    visits.insert(1, {**visits[0], "node": 1, "label": "v1"})
    sol_path.write_text(json.dumps(doc))
    code, cap = run(capsys, "check", path, str(sol_path), "--format", "json")
    assert code == 1
    report = json.loads(cap.out)
    assert [(v["tag"], v["index"], v["note"]) for v in report["violations"]] == [
        ("plan", [0, 1], "visit to an agent's start node")]


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_check_rejects_out_of_range_tol(tmp_path, capsys, tol):
    # no gap is ever above a NaN tolerance, so `--tol nan` used to report a
    # tampered plan clean and exit 0; a NaN or negative tolerance is a usage
    # error, and the same plan fails at the default tolerance
    path = write_doc(tmp_path)
    sol_path = tmp_path / "plan.json"
    code, _ = run(capsys, "solve", path, "--out", str(sol_path))
    assert code == 0
    doc = json.loads(sol_path.read_text())
    doc["objective"] += 1000.0
    for plan in doc["plans"]:
        for rec in plan["visits"]:
            rec["arrival"] += 500.0
            rec["departure"] += 500.0
    sol_path.write_text(json.dumps(doc))
    code, cap = run(capsys, "check", path, str(sol_path), "--tol", tol)
    assert code == 4
    assert "--tol" in cap.err and ">= 0" in cap.err
    code, cap = run(capsys, "check", path, str(sol_path))
    assert code == 1
    assert "VIOLATIONS" in cap.out


def _first_visit(doc):
    return next(plan for plan in doc["plans"] if plan["visits"])["visits"][0]


@pytest.mark.parametrize("tamper, fault", [
    pytest.param(lambda doc: doc["plans"].pop(), "plans has 1 entries", id="fewer-plans"),
    pytest.param(lambda doc: doc["accepted"].pop(), "accepted has 1 entries",
                 id="short-accepted"),
    pytest.param(lambda doc: doc["request_slacks"].pop(), "request_slacks has 1 entries",
                 id="short-request-slacks"),
    pytest.param(lambda doc: doc["plans"][0].update(agent=2), "plan 0 is for agent 2",
                 id="agent-out-of-range"),
    pytest.param(lambda doc: doc["plans"].reverse(), "plan 0 is for agent 1",
                 id="plans-out-of-order"),
    pytest.param(lambda doc: _first_visit(doc).update(node=99), "visit to node 99",
                 id="node-out-of-range"),
    pytest.param(lambda doc: doc.update(objective="abc"), "objective: must be a number",
                 id="objective-string"),
    pytest.param(lambda doc: doc.update(makespan=None), "makespan: must be a number",
                 id="makespan-null"),
    pytest.param(lambda doc: _first_visit(doc).update(arrival="x"),
                 "plans[0].visits[0].arrival: must be a number", id="arrival-string"),
    pytest.param(lambda doc: doc.update(request_times=[str(t) for t in doc["request_times"]]),
                 "request_times[0]: must be a number", id="request-times-strings"),
    pytest.param(lambda doc: doc.update(accepted="ab"), "accepted: must be a list",
                 id="accepted-string"),
])
def test_check_rejects_misshaped_solution(tmp_path, capsys, tamper, fault):
    # each of the first six but one used to end `check` with an IndexError
    # traceback, and a plan for an unknown agent `plot --solution` too.
    # Plans out of agent order were misread: here as false violations, and
    # as an IndexError where a plan is shorter than the one at its agent's
    # index.  Of the ill-typed fields, "accepted": "ab" read as two accepted
    # requests and `check` called the plan clean; the others ended `check`
    # in a TypeError traceback, and `plot --solution` drew each of them
    path = write_doc(tmp_path, n_requests=2, n_agents=2)
    sol_path = tmp_path / "plan.json"
    code, _ = run(capsys, "solve", path, "--out", str(sol_path))
    assert code == 0
    doc = json.loads(sol_path.read_text())
    tamper(doc)
    sol_path.write_text(json.dumps(doc))
    for argv in (["check", path, str(sol_path)],
                 ["plot", path, "--solution", str(sol_path), "--out", str(tmp_path / "r.svg")]):
        code, cap = run(capsys, *argv)
        assert code == 4
        assert f"solution file malformed: {fault}" in cap.err
    assert not (tmp_path / "r.svg").exists()


def test_check_rejects_undecodable_solution(tmp_path, capsys):
    # a solution file that is not UTF-8 used to end `check` and `plot
    # --solution` in a UnicodeDecodeError traceback
    path = write_doc(tmp_path)
    sol_path = tmp_path / "plan.json"
    sol_path.write_bytes(b"\xff\xfe{")
    for argv in (["check", path, str(sol_path)],
                 ["plot", path, "--solution", str(sol_path), "--out", str(tmp_path / "r.svg")]):
        code, cap = run(capsys, *argv)
        assert code == 4
        assert "solution file malformed" in cap.err


@pytest.mark.parametrize("open_vrp", [False, True], ids=["closed", "open"])
@pytest.mark.parametrize("selective", [True, False], ids=["selective", "nonselective"])
def test_zero_agents(tmp_path, capsys, selective, open_vrp):
    # an instance with no agent is valid: every engine rejects each request
    # when it may, and proves it infeasible when it may not.  The MILP's
    # earliest pickup used to take min() over no agent, so `build` and the
    # external engine crashed
    pytest.importorskip("scipy")
    doc = make_doc(n_requests=2, n_agents=0)
    doc["config"].update(selective=selective, open_vrp=open_vrp)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(str(path))
    bb, oracle = branch_and_bound(inst), exhaustive_oracle(inst)
    assert bb.status == oracle.status == ("optimal" if selective else "infeasible")
    assert run(capsys, "build", str(path), "--out", str(tmp_path / "m.mps"))[0] == 0
    sol_path = tmp_path / "plan.json"
    code, _ = run(capsys, "solve", str(path), "--engine", "external", "--solver-cmd",
                  SOLVER_CMD, "--out", str(sol_path))
    assert code == (0 if selective else 2)
    if selective:
        sol = json.loads(sol_path.read_text())
        assert not any(sol["accepted"])
        assert sol["objective"] == pytest.approx(oracle.objective, abs=1e-5)
        assert oracle.objective == bb.objective
        encode_plan(build_model(inst), bb.solution)
        assert run(capsys, "check", str(path), str(sol_path))[0] == 0
        assert run(capsys, "plot", str(path), "--solution", str(sol_path),
                   "--out", str(tmp_path / "r.svg"))[0] == 0


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, over={
        "requests": [dict(make_doc()["requests"][0], passengers=9)],
        "config": {"selective": False},
    })
    # build the overridden doc manually: make_doc(**over) merge is shallow
    doc = make_doc()
    doc["requests"][0]["passengers"] = 9
    doc["config"]["selective"] = False
    p = tmp_path / "hard.json"
    p.write_text(json.dumps(doc))
    code, cap = run(capsys, "solve", str(p), "--out", str(tmp_path / "s.json"))
    assert code == 2
    assert "infeasible" in cap.out


def test_solve_node_limit_exit_code(tmp_path, capsys):
    # the first complete plan is found at node 3 of 5: a smaller limit
    # stops with no plan, a larger one with an unproven plan and its bound;
    # the search's counts come with either outcome, and nodes counts only
    # the nodes visited, never more than the limit
    path = write_doc(tmp_path, n_requests=2, n_agents=2)
    for limit, status, written, counts in (("1", "limit", False, (1, 0, 0, 0, 0)),
                                           ("3", "feasible", True, (3, 1, 1, 12, 0))):
        out = tmp_path / f"s{limit}.json"
        code, cap = run(capsys, "solve", path, "--node-limit", limit, "--out", str(out),
                        "--format", "json")
        assert code == 3
        doc = json.loads(cap.out)
        assert doc["status"] == status
        assert (doc["nodes"], doc["leaves"], doc["leaf_lps"], doc["leaf_pivots"],
                doc["leaf_cut"]) == counts
        assert out.exists() == written
        if written:
            assert doc["bound"] <= doc["objective"]
            assert doc["gap"] == pytest.approx(
                (doc["objective"] - doc["bound"]) / doc["objective"])
        else:
            assert "bound" not in doc and "gap" not in doc


@pytest.mark.parametrize("option, value", [("--node-limit", "-1"), ("--time-limit", "-1"),
                                           ("--time-limit", "nan")])
def test_solve_rejects_out_of_range_limits(tmp_path, capsys, option, value):
    # a negative limit used to stop at once and exit 3, and a NaN time limit
    # to run with no limit; both are usage errors, for either engine
    path = write_doc(tmp_path)
    out = tmp_path / "s.json"
    for engine in ("builtin", "external"):
        code, cap = run(capsys, "solve", path, "--engine", engine, option, value,
                        "--out", str(out))
        assert code == 4
        assert option in cap.err and ">= 0" in cap.err
        assert not out.exists()


def test_solve_external_matches_builtin(tmp_path, capsys):
    pytest.importorskip("scipy")
    path = write_doc(tmp_path, n_requests=2)
    sol_b = tmp_path / "b.json"
    sol_e = tmp_path / "e.json"
    code, _ = run(capsys, "solve", path, "--out", str(sol_b))
    assert code == 0
    code, _ = run(capsys, "solve", path, "--engine", "external",
                  "--solver-cmd", SOLVER_CMD, "--out", str(sol_e))
    assert code == 0
    ob = json.loads(sol_b.read_text())["objective"]
    oe = json.loads(sol_e.read_text())["objective"]
    assert ob == pytest.approx(oe, abs=1e-5)


def test_solver_command_keeps_literal_braces(tmp_path, capsys):
    # only {model} and {solution} are placeholders: the dict literal reaches
    # the child as written, and its exit code 3 reads as a resource limit
    script = "import sys; d = {}; sys.exit(3 if sys.argv[1].endswith('model.mps') else 1)"
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(script)} {{model}} {{solution}}"
    code, cap = run(capsys, "solve", write_doc(tmp_path), "--engine", "external",
                    "--solver-cmd", cmd, "--out", str(tmp_path / "s.json"))
    assert code == 3, cap.err


def test_solve_external_unconfigured(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EMDARP_SOLVER_CMD", raising=False)
    path = write_doc(tmp_path)
    code, cap = run(capsys, "solve", path, "--engine", "external",
                    "--out", str(tmp_path / "s.json"))
    assert code == 4
    assert "solver" in cap.err


def test_plot_produces_valid_svg(tmp_path, capsys):
    path = write_doc(tmp_path, n_requests=2, n_stations=1)
    sol_path = tmp_path / "plan.json"
    svg_path = tmp_path / "routes.svg"
    # force one rejection so the transparency path is exercised
    doc = json.loads((tmp_path / "inst.json").read_text())
    doc["requests"][1]["tw_lo"] = 0.0
    doc["requests"][1]["tw_hi"] = 0.001
    doc["requests"][1]["priority"] = 1.0
    (tmp_path / "inst.json").write_text(json.dumps(doc))
    code, _ = run(capsys, "solve", str(tmp_path / "inst.json"),
                  "--out", str(sol_path))
    assert code == 0
    code, _ = run(capsys, "plot", str(tmp_path / "inst.json"),
                  "--solution", str(sol_path), "--out", str(svg_path))
    assert code == 0
    text = svg_path.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg") and root.get("version") == "1.1"
    assert "polyline" in text
    sol = json.loads(sol_path.read_text())
    if not all(sol["accepted"]):
        assert 'opacity="0.3"' in text
    # plotting without a solution still works
    code, _ = run(capsys, "plot", str(tmp_path / "inst.json"),
                  "--out", str(tmp_path / "bare.svg"))
    assert code == 0


@pytest.mark.parametrize("strip, first", [("all", "v0"), ("pickup", "p1")])
def test_plot_node_without_coordinates(tmp_path, capsys, strip, first):
    # on matrix costs a node may have no position, which validate and solve
    # accept; plot used to end in a traceback (min() of an empty sequence
    # with none at all, unpacking None with one missing)
    doc = make_doc(n_requests=2)
    doc["costs"] = {"mode": "matrix", "matrix": [[0.0 if i == j else 10.0 for j in range(6)]
                                                 for i in range(6)]}
    if strip == "all":
        for req in doc["requests"]:
            req["pickup"] = req["delivery"] = None
        doc["agents"][0]["start"] = None
        doc["depots"] = [None]
    else:
        del doc["requests"][1]["pickup"]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path))[0] == 0
    code, out = run(capsys, "plot", str(path), "--out", str(tmp_path / "r.svg"))
    assert code == 4
    assert f"{first} has no coordinates" in out.err
    assert not (tmp_path / "r.svg").exists()


def test_usage_error_is_config_error(tmp_path, capsys):
    # argparse exits with 2, which here would mean "proven infeasible"
    path = write_doc(tmp_path)
    code, out = run(capsys, "solve", path, "--out", str(tmp_path / "s.json"), "--threads", "2")
    assert code == 4
    assert "--threads" in out.err
    code, out = run(capsys, "solve")
    assert code == 4
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
