"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  The small-instance
corpus (criteria 1-3, 8) is solved once and shared; the remaining criteria
use purpose-built instances.
"""

import json
import math
import random
import shlex
import sys
import time

import pytest

from emdarp.checker import charge_curve, validate
from emdarp.generate import GenConfig, battery_for, generate, generate_document
from emdarp.graph import expand_graph
from emdarp.instance import instance_from_dict, instance_to_dict
from emdarp.model import build_model, compute_big_m
from emdarp.mps import format_mps
from emdarp.search import SearchConfig, branch_and_bound, exhaustive_oracle
from emdarp.solution import encode_plan, run_external

from conftest import make_doc

SOLVER_CMD = f"{shlex.quote(sys.executable)} -m emdarp.tools.solve_mps {{model}} {{solution}}"

try:
    import scipy  # noqa: F401
    HAVE_EXTERNAL = True
except ImportError:
    HAVE_EXTERNAL = False


def corpus_config(seed: int) -> GenConfig:
    return GenConfig(
        seed=seed,
        n_requests=1 + seed % 3,
        n_agents=1 + seed % 2,
        n_stations=seed % 2,
        duplicate_visits=seed % 2,
        preset="typical" if seed % 2 else "high-discharge",
        selective=bool(seed % 3 != 0),
        open_vrp=bool(seed % 2),
    )


@pytest.fixture(scope="module")
def corpus():
    """25 small instances with builtin results, oracle results, and runtime."""
    out = []
    t0 = time.monotonic()
    for seed in range(25):
        inst = generate(corpus_config(seed))
        bb = branch_and_bound(inst)
        oracle = exhaustive_oracle(inst)
        out.append((seed, inst, bb, oracle))
    return out, time.monotonic() - t0


def test_criterion_1_oracle_equivalence(corpus):
    results, elapsed = corpus
    assert len(results) >= 25
    for seed, inst, bb, oracle in results:
        assert bb.status == oracle.status, f"seed {seed}"
        if bb.status == "optimal":
            assert bb.objective == pytest.approx(oracle.objective, abs=1e-6), \
                f"seed {seed}"
    assert elapsed < 60.0


# (corpus configuration, status, objective, nodes, leaves, leaf LPs,
# placements screened, children cut by the energy screen) of the builtin
# branch-and-bound.  Any change to the simplex pivot path, the search order
# or the leaf screen shows here first; move a value only with an
# oracle-checked reason.
# Every feasible configuration counts the leaf of its optimum: the search
# finds its incumbent itself, so that leaf is visited, not pruned by a bound
# against a plan found beforehand.  Since the leaf screen prices each
# station's least charging time, c5-n4-s3 solves 9 leaf LPs instead of 28:
# the other 19 could not beat the plan found before them, and its nodes,
# leaves and optimum did not move then (no corpus row moved).
# Since the energy screen cuts a child whose changed chain no completion can
# drive within its SoC floor, nodes and leaves fell on 0, 2, 6, 8, 10, 12,
# 14, 20, 22 and c5-n4-s3 (131/105 to 67/52; corpus 20 from 55/44 to 4/1,
# without the infeasible leaf whose bound was not below the optimum).  The
# screen never cuts a subtree with a placement that passes the leaf walk, so
# every status, objective, leaf LP and screened count stayed, and the
# solution JSON is byte-identical.  On the infeasible 0, 6 and 12 the one
# request's only insertion is cut, so the root is the only node.
# Configuration 24 serves its one request, which waits for its window and
# ends past a horizon that counted the service once and left the window
# start out: with that horizon all three engines rejected it at 244.848.
PINNED_CORPUS = [
    (0, "infeasible", math.inf, 1, 0, 0, 0, 1),
    (1, "optimal", 75.95090282199382, 5, 2, 2, 8, 0),
    (2, "optimal", 46866.514517902186, 4, 1, 1, 0, 4),
    (3, "optimal", 26.503600418424124, 2, 1, 1, 1, 0),
    (4, "optimal", 102.6518700367318, 3, 1, 1, 0, 3),
    (5, "optimal", 108.59203901496076, 6, 1, 1, 8, 0),
    (6, "infeasible", math.inf, 1, 0, 0, 0, 1),
    (7, "optimal", 31.912626748998253, 3, 1, 1, 4, 0),
    (8, "optimal", 59478.56383295095, 6, 1, 1, 0, 10),
    (9, "optimal", 53.998970166119065, 2, 1, 1, 1, 0),
    (10, "optimal", 13136.895189141156, 3, 1, 1, 0, 2),
    (11, "optimal", 97.6998197055721, 7, 2, 2, 8, 0),
    (12, "infeasible", math.inf, 1, 0, 0, 0, 1),
    (13, "optimal", 120.7954416165867, 4, 1, 1, 4, 0),
    (14, "optimal", 42235.52106893448, 6, 1, 1, 0, 6),
    (15, "optimal", 91.39680108513518, 2, 1, 1, 1, 0),
    (16, "optimal", 77.51597279378826, 3, 1, 1, 0, 0),
    (17, "optimal", 63.301546540667104, 7, 2, 2, 8, 0),
    (18, "optimal", 71.01363988981916, 2, 1, 1, 0, 0),
    (19, "optimal", 101.46247707021979, 4, 1, 1, 3, 0),
    (20, "optimal", 37681.78037721325, 4, 1, 1, 0, 2),
    (21, "optimal", 68.3296002992313, 2, 1, 1, 1, 0),
    (22, "optimal", 38380.0, 3, 1, 1, 0, 2),
    (23, "optimal", 98.37832032911805, 6, 1, 1, 8, 0),
    (24, "optimal", 101.90012530862306, 2, 1, 1, 0, 0),
]


@pytest.mark.parametrize(
    "config, status, objective, nodes, leaves, leaf_lps, screened, energy_pruned, pivots", [
        *[(corpus_config(seed), *rest, None) for seed, *rest in PINNED_CORPUS],
        # the criterion-5 make-up at 4 requests: 52 of 67 nodes are leaves.
        # Its 4 leaf LPs take 130 pivots, all in the dual phase.  Before the
        # leaf screen priced the slot releases it solved 9 (309 pivots; 802
        # with an artificial column per row and a primal phase 1)
        (GenConfig(seed=3, n_requests=4, n_agents=2, n_stations=1,
                   duplicate_visits=2, preset="high-discharge"),
         "optimal", 148.93221199334377, 67, 52, 4, 263, 56, 130),
    ], ids=[f"corpus-{row[0]}" for row in PINNED_CORPUS] + ["c5-n4-s3"])
def test_bnb_output_pinned(config, status, objective, nodes, leaves, leaf_lps, screened,
                           energy_pruned, pivots):
    result = branch_and_bound(generate(config))
    assert result.status == status
    assert result.objective == pytest.approx(objective, rel=1e-12, abs=1e-12)
    assert (result.nodes, result.leaves, result.leaf_lps, result.leaf_screened,
            result.energy_pruned) == (nodes, leaves, leaf_lps, screened, energy_pruned)
    if pivots is not None:
        assert result.leaf_pivots == pivots


def test_bnb_prices_every_placement():
    # every (placement, depots) pair that passes the SoC walks either runs
    # its leaf LP or is ruled out by the timing screen: a tighter screen
    # moves pairs from one count to the other, never out of the total
    result = branch_and_bound(generate(GenConfig(
        seed=3, n_requests=4, n_agents=2, n_stations=1, duplicate_visits=2,
        preset="high-discharge")))
    assert result.leaf_lps + result.leaf_screened == 267


def test_criterion_2_validator_gate(corpus):
    results, _ = corpus
    checked = 0
    for seed, inst, bb, _oracle in results:
        if bb.solution is None:
            continue
        graph = expand_graph(inst)
        report = validate(inst, graph, bb.solution, tol=1e-6)
        assert report.ok, f"seed {seed}: {report.violations}"
        assert report.objective_recomputed == pytest.approx(
            bb.objective, abs=1e-6), f"seed {seed}"
        checked += 1
    assert checked > 0


def test_corpus_plans_satisfy_every_row(corpus):
    # the MILP's time bounds (pickup lower bounds, family 16's least time,
    # the "end" rows) cut off no optimum: each B&B plan, rejected requests
    # included, satisfies every row of the model at its own objective
    results, _ = corpus
    rejecting = set()
    for seed, inst, bb, _oracle in results:
        if bb.solution is None:
            continue
        model = build_model(inst)
        values = encode_plan(model, bb.solution)
        bad = model.check_feasible(values)
        assert bad == [], (seed, [(c.tag, c.index, c.part, v) for c, v in bad[:8]])
        assert model.objective_value(values) == pytest.approx(bb.objective, rel=1e-9)
        if not all(bb.solution.accepted):
            rejecting.add(seed)
    assert rejecting == {2, 8, 10, 14, 20, 22}


@pytest.mark.skipif(not HAVE_EXTERNAL, reason="no external MILP solver")
def test_criterion_3_external_milp_cross_check(corpus):
    from emdarp.tools.solve_mps import read_mps
    results, _ = corpus
    for seed, inst, bb, _oracle in results:
        model = build_model(inst)
        # the export must parse in the external toolchain
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.mps")
            with open(path, "w") as fh:
                fh.write(format_mps(model))
            prob = read_mps(path)
            assert prob.columns, f"seed {seed}: empty MPS"
        parsed = run_external(model, command=SOLVER_CMD)
        if bb.status == "infeasible":
            assert parsed.status == "infeasible", f"seed {seed}"
            continue
        assert parsed.status == "optimal", f"seed {seed}"
        assert parsed.objective == pytest.approx(bb.objective, abs=1e-5), \
            f"seed {seed}"


def test_criterion_4_charging_model_identity():
    battery_doc = battery_for("typical", 2000.0)
    battery = instance_from_dict(
        make_doc(battery=battery_doc)).battery
    assert battery.beta1 > battery.beta2 > battery.beta3
    rng = random.Random(4242)
    for _ in range(1000):
        soc = rng.uniform(0.0, 0.85)
        duration = rng.uniform(0.0, 120.0)
        final, (t1, t2, t3) = charge_curve(soc, duration, battery)
        gained = final - soc
        x1, x2, x3 = battery.charge_split(soc, gained)
        # same final state from the segment split
        rebuilt = soc + battery.beta1 * x1 + battery.beta2 * x2 + battery.beta3 * x3
        assert abs(rebuilt - final) <= 1e-9
        # the split respects every segment cap and indicator link: a
        # segment's indicator is on when a later segment charges, and then
        # the segments up to it are full (rows 41c-f and 42 of the MILP)
        z1 = 1 if x2 > 0.0 or x3 > 0.0 else 0
        z2 = 1 if x3 > 0.0 else 0
        assert battery.beta1 * x1 <= 0.85 - soc + 1e-9
        assert x2 <= z1 * 0.1 / battery.beta2 + 1e-9
        assert x3 <= z2 * 0.05 / battery.beta3 + 1e-9
        assert z2 <= z1
        assert 0.85 * z1 <= soc + battery.beta1 * x1 + 1e-9
        assert 0.85 * z1 + 0.1 * z2 <= soc + battery.beta1 * x1 + battery.beta2 * x2 + 1e-9
        # and the curve's own segment times agree with the split
        assert abs(x1 - t1) <= 1e-9 and abs(x2 - t2) <= 1e-9 and abs(x3 - t3) <= 1e-9
        assert t1 + t2 + t3 <= duration + 1e-9
        assert 0.0 <= final <= 1.0
    # saturation is exact, not approximate
    assert charge_curve(0.5, 1e9, battery)[0] == 1.0
    assert charge_curve(0.85, 1e9, battery)[0] == 1.0


def test_criterion_5_structural_scenario():
    inst = generate(GenConfig(seed=1, n_requests=6, n_agents=2, n_stations=1,
                              duplicate_visits=2, preset="high-discharge",
                              selective=True, open_vrp=False))
    t0 = time.monotonic()
    result = branch_and_bound(inst, config=SearchConfig(time_limit=290.0))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    assert result.status == "optimal"
    sol = result.solution
    graph = expand_graph(inst)
    station_visits = {}
    for plan in sol.plans:
        for rec in plan.visits:
            if graph.is_station(rec.node):
                st, visit = graph.station_of(rec.node)
                station_visits[(st, visit)] = rec
    assert len(station_visits) >= 2
    # duplicate slots are used in order and never overlap in time:
    # the earlier visit's service and charging finish before the next begins
    for (st, visit), rec in station_visits.items():
        if visit == 0:
            continue
        prev = station_visits.get((st, visit - 1))
        assert prev is not None, "duplicate slots must fill from the front"
        assert prev.departure <= rec.arrival + 1e-6
    report = validate(inst, graph, sol, tol=1e-6)
    assert report.ok


def test_criterion_6_variant_toggles():
    # non-selective: everything accepted
    inst = generate(GenConfig(seed=3, n_requests=3, n_agents=2,
                              selective=False))
    result = branch_and_bound(inst)
    assert result.status == "optimal"
    assert result.solution.accepted == [True, True, True]

    doc = make_doc(n_requests=2)
    doc["requests"][0]["passengers"] = 9
    doc["config"]["selective"] = False
    hard = branch_and_bound(instance_from_dict(doc))
    assert hard.status == "infeasible"

    # selective with zero route budget: reject all, makespan exactly zero
    doc = make_doc(n_requests=3, n_agents=2)
    for agent in doc["agents"]:
        agent["max_duration"] = 0.0
    inst = instance_from_dict(doc)
    result = branch_and_bound(inst)
    assert result.status == "optimal"
    sol = result.solution
    assert sol.accepted == [False, False, False]
    assert sol.makespan == 0.0
    expected = sum(r.priority * inst.weights.eta for r in inst.requests)
    assert sol.objective == pytest.approx(expected, abs=1e-9)

    # open mode: the hub hop adds no time to the route duration
    inst = generate(GenConfig(seed=5, n_requests=3, n_agents=2,
                              open_vrp=True))
    result = branch_and_bound(inst)
    assert result.status == "optimal"
    graph = expand_graph(inst)
    served = 0
    for plan in result.solution.plans:
        if not plan.visits:
            continue
        served += 1
        last = plan.visits[-1]
        assert graph.depot_flag[last.node]
        tail = plan.visits[-2]
        assert tail.node in graph.ld or graph.station_flag[tail.node]
        assert last.arrival == pytest.approx(tail.departure, abs=1e-9)
        assert plan.duration == pytest.approx(tail.departure, abs=1e-9)
    assert served > 0


def test_criterion_7_priority_monotonicity():
    # one agent, two symmetric requests, a budget that fits exactly one
    doc = make_doc(n_requests=2, n_agents=1)
    doc["agents"][0]["max_duration"] = 15.0
    doc["requests"][0]["priority"] = 2.0
    doc["requests"][1]["priority"] = 1.0
    first = branch_and_bound(instance_from_dict(doc))
    assert first.status == "optimal"
    assert first.solution.accepted == [True, False]

    doc["requests"][1]["priority"] = 3.0
    second = branch_and_bound(instance_from_dict(doc))
    assert second.status == "optimal"
    assert second.solution.accepted == [False, True]


def test_criterion_8_big_m_independence(corpus):
    results, _ = corpus
    external_budget = 6
    for seed, inst, bb, _oracle in results:
        graph = expand_graph(inst)
        base_m = compute_big_m(inst, graph).time
        doc = instance_to_dict(inst)
        doc["config"]["weights"]["big_m"] = 10.0 * base_m
        scaled = instance_from_dict(doc)
        redo = branch_and_bound(scaled)
        assert redo.status == bb.status, f"seed {seed}"
        if bb.status == "optimal":
            assert redo.objective == pytest.approx(bb.objective, abs=1e-6), \
                f"seed {seed}"
        if HAVE_EXTERNAL and external_budget > 0 and bb.status == "optimal":
            external_budget -= 1
            loose = run_external(build_model(scaled), command=SOLVER_CMD)
            tight = run_external(build_model(inst), command=SOLVER_CMD)
            assert loose.status == tight.status == "optimal", f"seed {seed}"
            assert loose.objective == pytest.approx(tight.objective,
                                                    abs=1e-6), f"seed {seed}"


def test_criterion_9_determinism():
    cfg = GenConfig(seed=11, n_requests=2, n_agents=2, n_stations=1,
                    duplicate_visits=1)
    gen_a = json.dumps(generate_document(cfg), sort_keys=True)
    gen_b = json.dumps(generate_document(cfg), sort_keys=True)
    assert gen_a == gen_b

    inst = generate(cfg)
    mps_a = format_mps(build_model(inst))
    mps_b = format_mps(build_model(inst))
    assert mps_a == mps_b

    sol_a = branch_and_bound(inst)
    sol_b = branch_and_bound(inst)
    assert sol_a.status == sol_b.status == "optimal"
    dump_a = json.dumps(sol_a.solution.to_dict(), sort_keys=True)
    dump_b = json.dumps(sol_b.solution.to_dict(), sort_keys=True)
    assert dump_a == dump_b
    assert (sol_a.nodes, sol_a.leaves) == (sol_b.nodes, sol_b.leaves)
