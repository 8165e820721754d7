"""The benchmark's answer checks must turn wrong answers into failed
operations.  Each case feeds the benchmark's own operation runner an engine
whose answer was tampered with."""

import dataclasses
import importlib
import json

import pytest

import run
import workloads
from emdarp.generate import GenConfig, generate, generate_document
from emdarp.search import branch_and_bound, exhaustive_oracle

CONFIG = GenConfig(seed=1, n_requests=2, n_agents=1, n_stations=1, duplicate_visits=1,
                   preset="high-discharge")


def _run(tmp_path, tamper, oracle_sized):
    modules = {name: importlib.import_module(name) for name in run.MODULES}
    search = modules["emdarp.search"]

    class TamperedSearch:
        @staticmethod
        def branch_and_bound(inst, graph=None, config=None):
            return tamper(search.branch_and_bound(inst, graph, config))

    modules["emdarp.search"] = TamperedSearch
    op = workloads.Op(name="op", engine="bnb", doc_text=json.dumps(generate_document(CONFIG)),
                      oracle_sized=oracle_sized, fault=None, slot_check=True)
    oracle = exhaustive_oracle(generate(CONFIG))
    reference = {"op": {"status": oracle.status, "objective": oracle.objective}}
    _, _, summary, problems = run.Runner(modules, tmp_path).run_op(op, reference)
    return summary, problems


def _off_by_1e3(res):
    return dataclasses.replace(res, objective=res.objective + 1e-3,
                               best_bound=res.objective + 1e-3)


def _foreign_plan(res):
    other = branch_and_bound(generate(dataclasses.replace(CONFIG, seed=2)))
    assert other.status == "optimal"
    return dataclasses.replace(res, solution=other.solution)


def _bound_below(res):
    return dataclasses.replace(res, best_bound=res.objective - 1.0)


@pytest.mark.parametrize("oracle_sized", [True, False])
def test_true_answer_passes(tmp_path, oracle_sized):
    summary, problems = _run(tmp_path, lambda res: res, oracle_sized)
    assert summary["status"] == "optimal"
    assert problems == []


@pytest.mark.parametrize("oracle_sized", [True, False])
@pytest.mark.parametrize("tamper", [_off_by_1e3, _foreign_plan, _bound_below])
def test_wrong_answer_fails(tmp_path, tamper, oracle_sized):
    _, problems = _run(tmp_path, tamper, oracle_sized)
    assert problems, tamper.__name__
