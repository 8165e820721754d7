"""emdarp benchmark: time to a proven, checked answer, end to end and per layer.

    python3 perfbench/run.py --workload bnb-charging --seed 0 --seconds 50 --trace 0

Run from a checkout of the repository; emdarp is imported from its src/.
The timed section repeats whole rounds of the workload's operations, one
engine call at a time, for about --seconds: it stops after the round that
brings it within half a round of --seconds (at least one round).
Every answer is checked (see checks.py).  With --trace 0 the last line holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run (see tracing.py).  Each metric is per round: the sum (or maximum)
over operations of each operation's middle mean over the rounds.

The shared host's speed drifts by 10-30% within minutes, for every process
alike.  So a fixed yardstick that does not touch emdarp is timed after every
timed section (each operation, each set-up), and the reported times are
scaled towards the yardstick's reference speed: seconds * (YARDSTICK_REF_S /
median yardstick time of the run) ** YARDSTICK_EXPONENT.  The unscaled
times and the factor are in the run record (the line before the result).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shlex
import statistics
import sys
import tempfile
import time
import traceback
from importlib import metadata

import numpy as np

import checks
import tracing
import workloads

# set-up is timed 5 times before the first round and 3 more times after every
# round, so that its median spans the run instead of one moment of it
SETUP_REPEATS = (5, 3)
# a child that hangs is killed and its operation fails ("limit"), so that a
# run still ends; the slowest child takes about 10 s
SOLVER_TIMEOUT_S = 60.0
# median time of one yardstick pass on the reference machine (2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7); it only sets the scale of the reported seconds
YARDSTICK_REF_S = 0.018
YARDSTICK_PASSES = 3
# emdarp's time follows the host's speed less than the yardstick's does: in
# one 15-minute trial the log-log slope over 25-100 s windows was 0.86-0.97
# for a B&B solve and 0.42-0.74 for the HiGHS child.  Over ten seeds per
# workload the square root gave spreads of 0.046-0.060, the full ratio
# 0.064-0.141: it over-corrected the runs made in a fast spell
YARDSTICK_EXPONENT = 0.5
_YARDSTICK_MATRIX = np.random.default_rng(0).random((16, 40)) + np.eye(16, 40) * 16.0
MODULES = ("emdarp.instance", "emdarp.graph", "emdarp.model", "emdarp.mps",
           "emdarp.search", "emdarp.scheduling", "emdarp.checker",
           "emdarp.solution", "emdarp.tools.solve_mps")


def _yardstick_pass() -> float:
    """Fixed work of the B&B's two kinds, an interpreted loop and many small
    numpy operations (Gauss-Jordan sweeps on a 16x40 matrix); no emdarp."""
    table = [0.0] * 64
    acc = 0.0
    for i in range(50_000):
        k = i & 63
        table[k] = table[k] * 0.5 + math.sqrt(i)
        acc += table[(k * 7) & 63]
    for _ in range(50):
        a = _YARDSTICK_MATRIX.copy()
        for k in range(16):
            row = a[k] / a[k, k]
            a -= np.outer(a[:, k], row)
            a[k] = row
            acc += float(np.argmin(a[k, 16:]))
    return acc


class Yardstick:
    """The host's speed over a run: the yardstick is timed after every timed
    section, and the run's factor is (reference time / median time) **
    YARDSTICK_EXPONENT."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self) -> None:
        for _ in range(YARDSTICK_PASSES):
            t0 = time.perf_counter()
            _yardstick_pass()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return (YARDSTICK_REF_S / statistics.median(self.samples)) ** YARDSTICK_EXPONENT


def middle_mean(values):
    """Mean of the rounds but the fastest and the slowest (from 3 rounds on).
    An operation gets 4-6 rounds in a run; this spread less than their
    median between seeds, and dropping the ends keeps one stalled round
    from moving it."""
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


def setup(workload: str, seed: int):
    """Import emdarp afresh, generate the operations, load the reference
    answers.  Everything a run needs before its first timed operation."""
    for name in [m for m in sys.modules if m == "emdarp" or m.startswith("emdarp.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(name) for name in MODULES}
    ops = workloads.build_ops(workload, seed)
    with open(workloads.REFERENCE) as fh:
        reference = json.load(fh)["answers"]
    return modules, ops, reference


class Runner:
    def __init__(self, modules, out_dir, tracer=None):
        self.m = modules
        self.out_dir = out_dir
        self.tracer = tracer
        self.solver_cmd = (f"{shlex.quote(sys.executable)} -m emdarp.tools.solve_mps "
                           "{model} {solution}")

    def timed(self, op):
        """One operation's timed section: parse, expand, solve, validate,
        write the solution JSON.  Returns the answer and the two times."""
        m = self.m
        t0 = time.perf_counter()
        inst = m["emdarp.instance"].instance_from_dict(json.loads(op.doc_text))
        graph = m["emdarp.graph"].expand_graph(inst)
        t1 = time.perf_counter()
        model = None
        if op.engine == "bnb":
            res = m["emdarp.search"].branch_and_bound(inst, graph)
            status, objective = res.status, res.objective
            bound, sol = res.best_bound, res.solution
        else:
            solution = m["emdarp.solution"]
            model = m["emdarp.model"].build_model(inst, graph)
            parsed = solution.run_external(model, command=self.solver_cmd,
                                           timeout=SOLVER_TIMEOUT_S)
            status, objective, bound, sol = parsed.status, parsed.objective, None, None
            if status == "optimal":
                sol = solution.decode_solution(model, parsed.values, parsed.objective,
                                               status=status, engine="external")
        t2 = time.perf_counter()
        report = m["emdarp.checker"].validate(inst, graph, sol) if sol is not None else None
        with open(self.out_dir / f"{op.name}.json", "w") as fh:
            json.dump(sol.to_dict() if sol is not None else {"status": status}, fh)
        t3 = time.perf_counter()
        answer = dict(status=status, objective=objective, bound=bound, solution=sol,
                      report=report, selective=inst.selective, graph=graph)
        return answer, model, t2 - t1, t3 - t0

    def run_op(self, op, reference):
        """(engine seconds, run seconds, answer summary, problems)."""
        tr = self.tracer
        span = None
        try:
            if tr is not None:
                tr.op = op.name
                span = tr.open("op")
            try:
                answer, model, engine_s, run_s = self.timed(op)
            finally:
                if span is not None:
                    tr.close(span)
            if tr is not None and model is not None:
                self.solve_in_process(model)
            problems = checks.answer_problems(
                **answer, reference=reference[op.name] if op.oracle_sized else None,
                slot_check=op.slot_check)
            objective = answer["objective"]
            summary = {"status": answer["status"],
                       "objective": objective if objective not in (None, math.inf) else None}
        except Exception:  # a crash is a failed operation, not a failed run
            tb = traceback.format_exc(limit=3).strip().splitlines()
            engine_s = run_s = None
            summary = {"status": "error"}
            problems = [" | ".join(tb[-3:])]
        return engine_s, run_s, summary, problems

    def solve_in_process(self, model):
        """Traced run only: the solver's MPS read and HiGHS solve, re-run
        in-process on the same MPS text, so the spawn cost can be computed."""
        path = self.out_dir / "model.mps"
        path.write_text(self.m["emdarp.mps"].format_mps(model))
        solve_mps = self.m["emdarp.tools.solve_mps"]
        solve_mps.solve(solve_mps.read_mps(str(path)))


def machine_facts() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def pin_one_cpu():
    """Keep the run, and the solver children that inherit it, on one CPU, the
    one the yardstick is timed on: the two vCPUs of a shared 2-vCPU host
    were measured to drift apart by up to 15%.  emdarp is serial; HiGHS,
    pinned, ran corpus-17 in the same 1535 nodes (8.2 s against 7.2 s
    unpinned, within the host's noise)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads.use_source_tree()
    cpu = pin_one_cpu()
    if not workloads.REFERENCE.is_file():
        raise SystemExit(f"error: missing {workloads.REFERENCE}; "
                         "run perfbench/reference.py")
    out_dir = workloads.ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(out_dir)  # run_external's model and solution files

    setup_times = []
    yardstick = Yardstick()

    def time_setup(repeats):
        for _ in range(repeats):
            t0 = time.perf_counter()
            made = setup(args.workload, args.seed)
            setup_times.append(time.perf_counter() - t0)
            yardstick.sample()
        return made

    modules, ops, reference = time_setup(SETUP_REPEATS[0])

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(modules)
    runner = Runner(modules, out_dir, tracer)

    engine_t = {op.name: [] for op in ops}
    run_t = {op.name: [] for op in ops}
    results = {}
    attempted = failed = unexpected = 0
    rounds = 0
    round_times = []
    start = time.perf_counter()
    # whole rounds only, so every run fails the same share of operations; a
    # run ends within half a (median) round of --seconds, before or after
    while not round_times or (time.perf_counter() - start
                              + statistics.median(round_times) / 2 < args.seconds):
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.round = rounds
        for op in ops:
            engine_s, run_s, summary, problems = runner.run_op(op, reference)
            yardstick.sample()
            attempted += 1
            if problems:
                failed += 1
                unexpected += op.fault is None
            if engine_s is not None:
                engine_t[op.name].append(engine_s)
                run_t[op.name].append(run_s)
            res = results.setdefault(op.name, dict(summary, fault=op.fault, problems=[]))
            if problems and not res["problems"]:
                res["problems"] = problems
        rounds += 1
        round_times.append(time.perf_counter() - round_start)
        if tracer is None:  # re-importing would bypass the tracer's wrappers
            time_setup(SETUP_REPEATS[1])
    if tracer is not None:
        tracer.uninstall()

    op_engine = {k: middle_mean(v) for k, v in engine_t.items() if v}
    op_run = {k: middle_mean(v) for k, v in run_t.items() if v}
    for name, res in results.items():
        res["engine_s"] = engine_t[name]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "rounds": rounds, "machine": machine_facts(),
            "cpu": cpu,
            "yardstick": {"passes": len(yardstick.samples),
                          "median_s": statistics.median(yardstick.samples),
                          "factor": yardstick.factor()},
            "operations": results}

    if tracer is not None:
        trace_path = out_dir / "spans.json"
        tracer.write(trace_path)
        info["spans"] = str(trace_path.relative_to(workloads.ROOT))
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in tracer.layer_metrics().items()}
    else:
        raw = {"setup_s": statistics.median(setup_times),
               "solve_s": sum(op_engine.values()),
               "slowest_solve_s": max(op_engine.values(), default=0.0),
               "run_s": sum(op_run.values())}
        info["raw_s"] = raw
        factor = yardstick.factor()
        metrics = {name: {"value": value * factor, "unit": "s"} for name, value in raw.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed", file=sys.stderr)
    for name, res in results.items():
        if res["problems"]:
            print(f"  failed {name} (fault {res['fault'] or 'none named'}): "
                  f"{res['problems'][0]}", file=sys.stderr)
    print(json.dumps(info, default=str))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
