"""Reference answers: the exhaustive oracle's status and optimum for every
oracle-sized operation of every workload.

    python3 perfbench/reference.py [--seed N] [--out PATH]

Writes perfbench/reference.json, which every run compares against.  The
oracle enumerates every routing, so it is independent of the
branch-and-bound and of the MILP it referees; timed runs never call it.
A seed's copies have the same optima as the named instances (see
workloads.py), so the file made from one seed serves every seed; running
this with two seeds and comparing the files checks that.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--out", default=str(workloads.REFERENCE))
    args = ap.parse_args(argv)

    workloads.use_source_tree()
    from emdarp.instance import instance_from_dict
    from emdarp.search import exhaustive_oracle

    answers = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build_ops(workload, args.seed):
            if not op.oracle_sized:
                continue
            t0 = time.perf_counter()
            res = exhaustive_oracle(instance_from_dict(json.loads(op.doc_text)))
            answers[op.name] = {"status": res.status,
                                "objective": res.objective if math.isfinite(res.objective)
                                else None}
            print(f"{op.name}: {res.status} {res.objective!r} "
                  f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"seed": args.seed, "answers": answers}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
