"""The benchmark's workloads: which instances each one solves, and how a
workload seed turns them into inputs.

Every operation is one instance solved by one engine.  Operations that
reproduce a named fault are pinned: identical under every seed.  For every
other operation the workload seed draws a relabelled, rotated copy of the named
instance (requests and agents shuffled and renumbered, every position
rotated about their centroid and possibly mirrored).  Such a copy
has the same optimum as the named instance, so the reference answers hold
under every seed, while the program sees different input documents and a
different request/agent numbering.  Fresh random draws of the same make-up
were measured to swing one B&B solve by 10x between seeds, which no
run-to-run bound could absorb.  The default seed gives the named instances
unchanged.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("bnb-charging", "bnb-insertion", "milp-corpus")


def use_source_tree() -> None:
    """Import emdarp from this checkout's src/, here and in solver children
    (the package need not be installed)."""
    if not (SRC / "emdarp" / "__init__.py").is_file():
        raise SystemExit(f"error: no emdarp package under {SRC}")
    sys.path.insert(0, str(SRC))
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


@dataclass(frozen=True)
class Op:
    name: str
    engine: str          # "bnb" (branch_and_bound) or "milp" (external MILP)
    doc_text: str        # instance document, as the engine's caller reads it
    oracle_sized: bool   # the exhaustive oracle can referee it
    fault: str | None    # named fault this operation reproduces (pinned), if any
    slot_check: bool     # check duplicate station slots fill from the front


def corpus_config(i: int):
    """Configuration i of the acceptance corpus (tests/test_acceptance.py)."""
    from emdarp.generate import GenConfig
    return GenConfig(
        seed=i,
        n_requests=1 + i % 3,
        n_agents=1 + i % 2,
        n_stations=i % 2,
        duplicate_visits=i % 2,
        preset="typical" if i % 2 else "high-discharge",
        selective=bool(i % 3 != 0),
        open_vrp=bool(i % 2),
    )


def _specs(workload: str):
    """(name, engine, GenConfig, oracle_sized, fault)."""
    from emdarp.generate import GenConfig

    def fault_1b(seed, agents, open_vrp, area):
        return GenConfig(seed=seed, n_requests=3, n_agents=agents, n_stations=2,
                         duplicate_visits=0, preset="high-discharge",
                         selective=True, open_vrp=open_vrp, area=area)

    def criterion_5(seed, n):
        return GenConfig(seed=seed, n_requests=n, n_agents=2, n_stations=1,
                         duplicate_visits=2, preset="high-discharge")

    if workload == "bnb-charging":
        # the criterion-5 make-up with 5 requests instead of 6 (~6 s, not ~40 s;
        # 729 of 882 nodes are leaves), plus two 4-request seeds on which
        # leaf schedules take about half of the solve time
        return [
            ("c5-n5-s1", "bnb", criterion_5(1, 5), False, None),
            ("c5-n4-s3", "bnb", criterion_5(3, 4), False, None),
            ("c5-n4-s11", "bnb", criterion_5(11, 4), False, None),
            ("1b-s88", "bnb", fault_1b(88, 2, False, 4000.0), True, "1b"),
            ("1b-s192", "bnb", fault_1b(192, 1, True, 3000.0), True, "1b"),
            ("1b-s237", "bnb", fault_1b(237, 1, True, 4000.0), True, "1b"),
        ]
    if workload == "bnb-insertion":
        out = [(f"ins-n6-s{s}", "bnb", GenConfig(seed=s, n_requests=6, n_agents=2),
                False, None) for s in (2, 3)]
        out += [(f"1a-s{s}", "bnb", GenConfig(seed=s, n_requests=3, n_agents=2,
                                              selective=False), True, "1a")
                for s in (3, 5, 7)]
        return out
    if workload == "milp-corpus":
        # one corpus configuration of five of the six make-ups; 17 is the
        # fault-1c instance, 12 is infeasible.  13 is left out: through fault
        # 1c, HiGHS stops short of the optimum on the copies of some seeds
        # (104, 230, 233 and 236 of 41 tried), so its failures vary by seed
        return [(f"corpus-{i}", "milp", corpus_config(i), True, "1c" if i == 17 else None)
                for i in (12, 14, 15, 16, 17)]
    raise ValueError(f"unknown workload {workload!r}")


def relabel_rotate(doc: dict, rng: random.Random) -> dict:
    """An isomorphic copy of an instance document: same optimum, new labels
    and coordinates."""
    doc = json.loads(json.dumps(doc))
    rng.shuffle(doc["requests"])
    rng.shuffle(doc["agents"])
    for idx, item in enumerate(doc["requests"]):
        item["id"] = idx
    for idx, item in enumerate(doc["agents"]):
        item["id"] = idx

    points = ([r["pickup"] for r in doc["requests"]] + [r["delivery"] for r in doc["requests"]]
              + [a["start"] for a in doc["agents"]] + [s["pos"] for s in doc["stations"]]
              + doc["depots"])
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    mirror = -1.0 if rng.random() < 0.5 else 1.0
    for p in points:
        x, y = mirror * (p[0] - cx), p[1] - cy
        p[0], p[1] = cx + cos_t * x - sin_t * y, cy + sin_t * x + cos_t * y
    return doc


def build_ops(workload: str, seed: int) -> list[Op]:
    from emdarp.generate import generate_document

    ops = []
    for name, engine, cfg, oracle_sized, fault in _specs(workload):
        doc = generate_document(cfg)
        if fault is None and seed != DEFAULT_SEED:
            doc = relabel_rotate(doc, random.Random(f"{seed}:{name}"))
        ops.append(Op(name, engine, json.dumps(doc), oracle_sized, fault,
                      slot_check=workload == "bnb-charging"))
    return ops
