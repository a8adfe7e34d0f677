"""The three workloads: how each writes its inputs and checks an op's output.

An op is one or two ``mereoml`` CLI invocations.  ``setup`` writes the
seeded input files into the current directory and returns a :class:`Job`
that names the invocations, the files an op writes, and the facts the
checks need.  ``check`` returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    credit_rows: int
    bulk_rows: int
    net_rows: int


#: a fifth of the 690 rows of the Australian credit table, and a quarter of
#: the 5000 bulk rows the benchmark was first planned with: an op then takes
#: 0.3-0.6 s, so a 35 s run has 60 ops or more and ``op_tail_s`` sits near
#: p85-p90, in the host's slow phases rather than between its two speeds
FULL = Size(credit_rows=138, bulk_rows=1250, net_rows=16)
#: tiny inputs for the benchmark's own tests
SMOKE = Size(credit_rows=60, bulk_rows=150, net_rows=4)

#: seed whose input and output digests were recorded (``DIGESTS``)
CANONICAL_SEED = 0
DIGESTS = {
    "credit-sweep": {
        "inputs": "9d1881ded7aac1733bd3429356ad9c056742f41856f00d8bd1803a2148396179",
        "outputs": "1ea4e096af579c3d35fbaa0c337c77e4edda8eb756a0f520d5852ba7ccc591e9",
    },
    "bulk-logic": {
        "inputs": "4d6b5f8dc2a9a845e5e0e13823dfe10ef5687dd604a001b1454d6aa7054a2721",
        "outputs": "ac133c8c091ff8db69ef337576669cc8d7227cb73928fc3fb82243f9a8014a88",
    },
    "agents": {
        "inputs": "0c83a0b65e7477d64a66cc5e0917de3d48cb7a9f9ff25e2c419fb08cd2e8f74d",
        "outputs": "055f98652a3409e846782fdf040ff5473d23b1f2ed1e097dc3c2b5c26099d099",
    },
}


@dataclass
class Job:
    argvs: list[list[str]]
    inputs: list[str]
    writes: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def input_digest(self) -> str:
        return digest(Path(p).read_bytes() for p in self.inputs)


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _write(path: str, text: str) -> str:
    Path(path).write_text(text, encoding="utf-8")
    return path


def _decisions(path: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[gen.DECISION] for row in csv.DictReader(fh)]


# --- credit-sweep -------------------------------------------------------------

def credit_setup(seed: int, size: Size, data: Path) -> Job:
    table = _write("credit.csv", gen.prototype_table(seed, size.credit_rows))
    decisions = _decisions(table)
    argv = [
        "classify", table, "--decision", gen.DECISION,
        "--discretize", gen.DISCRETIZE,
        "--folds", "5", "--seed", str(gen.pick(gen.FOLD_SEEDS, seed)),
    ]
    majority = max(Counter(decisions).values()) / len(decisions)
    return Job([argv], [table], facts={"majority": majority})


def credit_check(job: Job, outs: list[str]) -> list[str]:
    payload = json.loads(outs[0])
    radii = payload["per_radius"]
    acc = [rr["accuracy"] for rr in radii]
    problems = []
    if len(radii) != len(gen.FEATURES):
        problems.append(f"{len(radii)} radii, expected {len(gen.FEATURES)}")
    if not all(0 <= a <= 1 for a in acc):
        problems.append("accuracy outside [0, 1]")
    if not max(acc) > job.facts["majority"]:
        problems.append(f"best accuracy {max(acc)} not above majority rate {job.facts['majority']}")
    return problems


# --- bulk-logic ---------------------------------------------------------------

def bulk_setup(seed: int, size: Size, data: Path) -> Job:
    table = _write("bulk.csv", gen.prototype_table(seed, size.bulk_rows))
    argv = [
        "logic", table, "--decision", gen.DECISION,
        "--discretize", gen.DISCRETIZE,
        "--granules-from", "1/2,lukasiewicz",
        "--eval", gen.pick(gen.RULE_POOL, seed),
    ]
    return Job([argv], [table], facts={"rows": size.bulk_rows})


def bulk_check(job: Job, outs: list[str]) -> list[str]:
    granules = json.loads(outs[0])["granules"]
    problems = []
    if any(g["true"] != (g["extension_exact"] == "1") for g in granules):
        problems.append("'true' disagrees with extension_exact == 1")
    if sum(g["size"] for g in granules) < job.facts["rows"]:
        problems.append("granule sizes sum below the row count")
    return problems


# --- agents -------------------------------------------------------------------

def agents_setup(seed: int, size: Size, data: Path) -> Job:
    world = _write("warehouse.txt", gen.warehouse_world(seed))
    text, inputs = gen.fusion_net(seed, size.net_rows)
    netfile = _write("fusion.net", text)
    sim = ["sim", world, str(data / "cross.frm"), "--out", "traj.csv", "--svg", "traj.svg"]
    query = ["net", netfile]
    for row in inputs:
        query += ["--input", row]
    return Job([sim, query], [world, netfile], writes=["traj.csv", "traj.svg"])


def agents_check(job: Job, outs: list[str]) -> list[str]:
    sim, query = (json.loads(text) for text in outs)
    problems = []
    if sim["status"] != "goal_reached" or sim["final_violations"] != 0:
        problems.append(f"sim ended {sim['status']} with {sim['final_violations']} violations")
    rows = Path("traj.csv").read_text(encoding="utf-8").count("\n") - 1
    if rows != (sim["steps"] + 1) * gen.ROBOTS:
        problems.append(f"trajectory has {rows} rows for {sim['steps']} steps")
    for step in query["steps"]:
        bound = step["lukasiewicz_bound"]
        if bound is not None and step["degree"] < bound - 1e-9:
            problems.append(f"net agent {step['agent']} below its Lukasiewicz bound")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Size, Path], Job]
    check: Callable[[Job, list[str]], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("credit-sweep", credit_setup, credit_check),
        Workload("bulk-logic", bulk_setup, bulk_check),
        Workload("agents", agents_setup, agents_check),
    )
}
