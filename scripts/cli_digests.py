#!/usr/bin/env python3
"""Record or check one sha256 digest per ``mereoml`` command-line case.

Each case runs one or more commands in a fresh temporary directory on
seeded inputs.  Its digest covers each command's exit code, stdout and
stderr, then every file the commands wrote, so a change that moves any
output byte of load, classify, granulate, logic, net or sim fails the
check and names the case.  The digests live in ``scripts/cli_digests.json``.

    python scripts/cli_digests.py --write          # record every case
    python scripts/cli_digests.py --check          # compare every case
    python scripts/cli_digests.py --check --via mereoml

The commands run ``cli.main`` in-process unless ``--via CMD`` names a
command to run them through instead, as a subprocess in the case's
directory with this process's environment: an installed console script,
or ``python -m mereoml.cli`` with an absolute ``PYTHONPATH``.

The tables are ``perfbench/gen.py``'s ``prototype_table`` at 138 and 400
rows on seeds 0-9, run under both table inclusions; sim and net run on
seeds 0-3.  The ``ci/`` cases are edge inputs that every seed slice
holds: a 70-row table under both inclusions, tokens no other row holds,
a table of the decision alone, exp radii below every degree, quoted
tokens read back, the corridor mission, a small net and nine data errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from mereoml import cli  # noqa: E402

DIGESTS = ROOT / "scripts" / "cli_digests.json"
TABLE_SEEDS = range(10)
TABLE_ROWS = (138, 400)
AGENT_SEEDS = range(4)
SEEDS = sorted(set(TABLE_SEEDS) | set(AGENT_SEEDS))
INCLUSIONS = ("lukasiewicz", "exp")
#: radii for classify besides the default grid: an exact value below every
#: float, the ends and exact fractions on and between the 14-feature grid
CLASSIFY_RADII = "1e-400,0,1/10,1/2,5/7,9/10,13/14,1"
RADII = ("0", "1/2", "13/14", "1")

#: input files by name, and the argv of each command run on them in turn
Case = tuple[dict[str, str], list[list[str]]]


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _ci_table(unseen: bool) -> str:
    """Seed 0's 70 rows of three 3-valued columns and a y/n decision.

    With ``unseen``, every fifth row's first token is held by no other row,
    so every fold's test rows hold tokens its training rows lack.
    """
    r = random.Random(0)
    rows = []
    for i in range(70):
        first = f"u{i}" if unseen and i % 5 == 0 else r.randrange(3)
        rows.append(f"{first},{r.randrange(3)},{r.randrange(3)},{r.choice('yn')}")
    return _lines("a,b,c,d", *rows)


def _net_inputs(rows) -> list[str]:
    return [arg for row in rows for arg in ("--input", row)]


def _ci_cases() -> dict[str, Case]:
    """The runs CI once made as shell lines, on byte-identical inputs."""
    data = {name: (ROOT / "data" / name).read_text(encoding="utf-8")
            for name in ("corridor_world.txt", "cross.frm")}
    cross = {"cross.frm": data["cross.frm"]}
    table = {"table.csv": _ci_table(unseen=False)}
    d = ["--decision", "d"]
    out = {
        "ci/sim/corridor": (
            data, [["sim", "corridor_world.txt", "cross.frm", "--out", "run.csv", "--svg", "run.svg"]]
        ),
        "ci/table/load": (table, [["load", "table.csv"]]),
        "ci/table/load-decision": (table, [["load", "table.csv", *d]]),
    }
    for kind in INCLUSIONS:
        at = f"1/2,{kind}"
        out[f"ci/table/{kind}/classify"] = table, [
            ["classify", "table.csv", *d, "--seed", "0", "--inclusion", kind]
        ]
        out[f"ci/table/{kind}/granulate"] = table, [
            ["granulate", "table.csv", *d, "--inclusion", kind, "--radius", "1/2", "--out", f"mirror-{kind}.csv"]
        ]
        out[f"ci/table/{kind}/logic"] = table, [
            ["logic", "table.csv", *d, "--granules-from", at, "--eval", "a=1 -> d=y"]
        ]
        out[f"ci/unseen/{kind}/classify"] = {"unseen.csv": _ci_table(unseen=True)}, [
            ["classify", "unseen.csv", *d, "--seed", "0", "--inclusion", kind]
        ]
        # over no conditional feature every degree is 1
        out[f"ci/decision-only/{kind}/logic"] = {"decision-only.csv": _lines("d", "y", "n", "y")}, [
            ["logic", "decision-only.csv", *d, "--granules-from", at, "--eval", "d=y"]
        ]
    # 1e-400 is below every uniform exp degree, so both mirrors keep every object
    out["ci/exp-mirror/tiny-and-zero"] = table, [
        ["granulate", "table.csv", *d, "--inclusion", "exp", "--radius", r, "--out", f"mirror-{name}.csv"]
        for r, name in (("1e-400", "tiny"), ("0", "zero"))
    ]
    # a mirror quotes a token holding a comma or a lone carriage return, so load reads it back
    for name, text in (("quoted", _lines("a,d", '"x,1",p', "y,q")), ("cr", 'a,d\n"x\ry",p\nz,q\n')):
        out[f"ci/{name}/granulate-load"] = {f"{name}.csv": text}, [
            ["granulate", f"{name}.csv", *d, "--radius", "1", "--out", f"{name}-mirror.csv"],
            ["load", f"{name}-mirror.csv", *d],
        ]
    demo = _lines(
        "# two producers, one consumer", "layer",
        "agent b", 'features f1 "f 2"', "object 0 0", "object 0 1", "object 1 1", "target 0",
        "agent c", "features g1", "object 0", "object 1", "target 1",
        "layer", "agent top auto",
    )
    out["ci/net/demo"] = {"demo.net": demo}, [["net", "demo.net", *_net_inputs(["0,1", "0"])]]
    # each data error exits 2 with one stderr line, which names its input line
    agent_a = ("agent a", "features f", "object 0", "target 0")
    for name, lines, inputs in (
        ("ragged", ("layer", "agent a", "features f g", "object 1", "target 0"), ["1"]),
        ("repeat", ("layer", *agent_a, "agent a", "features g", "object 0", "target 0",
                    "layer", "agent top auto"), ["0", "0"]),
        ("junk", ("layer", "agent a junk", "features f", "object 0", "target 0"), ["0"]),
        ("features", ("layer", "agent a", "features f", "features g", "object 0", "target 0"), ["0"]),
    ):
        out[f"ci/error/net-{name}"] = {f"{name}.net": _lines(*lines)}, [
            ["net", f"{name}.net", *_net_inputs(inputs)]
        ]
    for name, middle in (
        ("unknown", ("foo 1", "goal 0 8 2 10")),
        ("goals", ("goal 0 8 2 10", "goal 8 8 10 10")),
    ):
        world = _lines("bounds 0 0 10 10", "cell 1", *middle, "robot 0 1.4 1.4 1.6 1.6")
        out[f"ci/error/sim-{name}"] = {f"{name}.world": world, **cross}, [
            ["sim", f"{name}.world", "cross.frm"]
        ]
    out["ci/error/classify-folds"] = {"three.csv": _lines("a,d", "0,y", "1,n", "0,y")}, [
        ["classify", "three.csv", *d, "--seed", "0", "--folds", "5"]
    ]
    out["ci/error/load-wide"] = {"wide.csv": _lines("a,b", "1," + "x" * 200000)}, [["load", "wide.csv"]]
    out["ci/error/load-multi"] = {"multi.csv": 'a,b\n"x\ny",1\n2\n'}, [["load", "multi.csv"]]
    return out


def cases(seeds) -> dict[str, Case]:
    """Case name -> (input files by name, commands) for the given seeds and every ``ci/`` case."""
    out = _ci_cases()
    table_flags = ["--decision", gen.DECISION, "--discretize", gen.DISCRETIZE]
    for seed in seeds:
        for rows in TABLE_ROWS if seed in TABLE_SEEDS else ():
            files = {"table.csv": gen.prototype_table(seed, rows)}
            fold_seed = str(gen.pick(gen.FOLD_SEEDS, seed))
            rule = gen.pick(gen.RULE_POOL, seed)
            for kind in INCLUSIONS:
                at = f"seed{seed}/rows{rows}/{kind}"
                classify = ["classify", "table.csv", *table_flags, "--seed", fold_seed, "--inclusion", kind]
                out[f"classify/{at}/default"] = files, [classify]
                out[f"classify/{at}/radii"] = files, [classify + ["--radii", CLASSIFY_RADII]]
                for r in RADII:
                    out[f"granulate/{at}/r{r}"] = files, [[
                        "granulate", "table.csv", *table_flags, "--inclusion", kind,
                        "--radius", r, "--out", "mirror.csv",
                    ]]
                    out[f"logic/{at}/r{r}"] = files, [[
                        "logic", "table.csv", *table_flags, "--granules-from", f"{r},{kind}",
                        "--eval", rule,
                    ]]
        if seed in AGENT_SEEDS:
            world = {"world.txt": gen.warehouse_world(seed), "cross.frm": (ROOT / "data" / "cross.frm").read_text()}
            out[f"sim/seed{seed}"] = world, [["sim", "world.txt", "cross.frm", "--out", "run.csv", "--svg", "run.svg"]]
            text, inputs = gen.fusion_net(seed)
            out[f"net/seed{seed}"] = {"fusion.net": text}, [["net", "fusion.net", *_net_inputs(inputs)]]
    return out


def _run(argv: list[str], via: list[str] | None) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one command in the current directory."""
    if via is not None:
        done = subprocess.run([*via, *argv], capture_output=True, check=False)
        return done.returncode, done.stdout, done.stderr
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def run_case(files: dict[str, str], commands: list[list[str]], via: list[str] | None = None) -> str:
    """sha256 of each command's exit code, stdout and stderr, then every written file."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            h = hashlib.sha256()
            for argv in commands:
                code, *parts = _run(argv, via)
                h.update(f"exit {code}\n".encode())
                for part in parts:
                    h.update(f"{len(part)}\n".encode() + part)
            for path in sorted(Path(".").iterdir()):
                if path.name not in files:
                    data = path.read_bytes()
                    h.update(f"{path.name} {len(data)}\n".encode() + data)
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def check(selected: dict[str, Case], digests: Path = DIGESTS, via: list[str] | None = None) -> list[str]:
    """Problems of the selected cases against the recorded digests."""
    recorded = json.loads(digests.read_text(encoding="utf-8"))
    problems = [f"{name}: recorded but not a case" for name in sorted(recorded.keys() - cases(SEEDS).keys())]
    for name, (files, commands) in selected.items():
        if name not in recorded:
            problems.append(f"{name}: no recorded digest")
        elif run_case(files, commands, via) != recorded[name]:
            problems.append(f"{name}: output differs from the recorded digest")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record every case")
    mode.add_argument("--check", action="store_true", help="compare every case with its recorded digest")
    ap.add_argument("--via", metavar="CMD", type=shlex.split, help="run each command through CMD, not in-process")
    args = ap.parse_args(argv)
    every = cases(SEEDS)
    if args.write:
        digests = {name: run_case(*case, args.via) for name, case in every.items()}
        DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} cases in {DIGESTS}")
        return 0
    problems = check(every, via=args.via)
    for p in problems:
        print(p, file=sys.stderr)
    print(f"{len(every)} cases checked, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
