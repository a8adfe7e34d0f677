#!/usr/bin/env python3
"""Record or check one sha256 digest per ``mereoml`` command-line case.

Each case runs ``cli.main`` in-process in a fresh temporary directory on
seeded inputs from ``perfbench/gen.py``.  Its digest covers the exit code,
stdout, stderr and every file the command wrote, so a change that moves
any output byte of classify, granulate, logic, net or sim fails the check
and names the case.  The digests live in ``scripts/cli_digests.json``.
Run from the repository root:

    python scripts/cli_digests.py --write          # record every case
    python scripts/cli_digests.py --check          # compare every case

The tables are ``gen.prototype_table`` at 138 and 400 rows on seeds 0-9,
run under both table inclusions; sim and net run on seeds 0-3.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
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
INCLUSIONS = ("lukasiewicz", "exp")
#: radii for classify besides the default grid: an exact value below every
#: float, the ends and exact fractions on and between the 14-feature grid
CLASSIFY_RADII = "1e-400,0,1/10,1/2,5/7,9/10,13/14,1"
RADII = ("0", "1/2", "13/14", "1")


def cases(seeds) -> dict[str, tuple[dict[str, str], list[str]]]:
    """Case name -> (input files by name, argv) for the given seeds."""
    out = {}
    table_flags = ["--decision", gen.DECISION, "--discretize", gen.DISCRETIZE]
    for seed in seeds:
        for rows in TABLE_ROWS if seed in TABLE_SEEDS else ():
            files = {"table.csv": gen.prototype_table(seed, rows)}
            fold_seed = str(gen.pick(gen.FOLD_SEEDS, seed))
            rule = gen.pick(gen.RULE_POOL, seed)
            for kind in INCLUSIONS:
                at = f"seed{seed}/rows{rows}/{kind}"
                classify = ["classify", "table.csv", *table_flags, "--seed", fold_seed, "--inclusion", kind]
                out[f"classify/{at}/default"] = files, classify
                out[f"classify/{at}/radii"] = files, classify + ["--radii", CLASSIFY_RADII]
                for r in RADII:
                    out[f"granulate/{at}/r{r}"] = files, [
                        "granulate", "table.csv", *table_flags, "--inclusion", kind,
                        "--radius", r, "--out", "mirror.csv",
                    ]
                    out[f"logic/{at}/r{r}"] = files, [
                        "logic", "table.csv", *table_flags, "--granules-from", f"{r},{kind}",
                        "--eval", rule,
                    ]
        if seed in AGENT_SEEDS:
            world = {"world.txt": gen.warehouse_world(seed), "cross.frm": (ROOT / "data" / "cross.frm").read_text()}
            out[f"sim/seed{seed}"] = world, ["sim", "world.txt", "cross.frm", "--out", "run.csv", "--svg", "run.svg"]
            text, inputs = gen.fusion_net(seed)
            argv = ["net", "fusion.net"]
            for row in inputs:
                argv += ["--input", row]
            out[f"net/seed{seed}"] = {"fusion.net": text}, argv
    return out


def run_case(files: dict[str, str], argv: list[str]) -> str:
    """sha256 of the exit code, stdout, stderr and every written file."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            h = hashlib.sha256(f"exit {code}\n".encode())
            for part in (stdout.getvalue(), stderr.getvalue()):
                h.update(f"{len(part.encode())}\n{part}".encode())
            for path in sorted(Path(".").iterdir()):
                if path.name not in files:
                    data = path.read_bytes()
                    h.update(f"{path.name} {len(data)}\n".encode() + data)
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def check(seeds, digests: Path = DIGESTS) -> list[str]:
    """Problems of the given seeds' cases against the recorded digests."""
    recorded = json.loads(digests.read_text(encoding="utf-8"))
    known = cases(sorted(set(TABLE_SEEDS) | set(AGENT_SEEDS))).keys()
    problems = [f"{name}: recorded but not a case" for name in sorted(recorded.keys() - known)]
    for name, (files, argv) in cases(seeds).items():
        if name not in recorded:
            problems.append(f"{name}: no recorded digest")
        elif run_case(files, argv) != recorded[name]:
            problems.append(f"{name}: output differs from the recorded digest")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record every case")
    mode.add_argument("--check", action="store_true", help="compare every case with its recorded digest")
    args = ap.parse_args(argv)
    seeds = sorted(set(TABLE_SEEDS) | set(AGENT_SEEDS))
    if args.write:
        digests = {name: run_case(*case) for name, case in cases(seeds).items()}
        DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} cases in {DIGESTS}")
        return 0
    problems = check(seeds)
    for p in problems:
        print(p, file=sys.stderr)
    print(f"{len(cases(seeds))} cases checked, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
