"""Command-line entry point.

Subcommands: load, classify, granulate, logic, net, sim.  All machine
output is JSON (sorted keys) on stdout or CSV/SVG files, so identical
invocations produce identical bytes.  Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import geometry, granulation, logic, net
from .dataset import load_csv, discretize
from .errors import MereomlError, read_text


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse of Python 3.11 strips the value of "--opt=--" and gives an
        # empty list; the value is kept as the text "--"
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


#: Most characters a radius may be written with, counting an exponent as
#: that many zeros; the exact value then has no more digits.  ``Fraction``
#: forms an exponent's power of ten exactly, which for 1e-99999999 takes
#: minutes, and no message can print an integer of more than 4300 digits.
_RADIUS_DIGITS = 4300


def _parse_radius(text: str) -> Fraction:
    _, _, exponent = text.lower().partition("e")
    try:
        if len(text) + abs(int(exponent or 0)) > _RADIUS_DIGITS:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MereomlError(f"bad radius {text!r}; use a fraction like 2/3 or 0.5") from None


def _load_table(args):
    system = load_csv(args.csv, decision=args.decision, na_token=args.na_token)
    if args.discretize:
        columns, counts = [], []
        for spec in args.discretize.split(","):
            col, _, bins = spec.partition(":")
            if not bins:
                raise MereomlError(f"bad discretize entry {spec!r}; use col:bins")
            try:
                count = int(bins)
            except ValueError:
                count = 0
            if count < 1:
                raise MereomlError(f"bad bin count in {spec!r}")
            columns.append(col)
            counts.append(count)
        # one call bins every entry in turn
        system = discretize(system, columns, counts)
    return system


def _add_table_flags(
    p: argparse.ArgumentParser, need_decision: bool, inclusion: bool = False
) -> None:
    p.add_argument("csv", help="table file, first row is the header")
    p.add_argument(
        "--decision", required=need_decision, help="name of the decision column"
    )
    p.add_argument("--na-token", help="cell token mapped to the distinguished NA value")
    p.add_argument(
        "--discretize",
        help="comma list col:bins of numeric columns to bin (equal frequency)",
    )
    if inclusion:
        p.add_argument(
            "--inclusion",
            choices=sorted(granulation.INCLUSION_KINDS),
            default="lukasiewicz",
        )


def _cmd_load(args) -> int:
    system = _load_table(args)
    payload = {
        "objects": len(system.objects),
        "features": len(system.features),
    }
    if args.decision:
        payload["decision"] = system.decision
        payload["decision_values"] = len(system.decision_values)
    _emit(payload)
    return 0


def _covering(system, radius: str, kind: str):
    """The irreducible covering of the table's granules at one radius."""
    incl = granulation.make_inclusion(kind, system)
    return granulation.irreducible_covering(
        granulation.all_granules(_parse_radius(radius), incl),
        frozenset(system.objects),
    )


def _cmd_classify(args) -> int:
    system = _load_table(args)
    radii = None
    if args.radii is not None:
        radii = [_parse_radius(r) for r in args.radii.split(",")]
    report = granulation.run_decider(
        system,
        folds=args.folds,
        seed=args.seed,
        radii=radii,
        inclusion=args.inclusion,
    )
    _emit(
        {
            "per_radius": [
                {**dataclasses.asdict(rr), "radius": float(rr.radius)}
                for rr in report.per_radius
            ],
            "best_radius": float(report.best_radius),
        }
    )
    return 0


def _csv_line(tokens: tuple[str, ...]) -> str:
    """One CSV line; a token holding a comma, a quote, ``\\r`` or ``\\n`` is quoted.

    These are ``csv.writer``'s bytes, except that Python 3.10 and 3.11 write
    a lone ``\\r`` bare, which ``load`` would split into two lines.
    """
    return ",".join(
        '"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t
        for t in tokens
    ) + "\n"


def _cmd_granulate(args) -> int:
    system = _load_table(args)
    covering = _covering(system, args.radius, args.inclusion)
    mirror = granulation.granular_mirror(covering, system)
    text = _csv_line(mirror.features + (system.decision,)) + "".join(
        _csv_line(row + (d,)) for row, d in zip(mirror.rows, mirror.decisions)
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_logic(args) -> int:
    system = _load_table(args)
    radius_text, _, kind = args.granules_from.partition(",")
    if not kind:
        raise MereomlError("--granules-from takes radius,inclusion (e.g. 2/3,lukasiewicz)")
    covering = _covering(system, radius_text, kind)
    formula = logic.parse_formula(args.eval, system, allow_unseen=True)
    mode = logic.NuMode.NU3 if args.mode == "nu3" else logic.NuMode.NUL
    rows = []
    for g in covering.granules:
        ext = logic.extension(g.members, formula, system, mode)
        rows.append(
            {
                "center": g.center,
                "size": len(g.members),
                "extension": float(ext),
                "extension_exact": str(ext),
                "true": logic.is_true_at(g.members, formula, system),
            }
        )
    _emit(
        {
            "formula": logic.print_formula(formula),
            "mode": args.mode,
            "radius": float(_parse_radius(radius_text)),
            "granules": rows,
            "valid": logic.is_valid(
                (g.members for g in covering.granules), formula, system
            ),
        }
    )
    return 0


def _cmd_net(args) -> int:
    network = net.load_network(args.netfile)
    inputs = [tuple(text.split(",")) for text in args.input]
    trace = net.propagate(network, inputs)
    _emit(
        {
            "steps": [
                {
                    "layer": s.layer,
                    "agent": s.agent,
                    "target": s.target,
                    "degree": s.degree,
                    "lukasiewicz_bound": s.lukasiewicz_bound,
                    "meets_max_bound": s.meets_max_bound,
                }
                for s in trace.steps
            ],
            "final_target": trace.final_target,
            "final_degree": trace.final_degree,
        }
    )
    return 0


def _cmd_sim(args) -> int:
    world = geometry.load_world(args.world)
    formation = geometry.parse_formation(
        read_text(args.formation),
        robot_ids=[rid for rid, _ in world.robots],
    )
    log = geometry.navigate(world, formation, max_steps=args.steps)
    geometry.write_trajectory_csv(log, args.out)
    geometry.write_trajectory_svg(log, world, args.svg)
    last = log.steps[-1]
    _emit(
        {
            "status": log.status,
            "steps": last.step,
            "final_violations": last.entries[0].violations if last.entries else 0,
            "out": args.out,
            "svg": args.svg,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mereoml", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("load", parents=[], help="summarize a table file")
    _add_table_flags(p, need_decision=False)
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("classify", help="cross-validated granular classification")
    _add_table_flags(p, need_decision=True, inclusion=True)
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--radii", help="comma list of radii (fractions or decimals)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("granulate", help="dump a granular mirror as CSV")
    _add_table_flags(p, need_decision=True, inclusion=True)
    p.add_argument("--radius", required=True)
    p.add_argument("--out", help="target CSV path (default stdout)")
    p.set_defaults(func=_cmd_granulate)

    p = sub.add_parser("logic", help="evaluate a formula on covering granules")
    _add_table_flags(p, need_decision=True)
    p.add_argument(
        "--granules-from",
        required=True,
        metavar="RADIUS,INCLUSION",
        help="granulation used for evaluation, e.g. 2/3,lukasiewicz",
    )
    p.add_argument("--eval", required=True, help="formula text")
    p.add_argument("--mode", choices=["nu3", "nul"], default="nul")
    p.set_defaults(func=_cmd_logic)

    p = sub.add_parser("net", help="propagate inputs through a fusion network")
    p.add_argument("netfile")
    p.add_argument(
        "--input",
        action="append",
        required=True,
        help="comma-separated row for one input agent (repeat per agent)",
    )
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("sim", help="run the formation simulator")
    p.add_argument("world")
    p.add_argument("formation")
    p.add_argument("--steps", type=_int_at_least(0), default=1000)
    p.add_argument("--out", default="traj.csv")
    p.add_argument("--svg", default="traj.svg")
    p.set_defaults(func=_cmd_sim)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (MereomlError, OSError) as e:
        print(f"mereoml: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
