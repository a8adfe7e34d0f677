"""Formation constraints: clause types, their script language, and checks.

Formations couple robots with between / not-between / max-dist constraints
written in a tiny s-expression language.  Each clause compiles once into a
test over its robot ids on plain ``(x1, y1, x2, y2)`` boxes: the simulator
counts those tests' verdicts, and ``check_formation`` runs the same tests and
gives each failing clause its reason.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, Union

from .errors import MereomlError

if TYPE_CHECKING:
    from .geometry import Rect

#: slack of the rectangle comparisons, here and in ``geometry``
_EPS = 1e-9


@dataclass(frozen=True)
class Between:
    robot: int
    a: int
    b: int


@dataclass(frozen=True)
class NotBetween:
    robot: int
    a: int
    b: int


@dataclass(frozen=True)
class MaxDist:
    delta: float
    robot: int
    inner: Between


Constraint = Union[Between, NotBetween, MaxDist]


@dataclass(frozen=True)
class Formation:
    """Named constraint set; ``species`` is the word robots go by in scripts."""

    name: str
    constraints: tuple[Constraint, ...]
    species: str = "roomba"

    def robot_ids(self) -> frozenset[int]:
        return frozenset(rid for c in self.constraints for rid in _clause_robots(c))


def _clause_robots(c: Constraint) -> tuple[int, ...]:
    if isinstance(c, MaxDist):
        return (c.robot, c.inner.robot, c.inner.a, c.inner.b)
    return (c.robot, c.a, c.b)


class FormationParseError(MereomlError):
    """Formation script rejected; message carries a 1-based column."""


#: One script token per match: a parenthesis, or a run of characters that
#: are neither space nor parenthesis.
_TOKEN = re.compile(r"[()]|[^\s()]+")


class _SexpTokens:
    def __init__(self, text: str):
        self.text = text
        self.items = [(match[0], match.start() + 1) for match in _TOKEN.finditer(text)]
        self.pos = 0

    def peek(self) -> tuple[str, int]:
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("", len(self.text) + 1)

    def take(self, expected: str | None = None) -> tuple[str, int]:
        tok, col = self.peek()
        if not tok:
            raise FormationParseError(f"unexpected end of input at column {col}")
        if expected is not None and tok != expected:
            raise FormationParseError(
                f"expected {expected!r}, found {tok!r} at column {col}"
            )
        self.pos += 1
        return tok, col


def parse_formation(
    text: str, robot_ids: Sequence[int] | None = None
) -> Formation:
    """Parse a formation script like ``(cross (set (between roomba 0 ...)))``.

    When ``robot_ids`` is given, every referenced robot must be among them.
    All robot references must use one species word.
    """
    tokens = _SexpTokens(text)
    tokens.take("(")
    name, col = tokens.take()
    if name in "()" or name == "set":
        raise FormationParseError(f"expected formation name at column {col}")
    tokens.take("(")
    tokens.take("set")
    species: list[str] = []
    constraints = []
    while tokens.peek()[0] == "(":
        constraints.append(_parse_clause(tokens, species))
    tokens.take(")")
    tokens.take(")")
    trailing, col = tokens.peek()
    if trailing:
        raise FormationParseError(f"unexpected {trailing!r} at column {col}")
    formation = Formation(name, tuple(constraints), species[0] if species else "roomba")
    if robot_ids is not None:
        known = set(robot_ids)
        unknown = sorted(formation.robot_ids() - known)
        if unknown:
            raise FormationParseError(f"unknown robot ids {unknown}")
    return formation


def _parse_robot(tokens: _SexpTokens, species: list[str]) -> int:
    word, col = tokens.take()
    if word in "()":
        raise FormationParseError(f"expected robot name at column {col}")
    if species and word != species[0]:
        raise FormationParseError(
            f"robot species {word!r} at column {col} differs from {species[0]!r}"
        )
    if not species:
        species.append(word)
    num, col = tokens.take()
    try:
        return int(num)
    except ValueError:
        raise FormationParseError(
            f"expected robot number, found {num!r} at column {col}"
        ) from None


def _parse_clause(tokens: _SexpTokens, species: list[str]) -> Constraint:
    tokens.take("(")
    head, col = tokens.take()
    if head in ("between", "not-between"):
        kind = Between if head == "between" else NotBetween
        clause: Constraint = kind(*[_parse_robot(tokens, species) for _ in range(3)])
    elif head == "max-dist":
        num, ncol = tokens.take()
        try:
            delta = float(num)
        except ValueError:
            raise FormationParseError(
                f"expected a distance, found {num!r} at column {ncol}"
            ) from None
        if not (math.isfinite(delta) and delta > 0):
            raise FormationParseError(
                f"max-dist must be positive and finite at column {ncol}"
            )
        robot = _parse_robot(tokens, species)
        inner = _parse_clause(tokens, species)
        if not isinstance(inner, Between):
            raise FormationParseError(
                f"max-dist wraps a between clause (column {col})"
            )
        clause = MaxDist(delta, robot, inner)
    else:
        raise FormationParseError(f"unknown clause {head!r} at column {col}")
    tokens.take(")")
    return clause


def print_formation(formation: Formation) -> str:
    """Canonical script text; parse round-trips it."""
    sp = formation.species
    parts = [_print_clause(c, sp) for c in formation.constraints]
    inner = ("(set " + " ".join(parts) + ")") if parts else "(set)"
    return f"({formation.name} {inner})"


def _print_clause(c: Constraint, sp: str) -> str:
    if isinstance(c, MaxDist):
        return f"(max-dist {c.delta:g} {sp} {c.robot} {_print_clause(c.inner, sp)})"
    head = "between" if isinstance(c, Between) else "not-between"
    return f"({head} {sp} {c.robot} {sp} {c.a} {sp} {c.b})"


@dataclass(frozen=True)
class Violation:
    index: int
    constraint: Constraint
    reason: str


#: a rectangle as plain (x1, y1, x2, y2) coordinates, for the formation checks
Box = tuple[float, float, float, float]
#: a clause compiled over its robot ids: given the boxes, whether it fails
ClauseTest = Callable[[Mapping[int, Box]], bool]


def check_formation(
    formation: Formation, poses: Mapping[int, Rect]
) -> list[Violation]:
    """All constraints violated by the given poses, with their indices."""
    boxes = {rid: (r.x1, r.y1, r.x2, r.y2) for rid, r in poses.items()}
    out = []
    for i, c in enumerate(formation.constraints):
        try:
            failed = _compile(c)(boxes)
        except KeyError as missing:
            raise MereomlError(f"no pose for robot {missing.args[0]}") from None
        if failed:
            out.append(Violation(i, c, _reason(c, boxes)))
    return out


def _compile(c: Constraint) -> ClauseTest:
    """Clause c as a test on the (x1, y1, x2, y2) boxes, true when it fails.

    The comparisons are those of ``extent(a, b).contains(z)`` and of the
    distance between rectangle centres, made on coordinates.  A robot
    without a box raises KeyError.
    """
    if isinstance(c, MaxDist):
        inner = _compile(c.inner)
        r, a, b, limit = c.robot, c.inner.a, c.inner.b, c.delta + _EPS

        def too_far(boxes: Mapping[int, Box]) -> bool:
            return inner(boxes) or _reach(boxes[r], boxes[a], boxes[b]) > limit

        return too_far
    z, a, b, wanted = c.robot, c.a, c.b, isinstance(c, Between)

    def misplaced(boxes: Mapping[int, Box]) -> bool:
        zx1, zy1, zx2, zy2 = boxes[z]
        ax1, ay1, ax2, ay2 = boxes[a]
        bx1, by1, bx2, by2 = boxes[b]
        # the extent's edge on each side is the outer of a's and b's, so z's
        # edge lies within it, give or take the slack, when it lies within
        # a's or within b's
        left, bottom = zx1 + _EPS, zy1 + _EPS
        inside = (
            (ax1 <= left or bx1 <= left)
            and (zx2 <= ax2 + _EPS or zx2 <= bx2 + _EPS)
            and (ay1 <= bottom or by1 <= bottom)
            and (zy2 <= ay2 + _EPS or zy2 <= by2 + _EPS)
        )
        return inside is not wanted

    return misplaced


def _reach(r: Box, a: Box, b: Box) -> float:
    """Distance from r's centre to the farther of a's and b's centres."""
    rx1, ry1, rx2, ry2 = r
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    rx, ry = (rx1 + rx2) / 2, (ry1 + ry2) / 2
    return max(
        math.hypot(rx - (ax1 + ax2) / 2, ry - (ay1 + ay2) / 2),
        math.hypot(rx - (bx1 + bx2) / 2, ry - (by1 + by2) / 2),
    )


def _reason(c: Constraint, boxes: Mapping[int, Box]) -> str:
    """Why clause c, which fails on the boxes, fails."""
    if isinstance(c, MaxDist):
        if _compile(c.inner)(boxes):
            return _reason(c.inner, boxes)
        d = _reach(boxes[c.robot], boxes[c.inner.a], boxes[c.inner.b])
        return f"robot {c.robot} at distance {d:.3f} > {c.delta}"
    side = "outside" if isinstance(c, Between) else "inside"
    return f"robot {c.robot} {side} extent of {c.a} and {c.b}"
