"""Rectangle mereogeometry and formation navigation.

Closed axis-aligned rectangles stand in for robots, obstacles and goals.
Graded containment is the overlap-area ratio; the two-way sum rho of those
ratios acts as a similarity (2 means identical), from which nearness and a
candidate-quantified betweenness are defined.  For navigation the workable
notion is extent-betweenness: lying inside the smallest rectangle spanning
two others.

Formations couple robots with between / not-between / max-dist constraints
written in a tiny s-expression language.  The simulator drives the lowest-id
robot down a grid potential field (breadth-first distance to the goal with
obstacles inflated by the largest robot half-extent) while the others pick,
each step, the move that first repairs constraint violations and then makes
progress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import MereomlError, read_text

_EPS = 1e-9


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle with positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise MereomlError(
                f"degenerate rectangle ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2, (self.y1 + self.y2) / 2)

    def contains(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1 + _EPS
            and other.x2 <= self.x2 + _EPS
            and self.y1 <= other.y1 + _EPS
            and other.y2 <= self.y2 + _EPS
        )

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)


def overlap_area(a: Rect, b: Rect) -> float:
    w = min(a.x2, b.x2) - max(a.x1, b.x1)
    h = min(a.y2, b.y2) - max(a.y1, b.y1)
    return w * h if w > 0 and h > 0 else 0.0


def area_inclusion(a: Rect, b: Rect) -> float:
    """Share of a's area lying inside b; 1 exactly when a is contained in b."""
    return overlap_area(a, b) / a.area


def rho(a: Rect, b: Rect) -> float:
    """Two-way overlap similarity in [0, 2]; rho(a, a) = 2."""
    return area_inclusion(a, b) + area_inclusion(b, a)


def rho_normalized(a: Rect, b: Rect) -> float:
    """rho scaled into [0, 1], so 1 means identical rectangles."""
    return rho(a, b) / 2


def rnear(x: Rect, y: Rect, z: Rect) -> bool:
    """y is at least as near to x as z is: rho(x, y) >= rho(x, z)."""
    return rho(x, y) >= rho(x, z)


def rbtw(z: Rect, x: Rect, y: Rect, candidates: Sequence[Rect]) -> bool:
    """Betweenness relative to a finite comparison family.

    z counts as between x and y when no candidate other than z is strictly
    nearer to z than both x and y are.
    """
    return all(
        w == z or rnear(z, x, w) or rnear(z, y, w) for w in candidates
    )


def extent(a: Rect, b: Rect) -> Rect:
    """Smallest rectangle containing both; the lattice join."""
    return Rect(
        min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2)
    )


def between_extent(z: Rect, a: Rect, b: Rect) -> bool:
    """Navigational betweenness: z lies inside the extent of a and b.

    Evaluated as the formation clause "robot 0 between 1 and 2" on the boxes.
    """
    boxes = {i: (r.x1, r.y1, r.x2, r.y2) for i, r in enumerate((z, a, b))}
    return _check_one(Between(0, 1, 2), boxes) is None


# --- formations -------------------------------------------------------------

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


class _SexpTokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int]] = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
            elif c in "()":
                self.items.append((c, i + 1))
                i += 1
            else:
                j = i
                while j < len(text) and not text[j].isspace() and text[j] not in "()":
                    j += 1
                self.items.append((text[i:j], i + 1))
                i = j
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
    if head == "between":
        clause: Constraint = Between(
            _parse_robot(tokens, species),
            _parse_robot(tokens, species),
            _parse_robot(tokens, species),
        )
    elif head == "not-between":
        clause = NotBetween(
            _parse_robot(tokens, species),
            _parse_robot(tokens, species),
            _parse_robot(tokens, species),
        )
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
    if isinstance(c, Between):
        return f"(between {sp} {c.robot} {sp} {c.a} {sp} {c.b})"
    if isinstance(c, NotBetween):
        return f"(not-between {sp} {c.robot} {sp} {c.a} {sp} {c.b})"
    return f"(max-dist {c.delta:g} {sp} {c.robot} {_print_clause(c.inner, sp)})"


@dataclass(frozen=True)
class Violation:
    index: int
    constraint: Constraint
    reason: str


#: a rectangle as plain (x1, y1, x2, y2) coordinates, for the formation checks
Box = tuple[float, float, float, float]


def check_formation(
    formation: Formation, poses: Mapping[int, Rect]
) -> list[Violation]:
    """All constraints violated by the given poses, with their indices."""
    boxes = {rid: (r.x1, r.y1, r.x2, r.y2) for rid, r in poses.items()}
    out = []
    for i, c in enumerate(formation.constraints):
        try:
            reason = _check_one(c, boxes)
        except KeyError as missing:
            raise MereomlError(f"no pose for robot {missing.args[0]}") from None
        if reason is not None:
            out.append(Violation(i, c, reason))
    return out


def _check_one(c: Constraint, boxes: Mapping[int, Box]) -> str | None:
    """Why clause c fails on the (x1, y1, x2, y2) boxes, or None.

    The comparisons are those of ``extent(a, b).contains(z)`` and of the
    distance between rectangle centres, made on coordinates.  A robot
    without a box raises KeyError.
    """
    if isinstance(c, MaxDist):
        reason = _check_one(c.inner, boxes)
        if reason is not None:
            return reason
        rx1, ry1, rx2, ry2 = boxes[c.robot]
        ax1, ay1, ax2, ay2 = boxes[c.inner.a]
        bx1, by1, bx2, by2 = boxes[c.inner.b]
        rx, ry = (rx1 + rx2) / 2, (ry1 + ry2) / 2
        d = max(
            math.hypot(rx - (ax1 + ax2) / 2, ry - (ay1 + ay2) / 2),
            math.hypot(rx - (bx1 + bx2) / 2, ry - (by1 + by2) / 2),
        )
        if d > c.delta + _EPS:
            return f"robot {c.robot} at distance {d:.3f} > {c.delta}"
        return None
    zx1, zy1, zx2, zy2 = boxes[c.robot]
    ax1, ay1, ax2, ay2 = boxes[c.a]
    bx1, by1, bx2, by2 = boxes[c.b]
    inside = (
        min(ax1, bx1) <= zx1 + _EPS
        and zx2 <= max(ax2, bx2) + _EPS
        and min(ay1, by1) <= zy1 + _EPS
        and zy2 <= max(ay2, by2) + _EPS
    )
    if isinstance(c, Between):
        if not inside:
            return f"robot {c.robot} outside extent of {c.a} and {c.b}"
    elif inside:
        return f"robot {c.robot} inside extent of {c.a} and {c.b}"
    return None


# --- world and navigation ---------------------------------------------------

@dataclass(frozen=True)
class World:
    """Bounded arena with obstacles, one goal region, and named robots."""

    bounds: Rect
    obstacles: tuple[Rect, ...]
    goal: Rect
    cell: float
    robots: tuple[tuple[int, Rect], ...]

    def __post_init__(self):
        if not (math.isfinite(self.cell) and self.cell > 0):
            raise MereomlError(f"cell size must be positive and finite, got {self.cell}")
        if not self.bounds.contains(self.goal):
            raise MereomlError("goal outside world bounds")
        for o in self.obstacles:
            if overlap_area(o, self.goal) > 0:
                raise MereomlError("goal overlaps an obstacle")
        ids = [rid for rid, _ in self.robots]
        if len(set(ids)) != len(ids):
            raise MereomlError("duplicate robot ids")
        for rid, r in self.robots:
            if not self.bounds.contains(r):
                raise MereomlError(f"robot {rid} outside world bounds")
            if any(overlap_area(r, o) > 0 for o in self.obstacles):
                raise MereomlError(f"robot {rid} overlaps an obstacle")

    @property
    def robot_poses(self) -> dict[int, Rect]:
        return dict(self.robots)


# how many words follow each world-file directive
_DIRECTIVE_ARGS = {"bounds": 4, "cell": 1, "obstacle": 4, "goal": 4, "robot": 5}


def load_world(path: str | Path) -> World:
    """Read a world from a line-oriented file.

    Directives ('#' comments allowed): ``bounds x1 y1 x2 y2``,
    ``cell SIZE``, ``obstacle x1 y1 x2 y2`` (repeat), ``goal x1 y1 x2 y2``,
    ``robot ID x1 y1 x2 y2`` (repeat).
    """
    bounds = goal = cell = None
    obstacles: list[Rect] = []
    robots: list[tuple[int, Rect]] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        if directive not in _DIRECTIVE_ARGS:
            raise MereomlError(f"unknown directive {directive!r}")
        try:
            if len(args) != _DIRECTIVE_ARGS[directive]:
                raise ValueError
            if directive == "cell":
                cell = float(args[0])
            elif directive == "robot":
                robots.append((int(args[0]), Rect(*map(float, args[1:]))))
            elif directive == "obstacle":
                obstacles.append(Rect(*map(float, args)))
            elif directive == "bounds":
                bounds = Rect(*map(float, args))
            else:
                goal = Rect(*map(float, args))
        except ValueError:
            raise MereomlError(f"malformed world line {lineno}: {raw.strip()!r}") from None
    if bounds is None or goal is None or cell is None:
        raise MereomlError("world file needs bounds, goal and cell lines")
    robots.sort(key=lambda pair: pair[0])
    return World(bounds, tuple(obstacles), goal, cell, tuple(robots))


#: Most cells a world grid may have; the field's arrays take about 50 MB.
MAX_CELLS = 1 << 22


class PotentialField:
    """Per-cell distance-to-goal over the world grid; inf where blocked."""

    def __init__(self, world: World, inflate: float = 0.0):
        b = world.bounds
        self.x1, self.y1, self.cell = b.x1, b.y1, world.cell
        nx, ny = b.width / world.cell, b.height / world.cell
        # also false for infinite bounds
        if not nx * ny <= MAX_CELLS:
            raise MereomlError(f"world grid of {nx:g} x {ny:g} cells exceeds {MAX_CELLS} cells")
        self.nx = max(1, round(nx))
        self.ny = max(1, round(ny))
        if (
            abs(self.nx * world.cell - b.width) > 1e-6
            or abs(self.ny * world.cell - b.height) > 1e-6
        ):
            raise MereomlError("world bounds are not a whole number of cells")
        self.inflate = inflate
        # cell centres per axis, bit-equal to center(i, j); a rectangle test
        # on the centres is the outer product of one test per axis
        xs = self.x1 + (np.arange(self.nx) + 0.5) * self.cell
        ys = self.y1 + (np.arange(self.ny) + 0.5) * self.cell
        # blocked: within inflate of the rim ...
        self.blocked = ~np.outer(
            ~((ys - inflate < b.y1 - _EPS) | (ys + inflate > b.y2 + _EPS)),
            ~((xs - inflate < b.x1 - _EPS) | (xs + inflate > b.x2 + _EPS)),
        )
        # ... or strictly inside an obstacle fattened by inflate
        for o in world.obstacles:
            self.blocked |= np.outer(
                (o.y1 - inflate + _EPS < ys) & (ys < o.y2 + inflate - _EPS),
                (o.x1 - inflate + _EPS < xs) & (xs < o.x2 + inflate - _EPS),
            )
        g = world.goal
        frontier = ~self.blocked & np.outer(
            (g.y1 <= ys) & (ys <= g.y2), (g.x1 <= xs) & (xs <= g.x2)
        )
        # breadth-first fill one distance layer at a time, 4-neighbour steps
        self.values = np.full((self.ny, self.nx), math.inf)
        d = 0
        while frontier.any():
            self.values[frontier] = d
            grown = np.zeros_like(frontier)
            grown[1:] |= frontier[:-1]
            grown[:-1] |= frontier[1:]
            grown[:, 1:] |= frontier[:, :-1]
            grown[:, :-1] |= frontier[:, 1:]
            frontier = grown & ~self.blocked & np.isinf(self.values)
            d += 1

    def center(self, i: int, j: int) -> tuple[float, float]:
        return (
            self.x1 + (i + 0.5) * self.cell,
            self.y1 + (j + 0.5) * self.cell,
        )

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = min(self.nx - 1, max(0, int((x - self.x1) / self.cell)))
        j = min(self.ny - 1, max(0, int((y - self.y1) / self.cell)))
        return i, j

    def value(self, i: int, j: int) -> float:
        return float(self.values[j, i])

    def is_blocked(self, i: int, j: int) -> bool:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            return True
        return bool(self.blocked[j, i])


def build_potential(world: World, inflate: float = 0.0) -> PotentialField:
    """Flood-fill distance field to the goal, obstacles fattened by inflate."""
    return PotentialField(world, inflate)


@dataclass(frozen=True)
class LogEntry:
    robot: int
    rect: Rect
    potential: float
    violations: int


@dataclass(frozen=True)
class StepRecord:
    step: int
    entries: tuple[LogEntry, ...]


@dataclass(frozen=True)
class NavigationLog:
    """Complete trajectory with a terminal status.

    status is one of goal_reached, deadlock, step_budget, unreachable.
    """

    status: str
    steps: tuple[StepRecord, ...]
    field: PotentialField


# follower move preference when violation count and potential tie
_FOLLOWER_MOVES = (
    (0, 0), (0, 1), (0, -1), (-1, 0), (1, 0), (-1, 1), (1, 1), (-1, -1), (1, -1)
)
_LEADER_MOVES = _FOLLOWER_MOVES[1:]
_STALL_LIMIT = 5


def navigate(world: World, formation: Formation, max_steps: int = 1000) -> NavigationLog:
    """March the formation toward the goal; deterministic.

    The lowest-id robot strictly descends the potential; every other robot,
    in id order, picks the move minimizing (violations, potential, move
    preference).  Robots never enter blocked cells, so they can never touch
    an obstacle; they may overlap each other.  Termination: the leader's
    rectangle overlaps the goal with no violation outstanding, the step
    budget runs out, or nobody moves for five consecutive steps.
    """
    poses = world.robot_poses
    if not poses:
        raise MereomlError("world has no robots")
    unknown = sorted(formation.robot_ids() - set(poses))
    if unknown:
        raise MereomlError(f"formation references unknown robots {unknown}")
    inflate = max(max(r.width, r.height) / 2 for r in poses.values())
    field = build_potential(world, inflate)

    ids = sorted(poses)
    leader = ids[0]
    half = {rid: (poses[rid].width / 2, poses[rid].height / 2) for rid in ids}
    cells = {rid: field.cell_of(*poses[rid].center) for rid in ids}

    def box_at(rid: int, cell: tuple[int, int]) -> Box:
        cx, cy = field.center(*cell)
        hx, hy = half[rid]
        return (cx - hx, cy - hy, cx + hx, cy + hy)

    # each robot's box, and the rectangle the log holds, replaced only when
    # that robot moves
    boxes = {rid: box_at(rid, cells[rid]) for rid in ids}
    rects = {rid: Rect(*boxes[rid]) for rid in ids}
    clauses = formation.constraints
    # a follower's move decides only the clauses naming it; the others add
    # the same count to every move it weighs
    naming = {rid: [c for c in clauses if rid in _clause_robots(c)] for rid in ids}

    def violated(cs: Sequence[Constraint]) -> int:
        return sum(_check_one(c, boxes) is not None for c in cs)

    def move(rid: int, cell: tuple[int, int], box: Box) -> None:
        cells[rid], boxes[rid], rects[rid] = cell, box, Rect(*box)

    def record(step: int) -> StepRecord:
        violations = violated(clauses)
        return StepRecord(
            step,
            tuple(
                LogEntry(rid, rects[rid], field.value(*cells[rid]), violations)
                for rid in ids
            ),
        )

    def arrived() -> bool:
        return (
            overlap_area(rects[leader], world.goal) > 0
            and steps[-1].entries[0].violations == 0
        )

    def finish(status: str) -> NavigationLog:
        return NavigationLog(status, tuple(steps), field)

    steps = [record(0)]
    if math.isinf(field.value(*cells[leader])):
        return finish("unreachable")
    if arrived():
        return finish("goal_reached")

    stall = 0
    for step in range(1, max_steps + 1):
        moved = False
        # leader: strict greedy descent
        li, lj = cells[leader]
        best = field.value(li, lj)
        best_cell = None
        for di, dj in _LEADER_MOVES:
            ci, cj = li + di, lj + dj
            if field.is_blocked(ci, cj):
                continue
            v = field.value(ci, cj)
            if v < best - _EPS:
                best, best_cell = v, (ci, cj)
        if best_cell is not None:
            move(leader, best_cell, box_at(leader, best_cell))
            moved = True
        # followers: repair first, then advance; each trial move takes the
        # follower's own slot in boxes, which is restored afterwards
        for rid in ids[1:]:
            here = cells[rid]
            own = boxes[rid]
            chosen = None
            for di, dj in _FOLLOWER_MOVES:
                cell = (here[0] + di, here[1] + dj)
                if field.is_blocked(*cell):
                    continue
                boxes[rid] = box = box_at(rid, cell)
                score = (violated(naming[rid]), field.value(*cell))
                # earlier moves win ties, so only a strictly lower score replaces
                if chosen is None or score < chosen[0]:
                    chosen = (score, cell, box)
            boxes[rid] = own
            if chosen is None:
                raise MereomlError(
                    f"robot {rid} is boxed in: its cell and all eight neighbours are blocked"
                )
            _, cell, box = chosen
            if cell != here:
                moved = True
                move(rid, cell, box)
        steps.append(record(step))
        stall = 0 if moved else stall + 1
        if stall >= _STALL_LIMIT:
            return finish("deadlock")
        if arrived():
            return finish("goal_reached")
    return finish("step_budget")


def write_trajectory_csv(log: NavigationLog, path: str | Path) -> None:
    lines = ["step,robot,x1,y1,x2,y2,potential,violations"]
    for rec in log.steps:
        for e in rec.entries:
            r = e.rect
            lines.append(
                f"{rec.step},{e.robot},{r.x1:.4f},{r.y1:.4f},{r.x2:.4f},{r.y2:.4f},"
                f"{e.potential:.0f},{e.violations}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SVG_COLORS = ("#c22", "#27c", "#2a2", "#d80", "#93b", "#067", "#b33", "#555")


def write_trajectory_svg(log: NavigationLog, world: World, path: str | Path) -> None:
    """Plot obstacles (grey), goal (green) and per-robot paths as polylines."""
    scale = 60.0
    b = world.bounds

    def pt(x: float, y: float) -> tuple[float, float]:
        return ((x - b.x1) * scale, (b.y2 - y) * scale)

    def rect_svg(r: Rect, fill: str, opacity: float = 1.0) -> str:
        px, py = pt(r.x1, r.y2)
        return (
            f'<rect x="{px:.1f}" y="{py:.1f}" width="{r.width * scale:.1f}" '
            f'height="{r.height * scale:.1f}" fill="{fill}" fill-opacity="{opacity}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{b.width * scale:.0f}" '
        f'height="{b.height * scale:.0f}">',
        rect_svg(b, "#fff"),
    ]
    for o in world.obstacles:
        parts.append(rect_svg(o, "#999"))
    parts.append(rect_svg(world.goal, "#3c3", 0.5))
    ids = [e.robot for e in log.steps[0].entries]
    for k, rid in enumerate(ids):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = []
        for rec in log.steps:
            r = next(e.rect for e in rec.entries if e.robot == rid)
            px, py = pt(*r.center)
            points.append(f"{px:.1f},{py:.1f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        px, py = points[-1].split(",")
        parts.append(f'<circle cx="{px}" cy="{py}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
