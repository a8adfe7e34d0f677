"""Rectangle mereogeometry and formation navigation.

Closed axis-aligned rectangles stand in for robots, obstacles and goals.
Graded containment is the overlap-area ratio; the two-way sum rho of those
ratios acts as a similarity (2 means identical), from which nearness and a
candidate-quantified betweenness are defined.  For navigation the workable
notion is extent-betweenness: lying inside the smallest rectangle spanning
two others.

The simulator moves robots held in a formation (see ``formation``) over a
grid potential field (breadth-first distance to the goal with obstacles
inflated by the largest robot half-extent): each step every robot picks the
move that first repairs constraint violations and then makes progress, and
the lowest-id robot, weighing no clause, just descends the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MereomlError, read_text

# the clause types and parse_formation stay reachable from this module too,
# where the CLI and older callers look them up
from .formation import (
    _EPS,
    Between,
    Box,
    Formation,
    MaxDist,
    NotBetween,
    _clause_robots,
    _compile,
    parse_formation,
)


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
    return not _compile(Between(0, 1, 2))(boxes)


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
    ``robot ID x1 y1 x2 y2`` (repeat).  Bounds, cell and goal appear once.
    """
    once: dict[str, Rect | float] = {}  # the bounds, cell and goal
    obstacles: list[Rect] = []
    robots: list[tuple[int, Rect]] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        directive, *args = words
        try:
            if directive not in _DIRECTIVE_ARGS:
                raise MereomlError(f"unknown directive {directive!r}")
            if len(args) != _DIRECTIVE_ARGS[directive]:
                raise ValueError
            if directive == "robot":
                robots.append((int(args[0]), Rect(*map(float, args[1:]))))
            elif directive == "obstacle":
                obstacles.append(Rect(*map(float, args)))
            elif directive in once:
                raise MereomlError(f"second {directive!r} line")
            else:
                once[directive] = float(args[0]) if directive == "cell" else Rect(*map(float, args))
        except ValueError:
            raise MereomlError(f"malformed world line {lineno}: {raw.strip()!r}") from None
        except MereomlError as e:
            raise MereomlError(f"world line {lineno}: {e}") from None
    if len(once) < 3:
        raise MereomlError("world file needs bounds, goal and cell lines")
    robots.sort(key=lambda pair: pair[0])
    return World(once["bounds"], tuple(obstacles), once["goal"], once["cell"], tuple(robots))


#: Most cells a world grid may have; building such a field peaks at about
#: 40 MiB (10 B per cell: 8 of values and 1 unseen on the padded grid, 1
#: blocked); one cell wide or tall, the padding triples the first two.
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
        frontier = np.flatnonzero(
            ~self.blocked & np.outer((g.y1 <= ys) & (ys <= g.y2), (g.x1 <= xs) & (xs <= g.x2))
        )
        # breadth-first fill one distance layer at a time, 4-neighbour steps,
        # on the flat indices of the grid padded by one blocked cell per side,
        # where cell f is f + 2 * (f // nx) + w + 1; ``unseen`` marks the free
        # cells no layer has reached
        w = self.nx + 2
        unseen = np.zeros((self.ny + 2) * w, dtype=bool)
        np.logical_not(self.blocked, out=unseen.reshape(-1, w)[1:-1, 1:-1])
        values = np.full(unseen.size, math.inf)
        frontier += frontier // self.nx * 2 + w + 1
        offsets = np.array([[-1], [1], [-w], [w]])
        unseen[frontier] = False
        d = 0
        while frontier.size:
            values[frontier] = d
            reached = (frontier + offsets).ravel()
            reached = reached[unseen[reached]]
            unseen[reached] = False
            # a cell reached from two sides is listed twice: each copy writes
            # its position into the cell's value, which the next layer
            # overwrites, and only the copy whose position stays is kept
            order = np.arange(reached.size)
            values[reached] = order
            frontier = reached[values[reached] == order]
            d += 1
        self.values = values.reshape(-1, w)[1:-1, 1:-1]

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
    """The robots after one step: one entry per robot, in id order."""

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


# move preference when violation count and potential tie; staying comes first
_MOVES = (
    (0, 0), (0, 1), (0, -1), (-1, 0), (1, 0), (-1, 1), (1, 1), (-1, -1), (1, -1)
)
_STALL_LIMIT = 5


def navigate(world: World, formation: Formation, max_steps: int = 1000) -> NavigationLog:
    """March the formation toward the goal; deterministic.

    Every robot, in id order, picks the move minimizing (violations,
    potential, move preference), staying first.  The lowest-id robot, the
    leader, weighs no clause, so it strictly descends the potential: it
    takes its lowest neighbour only when that is lower than its own cell.
    Robots never enter blocked cells, so they can never touch an obstacle;
    they may overlap each other.  Termination: the leader's rectangle
    overlaps the goal with no violation outstanding, the step budget runs
    out, or nobody moves for five consecutive steps.
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
    # zero-copy views of the field, whose items index as Python floats and
    # bools, and the cell centres per axis
    nx, ny = field.nx, field.ny
    value, blocked = memoryview(field.values), memoryview(field.blocked)
    xs = [field.center(i, 0)[0] for i in range(nx)]
    ys = [field.center(0, j)[1] for j in range(ny)]

    def box_at(rid: int, cell: tuple[int, int]) -> Box:
        i, j = cell
        hx, hy = half[rid]
        return (xs[i] - hx, ys[j] - hy, xs[i] + hx, ys[j] + hy)

    boxes = {rid: box_at(rid, cells[rid]) for rid in ids}
    clauses = formation.constraints
    tests = [_compile(c) for c in clauses]
    # a robot's move decides only the clauses naming it; the others add the
    # same count to every move it weighs.  The leader weighs none
    naming = {
        rid: [t for c, t in zip(clauses, tests) if rid in _clause_robots(c)] for rid in ids
    }
    naming[leader] = []

    def record(step: int) -> StepRecord:
        violations = sum([t(boxes) for t in tests])
        return StepRecord(
            step,
            tuple(
                LogEntry(rid, Rect(*boxes[rid]), field.value(*cells[rid]), violations)
                for rid in ids
            ),
        )

    def arrived() -> bool:
        lead = steps[-1].entries[0]
        return overlap_area(lead.rect, world.goal) > 0 and lead.violations == 0

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
        # repair first, then advance.  Trials run in (potential, move
        # preference) order, so a later one wins only with fewer violations:
        # each is counted until it ties the fewest so far, and one with none
        # ends the turn.  A trial takes the robot's slot in boxes
        for rid in ids:
            here = hi, hj = cells[rid]
            own = boxes[rid]
            weighed = naming[rid]
            trials = []
            for k, (di, dj) in enumerate(_MOVES):
                ci, cj = hi + di, hj + dj
                if 0 <= ci < nx and 0 <= cj < ny and not blocked[cj, ci]:
                    trials.append((value[cj, ci], k, (ci, cj)))
            trials.sort()
            fewest, chosen = math.inf, None
            for _, _, cell in trials:
                boxes[rid] = box = box_at(rid, cell)
                bad = 0
                for t in weighed:
                    bad += t(boxes)
                    if bad == fewest:
                        break
                else:
                    fewest, chosen = bad, (cell, box)
                    if not bad:
                        break
            boxes[rid] = own
            if chosen is None:
                raise MereomlError(
                    f"robot {rid} is boxed in: its cell and all eight neighbours are blocked"
                )
            cell, box = chosen
            if cell != here:
                moved = True
                cells[rid], boxes[rid] = cell, box
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
    # one robot's entries at every step, as each step lists the same robots
    for k, track in enumerate(zip(*(rec.entries for rec in log.steps))):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        points = []
        for e in track:
            px, py = pt(*e.rect.center)
            points.append(f"{px:.1f},{py:.1f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        px, py = points[-1].split(",")
        parts.append(f'<circle cx="{px}" cy="{py}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
