"""Rectangle similarity, formations, potential fields, navigation."""

import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

import mereoml.geometry
from mereoml import (
    Between,
    Formation,
    FormationParseError,
    LogEntry,
    MaxDist,
    MereomlError,
    NavigationLog,
    NotBetween,
    Rect,
    StepRecord,
    Violation,
    World,
    area_inclusion,
    between_extent,
    build_potential,
    check_formation,
    extent,
    load_world,
    navigate,
    overlap_area,
    parse_formation,
    print_formation,
    rbtw,
    rho,
    rho_normalized,
    rnear,
    write_trajectory_csv,
    write_trajectory_svg,
)
from mereoml.formation import _compile


def sq(cx, cy, half=0.05):
    return Rect(cx - half, cy - half, cx + half, cy + half)


# --- rectangles ------------------------------------------------------------


def test_rect_validation_and_views():
    r = Rect(0, 0, 2, 1)
    assert r.width == 2 and r.height == 1 and r.area == 2
    assert r.center == (1, 0.5)
    assert r.translated(1, 2) == Rect(1, 2, 3, 3)
    with pytest.raises(MereomlError):
        Rect(0, 0, 0, 1)
    with pytest.raises(MereomlError):
        Rect(0, 2, 1, 1)


def test_rect_contains():
    outer = Rect(0, 0, 4, 4)
    assert outer.contains(Rect(1, 1, 2, 2))
    assert outer.contains(outer)
    assert outer.contains(Rect(0, 0, 4, 4 + 1e-12))  # eps slack
    assert not outer.contains(Rect(1, 1, 5, 2))


def test_overlap_area():
    a = Rect(0, 0, 2, 1)
    assert overlap_area(a, Rect(1, 0, 3, 1)) == pytest.approx(1)
    assert overlap_area(a, Rect(5, 5, 6, 6)) == 0
    assert overlap_area(a, Rect(2, 0, 3, 1)) == 0  # touching edges
    assert overlap_area(a, a) == pytest.approx(a.area)


def test_area_inclusion():
    a = Rect(0, 0, 2, 1)
    b = Rect(1, 0, 3, 1)
    assert area_inclusion(a, b) == pytest.approx(0.5)
    assert area_inclusion(Rect(0.5, 0.25, 1, 0.75), a) == 1
    assert area_inclusion(a, Rect(5, 5, 6, 6)) == 0


def test_rho_values():
    a = Rect(0, 0, 2, 1)
    b = Rect(1, 0, 3, 1)
    assert rho(a, a) == pytest.approx(2)
    assert rho(a, b) == pytest.approx(1)
    assert rho(b, a) == pytest.approx(1)
    assert rho(a, Rect(5, 5, 6, 6)) == 0
    assert rho_normalized(a, b) == pytest.approx(0.5)
    assert rho_normalized(a, a) == pytest.approx(1)


def test_rnear():
    x = Rect(0, 0, 1, 1)
    near = Rect(0.5, 0, 1.5, 1)
    far = Rect(3, 0, 4, 1)
    assert rnear(x, near, far)
    assert not rnear(x, far, near)
    assert rnear(x, near, near)


def test_rbtw_trivial_families():
    x = Rect(0, 0, 1, 1)
    y = Rect(7, 0, 8, 1)
    z = extent(x, y)
    assert rbtw(z, x, y, [z])  # only z itself: vacuous
    assert rbtw(x, x, y, [x, y])  # z == x beats any comparison with x


def test_rbtw_large_candidate_defeats_the_extent():
    # a wide middle slab is nearer to the extent than either endpoint
    x = Rect(0, 0, 1, 1)
    y = Rect(7, 0, 8, 1)
    z = extent(x, y)
    slab = Rect(2, 0, 6, 1)
    assert rho(z, slab) > max(rho(z, x), rho(z, y))
    assert not rbtw(z, x, y, [x, y, slab, z])


def test_rbtw_small_candidates_leave_the_extent_between():
    # when x dominates the family by area, nothing beats rho(z, x)
    x = Rect(0, 0, 8, 7)
    y = Rect(0, 7, 8, 8)
    z = extent(x, y)
    candidates = [x, y, z, Rect(1, 1, 4, 4), Rect(2, 3, 7, 6)]
    assert rbtw(z, x, y, candidates)


def test_extent_is_the_join():
    a = Rect(0, 0, 1, 1)
    b = Rect(2, 3, 4, 5)
    e = extent(a, b)
    assert e == Rect(0, 0, 4, 5)
    assert e.contains(a) and e.contains(b)
    assert extent(a, a) == a


def test_between_extent():
    a = Rect(0, 0, 1, 1)
    b = Rect(3, 0, 4, 1)
    assert between_extent(Rect(1.5, 0.2, 2.5, 0.8), a, b)
    assert between_extent(a, a, b)
    assert not between_extent(Rect(1.5, 0.2, 2.5, 1.4), a, b)
    assert not between_extent(Rect(5, 0, 6, 1), a, b)


_SLACKS = (0.0, 0.5e-9, 1e-9, 1.5e-9, 2e-9, 0.25)


@hypothesis.given(
    strat.lists(strat.integers(0, 6), min_size=4, max_size=4),
    strat.lists(strat.sampled_from(_SLACKS), min_size=4, max_size=4),
)
def test_between_extent_is_the_rect_test_at_the_slack(corners, outward):
    """z's edges sit outside the extent by up to twice ``_EPS``, or well past it."""
    x, y, u, v = corners
    a, b = Rect(x, y, x + 1, y + 2), Rect(u, v, u + 3, v + 1)
    e = extent(a, b)
    z = Rect(e.x1 - outward[0], e.y1 - outward[1], e.x2 + outward[2], e.y2 + outward[3])
    inside = between_extent(z, a, b)
    assert inside == e.contains(z)
    # away from the exact slack, rounding cannot decide the answer
    if 1e-9 not in outward:
        assert inside == all(o < 1e-9 for o in outward)


# --- formation scripts -----------------------------------------------------

SCRIPT = (
    "(demo (set"
    " (max-dist 0.25 roomba 0 (between roomba 0 roomba 1 roomba 2))"
    " (not-between roomba 4 roomba 1 roomba 2)))"
)


def test_parse_formation_example():
    f = parse_formation(SCRIPT)
    assert f.name == "demo"
    assert f.species == "roomba"
    assert f.constraints == (
        MaxDist(0.25, 0, Between(0, 1, 2)),
        NotBetween(4, 1, 2),
    )
    assert f.robot_ids() == frozenset({0, 1, 2, 4})


def test_parse_formation_checks_robot_ids():
    parse_formation(SCRIPT, robot_ids=[0, 1, 2, 3, 4])
    with pytest.raises(FormationParseError, match=r"\[4\]"):
        parse_formation(SCRIPT, robot_ids=[0, 1, 2, 3])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(f (set (between roomba 0 bot 1 roomba 2)))", "species"),
        ("(f (set (max-dist 0 roomba 0 (between roomba 0 roomba 1 roomba 2))))", "positive"),
        ("(f (set (max-dist 0.5 roomba 0 (not-between roomba 0 roomba 1 roomba 2))))", "between"),
        ("(f (set (sideways roomba 0 roomba 1 roomba 2)))", "sideways"),
        ("(f (set (between roomba x roomba 1 roomba 2)))", "number"),
        ("(f (set)) extra", "extra"),
        ("(f (set)))", "unexpected"),
        ("(f (set)", "end of input"),
        ("(set (set))", "formation name"),
        ("(f (set (max-dist q roomba 0 (between roomba 0 roomba 1 roomba 2))))", "distance"),
        ("(f (set (max-dist nan roomba 0 (between roomba 0 roomba 1 roomba 2))))", "positive"),
        ("(f (set (max-dist inf roomba 0 (between roomba 0 roomba 1 roomba 2))))", "positive"),
    ],
)
def test_parse_formation_errors(text, fragment):
    with pytest.raises(FormationParseError, match=fragment):
        parse_formation(text)


def test_print_formation_round_trip():
    f = parse_formation(SCRIPT)
    assert print_formation(f) == SCRIPT.replace("(demo (set ", "(demo (set ")
    assert parse_formation(print_formation(f)) == f
    empty = Formation("idle", ())
    assert print_formation(empty) == "(idle (set))"
    assert parse_formation(print_formation(empty)) == empty


def test_print_formation_formats_delta_compactly():
    f = Formation("f", (MaxDist(0.25, 0, Between(0, 1, 2)),))
    assert "0.25" in print_formation(f)
    g = Formation("f", (MaxDist(2.0, 0, Between(0, 1, 2)),))
    assert "max-dist 2 " in print_formation(g)


# --- constraint checking ---------------------------------------------------


def test_check_between_and_not_between():
    poses = {0: sq(0, 0), 1: sq(-1, 0), 2: sq(1, 0), 4: sq(0.5, 0)}
    f = Formation("f", (Between(0, 1, 2), NotBetween(4, 1, 2)))
    violations = check_formation(f, poses)
    assert len(violations) == 1
    assert violations[0].index == 1
    assert "inside extent" in violations[0].reason

    poses[4] = sq(5, 5)
    assert check_formation(f, poses) == []

    poses[0] = sq(0, 3)
    out = check_formation(f, poses)
    assert [v.index for v in out] == [0]
    assert "outside extent" in out[0].reason


def test_check_max_dist():
    poses = {0: sq(0, 0), 1: sq(-0.3, 0), 2: sq(0.3, 0)}
    tight = Formation("f", (MaxDist(0.25, 0, Between(0, 1, 2)),))
    out = check_formation(tight, poses)
    assert len(out) == 1
    assert "0.300" in out[0].reason
    loose = Formation("f", (MaxDist(0.35, 0, Between(0, 1, 2)),))
    assert check_formation(loose, poses) == []


def test_check_max_dist_reports_inner_violation_first():
    poses = {0: sq(0, 5), 1: sq(-0.3, 0), 2: sq(0.3, 0)}
    f = Formation("f", (MaxDist(0.25, 0, Between(0, 1, 2)),))
    out = check_formation(f, poses)
    assert "outside extent" in out[0].reason


def test_check_formation_needs_all_poses():
    f = Formation("f", (Between(0, 1, 2),))
    with pytest.raises(MereomlError, match="no pose"):
        check_formation(f, {0: sq(0, 0), 1: sq(1, 0)})


# --- worlds ----------------------------------------------------------------


def test_world_validation():
    bounds = Rect(0, 0, 4, 4)
    goal = Rect(3, 3, 4, 4)
    with pytest.raises(MereomlError, match="cell"):
        World(bounds, (), goal, 0, ())
    with pytest.raises(MereomlError, match="goal outside"):
        World(bounds, (), Rect(3, 3, 5, 4), 1, ())
    with pytest.raises(MereomlError, match="overlaps"):
        World(bounds, (Rect(2.5, 2.5, 3.5, 3.5),), goal, 1, ())
    with pytest.raises(MereomlError, match="duplicate"):
        World(bounds, (), goal, 1, ((0, sq(1, 1)), (0, sq(2, 2))))
    with pytest.raises(MereomlError, match="robot 3"):
        World(bounds, (), goal, 1, ((3, sq(9, 1)),))


def test_world_rejects_a_robot_inside_an_obstacle():
    bounds, goal, wall = Rect(0, 0, 4, 4), Rect(3, 3, 4, 4), Rect(1, 0, 2, 2)
    with pytest.raises(MereomlError, match="robot 2 overlaps an obstacle"):
        World(bounds, (wall,), goal, 1, ((2, Rect(1.5, 1.5, 2.5, 2.5)),))
    # touching the obstacle's edge overlaps no area
    World(bounds, (wall,), goal, 1, ((2, Rect(2, 0, 3, 1)),))


def test_load_world_shipped_corridor():
    world = load_world("data/corridor_world.txt")
    assert world.bounds == Rect(0, 0, 10, 5)
    assert world.cell == 0.25
    assert len(world.obstacles) == 2
    assert world.goal == Rect(7.875, 1.875, 8.875, 2.875)
    assert [rid for rid, _ in world.robots] == [0, 1, 2, 3, 4]
    assert world.robot_poses[0].center == (1.375, 1.375)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bounds 0 0 4\ncell 1\ngoal 3 3 4 4\n", "malformed world line 1"),
        ("bounds 0 0 4 4\ncell 1\nwall 1 1 2 2\ngoal 3 3 4 4\n", "wall"),
        ("bounds 0 0 4 4\ncell one\ngoal 3 3 4 4\n", "line 2"),
        ("cell 1\ngoal 0 0 1 1\n", "needs bounds"),
        ("bounds 0 0 4 4 junk\ncell 1\ngoal 3 3 4 4\n", "malformed world line 1"),
        ("bounds 0 0 4 4\ncell 0.5 x\ngoal 3 3 4 4\n", "malformed world line 2"),
        ("bounds 0 0 4 4\ncell 1\ngoal 3 3 4 4\nrobot 0 0.1 0.1 0.3 0.3 extra\n",
         "malformed world line 4"),
        ("bounds 0 0 4 4\ncell 1\ngoal 3 3 4 4\nrobot 0 0.1 0.1 0.3\n", "malformed world line 4"),
        ("bounds 0 0 4 4\ncell nan\ngoal 3 3 4 4\n", "cell size must be positive and finite"),
        ("bounds 0 0 4 4\ncell inf\ngoal 3 3 4 4\n", "cell size must be positive and finite"),
    ],
)
def test_load_world_errors(tmp_path, text, fragment):
    path = tmp_path / "w.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MereomlError, match=fragment):
        load_world(path)


def test_load_world_ignores_a_byte_order_mark(tmp_path):
    text = "bounds 0 0 4 4\ncell 1\ngoal 3 3 4 4\nrobot 1 0.2 0.2 0.8 0.8\n"
    plain, marked = tmp_path / "w.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    # the mark sits right before the first keyword, not in a comment
    marked.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
    assert load_world(marked) == load_world(plain)
    assert load_world(marked).bounds == Rect(0, 0, 4, 4)


def test_load_world_sorts_robots(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text(
        "bounds 0 0 4 4\ncell 1\ngoal 3 3 4 4\n"
        "robot 2 0.2 0.2 0.8 0.8\nrobot 1 1.2 1.2 1.8 1.8\n",
        encoding="utf-8",
    )
    assert [rid for rid, _ in load_world(path).robots] == [1, 2]


# --- potential fields ------------------------------------------------------


def corridor(nx=5):
    return World(
        Rect(0, 0, nx, 1),
        (),
        Rect(nx - 1, 0, nx, 1),
        1.0,
        ((0, sq(0.5, 0.5, 0.25)),),
    )


def test_potential_is_manhattan_distance_in_empty_world():
    field = build_potential(corridor())
    assert [field.value(i, 0) for i in range(5)] == [4, 3, 2, 1, 0]
    assert field.nx == 5 and field.ny == 1


def test_potential_goal_cells_are_zero():
    world = World(Rect(0, 0, 3, 3), (), Rect(1, 1, 2, 2), 1.0, ())
    field = build_potential(world)
    assert field.value(1, 1) == 0
    assert field.value(0, 1) == 1
    assert field.value(0, 0) == 2


def test_potential_blocks_obstacle_cells():
    world = World(
        Rect(0, 0, 5, 1), (Rect(2, 0, 3, 1),), Rect(4, 0, 5, 1), 1.0, ()
    )
    field = build_potential(world)
    assert field.is_blocked(2, 0)
    assert math.isinf(field.value(2, 0))
    # the wall splits the corridor: left side can't see the goal
    assert math.isinf(field.value(0, 0))
    assert field.value(3, 0) == 1


def test_potential_inflation_blocks_neighbors():
    world = World(
        Rect(0, 0, 5, 3), (Rect(2, 1, 3, 2),), Rect(4, 1, 5, 2), 1.0, ()
    )
    plain = build_potential(world, inflate=0.0)
    fat = build_potential(world, inflate=0.75)
    assert not plain.is_blocked(1, 1)
    assert fat.is_blocked(1, 1)  # obstacle fattened into the next cell
    assert fat.is_blocked(0, 0)  # and the rim cells sit too close to the wall


def test_potential_rejects_fractional_grid():
    world = World(Rect(0, 0, 2.5, 1), (), Rect(2, 0, 2.5, 1), 1.0, ())
    with pytest.raises(MereomlError, match="whole number"):
        build_potential(world)


def ref_potential(world, inflate):
    """The per-cell loops and queue fill that ``PotentialField`` replaces."""
    eps = 1e-9
    b = world.bounds
    nx = max(1, round(b.width / world.cell))
    ny = max(1, round(b.height / world.cell))

    def center(i, j):
        return (b.x1 + (i + 0.5) * world.cell, b.y1 + (j + 0.5) * world.cell)

    blocked = np.zeros((ny, nx), dtype=bool)
    for j in range(ny):
        for i in range(nx):
            cx, cy = center(i, j)
            near_edge = (
                cx - inflate < b.x1 - eps
                or cx + inflate > b.x2 + eps
                or cy - inflate < b.y1 - eps
                or cy + inflate > b.y2 + eps
            )
            inside_obstacle = any(
                o.x1 - inflate + eps < cx < o.x2 + inflate - eps
                and o.y1 - inflate + eps < cy < o.y2 + inflate - eps
                for o in world.obstacles
            )
            blocked[j, i] = near_edge or inside_obstacle
    values = np.full((ny, nx), math.inf)
    queue = deque()
    for j in range(ny):
        for i in range(nx):
            cx, cy = center(i, j)
            if (
                not blocked[j, i]
                and world.goal.x1 <= cx <= world.goal.x2
                and world.goal.y1 <= cy <= world.goal.y2
            ):
                values[j, i] = 0.0
                queue.append((i, j))
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if (
                0 <= ni < nx
                and 0 <= nj < ny
                and not blocked[nj, ni]
                and math.isinf(values[nj, ni])
            ):
                values[nj, ni] = values[j, i] + 1
                queue.append((ni, nj))
    return blocked, values


@strat.composite
def half_cell_worlds(draw):
    """Robot-free worlds whose obstacle and goal edges sit on half cells.

    Half-cell edges put cell centres exactly on inflated edges, where the
    strict and non-strict comparisons of the field decide.
    """
    cell = draw(strat.sampled_from((0.25, 0.5, 1.0)))
    half = cell / 2
    nx, ny = draw(strat.integers(1, 12)), draw(strat.integers(1, 12))
    x0 = draw(strat.integers(-4, 4)) * half
    y0 = draw(strat.integers(-4, 4)) * half

    def edges(n):
        return strat.lists(
            strat.integers(0, 2 * n), min_size=2, max_size=2, unique=True
        ).map(sorted)

    rects = strat.tuples(edges(nx), edges(ny)).map(
        lambda e: Rect(
            x0 + e[0][0] * half, y0 + e[1][0] * half,
            x0 + e[0][1] * half, y0 + e[1][1] * half,
        )
    )
    goal = draw(rects)
    obstacles = tuple(
        o for o in draw(strat.lists(rects, max_size=6)) if overlap_area(o, goal) == 0
    )
    bounds = Rect(x0, y0, x0 + nx * cell, y0 + ny * cell)
    return World(bounds, obstacles, goal, cell, ())


def assert_field_matches_reference(world):
    for share in (0.0, 0.2, 0.5, 0.8, 1.0, 1.5):
        inflate = share * world.cell
        field = build_potential(world, inflate)
        blocked, values = ref_potential(world, inflate)
        assert field.blocked.dtype == blocked.dtype
        assert np.array_equal(field.blocked, blocked), inflate
        assert field.values.dtype == values.dtype
        assert np.array_equal(field.values, values), inflate


@hypothesis.given(half_cell_worlds())
def test_potential_field_matches_the_per_cell_reference(world):
    assert_field_matches_reference(world)


def test_potential_field_matches_the_reference_on_the_shipped_scene():
    assert_field_matches_reference(load_world("data/corridor_world.txt"))


def open_world(nx, ny, goal, obstacles=()):
    """A unit-cell world of nx x ny cells with the given goal and no robots."""
    return World(Rect(0, 0, nx, ny), tuple(obstacles), goal, 1.0, ())


@pytest.mark.parametrize(
    "world",
    [
        # one cell, one row and one column: steps across every edge
        open_world(1, 1, Rect(0, 0, 1, 1)),
        open_world(7, 1, Rect(3, 0, 4, 1)),
        open_world(1, 7, Rect(0, 3, 1, 4)),
        open_world(7, 1, Rect(6, 0, 7, 1)),
        open_world(1, 7, Rect(0, 0, 1, 1)),
        # goals in the first and the last column, where a flat step of one
        # cell would wrap to the neighbouring row
        open_world(5, 4, Rect(0, 1, 1, 3)),
        open_world(5, 4, Rect(4, 0, 5, 4)),
        open_world(5, 4, Rect(4, 3, 5, 4)),
        open_world(5, 4, Rect(0, 0, 1, 1)),
        # a goal walled off by obstacles, and a wall along a row edge
        open_world(6, 5, Rect(2, 2, 3, 3), [Rect(1, 1, 4, 2), Rect(1, 3, 4, 4),
                                            Rect(1, 2, 2, 3), Rect(3, 2, 4, 3)]),
        open_world(6, 5, Rect(5, 0, 6, 1), [Rect(0, 0, 1, 5), Rect(4, 1, 6, 2)]),
        # a goal covering every cell, and one covering every free cell
        open_world(4, 3, Rect(0, 0, 4, 3)),
        open_world(4, 3, Rect(0, 0, 2, 3), [Rect(2, 0, 4, 3)]),
    ],
    ids=[
        "1x1", "row", "column", "row-goal-at-end", "column-goal-at-start",
        "goal-in-first-column", "goal-is-last-column", "goal-in-last-cell",
        "goal-in-first-cell", "walled-goal", "wall-on-an-edge",
        "goal-covers-all", "goal-covers-all-free",
    ],
)
def test_frontier_fill_matches_the_reference_on_edge_cases(world):
    assert_field_matches_reference(world)


def test_frontier_fill_with_every_cell_blocked():
    # an inflate as wide as the world blocks every cell, the goal included
    world = open_world(5, 3, Rect(2, 1, 3, 2))
    for inflate in (2.0, 3.0):
        field = build_potential(world, inflate)
        blocked, values = ref_potential(world, inflate)
        assert field.blocked.all() and np.array_equal(field.blocked, blocked)
        assert np.isinf(field.values).all() and np.array_equal(field.values, values)


def test_potential_field_memory_stays_linear_in_the_cells():
    # an open 512 x 512 grid with a corner goal: 1023 distance layers
    n = 512
    world = open_world(n, n, Rect(0, 0, 1, 1))
    build_potential(open_world(2, 2, Rect(0, 0, 1, 1)))
    tracemalloc.start()
    try:
        field = build_potential(world)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.values[n - 1, n - 1] == 2 * (n - 1)
    # the field keeps 8 B of values and 1 B of blocked per cell; the fill
    # adds 1 B of unseen per cell and its short frontier index lists, so it
    # peaks at about 10 B a cell
    assert peak < 14 * n * n


def test_cell_of_clamps():
    field = build_potential(corridor())
    assert field.cell_of(0.5, 0.5) == (0, 0)
    assert field.cell_of(-3, 9) == (0, 0)
    assert field.cell_of(99, 0.5) == (4, 0)
    assert field.is_blocked(-1, 0)
    assert field.is_blocked(0, 5)


# --- navigation ------------------------------------------------------------


def test_navigate_single_robot_descends_monotonically():
    log = navigate(corridor(), Formation("solo", ()))
    assert log.status == "goal_reached"
    potentials = [rec.entries[0].potential for rec in log.steps]
    assert potentials == [4, 3, 2, 1, 0]
    assert all(b < a for a, b in zip(potentials, potentials[1:]))
    xs = [rec.entries[0].rect.center[0] for rec in log.steps]
    assert xs == [0.5, 1.5, 2.5, 3.5, 4.5]


def test_navigate_walled_goal_is_unreachable():
    world = World(
        Rect(0, 0, 5, 1),
        (Rect(2, 0, 3, 1),),
        Rect(4, 0, 5, 1),
        1.0,
        ((0, sq(0.5, 0.5, 0.25)),),
    )
    log = navigate(world, Formation("solo", ()))
    assert log.status == "unreachable"
    assert len(log.steps) == 1


def test_navigate_requires_known_robots():
    with pytest.raises(MereomlError, match=r"\[7\]"):
        navigate(corridor(), Formation("f", (Between(7, 0, 0),)))
    empty = World(Rect(0, 0, 2, 1), (), Rect(1, 0, 2, 1), 1.0, ())
    with pytest.raises(MereomlError, match="no robots"):
        navigate(empty, Formation("solo", ()))


def deadlock_world():
    """Leader sits on the goal but a constraint can never be repaired.

    The follower is ringed by obstacles, so its only move is to stay; the
    leader is already at potential zero.  Nobody moves, stall counter runs
    out.
    """
    ring = tuple(
        Rect(x, y, x + 1, y + 1)
        for x in (4, 5, 6)
        for y in (0, 1, 2)
        if (x, y) != (5, 1)
    )
    return World(
        Rect(0, 0, 7, 3),
        ring,
        Rect(0, 0, 1, 1),
        1.0,
        ((0, sq(0.5, 0.5, 0.25)), (1, sq(5.5, 1.5, 0.25))),
    )


def test_navigate_deadlocks_after_five_stalls():
    # robot 0 must sit inside robot 1's footprint, which it never can
    formation = Formation("stuck", (Between(0, 1, 1),))
    log = navigate(deadlock_world(), formation)
    assert log.status == "deadlock"
    assert all(rec.entries[0].violations == 1 for rec in log.steps)
    # five stalls after the initial record
    assert len(log.steps) == 6
    first = log.steps[0].entries
    last = log.steps[-1].entries
    assert [e.rect for e in first] == [e.rect for e in last]


def test_navigate_step_budget():
    world = corridor(nx=9)
    log = navigate(world, Formation("solo", ()), max_steps=3)
    assert log.status == "step_budget"
    assert len(log.steps) == 4


def test_navigate_with_no_step_budget_records_the_start_only():
    log = navigate(corridor(), Formation("solo", ()), max_steps=0)
    assert log.status == "step_budget"
    assert len(log.steps) == 1
    # a leader that starts on the goal has arrived before any step
    world = World(Rect(0, 0, 5, 1), (), Rect(0, 0, 1, 1), 1.0, ((0, sq(0.5, 0.5, 0.25)),))
    log = navigate(world, Formation("solo", ()), max_steps=0)
    assert log.status == "goal_reached"
    assert len(log.steps) == 1


def test_navigate_shipped_scene_reaches_goal():
    world = load_world("data/corridor_world.txt")
    formation = parse_formation(
        Path("data/cross.frm").read_text(encoding="utf-8"),
        robot_ids=[rid for rid, _ in world.robots],
    )
    log = navigate(world, formation)
    assert log.status == "goal_reached"
    assert log.steps[-1].entries[0].violations == 0
    # robots never touch an obstacle anywhere along the run
    for rec in log.steps:
        for e in rec.entries:
            for o in world.obstacles:
                assert overlap_area(e.rect, o) == 0


# --- the box evaluator against the Rect references -------------------------


def ref_check_formation(formation, poses):
    """The ``Rect``/``extent`` check that the coordinate evaluator replaces."""
    eps = 1e-9

    def pose(rid):
        try:
            return poses[rid]
        except KeyError:
            raise MereomlError(f"no pose for robot {rid}") from None

    def centroid_distance(a, b):
        (ax, ay), (bx, by) = a.center, b.center
        return math.hypot(ax - bx, ay - by)

    def check_one(c):
        if isinstance(c, Between):
            if not extent(pose(c.a), pose(c.b)).contains(pose(c.robot)):
                return f"robot {c.robot} outside extent of {c.a} and {c.b}"
            return None
        if isinstance(c, NotBetween):
            if extent(pose(c.a), pose(c.b)).contains(pose(c.robot)):
                return f"robot {c.robot} inside extent of {c.a} and {c.b}"
            return None
        inner_reason = check_one(c.inner)
        if inner_reason is not None:
            return inner_reason
        r = pose(c.robot)
        d = max(
            centroid_distance(r, pose(c.inner.a)),
            centroid_distance(r, pose(c.inner.b)),
        )
        if d > c.delta + eps:
            return f"robot {c.robot} at distance {d:.3f} > {c.delta}"
        return None

    out = []
    for i, c in enumerate(formation.constraints):
        reason = check_one(c)
        if reason is not None:
            out.append(Violation(i, c, reason))
    return out


def ref_navigate(world, formation, max_steps=1000):
    """The simulator loop that scored every follower move on a fresh dict of
    ``Rect``s with the whole formation."""
    eps = 1e-9
    follower_moves = (
        (0, 0), (0, 1), (0, -1), (-1, 0), (1, 0), (-1, 1), (1, 1), (-1, -1), (1, -1)
    )
    leader_moves = follower_moves[1:]
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

    def rect_at(rid, cell):
        cx, cy = field.center(*cell)
        hx, hy = half[rid]
        return Rect(cx - hx, cy - hy, cx + hx, cy + hy)

    rects = {rid: rect_at(rid, cells[rid]) for rid in ids}

    def record(step):
        violations = len(ref_check_formation(formation, rects))
        return StepRecord(
            step,
            tuple(
                LogEntry(rid, rects[rid], field.value(*cells[rid]), violations)
                for rid in ids
            ),
        )

    def arrived():
        return (
            overlap_area(rects[leader], world.goal) > 0
            and steps[-1].entries[0].violations == 0
        )

    def finish(status):
        return NavigationLog(status, tuple(steps), field)

    steps = [record(0)]
    if math.isinf(field.value(*cells[leader])):
        return finish("unreachable")
    if arrived():
        return finish("goal_reached")

    stall = 0
    for step in range(1, max_steps + 1):
        moved = False
        li, lj = cells[leader]
        best = field.value(li, lj)
        best_cell = None
        for di, dj in leader_moves:
            ci, cj = li + di, lj + dj
            if field.is_blocked(ci, cj):
                continue
            v = field.value(ci, cj)
            if v < best - eps:
                best, best_cell = v, (ci, cj)
        if best_cell is not None:
            cells[leader], rects[leader] = best_cell, rect_at(leader, best_cell)
            moved = True
        for rid in ids[1:]:
            ri, rj = cells[rid]
            choices = []
            for order, (di, dj) in enumerate(follower_moves):
                cell = (ri + di, rj + dj)
                if field.is_blocked(*cell):
                    continue
                rect = rect_at(rid, cell)
                bad = len(ref_check_formation(formation, {**rects, rid: rect}))
                choices.append((bad, field.value(*cell), order, cell, rect))
            if not choices:
                raise MereomlError(
                    f"robot {rid} is boxed in: its cell and all eight neighbours are blocked"
                )
            choices.sort()
            chosen, rect = choices[0][3:]
            if chosen != (ri, rj):
                moved = True
                cells[rid], rects[rid] = chosen, rect
        steps.append(record(step))
        stall = 0 if moved else stall + 1
        if stall >= 5:
            return finish("deadlock")
        if arrived():
            return finish("goal_reached")
    return finish("step_budget")


def outcome(run, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return run(*args)
    except MereomlError as err:
        return type(err), str(err)


def trajectory(run, *args):
    """A navigation's status and every logged entry, or its error."""
    log = outcome(run, *args)
    return (log.status, log.steps) if isinstance(log, NavigationLog) else log


def formations(ids, deltas):
    """Formations over ``ids`` mixing all three clause kinds."""
    rid = strat.sampled_from(sorted(ids))
    between = strat.builds(Between, rid, rid, rid)
    clause = strat.one_of(
        between,
        strat.builds(NotBetween, rid, rid, rid),
        strat.builds(MaxDist, strat.sampled_from(deltas), rid, between),
    )
    return strat.lists(clause, max_size=5).map(lambda cs: Formation("f", tuple(cs)))


# quarter-unit coordinates on a small range, so that edges and distances
# coincide often, some nudged by less and some by more than the checks' 1e-9
# slack, so that both their ties and their slack decide
NUDGES = strat.sampled_from((0.0, 0.0, 5e-10, -5e-10, 2e-9, -2e-9))


@strat.composite
def nudged_rects(draw):
    x1 = draw(strat.integers(-3, 3)) * 0.25 + draw(NUDGES)
    y1 = draw(strat.integers(-3, 3)) * 0.25 + draw(NUDGES)
    w = draw(strat.integers(1, 4)) * 0.25 + draw(NUDGES)
    h = draw(strat.integers(1, 4)) * 0.25 + draw(NUDGES)
    return Rect(x1, y1, x1 + w, y1 + h)


@strat.composite
def posed_formations(draw):
    """A formation over robots 0-4 and poses that may lack one of them."""
    formation = draw(formations(range(5), (0.25, 0.5, 0.75, 1.0, 1.25)))
    missing = draw(strat.sets(strat.integers(0, 4), max_size=1))
    poses = {rid: draw(nudged_rects()) for rid in range(5) if rid not in missing}
    return formation, poses


@hypothesis.settings(max_examples=300)
@hypothesis.given(posed_formations())
def test_check_formation_matches_the_rect_reference(case):
    formation, poses = case
    assert outcome(check_formation, formation, poses) == outcome(
        ref_check_formation, formation, poses
    )


@pytest.mark.parametrize("nudge", [-2e-9, -5e-10, 0.0, 5e-10, 2e-9])
def test_check_formation_matches_the_rect_reference_at_the_slack(nudge):
    # robot 0 touches one side of the extent of 1 and 2, give or take nudge
    a, b = Rect(0, 0, 1, 1), Rect(2, 0.5, 3, 2)
    inner = (0.5, 0.5, 2.5, 1.5)
    clauses = (Between(0, 1, 2), NotBetween(0, 1, 2))
    for side, edge in enumerate((0, 0, 3, 2)):
        z = list(inner)
        z[side] = edge + (nudge if side >= 2 else -nudge)
        poses = {0: Rect(*z), 1: a, 2: b}
        for c in clauses:
            formation = Formation("f", (c,))
            assert check_formation(formation, poses) == ref_check_formation(
                formation, poses
            )
    # robot 0 sits 1.25 from the centres of both 1 and 2; the bound is
    # 1.25 give or take nudge
    poses = {0: sq(0.75, 1.0, 0.25), 1: sq(0, 0, 0.25), 2: sq(1.5, 2.0, 0.25)}
    formation = Formation("f", (MaxDist(1.25 + nudge, 0, Between(0, 1, 2)),))
    assert check_formation(formation, poses) == ref_check_formation(formation, poses)


# a max-dist whose inner between fails, and a pose missing for a robot that
# only the max-dist part names
INNER_FAILS = (
    Formation("f", (MaxDist(0.25, 3, Between(0, 1, 2)),)),
    {0: sq(3, 3), 1: sq(0, 0), 2: sq(1, 1), 3: sq(0.5, 0.5)},
)
MISSING_POSE = (
    Formation("f", (MaxDist(0.25, 3, Between(0, 1, 2)), NotBetween(1, 0, 2))),
    {0: sq(0.5, 0.5), 1: sq(0, 0), 2: sq(1, 1)},
)


@hypothesis.settings(max_examples=200)
@hypothesis.given(posed_formations())
@hypothesis.example(INNER_FAILS)
@hypothesis.example(MISSING_POSE)
def test_navigate_verdicts_agree_with_check_formation(case):
    """The compiled test that navigate counts for each clause fails exactly
    where check_formation reports that clause, and a missing pose it trips
    on is the one check_formation names."""
    formation, poses = case
    boxes = {rid: (r.x1, r.y1, r.x2, r.y2) for rid, r in poses.items()}
    for c in formation.constraints:
        try:
            verdict = _compile(c)(boxes)
        except KeyError as missing:
            verdict = (MereomlError, f"no pose for robot {missing.args[0]}")
        checked = outcome(check_formation, Formation("f", (c,)), poses)
        assert verdict == (bool(checked) if isinstance(checked, list) else checked)


@strat.composite
def missions(draw):
    """Half-cell worlds with 1-5 robots clear of the obstacles, a formation
    with small distance bounds over them, and a step budget."""
    bare = draw(half_cell_worlds())
    b, cell = bare.bounds, bare.cell
    nx, ny = round(b.width / cell), round(b.height / cell)
    robots = []
    for rid in draw(strat.lists(strat.integers(0, 9), min_size=1, max_size=5, unique=True)):
        cx = b.x1 + (draw(strat.integers(0, nx - 1)) + 0.5) * cell
        cy = b.y1 + (draw(strat.integers(0, ny - 1)) + 0.5) * cell
        # some robots start off their cell's centre and get snapped to it
        cx += draw(strat.sampled_from((0.0, 0.25))) * cell
        hx, hy = (draw(strat.sampled_from((0.1, 0.2, 0.25, 0.4))) * cell for _ in "xy")
        r = Rect(cx - hx, cy - hy, cx + hx, cy + hy)
        if b.contains(r) and not any(overlap_area(r, o) > 0 for o in bare.obstacles):
            robots.append((rid, r))
    hypothesis.assume(robots)
    world = World(b, bare.obstacles, bare.goal, cell, tuple(sorted(robots)))
    deltas = tuple(k * cell for k in (0.25, 0.5, 1.0, 2.0))
    formation = draw(formations([rid for rid, _ in robots], deltas))
    return world, formation, draw(strat.integers(0, 40))


@hypothesis.settings(max_examples=200)
@hypothesis.given(missions())
def test_navigate_matches_the_rect_reference(mission):
    assert trajectory(navigate, *mission) == trajectory(ref_navigate, *mission)


def shelf_warehouse(jitter):
    """A 40 x 20 arena of 12 full-height shelf walls, one gap each, with the
    cross formation's five robots at the west end; gaps alternate between a
    low and a high band and move by ``jitter[k]`` cells."""
    lines = ["bounds 0 0 40 20", "cell 0.25"]
    for k, shift in enumerate(jitter):
        x = 3 + 3 * k
        bottom = (7.0 if k % 2 == 0 else 11.0) + shift * 0.25
        lines += [f"obstacle {x} 0 {x + 0.5} {bottom}", f"obstacle {x} {bottom + 2} {x + 0.5} 20"]
    lines.append("goal 38 9 39.5 11")
    for rid, (dx, dy) in enumerate(((0, 0), (-0.25, 0), (0.25, 0), (0, 0.25), (0, -0.25))):
        x, y = 1.375 + dx, 9.875 + dy
        lines.append(f"robot {rid} {x - 0.1:.3f} {y - 0.1:.3f} {x + 0.1:.3f} {y + 0.1:.3f}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "jitter", [(0,) * 12, (1, -1, 0, 1, -1, 0, 1, -1, 0, 1, -1, 0), (-1,) * 12]
)
def test_navigate_matches_the_rect_reference_in_a_shelf_warehouse(tmp_path, jitter):
    path = tmp_path / "w.txt"
    path.write_text(shelf_warehouse(jitter), encoding="utf-8")
    world = load_world(path)
    formation = parse_formation(Path("data/cross.frm").read_text(encoding="utf-8"))
    log = navigate(world, formation)
    assert log.status == "goal_reached"
    assert (log.status, log.steps) == trajectory(ref_navigate, world, formation)


def test_navigate_stops_counting_a_trial_once_it_cannot_win(monkeypatch, tmp_path):
    calls = [0]
    compile_clause = mereoml.geometry._compile

    def counting(c):
        test = compile_clause(c)

        def counted(boxes):
            calls[0] += 1
            return test(boxes)

        return counted

    monkeypatch.setattr(mereoml.geometry, "_compile", counting)
    path = tmp_path / "w.txt"
    path.write_text(shelf_warehouse((0,) * 12), encoding="utf-8")
    world = load_world(path)
    formation = parse_formation(Path("data/cross.frm").read_text(encoding="utf-8"))
    log = navigate(world, formation)
    assert (log.status, len(log.steps)) == ("goal_reached", 150)
    # 5,879 calls; scoring every clause of every allowed trial takes 13,204
    assert calls[0] < 7000


def test_navigate_breaks_a_tie_of_violations_and_potential_by_move_preference():
    # robot 1 violates its two clauses wherever it stands; the wall east of
    # it leaves moves (1, 1) and (1, -1) the lowest potential, and (1, 1)
    # comes first in move preference, though (1, -1) names the lower cell
    world = World(
        Rect(0, 0, 8, 5),
        (Rect(1, 2, 2, 3),),
        Rect(7, 0, 8, 5),
        1.0,
        ((0, sq(0.5, 4.5, 0.25)), (1, sq(0.5, 2.5, 0.25))),
    )
    formation = Formation("f", (NotBetween(1, 1, 1), NotBetween(1, 1, 1)))
    log = navigate(world, formation, 10)
    assert log.steps[1].entries[1].rect.center == (1.5, 3.5)
    assert all(rec.entries[1].violations == 2 for rec in log.steps)
    assert (log.status, log.steps) == trajectory(ref_navigate, world, formation, 10)


def test_walled_in_leader_on_the_goal_stays_put_as_in_the_reference():
    # eight obstacle cells ring the goal cell where leader 0 stands, and
    # follower 1 can never lie inside the leader; staying is the leader's
    # only move, so it is not boxed in, and the mission stalls out
    ring = tuple(
        Rect(x, y, x + 1, y + 1) for x in (1, 2, 3) for y in (1, 2, 3) if (x, y) != (2, 2)
    )
    world = World(
        Rect(0, 0, 7, 5),
        ring,
        Rect(2, 2, 3, 3),
        1.0,
        ((0, sq(2.5, 2.5, 0.25)), (1, sq(5.5, 2.5, 0.25))),
    )
    formation = Formation("f", (Between(1, 0, 0),))
    log = navigate(world, formation)
    assert (log.status, len(log.steps)) == ("deadlock", 6)
    assert all(rec.entries[0].rect.center == (2.5, 2.5) for rec in log.steps)
    assert (log.status, log.steps) == trajectory(ref_navigate, world, formation)


def test_leader_breaks_a_tie_of_potential_by_move_preference():
    # the wall east of leader 0 leaves moves (1, 1) and (1, -1) the lowest
    # potential, and (1, 1) comes first in move preference, though (1, -1)
    # names the lower cell
    world = World(
        Rect(0, 0, 8, 5), (Rect(1, 2, 2, 3),), Rect(7, 0, 8, 5), 1.0, ((0, sq(0.5, 2.5, 0.25)),)
    )
    log = navigate(world, Formation("solo", ()))
    assert log.steps[1].entries[0].rect.center == (1.5, 3.5)
    assert (log.status, log.steps) == trajectory(ref_navigate, world, Formation("solo", ()))


def test_simulator_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which raises the peak
    # memory of every process that runs the simulator
    script = (
        "import sys; from pathlib import Path; import mereoml as m; "
        "w = m.load_world('data/corridor_world.txt'); m.build_potential(w, 0.1); "
        "m.navigate(w, m.parse_formation(Path('data/cross.frm').read_text())); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(mereoml.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert fresh.stdout == "False\n"


# the cross, but each max-dist bounds a follower its between clause does
# not name, so those followers must weigh clauses they appear in only once
OUTER_CROSS = (
    "(outer (set"
    " (max-dist 0.4 roomba 3 (between roomba 0 roomba 1 roomba 2))"
    " (max-dist 0.4 roomba 4 (between roomba 0 roomba 1 roomba 2))"
    " (not-between roomba 3 roomba 1 roomba 2)"
    " (not-between roomba 4 roomba 1 roomba 2)))"
)


@pytest.mark.parametrize(
    "script", [Path("data/cross.frm").read_text(encoding="utf-8"), OUTER_CROSS]
)
def test_navigate_matches_the_rect_reference_on_the_shipped_scene(script):
    world = load_world("data/corridor_world.txt")
    formation = parse_formation(script)
    for steps in (1000, 7, 2, 0):
        assert trajectory(navigate, world, formation, steps) == trajectory(
            ref_navigate, world, formation, steps
        )


def test_boxed_in_follower_fails_as_in_the_reference():
    # leader 0 inflates the two walls around robot 1 by 1, blocking columns 4-6
    world = World(
        Rect(0, 0, 10, 10),
        (Rect(4.8, 0, 5, 10), Rect(6, 0, 6.2, 10)),
        Rect(1, 7, 3, 9),
        1.0,
        ((0, Rect(1, 1, 3, 3)), (1, sq(5.5, 5.5, 0.1)), (2, sq(1.5, 4.5, 0.1))),
    )
    formation = Formation("f", (Between(0, 1, 2),))
    expected = (MereomlError, "robot 1 is boxed in: its cell and all eight neighbours are blocked")
    assert trajectory(ref_navigate, world, formation) == expected
    assert trajectory(navigate, world, formation) == expected


# --- trajectory exports ----------------------------------------------------


def test_write_trajectory_csv(tmp_path):
    log = navigate(corridor(), Formation("solo", ()))
    out = tmp_path / "t.csv"
    write_trajectory_csv(log, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,robot,x1,y1,x2,y2,potential,violations"
    assert len(lines) == 1 + len(log.steps)
    assert lines[1] == "0,0,0.2500,0.2500,0.7500,0.7500,4,0"


def test_write_trajectory_svg(tmp_path):
    world = corridor()
    log = navigate(world, Formation("solo", ()))
    out = tmp_path / "t.svg"
    write_trajectory_svg(log, world, out)
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert text.count("<polyline") == 1
    assert "#3c3" in text
