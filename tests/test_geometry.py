"""Rectangle similarity, formations, potential fields, navigation."""

import math
from collections import deque
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

from mereoml import (
    Between,
    Formation,
    FormationParseError,
    MaxDist,
    MereomlError,
    NotBetween,
    Rect,
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
    ],
)
def test_load_world_errors(tmp_path, text, fragment):
    path = tmp_path / "w.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MereomlError, match=fragment):
        load_world(path)


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
