"""Granules, irreducible coverings, mirror tables, the CV decider."""

import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from statistics import fmean

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

from mereoml import (
    ArchimedeanInclusion,
    Covering,
    DecisionSystem,
    DeciderReport,
    FoldError,
    GranularReflection,
    Granule,
    InformationSystem,
    LukasiewiczInclusion,
    MereomlError,
    NuMode,
    ParameterError,
    RaggedRow,
    ResidualInclusion,
    RoughInclusion,
    all_granules,
    classify,
    classify_many,
    discretize,
    extension,
    granular_mirror,
    granule,
    ind_fraction,
    irreducible_covering,
    is_true_at,
    is_valid,
    majority_value,
    make_inclusion,
    parse_formula,
    radius_grid,
    run_decider,
    stratified_folds,
)
from mereoml import granulation
from mereoml.bits import MemberView, member_bits
from mereoml.granulation import RadiusResult
from strategies import decision_tables, granules_for, tables


def test_radius_grid():
    assert radius_grid(4) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
    )
    assert radius_grid(1) == (Fraction(1),)
    with pytest.raises(ValueError):
        radius_grid(0)


def test_parameter_errors_are_package_errors():
    table = InformationSystem(("v",), (("1",),))
    for call in (lambda: radius_grid(0), lambda: discretize(table, ["v"], 0)):
        with pytest.raises(ParameterError) as info:
            call()
        assert isinstance(info.value, MereomlError)
        assert isinstance(info.value, ValueError)


def test_make_inclusion():
    table = InformationSystem(("a",), (("1",),))
    assert isinstance(make_inclusion("lukasiewicz", table), LukasiewiczInclusion)
    with pytest.raises(MereomlError):
        make_inclusion("cosine", table)


T = InformationSystem(("f", "g"), (("1", "0"), ("1", "1"), ("0", "1")))


def test_granule_example():
    inc = LukasiewiczInclusion(T)
    g = granule(0, Fraction(1, 2), inc)
    assert g.members == frozenset({0, 1})
    assert g.center == 0
    assert g.radius == Fraction(1, 2)
    assert granule(0, 1, inc).members == frozenset({0})
    assert granule(0, 0, inc).members == frozenset({0, 1, 2})


def test_granule_requires_symmetric_inclusion():
    with pytest.raises(MereomlError):
        granule(0.5, 0.5, ResidualInclusion())


class _PlainInclusion(RoughInclusion):
    """Symmetric inclusion over a table's objects, with a degree but no membership bound."""

    symmetric = True

    def __init__(self, system):
        self.system = system

    def degree(self, x, y):
        return ind_fraction(x, y, self.system)


@pytest.mark.parametrize(
    "build",
    [lambda inc: granule(0, 0.5, inc), lambda inc: all_granules(0.5, inc)],
    ids=["granule", "all_granules"],
)
def test_granules_need_an_inclusion_over_a_table(build):
    for inclusion in ArchimedeanInclusion(), _PlainInclusion(T):
        with pytest.raises(MereomlError, match="^granules need an inclusion over a table's objects$"):
            build(inclusion)


def test_granule_radius_bounds():
    inc = LukasiewiczInclusion(T)
    with pytest.raises(MereomlError):
        granule(0, Fraction(3, 2), inc)
    with pytest.raises(MereomlError):
        granule(0, -0.1, inc)


def test_all_granules_in_object_order():
    inc = LukasiewiczInclusion(T)
    gs = all_granules(Fraction(1, 2), inc)
    assert [g.center for g in gs] == [0, 1, 2]
    assert gs[1].members == frozenset({0, 1, 2})


@hypothesis.given(tables(max_objects=10), strat.data())
def test_granule_shrinks_as_radius_grows(table, data):
    inc = LukasiewiczInclusion(table)
    m = len(table.features)
    x = data.draw(strat.sampled_from(range(len(table.rows))))
    grid = (Fraction(0),) + radius_grid(m)
    members = [granule(x, r, inc).members for r in grid]
    for smaller, larger in zip(members[1:], members):
        assert smaller <= larger
        assert x in smaller


@hypothesis.given(tables(max_objects=8), strat.data())
def test_granule_membership_is_mutual(table, data):
    inc = LukasiewiczInclusion(table)
    objs = range(len(table.rows))
    x = data.draw(strat.sampled_from(objs))
    y = data.draw(strat.sampled_from(objs))
    r = data.draw(strat.sampled_from(radius_grid(len(table.features))))
    assert (y in granule(x, r, inc).members) == (x in granule(y, r, inc).members)


@hypothesis.given(tables(max_objects=8), strat.data())
def test_neighbor_granules_stay_within_relaxed_radius(table, data):
    """y near x forces g(y, s) inside g(x, max(0, r+s-1))."""
    inc = LukasiewiczInclusion(table)
    m = len(table.features)
    x = data.draw(strat.sampled_from(range(len(table.rows))))
    r = data.draw(strat.sampled_from(radius_grid(m)))
    s = data.draw(strat.sampled_from(radius_grid(m)))
    relaxed = max(Fraction(0), r + s - 1)
    outer = granule(x, relaxed, inc).members
    for y in granule(x, r, inc).members:
        assert granule(y, s, inc).members <= outer


def g(center, members, r=Fraction(1, 2)):
    return Granule(center, r, frozenset(members))


def test_irreducible_covering_example():
    universe = frozenset({1, 2, 3})
    cov = irreducible_covering([g(1, {1, 2}), g(2, {2, 3}), g(3, {1, 2, 3})], universe)
    assert [gr.members for gr in cov.granules] == [frozenset({1, 2, 3})]


def test_irreducible_covering_drops_absorbed_early_picks():
    # the two large granules absorb {2}, which the greedy pass took first
    universe = frozenset({1, 2, 3, 4, 5})
    picked = irreducible_covering(
        [g(2, {2}), g(1, {1, 2, 3}), g(4, {2, 4, 5})], universe
    )
    assert [gr.center for gr in picked.granules] == [1, 4]


def test_irreducible_covering_keeps_picks_while_a_stray_is_kept():
    # {0, 1, 8, 9} reaches outside the universe: {0, 1, 2}, covered by the
    # other two, must stay until the stray is dropped, which it then is
    universe = frozenset({0, 1, 2, 3})
    family = [g(0, {0, 1, 8, 9}), g(1, {0, 1, 2}), g(2, {1, 2, 3})]
    cov = irreducible_covering(family, universe)
    assert [gr.center for gr in cov.granules] == [1, 2]
    assert cov == ref_irreducible_covering(family, universe)


def test_irreducible_covering_sorted_and_deterministic():
    universe = frozenset({0, 1, 2, 3})
    fam = [g(3, {2, 3}), g(0, {0, 1}), g(1, {1, 2})]
    cov = irreducible_covering(fam, universe)
    assert [gr.center for gr in cov.granules] == [0, 3]
    assert irreducible_covering(list(reversed(fam)), universe) == cov


def test_irreducible_covering_failure():
    with pytest.raises(MereomlError, match=r"\[4\]"):
        irreducible_covering([g(0, {0, 1})], frozenset({0, 1, 4}))


def test_covering_validates_exact_cover():
    with pytest.raises(MereomlError):
        Covering((g(0, {0}),), frozenset({0, 1}))
    with pytest.raises(MereomlError):
        Covering((g(0, {0, 9}),), frozenset({0}))


@hypothesis.given(tables(max_objects=12), strat.data())
def test_irreducible_covering_properties(table, data):
    inc = LukasiewiczInclusion(table)
    r = data.draw(strat.sampled_from(radius_grid(len(table.features))))
    universe = frozenset(table.objects)
    cov = irreducible_covering(all_granules(r, inc), universe)
    union = frozenset().union(*(gr.members for gr in cov.granules))
    assert union == universe
    centers = [gr.center for gr in cov.granules]
    assert centers == sorted(centers)
    # no granule is redundant
    if len(cov.granules) > 1:
        for i in range(len(cov.granules)):
            rest = cov.granules[:i] + cov.granules[i + 1 :]
            assert frozenset().union(*(gr.members for gr in rest)) != universe


def test_majority_value():
    assert majority_value(["a", "b", "a"]) == "a"
    assert majority_value(["b", "a"]) == "a"
    assert majority_value(["z"]) == "z"
    with pytest.raises(MereomlError):
        majority_value([])


MIRROR_SYSTEM = DecisionSystem(
    InformationSystem(
        ("a", "b"),
        (("1", "0"), ("1", "1"), ("0", "1"), ("0", "0")),
    ),
    "d",
    ("y", "y", "n", "y"),
)


def _mirror():
    universe = frozenset({0, 1, 2, 3})
    cov = Covering(
        (g(0, {0, 1, 3}), g(2, {1, 2})),
        universe,
    )
    return granular_mirror(cov, MIRROR_SYSTEM)


def test_granular_mirror_votes():
    mirror = _mirror()
    assert mirror.rows == (("1", "0"), ("0", "1"))
    assert mirror.decisions == ("y", "n")
    assert mirror.features == ("a", "b")


def test_a_mirror_built_by_hand_needs_one_decision_per_row():
    # rows and decisions are encoded together, so neither may be dropped
    mirror = _mirror()
    with pytest.raises(ValueError):
        GranularReflection(mirror.covering, mirror.features, mirror.rows, mirror.decisions[:1])


@pytest.mark.parametrize(
    "rows,message",
    [
        ((("x", "q"), ("y", "p")), "row 0 has 2 cells, expected 1"),
        ((("x",), ()), "row 1 has 0 cells, expected 1"),
    ],
)
def test_a_mirror_built_by_hand_needs_rows_as_wide_as_its_features(rows, message):
    # a wider row's extra cell would be coded as the decision column, and a
    # narrower row has no cell to code
    mirror = _mirror()
    with pytest.raises(RaggedRow, match=message):
        GranularReflection(mirror.covering, ("a",), rows, ("p", "q"))


def test_granular_mirror_rejects_objects_outside_the_table():
    # the table has 4 rows: a stray at the row count, in the last byte, past it
    for stray in (4, 7, 12):
        members = {0, 1, 2, 3, stray}
        cov = Covering((g(0, members),), frozenset(members))
        with pytest.raises(MereomlError, match="outside"):
            granular_mirror(cov, MIRROR_SYSTEM)


def test_classify_nearest_row():
    mirror = _mirror()
    assert classify(mirror, ("1", "0")) == "y"
    assert classify(mirror, ("0", "1")) == "n"
    with pytest.raises(MereomlError):
        classify(mirror, ("1",))


def test_classify_tie_falls_back_to_row_order():
    # ("1","1") agrees once with each mirror row; the decision vote ties
    # too, so the earlier row wins
    mirror = _mirror()
    assert classify(mirror, ("1", "1")) == "y"


def test_classify_tie_majority_vote():
    universe = frozenset({0, 1, 2, 3})
    system = DecisionSystem(
        InformationSystem(
            ("a", "b"),
            (("1", "0"), ("0", "1"), ("1", "0"), ("0", "1")),
        ),
        "d",
        ("n", "y", "y", "y"),
    )
    cov = Covering(
        (g(0, {0}), g(1, {1}), g(2, {2}), g(3, {3})),
        universe,
    )
    mirror = granular_mirror(cov, system)
    # ("1","1") ties across all four rows; majority of decisions is y even
    # though the lowest-index row says n
    assert classify(mirror, ("1", "1")) == "y"


@hypothesis.given(decision_tables(max_objects=10), strat.data())
def test_classify_many_matches_classify(system, data):
    inc = LukasiewiczInclusion(system)
    r = data.draw(strat.sampled_from(radius_grid(len(system.features))))
    cov = irreducible_covering(all_granules(r, inc), frozenset(system.objects))
    mirror = granular_mirror(cov, system)
    rows = list(system.system.rows)
    assert classify_many(mirror, rows) == [classify(mirror, row) for row in rows]
    assert classify_many(mirror, []) == []


def test_stratified_folds_partition_and_balance():
    decisions = ["y"] * 7 + ["n"] * 5
    folds = stratified_folds(decisions, 3, seed=11)
    ids = sorted(i for fold in folds for i in fold)
    assert ids == list(range(12))
    for value, count in (("y", 7), ("n", 5)):
        per_fold = [sum(decisions[i] == value for i in fold) for fold in folds]
        assert sum(per_fold) == count
        assert max(per_fold) - min(per_fold) <= 1
    assert stratified_folds(decisions, 3, seed=11) == folds


def test_stratified_folds_validation():
    with pytest.raises(MereomlError):
        stratified_folds(["y", "n"], 1, seed=0)


def test_run_decider_constant_table():
    """All rows identical: the pooled accuracy is the majority share."""
    base = InformationSystem(("c",), tuple(("x",) for _ in range(10)))
    system = DecisionSystem(base, "d", ("yes",) * 7 + ("no",) * 3)
    report = run_decider(system, folds=2, seed=3)
    assert len(report.per_radius) == 1
    rr = report.per_radius[0]
    assert rr.radius == 1
    assert rr.accuracy == pytest.approx(0.7)
    assert rr.coverage == 1.0
    assert rr.granules == 1.0
    assert rr.reduction == pytest.approx(0.2)
    assert report.best_radius == 1


def test_run_decider_tie_prefers_smaller_radius():
    base = InformationSystem(("c", "e"), tuple(("x", "z") for _ in range(8)))
    system = DecisionSystem(base, "d", ("yes",) * 6 + ("no",) * 2)
    report = run_decider(system, folds=2, seed=0)
    accs = [rr.accuracy for rr in report.per_radius]
    assert accs[0] == accs[1]
    assert report.best_radius == Fraction(1, 2)


def test_run_decider_explicit_radii_and_exp():
    base = InformationSystem(
        ("f", "g"),
        (("1", "0"), ("1", "1"), ("0", "1"), ("0", "0"), ("1", "0"), ("0", "1")),
    )
    system = DecisionSystem(base, "d", ("y", "y", "n", "n", "y", "n"))
    report = run_decider(system, folds=2, seed=1, radii=[0.3, 0.9], inclusion="exp")
    assert [rr.radius for rr in report.per_radius] == [0.3, 0.9]
    for rr in report.per_radius:
        assert 0 <= rr.accuracy <= 1
        assert rr.coverage == 1.0
        assert 0 < rr.reduction <= 1


def test_run_decider_empty_training_fold():
    base = InformationSystem(("c",), (("x",),))
    system = DecisionSystem(base, "d", ("y",))
    with pytest.raises(FoldError):
        run_decider(system, folds=2, seed=0)


def test_run_decider_checks_every_fold_before_granule_work(monkeypatch):
    # every object in the last fold: only that fold leaves no training objects
    def no_granules(*args):
        raise AssertionError("granule work before every fold was checked")

    monkeypatch.setattr(granulation, "stratified_folds", lambda d, k, seed: [[], [], [0, 1, 2]])
    monkeypatch.setattr(granulation, "all_granules", no_granules)
    system = DecisionSystem(InformationSystem(("c",), (("x",), ("y",), ("x",))), "d", tuple("yny"))
    with pytest.raises(FoldError, match="fold 2"):
        run_decider(system, folds=3, seed=0)


def test_run_decider_rejects_no_radii_before_fold_work(monkeypatch):
    def no_folds(*args):
        raise AssertionError("fold work before the radii were checked")

    monkeypatch.setattr(granulation, "stratified_folds", no_folds)
    with pytest.raises(ParameterError, match="radius"):
        run_decider(_credit_shaped(1, 20, m=3), radii=[])


def test_run_decider_deterministic():
    base = InformationSystem(
        ("f", "g"),
        tuple((str(i % 2), str(i % 3)) for i in range(9)),
    )
    system = DecisionSystem(base, "d", tuple("ynyynynyy"))
    a = run_decider(system, folds=3, seed=42)
    b = run_decider(system, folds=3, seed=42)
    assert a == b


# --- the set- and Counter-based decider, kept as the reference --------------


def ref_all_granules(r, inclusion):
    """One granule per object, each from its own membership mask."""
    out = []
    for x in inclusion.system.objects:
        mask = inclusion.membership_mask(x, r)
        out.append(Granule(x, r, frozenset(int(i) for i in np.nonzero(mask)[0])))
    return tuple(out)


def ref_irreducible_covering(granules, universe):
    order = sorted(granules, key=lambda g: (-len(g.members), g.center))
    chosen = []
    uncovered = set(universe)
    for g in order:
        if not uncovered:
            break
        if g.members & uncovered:
            chosen.append(g)
            uncovered -= g.members
    if uncovered:
        raise MereomlError(f"granules cannot cover objects {sorted(uncovered)}")
    for g in reversed(chosen.copy()):
        rest = [h for h in chosen if h is not g]
        if rest and frozenset().union(*(h.members for h in rest)) == universe:
            chosen.remove(g)
    chosen.sort(key=lambda g: g.center)
    return Covering(tuple(chosen), universe)


def ref_granular_mirror(covering, system):
    table = system.system
    rows = []
    decisions = []
    for g in covering.granules:
        members = sorted(g.members)
        rows.append(
            tuple(
                majority_value([table.rows[x][j] for x in members])
                for j in range(len(table.features))
            )
        )
        decisions.append(majority_value([system.decisions[x] for x in members]))
    return GranularReflection(covering, table.features, tuple(rows), tuple(decisions))


def ref_vote_nearest(tied, decisions):
    if len(tied) == 1:
        return decisions[tied[0]]
    counts = Counter(decisions[i] for i in tied)
    top = max(counts.values())
    leaders = {v for v, c in counts.items() if c == top}
    for i in tied:
        if decisions[i] in leaders:
            return decisions[i]
    raise AssertionError("unreachable: some tied row carries a leading decision")


def ref_classify_many(reflection, test_rows):
    out = []
    for row in test_rows:
        agreements = [sum(a == b for a, b in zip(row, mrow)) for mrow in reflection.rows]
        best = max(agreements)
        tied = [i for i, a in enumerate(agreements) if a == best]
        out.append(ref_vote_nearest(tied, reflection.decisions))
    return out


def ref_run_decider(system, folds, seed, inclusion):
    m = len(system.features)
    fold_ids = stratified_folds(system.decisions, folds, seed)
    contexts = []
    for f in range(folds):
        train_ids = sorted(i for g in range(folds) if g != f for i in fold_ids[g])
        train = system.subset(train_ids)
        contexts.append((train, make_inclusion(inclusion, train), fold_ids[f]))
    per_radius = []
    for r in radius_grid(m):
        correct = total = 0
        counts = []
        reductions = []
        for train, incl, test_ids in contexts:
            covering = ref_irreducible_covering(
                ref_all_granules(r, incl), frozenset(train.objects)
            )
            mirror = ref_granular_mirror(covering, train)
            predicted = ref_classify_many(
                mirror, [system.system.rows[i] for i in test_ids]
            )
            correct += sum(p == system.decisions[i] for p, i in zip(predicted, test_ids))
            total += len(test_ids)
            counts.append(len(covering.granules))
            reductions.append(len(covering.granules) / len(train.system.rows))
        per_radius.append(
            RadiusResult(r, correct / total, 1.0, fmean(counts), fmean(reductions))
        )
    best = max(per_radius, key=lambda rr: (rr.accuracy, -rr.radius))
    return DeciderReport(tuple(per_radius), best.radius)


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except MereomlError as e:
        return type(e), str(e)


@hypothesis.given(decision_tables(max_objects=12))
def test_decider_stages_match_reference_at_every_radius(system):
    universe = frozenset(system.objects)
    # the system's own rows, plus one with tokens the mirror has never seen
    rows = list(system.system.rows) + [("9",) * len(system.features)]
    for r in (Fraction(0),) + radius_grid(len(system.features)):
        inc = LukasiewiczInclusion(system)
        granules = all_granules(r, inc)
        assert granules == ref_all_granules(r, inc)
        covering = irreducible_covering(granules, universe)
        assert covering == ref_irreducible_covering(granules, universe)
        mirror = granular_mirror(covering, system)
        assert mirror == ref_granular_mirror(covering, system)
        assert classify_many(mirror, rows) == ref_classify_many(mirror, rows)
        # a mirror built by hand encodes its own rows and decisions alike
        by_hand = ref_granular_mirror(covering, system)
        assert classify_many(by_hand, rows) == classify_many(mirror, rows)


@pytest.mark.parametrize("kind", ["lukasiewicz", "exp"])
def test_granular_mirror_of_an_empty_covering_is_empty(kind):
    # a header-only table: no objects, so no granules and an empty covering
    system = DecisionSystem(InformationSystem(("a", "b"), ()), "d", ())
    covering = irreducible_covering(
        all_granules(Fraction(1, 2), make_inclusion(kind, system)), frozenset()
    )
    assert covering.granules == ()
    mirror = granular_mirror(covering, system)
    assert mirror == ref_granular_mirror(covering, system)
    assert mirror.rows == () and mirror.decisions == ()


def test_classifying_against_an_empty_mirror_names_it():
    system = DecisionSystem(InformationSystem(("a", "b"), ()), "d", ())
    mirror = granular_mirror(Covering((), frozenset()), system)
    assert classify_many(mirror, []) == []
    with pytest.raises(MereomlError, match="mirror has no rows"):
        classify_many(mirror, [("1", "0")])
    with pytest.raises(MereomlError, match="mirror has no rows"):
        classify(mirror, ("1", "0"))


@hypothesis.given(decision_tables(max_objects=8), strat.data())
def test_irreducible_covering_matches_reference_on_any_family(system, data):
    objects = list(system.objects)
    # a few members beyond the universe, so some families reach outside it
    wider = DecisionSystem(
        InformationSystem(
            system.features, system.system.rows + system.system.rows[:2]
        ),
        system.decision,
        system.decisions + system.decisions[:2],
    )
    family = data.draw(strat.lists(granules_for(wider), max_size=6))
    granules = [Granule(c, Fraction(1, 2), m) for c, m in enumerate(family)]
    universe = frozenset(data.draw(strat.sets(strat.sampled_from(objects))))
    assert _outcome(irreducible_covering, granules, universe) == _outcome(
        ref_irreducible_covering, granules, universe
    )


def _credit_shaped(seed, n=138, m=14, tokens=5):
    """A seeded table whose decision follows its first three columns."""
    rng = random.Random(seed)
    features = tuple(f"a{j}" for j in range(m))
    rows = tuple(
        tuple(str(rng.randrange(tokens)) for _ in features) for _ in range(n)
    )
    decisions = tuple(
        "+" if sum(int(v) for v in row[:3]) + rng.randrange(3) > 7 else "-"
        for row in rows
    )
    return DecisionSystem(InformationSystem(features, rows), "class", decisions)


@pytest.mark.parametrize("inclusion", ["lukasiewicz", "exp"])
def test_run_decider_matches_reference_on_a_seeded_table(inclusion):
    system = _credit_shaped(7)
    report = run_decider(system, folds=5, seed=3, inclusion=inclusion)
    assert len(report.per_radius) == 14
    assert report == ref_run_decider(system, 5, 3, inclusion)


# --- bit rows: word boundaries, the member view, memory -----------------------


def _radii(kind, m):
    """Every threshold that separates granules under the given inclusion."""
    if kind == "lukasiewicz":
        return (Fraction(0),) + radius_grid(m)
    # with unit weights a pair differing on k features has degree exp(-k^2)
    return tuple(math.exp(-k * k) for k in range(m, -1, -1))


@pytest.mark.parametrize("kind", ["lukasiewicz", "exp"])
@pytest.mark.parametrize("n", [63, 64, 65, 129, 300])
def test_decider_stages_match_reference_across_word_boundaries(n, kind):
    system = _credit_shaped(n, n, m=6, tokens=4)
    universe = frozenset(system.objects)
    rows = list(system.system.rows) + [("9",) * len(system.features)]
    inc = make_inclusion(kind, system)
    for r in _radii(kind, len(system.features)):
        granules = all_granules(r, inc)
        assert granules == ref_all_granules(r, inc)
        covering = irreducible_covering(granules, universe)
        assert covering == ref_irreducible_covering(granules, universe)
        mirror = granular_mirror(covering, system)
        assert mirror == ref_granular_mirror(covering, system)
        assert classify_many(mirror, rows) == ref_classify_many(mirror, rows)


_IDS = strat.integers(0, 140)


@hypothesis.given(strat.frozensets(_IDS), strat.frozensets(_IDS), strat.sets(_IDS))
def test_member_view_behaves_as_its_frozenset(s, t, mutable):
    v = MemberView(member_bits(s))
    w = MemberView(member_bits(t))
    assert v == s and s == v and not v != s and hash(v) == hash(s)
    assert (v == w) == (s == t) and (v == t) == (s == t)
    assert len(v) == len(s) and bool(v) == bool(s)
    assert sorted(v) == sorted(s) and frozenset(v) == s
    for x in [-1, 0, 63, 64, 65, 140, 1.0, True, "a"]:
        assert (x in v) == (x in s)
    ops = (
        operator.le, operator.lt, operator.ge, operator.gt,
        operator.and_, operator.or_, operator.sub, operator.xor,
    )
    for other, plain in ((t, t), (w, t), (mutable, mutable)):
        for op in ops:
            assert op(v, other) == op(s, plain)
            assert op(other, v) == op(plain, s)
            assert type(op(v, other)) is type(op(s, plain))
            assert type(op(other, v)) is type(op(plain, s))
    # a list is no set: the operators that the view keeps reject it, as
    # the comparisons that the Set mixin gives do
    for op in ops:
        for left, right in ((v, sorted(t)), (sorted(t), v)):
            with pytest.raises(TypeError):
                op(left, right)
    assert v.isdisjoint(t) == s.isdisjoint(t)
    g = Granule(3, Fraction(1, 2), v)
    h = Granule(3, Fraction(1, 2), s)
    assert g == h and h == g and hash(g) == hash(h)


@pytest.mark.parametrize("kind", sorted(granulation.INCLUSION_KINDS))
def test_granule_holds_a_view_of_its_mask(kind):
    inc = make_inclusion(kind, _credit_shaped(1, 70, m=6, tokens=4))
    for center in (0, 37, 69):
        g = granule(center, Fraction(1, 2), inc)
        mask = inc.membership_mask(center, Fraction(1, 2))
        assert isinstance(g.members, MemberView)
        assert g.members == frozenset(np.flatnonzero(mask).tolist())
        assert g == all_granules(Fraction(1, 2), inc)[center]


def test_granules_of_a_matrix_hold_views():
    system = _credit_shaped(1, 70, m=6, tokens=4)
    for g in all_granules(Fraction(1, 2), LukasiewiczInclusion(system)):
        assert isinstance(g.members, MemberView)
        assert member_bits(g.members) == sum(1 << x for x in g.members)


def test_logic_reads_views_as_sets():
    system = _credit_shaped(2, 70, m=6, tokens=4)
    inc = LukasiewiczInclusion(system)
    granules = all_granules(Fraction(2, 3), inc)
    plain = [frozenset(g.members) for g in granules]
    formula = parse_formula("a0=1 -> a1=2", system)
    for g, s in zip(granules, plain):
        for mode in NuMode:
            assert extension(g.members, formula, system, mode) == extension(s, formula, system, mode)
        assert is_true_at(g.members, formula, system) == is_true_at(s, formula, system)
    views = [g.members for g in granules[:9]]
    assert is_valid(views, formula, system) == is_valid(plain[:9], formula, system)
    assert is_valid(iter(views), formula, system) == is_valid(plain[:9], formula, system)


def _peak(fn, *args):
    """Tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_granular_mirror_memory_on_all_distinct_columns():
    # every column has n distinct tokens, and at radius 1 every granule is a
    # singleton: the widest vocabularies and the largest covering at once
    n, m = 600, 14
    rows = tuple(tuple(f"{j}:{i}" for j in range(m)) for i in range(n))
    system = DecisionSystem(
        InformationSystem(tuple(f"a{j}" for j in range(m)), rows),
        "d",
        tuple("+-"[i % 2] for i in range(n)),
    )
    covering = irreducible_covering(
        all_granules(Fraction(1), LukasiewiczInclusion(system)), frozenset(system.objects)
    )
    assert len(covering.granules) == n
    system.encoded
    assert _peak(granular_mirror, covering, system) < 16 * n * n


def test_run_decider_memory_on_a_credit_sized_table():
    system = _credit_shaped(1, 690)
    assert _peak(run_decider, system, 5, 0) < 12 * 2**20


@pytest.mark.parametrize("kind", ["lukasiewicz", "exp"])
def test_all_granules_memory_beside_the_counts(kind):
    # the rows are packed block by block: no objects x objects boolean
    n = 2000
    inc = make_inclusion(kind, _credit_shaped(1, n))
    inc.dis_counts
    assert _peak(all_granules, Fraction(1, 7), inc) < n * n / 2


def test_run_decider_holds_one_fold_at_a_time():
    # five folds' count matrices alone would take 5 * (4n/5)^2 = 3.2 n^2 bytes
    n = 2000
    system = _credit_shaped(1, n)
    assert _peak(run_decider, system, 5, 0, [Fraction(1, 2)]) < 2 * n * n
