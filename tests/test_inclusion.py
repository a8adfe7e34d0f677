"""Graded containment: scalar forms, table forms, composition bound."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

import mereoml
from mereoml import (
    ArchimedeanInclusion,
    Carrier,
    DegreeUnderflow,
    EMPTY,
    ExponentialInclusion,
    FeatureWeights,
    InformationSystem,
    LukasiewiczInclusion,
    MereomlError,
    ResidualInclusion,
    UnknownObject,
    WeightFn,
    WeightRatioInclusion,
    all_granules,
    complement,
    exp_compose,
    exp_row_degree,
    fuzzy_similarity,
    granule,
    ind_fraction,
    load_csv,
    lukasiewicz_h,
    lukasiewicz_row_degree,
    radius_grid,
    residuum_lukasiewicz,
    rs_star_archimedean,
    rs_star_exp,
    rs_star_is,
    rs_star_residual,
    rs_star_weight,
    t_lukasiewicz,
)
from strategies import tables

ABCD = Carrier(("a", "b", "c", "d"))
UNIT = strat.floats(0, 1, allow_nan=False)


# --- scalar forms ----------------------------------------------------------


def test_tnorm_values():
    assert t_lukasiewicz(0.7, 0.5) == pytest.approx(0.2)
    assert t_lukasiewicz(0.3, 0.4) == 0
    assert t_lukasiewicz(1, 1) == 1
    assert t_lukasiewicz(Fraction(3, 4), Fraction(1, 2)) == Fraction(1, 4)


def test_residuum_values():
    assert residuum_lukasiewicz(0.9, 0.3) == pytest.approx(0.4)
    assert residuum_lukasiewicz(0.3, 0.9) == 1
    assert residuum_lukasiewicz(1, 0) == 0
    assert rs_star_residual(0.9, 0.3) == pytest.approx(0.4)


@hypothesis.given(UNIT, UNIT)
def test_residuum_adjointness(a, b):
    # r <= (a => b)  iff  t(a, r) <= b; floats only support the bound side,
    # since 1 - a rounds to 1.0 for tiny positive a
    res = residuum_lukasiewicz(a, b)
    assert t_lukasiewicz(a, res) <= b + 1e-12
    if res < 1:
        assert t_lukasiewicz(a, min(1.0, res + 1e-6)) >= b - 1e-12


@hypothesis.given(
    strat.fractions(min_value=0, max_value=1),
    strat.fractions(min_value=0, max_value=1),
)
def test_residuum_adjointness_exact(a, b):
    # with exact arithmetic the unit residuum characterizes the order
    res = residuum_lukasiewicz(a, b)
    assert (res == 1) == (a <= b)
    assert t_lukasiewicz(a, res) <= b


@hypothesis.given(UNIT, UNIT, UNIT)
def test_tnorm_laws(a, b, c):
    assert t_lukasiewicz(a, b) == t_lukasiewicz(b, a)
    assert t_lukasiewicz(a, 1) == pytest.approx(a)
    ab = t_lukasiewicz(a, b)
    assert ab <= min(a, b) + 1e-12  # a + b - 1 can round up an ulp
    assert t_lukasiewicz(ab, c) == pytest.approx(t_lukasiewicz(a, t_lukasiewicz(b, c)))


@hypothesis.given(
    strat.fractions(min_value=0, max_value=1),
    strat.fractions(min_value=0, max_value=1),
    strat.fractions(min_value=0, max_value=1),
)
def test_tnorm_laws_exact(a, b, c):
    assert t_lukasiewicz(a, b) == t_lukasiewicz(b, a)
    assert t_lukasiewicz(a, 1) == a
    ab = t_lukasiewicz(a, b)
    assert ab <= min(a, b)
    assert t_lukasiewicz(ab, c) == t_lukasiewicz(a, t_lukasiewicz(b, c))


def test_archimedean_form():
    assert lukasiewicz_h(0) == 1
    assert lukasiewicz_h(1) == 0
    assert rs_star_archimedean(0.2, 0.9) == pytest.approx(0.3)
    assert rs_star_archimedean(0.5, 0.5) == 1
    assert rs_star_archimedean(0.9, 0.2) == pytest.approx(0.3)


# --- weighted-carrier form -------------------------------------------------


def test_weight_ratio_example():
    w = WeightFn.uniform(ABCD)
    x = ABCD.entity("a", "b")
    y = ABCD.entity("b", "c")
    assert rs_star_weight(x, y, w) == Fraction(1, 2)
    assert rs_star_weight(y, x, w) == Fraction(1, 2)
    assert rs_star_weight(x, x, w) == 1
    assert rs_star_weight(x, ABCD.universe, w) == 1


def test_weight_ratio_empty_first_argument():
    with pytest.raises(DegreeUnderflow):
        rs_star_weight(EMPTY, ABCD.universe, WeightFn.uniform(ABCD))


def test_weight_ratio_complement_split():
    """Degrees into y and into -y sum to one whenever -y is an entity."""
    w = WeightFn.uniform(ABCD)
    es = [e for e in _entities(ABCD)]
    for x, y in itertools.product(es, repeat=2):
        if y == ABCD.universe:
            continue
        assert rs_star_weight(x, y, w) + rs_star_weight(x, complement(y), w) == 1


def test_weight_ratio_full_degree_transfers_neighbors():
    """rs*(x,y)=1 makes every graded neighbor of x a neighbor of y."""
    w = WeightFn.uniform(ABCD)
    inc = WeightRatioInclusion(w)
    es = _entities(ABCD)
    for x, y in itertools.product(es, repeat=2):
        if inc.degree(x, y) != 1:
            continue
        for z in es:
            for r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
                if inc.holds(z, x, r):
                    assert inc.holds(z, y, r)


def _entities(carrier):
    from mereoml import Entity

    n = len(carrier.atoms)
    return [Entity(carrier, bits) for bits in range(1, 1 << n)]


# --- table forms -----------------------------------------------------------


def _matrix_degree(inc, x, y):
    """The degree of (x, y) as the granule families' cached matrix holds it."""
    if isinstance(inc, LukasiewiczInclusion):
        m = len(inc._table.features)
        return Fraction(m - int(inc.dis_counts[x, y]), m)
    if inc.weights is None:
        s = float(inc._sums_by_count[inc.dis_counts[x, y]])
    else:
        s = float(inc.dis_weight_sums[x, y])
    return math.exp(-(s * s))


T3 = InformationSystem(
    ("f", "g", "h"),
    (("1", "0", "0"), ("1", "0", "1"), ("0", "1", "1")),
)


def test_rs_star_is_matches_agreement():
    assert rs_star_is(0, 1, T3) == Fraction(2, 3)
    assert rs_star_is(0, 2, T3) == 0
    assert rs_star_is(1, 2, T3) == Fraction(1, 3)
    assert rs_star_is(2, 2, T3) == 1


def test_rs_star_exp_uniform():
    # one differing feature out of three: S = 1/3
    assert rs_star_exp(0, 1, T3) == pytest.approx(math.exp(-1 / 9))
    assert rs_star_exp(0, 0, T3) == 1
    assert rs_star_exp(0, 2, T3) == pytest.approx(math.exp(-1))


def test_rs_star_exp_custom_weights():
    fw = FeatureWeights(("f", "g", "h"), (0.5, 0.25, 0.25))
    assert rs_star_exp(0, 1, T3, fw) == pytest.approx(math.exp(-0.0625))
    assert rs_star_exp(0, 2, T3, fw) == pytest.approx(math.exp(-1))


@hypothesis.given(tables(min_objects=2, max_features=7), strat.data())
def test_rs_star_exp_adds_weights_in_table_feature_order(table, data):
    """Weights listed in any order sum as the inclusion sums them, bit for bit."""
    order = data.draw(strat.permutations(table.features))
    values = data.draw(
        strat.lists(strat.floats(1e-3, 10), min_size=len(order), max_size=len(order))
    )
    fw = FeatureWeights(tuple(order), tuple(values))
    inc = ExponentialInclusion(table, fw)
    for x, y in itertools.product(table.objects, repeat=2):
        assert rs_star_exp(x, y, table, fw).hex() == inc.degree(x, y).hex(), (x, y)
        assert _matrix_degree(inc, x, y).hex() == inc.degree(x, y).hex(), (x, y)


def test_rs_star_exp_needs_weights_only_for_differing_features():
    # objects 0 and 1 of T3 differ on h alone
    assert rs_star_exp(0, 1, T3, FeatureWeights(("h",), (0.5,))) == math.exp(-0.25)
    with pytest.raises(MereomlError):
        rs_star_exp(0, 2, T3, FeatureWeights(("h",), (0.5,)))


_EXP_DIGEST = """
import hashlib, random
from mereoml import FeatureWeights, InformationSystem, rs_star_exp
rng = random.Random(3)
features = tuple(f"f{j}" for j in range(7))
table = InformationSystem(features, (("0",) * 7, ("1",) * 7))
values = [
    rs_star_exp(0, 1, table, FeatureWeights(features, tuple(rng.random() + 0.01 for _ in features)))
    for _ in range(200)
]
print(hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest())
"""


def test_rs_star_exp_does_not_depend_on_the_hash_seed():
    src = str(Path(mereoml.__file__).resolve().parents[1])
    digests = [
        subprocess.run(
            [sys.executable, "-c", _EXP_DIGEST],
            capture_output=True, text=True, check=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        ).stdout
        for seed in ("0", "1")
    ]
    assert digests[0] == digests[1]


def test_feature_weights_validation():
    with pytest.raises(MereomlError):
        FeatureWeights(("a",), (1.0, 2.0))
    with pytest.raises(MereomlError):
        FeatureWeights(("a", "b"), (1.0, 0.0))
    fw = FeatureWeights.uniform(("a", "b"))
    assert fw("a") == 0.5
    assert fw.total(["a", "b"]) == pytest.approx(1)
    with pytest.raises(MereomlError):
        fw("zzz")


def test_exponential_inclusion_needs_a_weight_for_every_feature():
    # the row form asks only for the weights of differing features, but the
    # inclusion's granules weigh every feature, so it takes all or none
    with pytest.raises(MereomlError, match="no weight for feature 'f'"):
        ExponentialInclusion(T3, FeatureWeights(("h",), (0.5,)))
    with pytest.raises(MereomlError, match="no weight for feature 'g'"):
        ExponentialInclusion(T3, FeatureWeights(("h", "f"), (0.5, 0.25)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_feature_weights_reject_non_finite_values(bad):
    with pytest.raises(MereomlError, match="positive and finite"):
        FeatureWeights(("f", "g", "h"), (0.5, bad, 0.25))


def test_feature_weights_reject_duplicate_features():
    with pytest.raises(MereomlError, match="duplicate features"):
        FeatureWeights(("f", "f"), (0.5, 0.7))
    with pytest.raises(MereomlError, match="duplicate features"):
        FeatureWeights(("f", "g", "h", "g"), (0.5, 0.25, 0.25, 0.5))


def test_row_degrees_match_table_forms():
    assert lukasiewicz_row_degree(("1", "0"), ("1", "1")) == Fraction(1, 2)
    fw = FeatureWeights.uniform(("f", "g", "h"))
    for x, y in itertools.product(range(3), repeat=2):
        assert lukasiewicz_row_degree(T3.rows[x], T3.rows[y]) == rs_star_is(x, y, T3)
        assert exp_row_degree(T3.rows[x], T3.rows[y], fw) == pytest.approx(
            rs_star_exp(x, y, T3)
        )
    with pytest.raises(MereomlError):
        lukasiewicz_row_degree(("1",), ("1", "2"))
    with pytest.raises(MereomlError):
        exp_row_degree(("1",), ("1",), fw)


def test_fuzzy_similarity_takes_the_weaker_direction():
    w = WeightFn.uniform(ABCD)
    inc = WeightRatioInclusion(w)
    x = ABCD.entity("a")
    y = ABCD.entity("a", "b")
    assert inc.degree(x, y) == 1
    assert inc.degree(y, x) == Fraction(1, 2)
    assert fuzzy_similarity(x, y, inc) == Fraction(1, 2)
    assert fuzzy_similarity(y, x, inc) == Fraction(1, 2)
    assert fuzzy_similarity(x, x, inc) == 1


# --- composition bound -----------------------------------------------------


def test_exp_compose_values():
    e1 = math.exp(-1)
    assert exp_compose(e1, e1) == pytest.approx(math.exp(-4))
    assert exp_compose(1, 0.37) == pytest.approx(0.37)
    assert exp_compose(0.37, 1) == pytest.approx(0.37)


def test_exp_compose_domain():
    with pytest.raises(DegreeUnderflow):
        exp_compose(0, 0.5)
    with pytest.raises(DegreeUnderflow):
        exp_compose(0.5, -0.1)
    with pytest.raises(MereomlError):
        exp_compose(0.5, 1.5)


@hypothesis.given(strat.floats(0.01, 1), strat.floats(0.01, 1))
def test_exp_compose_is_a_penalty(r, s):
    a = exp_compose(r, s)
    assert a <= r * s + 1e-12
    assert a <= min(r, s) + 1e-12
    assert a > 0
    assert exp_compose(s, r) == pytest.approx(a)


@hypothesis.given(tables(max_objects=8), strat.data())
def test_exp_degree_triangle_bound(table, data):
    """Composing through any midpoint never overshoots the direct degree."""
    objs = range(len(table.rows))
    x = data.draw(strat.sampled_from(objs))
    y = data.draw(strat.sampled_from(objs))
    z = data.draw(strat.sampled_from(objs))
    r = rs_star_exp(x, y, table)
    s = rs_star_exp(y, z, table)
    assert rs_star_exp(x, z, table) >= exp_compose(r, s) - 1e-9


# --- packaged inclusions ---------------------------------------------------


def test_symmetry_flags():
    assert LukasiewiczInclusion(T3).symmetric
    assert ExponentialInclusion(T3).symmetric
    assert ArchimedeanInclusion().symmetric
    assert not WeightRatioInclusion(WeightFn.uniform(ABCD)).symmetric
    assert not ResidualInclusion().symmetric


def test_residual_inclusion_degree():
    inc = ResidualInclusion()
    assert inc.degree(0.9, 0.3) == pytest.approx(0.4)
    assert inc.holds(0.3, 0.9, 1)
    assert ArchimedeanInclusion().degree(0.2, 0.9) == pytest.approx(0.3)


@hypothesis.given(tables(max_objects=10))
def test_lukasiewicz_inclusion_matches_ind(table):
    inc = LukasiewiczInclusion(table)
    n = len(table.rows)
    for x, y in itertools.product(range(n), repeat=2):
        assert inc.degree(x, y) == ind_fraction(x, y, table)
        assert inc.degree(x, y) == _matrix_degree(inc, x, y)


def test_tokens_differing_by_trailing_nul_stay_distinct(tmp_path):
    path = tmp_path / "nul.csv"
    path.write_text("a,b,d\nx\0,1,y\nx,1,n\n", encoding="utf-8")
    system = load_csv(path, decision="d")
    assert system.system.rows[0][0] == "x\0"
    assert ind_fraction(0, 1, system) == Fraction(1, 2)
    assert LukasiewiczInclusion(system).degree(0, 1) == Fraction(1, 2)
    assert ExponentialInclusion(system).degree(0, 1) == pytest.approx(math.exp(-0.25))


def test_dis_counts_memory_stays_quadratic():
    """The pairwise matrix never holds an objects^2 x features intermediate."""
    rng = random.Random(5)
    n, m = 600, 14
    rows = tuple(tuple(str(rng.randrange(5)) for _ in range(m)) for _ in range(n))
    inc = LukasiewiczInclusion(InformationSystem(tuple(f"f{j}" for j in range(m)), rows))
    tracemalloc.start()
    try:
        counts = inc.dis_counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (n, n)
    assert peak < 4 * n * n


def _seeded_table(n, m, seed=5):
    rng = random.Random(seed)
    rows = tuple(tuple(str(rng.randrange(5)) for _ in range(m)) for _ in range(n))
    return InformationSystem(tuple(f"f{j}" for j in range(m)), rows)


def test_exponential_degree_is_bit_equal_to_the_row_form():
    """The matrix adds the weights in feature order, as ``exp_row_degree`` does."""
    table = _seeded_table(120, 14)
    inc = ExponentialInclusion(table)
    fw = FeatureWeights.uniform(table.features)
    differ = [
        (x, y)
        for x in table.objects
        for y in table.objects
        if inc.degree(x, y) != exp_row_degree(table.rows[x], table.rows[y], fw)
        or inc.degree(x, y).hex() != _matrix_degree(inc, x, y).hex()
    ]
    assert differ == []


def test_dis_weight_sums_memory_stays_quadratic():
    """The float sums never hold an objects^2 x features intermediate."""
    n = 600
    inc = ExponentialInclusion(_seeded_table(n, 14))
    tracemalloc.start()
    try:
        sums = inc.dis_weight_sums
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.shape == (n, n)
    assert peak < 20 * n * n


@pytest.mark.parametrize(
    "make",
    [
        LukasiewiczInclusion,
        ExponentialInclusion,
        lambda t: ExponentialInclusion(
            t, FeatureWeights(t.features[::-1], tuple(1 / (j + 2) for j in range(len(t.features))))
        ),
    ],
)
def test_one_degree_reads_two_rows_not_the_matrix(make):
    inc = make(_seeded_table(2000, 14))
    tracemalloc.start()
    try:
        inc.degree(0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# The agents net's shape: four 16-row, 3-feature input agents, two consumers
# over pairs of them and a top consumer of 16**4 rows.  Its n x n matrix
# would take gigabytes, more than the address-space cap allows.
_TOP_CONSUMER_DEGREES = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
import random
from mereoml import (ExponentialInclusion, FeatureWeights, InformationSystem,
                     LukasiewiczInclusion, exp_row_degree, lukasiewicz_row_degree)
from mereoml.net import Agent, consumer_from
rng = random.Random(0)
inputs = []
for a in range(4):
    features = tuple(f"f{a}_{j}" for j in range(3))
    rows = tuple(tuple(f"v{rng.randrange(4)}" for _ in features) for _ in range(16))
    inputs.append(Agent(f"in{a}", InformationSystem(features, rows), (0,)))
top = consumer_from("top", [consumer_from("mid0", inputs[:2]), consumer_from("mid1", inputs[2:])])
table = top.system
x, y = 0, len(table.rows) - 1
fw = FeatureWeights.uniform(table.features)
print(len(table.rows))
rx, ry = table.rows[x], table.rows[y]
print(LukasiewiczInclusion(table).degree(x, y), lukasiewicz_row_degree(rx, ry))
print(ExponentialInclusion(table).degree(x, y).hex(), exp_row_degree(rx, ry, fw).hex())
"""


def test_degrees_of_a_65536_row_consumer_under_an_address_space_cap():
    src = str(Path(mereoml.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _TOP_CONSUMER_DEGREES],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )
    assert done.returncode == 0, done.stderr
    rows, luk, exp = (line.split() for line in done.stdout.splitlines())
    assert rows == ["65536"]
    assert luk[0] == luk[1] and exp[0] == exp[1]


def test_counts_hold_more_differing_features_than_int16():
    """Two rows that differ on each of 40,000 features include to degree 0."""
    m = 40_000
    table = InformationSystem(
        tuple(f"f{j}" for j in range(m)), (("a",) * m, ("b",) * m)
    )
    inc = LukasiewiczInclusion(table)
    assert int(inc.dis_counts[0, 1]) == m
    assert inc.degree(0, 1) == 0
    assert inc.membership_mask(0, 1).tolist() == [True, False]
    assert granule(0, 1, inc).members == frozenset({0})


def test_a_degree_over_no_feature_is_1():
    """Two rows that no feature tells apart are indiscernible."""
    table = InformationSystem((), ((), (), ()))
    everyone = frozenset(table.objects)
    assert lukasiewicz_row_degree((), ()) == 1
    for inc in LukasiewiczInclusion(table), ExponentialInclusion(table):
        assert inc.degree(0, 1) == 1
        assert granule(0, 1, inc).members == everyone
        assert all(g.members == everyone for g in all_granules(1, inc))
        assert not inc.membership_mask(0, 1.5).any()


def _mask_matrix(inc, r):
    """The boolean matrix whose row c is ``inc.membership_mask(c, r)``."""
    rows = [inc.membership_mask(c, r) for c in inc.system.objects]
    return np.array(rows, dtype=bool).reshape(len(rows), len(rows))


def ref_dis_weight_sums(table, fw):
    """Pairwise weight sums of the differing features, one column at a time."""
    out = np.zeros((len(table.rows),) * 2)
    for col, f in zip(np.ascontiguousarray(table.encoded.codes.T), table.features):
        out += (col[:, None] != col[None, :]) * fw(f)
    return out


def ref_members(sums, r):
    """The boolean matrix {degree >= r}, each degree exp(-(s * s)) of its pair's sum."""
    keep = {s: math.exp(-(s * s)) >= r for s in set(sums.flat)}
    return np.vectorize(keep.__getitem__, otypes=[bool])(sums)


@pytest.mark.parametrize("n, m", [(0, 3), (1, 1), (138, 14), (300, 14), (60, 40)])
def test_uniform_weight_sums_are_bit_equal_to_the_column_loop(n, m):
    table = _seeded_table(n, m)
    inc = ExponentialInclusion(table)
    ref = ref_dis_weight_sums(table, FeatureWeights.uniform(table.features))
    assert inc.dis_weight_sums.tobytes() == ref.tobytes()
    for r in [*radius_grid(m), 0, 1e-300, 1]:
        expect = ref_members(ref, r)
        assert np.array_equal(_mask_matrix(inc, r), expect), r
        for center in range(n)[:1]:
            assert np.array_equal(inc.membership_mask(center, r), expect[center]), r


def test_explicit_weights_keep_their_own_sums():
    table = _seeded_table(50, 4)
    fw = FeatureWeights(table.features, (0.5, 0.125, 0.25, 1.0))
    inc = ExponentialInclusion(table, fw)
    ref = ref_dis_weight_sums(table, fw)
    assert inc.dis_weight_sums.tobytes() == ref.tobytes()
    for r in (0, 0.2, 0.5, 0.9, 1):
        assert np.array_equal(_mask_matrix(inc, r), ref_members(ref, r))
    assert inc.degree(3, 7) == exp_row_degree(table.rows[3], table.rows[7], fw)
    assert inc.degree(3, 7).hex() == _matrix_degree(inc, 3, 7).hex()


def test_exponential_membership_memory_stays_below_four_bytes_a_pair():
    n = 600
    inc = ExponentialInclusion(_seeded_table(n, 14))
    tracemalloc.start()
    try:
        matrix = _mask_matrix(inc, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (n, n)
    assert peak < 4 * n * n


@hypothesis.given(tables(max_objects=10), strat.data())
def test_membership_masks_match_brute_force(table, data):
    m = len(table.features)
    r = data.draw(
        strat.sampled_from([Fraction(k, m) for k in range(m + 1)] + [Fraction(1, 7)])
    )
    inc = LukasiewiczInclusion(table)
    mask = inc.membership_mask(0, r)
    expect = np.array([inc.degree(y, 0) >= r for y in range(len(table.rows))])
    assert (mask == expect).all()

    exp_inc = ExponentialInclusion(table)
    emask = exp_inc.membership_mask(0, float(r))
    eexpect = np.array(
        [exp_inc.degree(y, 0) >= float(r) for y in range(len(table.rows))]
    )
    assert (emask == eexpect).all()


@hypothesis.given(tables(max_objects=8), strat.data())
def test_granules_hold_exactly_the_objects_whose_degree_reaches_the_radius(table, data):
    """granule(c, r) and row c of all_granules(r) are {y : degree(y, c) >= r}
    under both table kinds, uniform and explicit weights, with r at a degree
    and one ulp to either side."""
    weights = data.draw(strat.lists(
        strat.floats(1 / 64, 4), min_size=len(table.features), max_size=len(table.features)
    ))
    fw = FeatureWeights(table.features, tuple(weights))
    pairs = list(itertools.product(table.objects, repeat=2))
    for inc in LukasiewiczInclusion(table), ExponentialInclusion(table), ExponentialInclusion(table, fw):
        c, x = data.draw(strat.sampled_from(pairs))
        d = inc.degree(x, c)
        for r in d, math.nextafter(d, -1), math.nextafter(d, 2):
            if not 0 <= r <= 1:
                continue
            expect = {y for y in table.objects if inc.degree(y, c) >= r}
            assert granule(c, r, inc).members == expect, (inc, r)
            assert all_granules(r, inc)[c].members == expect, (inc, r)


@pytest.mark.parametrize(
    "make",
    [
        LukasiewiczInclusion,
        ExponentialInclusion,
        lambda t: ExponentialInclusion(t, FeatureWeights(t.features, (0.5, 0.25, 0.25))),
    ],
)
@pytest.mark.parametrize("bad", [-1, 3])
def test_table_inclusions_reject_unknown_objects(make, bad):
    inc = make(T3)
    for x, y in ((bad, 0), (0, bad), (bad, bad)):
        with pytest.raises(UnknownObject):
            inc.degree(x, y)
    with pytest.raises(UnknownObject):
        inc.membership_mask(bad, Fraction(1, 2))
    with pytest.raises(UnknownObject):
        granule(bad, Fraction(1, 2), inc)


def test_exponential_mask_at_zero_radius():
    inc = ExponentialInclusion(T3)
    assert inc.membership_mask(1, 0).all()
    assert inc.membership_mask(1, -1).all()
    # a float rounds this radius to 0.0; compared exactly, every degree passes it
    assert inc.membership_mask(1, Fraction(1, 10**400)).all()
    # as degree >= r: every degree passes -inf, none passes a radius above
    # 1 or NaN
    for kind in LukasiewiczInclusion(T3), inc:
        assert kind.membership_mask(1, -math.inf).all()
        assert kind.membership_bits(-math.inf) == [2 ** len(T3.rows) - 1] * len(T3.rows)
        for r in 1.5, math.inf, math.nan:
            assert not kind.membership_mask(1, r).any()
            assert kind.membership_bits(r) == [0] * len(T3.rows)


def test_explicit_weight_granules_sort_the_pair_sums_once():
    table = _seeded_table(40, 6)
    inc = _table_inclusions(table)[2]
    with mock.patch.object(np, "sort", wraps=np.sort) as sort:
        granules = [granule(c, 0.5, inc).members for c in table.objects]
        assert granules == [g.members for g in all_granules(0.5, inc)]
    assert sort.call_count == 1


def test_exponential_inclusion_respects_custom_weights():
    fw = FeatureWeights(("f", "g", "h"), (0.5, 0.25, 0.25))
    inc = ExponentialInclusion(T3, fw)
    assert inc.degree(0, 1) == pytest.approx(math.exp(-0.0625))


def test_mask_boundary_is_exact():
    """Membership at the exact threshold radius must be inclusive."""
    table = InformationSystem(
        ("p", "q", "r", "s"),
        (("0", "0", "0", "0"), ("1", "1", "0", "0")),
    )
    inc = LukasiewiczInclusion(table)
    # object 1 differs in 2 of 4 features; degree exactly 1/2
    assert inc.degree(1, 0) == Fraction(1, 2)
    assert inc.membership_mask(0, Fraction(1, 2))[1]
    assert not inc.membership_mask(0, Fraction(1, 2) + Fraction(1, 100))[1]


# --- membership rows as packed bitsets ---------------------------------------


def _packed_rows(matrix):
    """``np.packbits`` of each matrix row, little-endian, read as an int."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _table_inclusions(table):
    """Lukasiewicz, uniform exp and explicit-weight exp over one table."""
    m = len(table.features)
    fw = FeatureWeights(table.features, tuple(1 / (j + 2) for j in range(m)))
    return LukasiewiczInclusion(table), ExponentialInclusion(table), ExponentialInclusion(table, fw)


def _assert_bits_are_packed_matrix_rows(table, radii):
    for inc in _table_inclusions(table):
        for r in radii:
            bits = inc.membership_bits(r)
            assert bits == _packed_rows(_mask_matrix(inc, r)), (inc, r)


def _some_radii(m):
    return (0, 1e-300, Fraction(1, 10**400), 0.2, Fraction(1, 7), 0.5, 0.9, *radius_grid(m))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_membership_bits_are_the_packed_matrix_rows(n):
    table = _seeded_table(n, 6)
    _assert_bits_are_packed_matrix_rows(table, _some_radii(6))


@hypothesis.given(tables(max_objects=20), strat.data())
def test_membership_bits_match_the_matrix_on_any_table(table, data):
    m = len(table.features)
    r = data.draw(
        strat.one_of(
            strat.sampled_from([Fraction(k, m) for k in range(m + 1)]),
            strat.floats(0, 1, allow_nan=False),
        )
    )
    _assert_bits_are_packed_matrix_rows(table, [r])


@pytest.mark.parametrize("block_bytes", [1, 200, 1000])
def test_membership_bits_across_row_blocks(monkeypatch, block_bytes):
    # 65 rows take one row a block, then 3 rows a block with a short last
    # block, then 15 rows a block
    table = _seeded_table(65, 6)
    monkeypatch.setattr(mereoml.dataset, "COUNT_BLOCK_BYTES", block_bytes)
    _assert_bits_are_packed_matrix_rows(table, _some_radii(6))
