"""Part-whole algebra: ordering axioms, class operator, weights."""

import itertools
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from mereoml import (
    EMPTY,
    Carrier,
    CarrierMismatch,
    ClassOfEmptyFamily,
    Entity,
    MereomlError,
    WeightFn,
    cls,
    complement,
    entity_product,
    entity_sum,
    exterior,
    implication,
    is_valid_implication,
    overlap,
    part,
    rel_complement,
    subst,
    weight,
)

ABC = Carrier(("a", "b", "c"))


def entities(carrier):
    """All nonempty entities of a carrier, smallest bitmask first."""
    n = len(carrier.atoms)
    return [Entity(carrier, bits) for bits in range(1, 1 << n)]


@strat.composite
def carried_entities(draw, max_atoms=4):
    n = draw(strat.integers(1, max_atoms))
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    bits = draw(strat.integers(1, (1 << n) - 1))
    return Entity(carrier, bits)


# --- construction ---------------------------------------------------------


def test_carrier_validation():
    with pytest.raises(MereomlError):
        Carrier(())
    with pytest.raises(MereomlError):
        Carrier(("a", "a"))


def test_entity_validation():
    with pytest.raises(MereomlError):
        Entity(ABC, 0)
    with pytest.raises(MereomlError):
        Entity(ABC, 1 << 3)
    with pytest.raises(MereomlError):
        ABC.entity("z")
    with pytest.raises(MereomlError):
        ABC.entity()


def test_entity_views():
    x = ABC.entity("a", "c")
    assert x.atoms == ("a", "c")
    assert list(x) == ["a", "c"]
    assert len(x) == 2
    assert "c" in x and "b" not in x
    assert repr(x) == "Entity(a+c)"
    assert ABC.universe.atoms == ("a", "b", "c")
    assert ABC.singletons() == tuple(ABC.entity(a) for a in "abc")


def test_empty_sentinel():
    x = ABC.entity("a")
    assert EMPTY + x == x
    assert x + EMPTY == x
    assert (EMPTY * x).is_empty
    assert (x * EMPTY).is_empty
    assert len(EMPTY) == 0
    assert list(EMPTY) == []
    assert not x.is_empty


def test_carrier_mismatch():
    other = Carrier(("a", "b", "c"))  # equal carrier, no mismatch
    assert subst(ABC.entity("a"), other.entity("a", "b"))
    different = Carrier(("x", "y"))
    with pytest.raises(CarrierMismatch):
        entity_sum(ABC.entity("a"), different.entity("x"))
    with pytest.raises(CarrierMismatch):
        overlap(ABC.entity("a"), different.entity("x"))


# --- ordering -------------------------------------------------------------


def test_part_is_strict():
    x, y = ABC.entity("a"), ABC.entity("a", "b")
    assert part(x, y)
    assert not part(x, x)
    assert not part(y, x)
    assert subst(x, x)


def test_empty_is_bottom():
    x = ABC.entity("b")
    assert subst(EMPTY, x)
    assert not subst(x, EMPTY)
    assert not overlap(EMPTY, x)
    assert exterior(EMPTY, x)


def test_ordering_laws_exhaustive():
    """Reflexivity, antisymmetry and transitivity over all 3-atom entities."""
    es = entities(ABC)
    for x in es:
        assert subst(x, x)
        assert not part(x, x)
    for x, y in itertools.product(es, repeat=2):
        if subst(x, y) and subst(y, x):
            assert x == y
    for x, y, z in itertools.product(es, repeat=3):
        if subst(x, y) and subst(y, z):
            assert subst(x, z)
        if part(x, y) and part(y, z):
            assert part(x, z)


def test_parthood_via_quantified_overlap():
    """subst(x,y) holds exactly when every part of x overlaps some part of y.

    Exhaustive over one small carrier; the quantifiers range over proper
    entities only.
    """
    es = entities(ABC)
    for x, y in itertools.product(es, repeat=2):
        rhs = all(
            any(subst(w, y) and overlap(z, w) for w in es)
            for z in es
            if subst(z, x)
        )
        assert subst(x, y) == rhs


def test_overlap_symmetry_and_atoms():
    es = entities(ABC)
    for x, y in itertools.product(es, repeat=2):
        assert overlap(x, y) == overlap(y, x)
        assert overlap(x, y) == bool(set(x.atoms) & set(y.atoms))
        assert exterior(x, y) == (not overlap(x, y))


# --- sums, products, classes ----------------------------------------------


def test_sum_product_lattice_laws():
    es = entities(ABC)
    for x, y in itertools.product(es, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
        # absorption
        assert x + (x * y) == x
        assert entity_product(x, entity_sum(x, y)) == x
    for x, y, z in itertools.product(es, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)


def test_product_of_disjoint_is_empty():
    assert (ABC.entity("a") * ABC.entity("b")).is_empty


def test_cls_is_union():
    fam = [ABC.entity("a"), ABC.entity("b", "c"), ABC.entity("b")]
    assert cls(fam) == ABC.universe
    assert cls([ABC.entity("a")]) == ABC.entity("a")
    assert cls([EMPTY, ABC.entity("c")]) == ABC.entity("c")


def test_cls_rejects_empty_family():
    with pytest.raises(ClassOfEmptyFamily):
        cls([])
    with pytest.raises(ClassOfEmptyFamily):
        cls([EMPTY, EMPTY])


def test_cls_minimality_exhaustive():
    """cls(F) contains every member and nothing a member misses."""
    es = entities(ABC)
    for size in (1, 2, 3):
        for fam in itertools.combinations(es, size):
            c = cls(fam)
            for member in fam:
                assert subst(member, c)
            # anything inside the class overlaps some member
            for z in es:
                if subst(z, c):
                    assert any(overlap(z, member) for member in fam)
            # and no strictly smaller entity contains all members
            for smaller in es:
                if part(smaller, c):
                    assert not all(subst(m, smaller) for m in fam)


def test_complement_laws():
    es = entities(ABC)
    for x in es:
        if x == ABC.universe:
            assert complement(x).is_empty
            continue
        cx = complement(x)
        assert x + cx == ABC.universe
        assert (x * cx).is_empty
        assert complement(cx) == x
    with pytest.raises(MereomlError):
        complement(EMPTY)


def test_de_morgan():
    es = entities(ABC)
    for x, y in itertools.product(es, repeat=2):
        assert complement(x + y) == entity_product(complement(x), complement(y))
        p = x * y
        if not p.is_empty:
            assert complement(p) == entity_sum(complement(x), complement(y))


def test_rel_complement():
    x = ABC.entity("a", "b")
    y = ABC.entity("b", "c")
    assert x - y == ABC.entity("a")
    assert (x - x).is_empty
    assert x - EMPTY == x
    assert (rel_complement(EMPTY, x)).is_empty
    es = entities(ABC)
    for a, b in itertools.product(es, repeat=2):
        assert a - b == entity_product(a, complement(b))


def test_implication_three_way_equivalence():
    """x -> y is the universe  iff  subst(x, y)  iff  x * y == x."""
    es = entities(ABC)
    for x, y in itertools.product(es, repeat=2):
        valid = is_valid_implication(x, y)
        assert valid == subst(x, y)
        assert valid == (x * y == x)
        assert implication(x, y) == entity_sum(complement(x), y)


@hypothesis.given(carried_entities(), strat.data())
def test_sum_upper_bound_property(x, data):
    bits = data.draw(strat.integers(1, (1 << len(x.carrier.atoms)) - 1))
    y = Entity(x.carrier, bits)
    s = x + y
    assert subst(x, s) and subst(y, s)
    p = x * y
    assert subst(p, x) and subst(p, y)


# --- weights ---------------------------------------------------------------


def test_weightfn_validation():
    with pytest.raises(MereomlError):
        WeightFn(ABC, (Fraction(1), Fraction(1)))
    with pytest.raises(MereomlError):
        WeightFn(ABC, (Fraction(1), Fraction(0), Fraction(1)))
    with pytest.raises(CarrierMismatch):
        WeightFn.uniform(ABC)(Carrier(("x",)).entity("x"))


def test_uniform_weight_values():
    w = WeightFn.uniform(ABC)
    assert w(ABC.universe) == 1
    assert w(ABC.entity("a")) == Fraction(1, 3)
    assert w(ABC.entity("a", "c")) == Fraction(2, 3)
    assert w(EMPTY) == 0
    assert weight(w, ABC.entity("b")) == Fraction(1, 3)


def test_random_weight_normalizes():
    w = WeightFn.random(ABC, random.Random(5))
    assert w(ABC.universe) == 1
    assert all(w(s) > 0 for s in ABC.singletons())
    assert sum(w(s) for s in ABC.singletons()) == 1


def weight_fns(carrier):
    rng = random.Random(20240801)
    return [WeightFn.uniform(carrier)] + [
        WeightFn.random(carrier, rng) for _ in range(2)
    ]


def test_weight_identities_exhaustive():
    """The nine arithmetic laws tying weights to the algebra, on all pairs.

    (1) subst(x,y) iff x*y == x
    (2) subst(x,y) iff x -> y is the universe
    (3) subst(x,y) implies w(x) <= w(y)
    (4) w(x+y) == w(x) + w(-x * y)
    (5) x*y empty iff w(x+y) == w(x) + w(y)
    (6) w(x) + w(-x) == 1
    (7) w(y) == w(x*y) + w(-x * y)
    (8) subst(x,y) iff w(x -> y) == 1
    (9) w(x -> y) == 1 - w(x - y)
    """
    es = entities(ABC)
    for w in weight_fns(ABC):
        for x, y in itertools.product(es, repeat=2):
            below = subst(x, y)
            assert below == (x * y == x)
            assert below == is_valid_implication(x, y)
            if below:
                assert w(x) <= w(y)
            rest = entity_product(complement(x), y)
            assert w(x + y) == w(x) + w(rest)
            assert ((x * y).is_empty) == (w(x + y) == w(x) + w(y))
            assert w(x) + w(complement(x)) == 1
            assert w(y) == w(x * y) + w(rest)
            imp = w(implication(x, y))
            assert below == (imp == 1)
            assert imp == 1 - w(x - y)


def test_weight_strictly_monotone_on_proper_parts():
    es = entities(ABC)
    for w in weight_fns(ABC):
        for x, y in itertools.product(es, repeat=2):
            if part(x, y):
                assert w(x) < w(y)


@hypothesis.given(carried_entities(max_atoms=5), strat.integers(0, 2**32))
def test_weight_modularity_property(x, seed):
    carrier = x.carrier
    w = WeightFn.random(carrier, random.Random(seed))
    bits = (seed % ((1 << len(carrier.atoms)) - 1)) + 1
    y = Entity(carrier, bits)
    # inclusion-exclusion, with the empty product weighing zero
    lhs = w(x + y) + w(x * y)
    assert lhs == w(x) + w(y)
    assert 0 < w(x) <= 1


# --- EMPTY against a set reference ----------------------------------------


def test_operations_match_atom_sets_with_empty_exhaustive():
    """Every operation on every pair from EMPTY and the 3-atom entities.

    The reference is the frozenset of atom names, EMPTY being the empty set;
    the implications are checked on entities only, as they take entities.
    """
    universe = frozenset(ABC.atoms)

    def entity(atoms):
        return ABC.entity(*atoms) if atoms else EMPTY

    items = [EMPTY] + entities(ABC)
    for w in weight_fns(ABC):
        mass = dict(zip(ABC.atoms, w.masses))
        for x in items:
            assert w(x) == sum((mass[a] for a in x), Fraction(0)) / w.total
    for x, y in itertools.product(items, repeat=2):
        xs, ys = frozenset(x), frozenset(y)
        assert subst(x, y) == (xs <= ys)
        assert part(x, y) == (xs < ys)
        assert overlap(x, y) == bool(xs & ys)
        assert exterior(x, y) == (not xs & ys)
        assert x + y == entity_sum(x, y) == entity(xs | ys)
        assert x * y == entity_product(x, y) == entity(xs & ys)
        assert rel_complement(x, y) == entity(xs - ys)
        if x is not EMPTY:
            assert x - y == entity(xs - ys)
        if xs | ys:
            assert cls([x, y]) == entity(xs | ys)
        else:
            with pytest.raises(ClassOfEmptyFamily):
                cls([x, y])
        if x is not EMPTY and y is not EMPTY:
            assert implication(x, y) == entity((universe - xs) | ys)
            assert is_valid_implication(x, y) == (xs <= ys)
    for x in items:
        if x is EMPTY:
            with pytest.raises(MereomlError):
                complement(x)
        else:
            assert complement(x) == entity(universe - frozenset(x))
    with pytest.raises(TypeError):
        -EMPTY
    with pytest.raises(TypeError):
        EMPTY - ABC.universe


def test_carrier_mismatch_only_between_two_carriers_exhaustive():
    """Two different carriers always clash; EMPTY never clashes with one."""
    xy = Carrier(("x", "y"))
    binary = [
        subst, part, overlap, exterior, entity_sum, entity_product,
        rel_complement, lambda a, b: cls([a, b]),
    ]
    for x, y in itertools.product(entities(ABC), entities(xy)):
        for op in binary + [implication, is_valid_implication]:
            with pytest.raises(CarrierMismatch):
                op(x, y)
            with pytest.raises(CarrierMismatch):
                op(y, x)
        with pytest.raises(CarrierMismatch):
            WeightFn.uniform(ABC)(y)
    for x in entities(ABC) + entities(xy):
        for op in binary:
            op(EMPTY, x)
            op(x, EMPTY)
        assert WeightFn.uniform(x.carrier)(EMPTY) == 0


def test_operands_that_are_not_entities_raise_type_error():
    x = ABC.entity("a")
    w = WeightFn.uniform(ABC)
    cases = [
        lambda: EMPTY + 3,
        lambda: EMPTY * "s",
        lambda: x + 3,
        lambda: x * 3,
        lambda: x - 3,
        lambda: subst(x, 3),
        lambda: subst(3, x),
        lambda: overlap(x, 3),
        lambda: part(x, "a"),
        lambda: exterior(x, None),
        lambda: entity_sum(x, 3),
        lambda: entity_product(3, x),
        lambda: rel_complement(x, 3),
        lambda: implication(x, 3),
        lambda: complement(3),
        lambda: cls([x, 3]),
        lambda: w(3),
        lambda: w(w),
        lambda: weight(w, "a"),
    ]
    for case in cases:
        with pytest.raises(TypeError):
            case()
    # EMPTY's sum and product still go through the algebra's own operations
    assert EMPTY + x == x and x + EMPTY == x
    assert EMPTY * x is EMPTY and EMPTY + EMPTY is EMPTY
