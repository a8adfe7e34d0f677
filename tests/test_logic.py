"""Descriptor formulas: parsing, printing, meanings, granule degrees."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

from mereoml import (
    And,
    Atom,
    DecisionSystem,
    GranuleSet,
    Implies,
    InformationSystem,
    MereomlError,
    Not,
    NuMode,
    Or,
    ParseError,
    UnknownFeature,
    UnknownValue,
    collapse_value,
    extension,
    graded_truth,
    is_true_at,
    is_valid,
    iter_atoms,
    meaning,
    nu,
    parse_formula,
    print_formula,
    residuum_lukasiewicz,
    rule_audit,
    satisfies,
)
from mereoml.bits import MemberView, member_bits
from mereoml.logic import _mask
from strategies import atoms_for, decision_tables, formulas_for, granules_for, tables

TABLE = InformationSystem(
    ("p", "q", "s"),
    (("1", "0", "0"), ("1", "1", "1"), ("0", "1", "0"), ("0", "0", "0")),
)
U = frozenset(TABLE.objects)


# --- parsing ---------------------------------------------------------------


def test_parse_precedence():
    f = parse_formula("a=1 & b=0 -> c=1 | !d=0")
    assert f == Implies(
        And(Atom("a", "1"), Atom("b", "0")),
        Or(Atom("c", "1"), Not(Atom("d", "0"))),
    )


def test_parse_implication_is_right_associative():
    f = parse_formula("a=1 -> b=1 -> c=1")
    assert f == Implies(Atom("a", "1"), Implies(Atom("b", "1"), Atom("c", "1")))


def test_parse_parens_and_negation():
    assert parse_formula("!(a=1 | b=2)") == Not(Or(Atom("a", "1"), Atom("b", "2")))
    assert parse_formula("!!a=1") == Not(Not(Atom("a", "1")))
    assert parse_formula("((a=1))") == Atom("a", "1")


def test_parse_left_associative_chains():
    f = parse_formula("a=1 & b=1 & c=1")
    assert f == And(And(Atom("a", "1"), Atom("b", "1")), Atom("c", "1"))
    f = parse_formula("a=1 | b=1 | c=1")
    assert f == Or(Or(Atom("a", "1"), Atom("b", "1")), Atom("c", "1"))


def test_parse_word_tokens():
    f = parse_formula("dim.x=B2 & f_3=v_9")
    assert f == And(Atom("dim.x", "B2"), Atom("f_3", "v_9"))


@pytest.mark.parametrize(
    "text",
    ["a=", "=1", "a=1 &", "(a=1", "a=1)", "a==1", "a=1 @", "", "->", "a 1"],
)
def test_parse_errors_carry_a_column(text):
    with pytest.raises(ParseError, match="column"):
        parse_formula(text)


def test_parse_checks_values_against_system():
    parse_formula("p=1", TABLE)
    with pytest.raises(UnknownValue):
        parse_formula("p=7", TABLE)
    assert parse_formula("p=7", TABLE, allow_unseen=True) == Atom("p", "7")


def test_parse_checks_features_against_system():
    with pytest.raises(UnknownFeature):
        parse_formula("zz=1", TABLE)


def test_parse_accepts_decision_atoms():
    system = DecisionSystem(TABLE, "d", ("y", "y", "n", "n"))
    assert parse_formula("d=y", system) == Atom("d", "y")
    with pytest.raises(UnknownValue):
        parse_formula("d=maybe", system)


def test_iter_atoms():
    f = parse_formula("a=1 & !b=2 -> c=3")
    assert list(iter_atoms(f)) == [Atom("a", "1"), Atom("b", "2"), Atom("c", "3")]


# --- printing --------------------------------------------------------------


def test_print_minimal_parens():
    assert print_formula(parse_formula("a=1 & b=0 -> c=1")) == "a=1 & b=0 -> c=1"
    assert print_formula(And(Or(Atom("a", "1"), Atom("b", "0")), Atom("c", "1"))) == (
        "(a=1 | b=0) & c=1"
    )
    assert print_formula(Not(And(Atom("a", "1"), Atom("b", "0")))) == "!(a=1 & b=0)"
    assert print_formula(
        Implies(Implies(Atom("a", "1"), Atom("b", "0")), Atom("c", "1"))
    ) == "(a=1 -> b=0) -> c=1"
    assert print_formula(Not(Atom("a", "1"))) == "!a=1"


@hypothesis.given(tables(max_objects=4), strat.data())
def test_print_parse_round_trip(table, data):
    f = data.draw(formulas_for(table))
    assert parse_formula(print_formula(f)) == f


# --- meanings --------------------------------------------------------------


def test_satisfies_and_meaning():
    assert satisfies(1, Atom("q", "1"), TABLE)
    assert not satisfies(0, Atom("q", "1"), TABLE)
    assert meaning(Atom("p", "1"), TABLE) == frozenset({0, 1})
    assert meaning(parse_formula("p=1 & q=1"), TABLE) == frozenset({1})
    assert meaning(parse_formula("p=1 | q=1"), TABLE) == frozenset({0, 1, 2})
    assert meaning(parse_formula("!p=1"), TABLE) == frozenset({2, 3})
    assert meaning(parse_formula("p=1 -> s=1"), TABLE) == frozenset({1, 2, 3})


def test_meaning_checks_features():
    with pytest.raises(UnknownFeature):
        meaning(Atom("nope", "1"), TABLE)


def test_meaning_with_decision_atoms():
    system = DecisionSystem(TABLE, "d", ("y", "y", "n", "n"))
    assert meaning(Atom("d", "y"), system) == frozenset({0, 1})
    assert meaning(parse_formula("p=1 & d=n", system), system) == frozenset()


@hypothesis.given(tables(max_objects=6), strat.data())
def test_meaning_agrees_with_satisfies(table, data):
    f = data.draw(formulas_for(table))
    m = meaning(f, table)
    for x in table.objects:
        assert (x in m) == satisfies(x, f, table)


@hypothesis.given(decision_tables(max_objects=8), strat.data())
def test_meaning_agrees_with_satisfies_on_decision_atoms_and_unseen_values(system, data):
    unseen = [Atom(f, "unseen") for f in system.features + (system.decision,)]
    leaves = strat.one_of(atoms_for(system), strat.sampled_from(unseen))
    text = print_formula(data.draw(formulas_for(system, atoms=leaves)))
    f = parse_formula(text, system, allow_unseen=True)
    assert meaning(f, system) == frozenset(
        x for x in system.objects if satisfies(x, f, system)
    )
    with pytest.raises(UnknownFeature):
        meaning(And(f, Atom("nope", "1")), system)
    with pytest.raises(UnknownFeature):
        parse_formula(f"{text} & nope=1", system, allow_unseen=True)


@hypothesis.given(tables(max_objects=6), strat.data())
def test_meaning_is_boolean(table, data):
    a = data.draw(formulas_for(table))
    b = data.draw(formulas_for(table))
    everything = frozenset(table.objects)
    assert meaning(Not(a), table) == everything - meaning(a, table)
    assert meaning(And(a, b), table) == meaning(a, table) & meaning(b, table)
    assert meaning(Or(a, b), table) == meaning(a, table) | meaning(b, table)
    assert meaning(Implies(a, b), table) == (
        (everything - meaning(a, table)) | meaning(b, table)
    )


# --- containment degrees ---------------------------------------------------


def test_nu_three_valued():
    a = frozenset({0, 1})
    assert nu(NuMode.NU3, a, frozenset({0, 1, 2})) == 1
    assert nu(NuMode.NU3, a, frozenset({1, 2})) == Fraction(1, 2)
    assert nu(NuMode.NU3, a, frozenset({2, 3})) == 0
    assert nu(NuMode.NU3, frozenset(), a) == 1


def test_nu_proportional():
    a = frozenset({0, 1, 2})
    assert nu(NuMode.NUL, a, frozenset({0})) == Fraction(1, 3)
    assert nu(NuMode.NUL, a, frozenset({0, 1, 2, 3})) == 1
    assert nu(NuMode.NUL, a, frozenset()) == 0
    assert nu(NuMode.NUL, frozenset(), a) == 1


def test_extension_and_truth():
    g = frozenset({0, 1})
    assert extension(g, Atom("p", "1"), TABLE) == 1
    assert extension(U, Atom("p", "1"), TABLE) == Fraction(1, 2)
    assert extension(U, Atom("p", "1"), TABLE, NuMode.NU3) == Fraction(1, 2)
    assert is_true_at(g, Atom("p", "1"), TABLE)
    assert not is_true_at(U, Atom("p", "1"), TABLE)
    assert graded_truth(U, Atom("p", "1"), TABLE, Fraction(1, 2))
    assert not graded_truth(U, Atom("p", "1"), TABLE, Fraction(2, 3))


@hypothesis.given(tables(max_objects=6), strat.data())
def test_truth_is_exactly_containment(table, data):
    f = data.draw(formulas_for(table))
    g = data.draw(granules_for(table))
    truth = is_true_at(g, f, table)
    assert truth == (g <= meaning(f, table))
    assert truth == (extension(g, f, table) == 1)
    assert truth == (extension(g, f, table, NuMode.NU3) == 1)


@hypothesis.given(tables(max_objects=6), strat.data())
def test_rule_truth_is_guarded_containment(table, data):
    alpha = data.draw(formulas_for(table))
    beta = data.draw(formulas_for(table))
    g = data.draw(granules_for(table))
    lhs = is_true_at(g, Implies(alpha, beta), table)
    assert lhs == ((g & meaning(alpha, table)) <= meaning(beta, table))


def test_granule_set_rejects_empty_members():
    GranuleSet((frozenset({0}),))
    with pytest.raises(MereomlError):
        GranuleSet((frozenset({0}), frozenset()))


def test_is_valid_is_union_truth():
    granules = GranuleSet((frozenset({0}), frozenset({1})))
    assert is_valid(granules, Atom("p", "1"), TABLE)
    assert not is_valid(granules, Atom("q", "1"), TABLE)
    wider = GranuleSet((frozenset({0}), frozenset({2, 3})))
    assert not is_valid(wider, Atom("p", "1"), TABLE)


@hypothesis.given(tables(max_objects=6), strat.data())
def test_is_valid_means_true_everywhere(table, data):
    f = data.draw(formulas_for(table))
    gs = [data.draw(granules_for(table)) for _ in range(2)]
    assert is_valid(GranuleSet(tuple(gs)), f, table) == all(
        is_true_at(g, f, table) for g in gs
    )


# --- granule degrees against the set-based reference ------------------------


def ref_meaning(formula, system):
    return frozenset(np.flatnonzero(_mask(formula, system)).tolist())


def ref_nu(mode, x, y):
    if mode is NuMode.NU3:
        if x <= y:
            return Fraction(1)
        if not x & y:
            return Fraction(0)
        return Fraction(1, 2)
    if not x:
        return Fraction(1)
    return Fraction(len(x & y), len(x))


def ref_extension(g, formula, system, mode=NuMode.NUL):
    return ref_nu(mode, frozenset(g), ref_meaning(formula, system))


def ref_is_true_at(g, formula, system):
    return frozenset(g) <= ref_meaning(formula, system)


def ref_is_valid(granules, formula, system):
    return frozenset().union(*granules) <= ref_meaning(formula, system)


def test_meaning_is_a_bitset_view_equal_to_its_frozenset():
    m = meaning(Atom("p", "1"), TABLE)
    assert isinstance(m, MemberView) and m.bits == 0b11
    assert m == frozenset({0, 1}) and hash(m) == hash(frozenset({0, 1}))
    empty = InformationSystem(("p",), ())
    for formula in (Atom("p", "9"), Not(Atom("p", "9"))):
        assert meaning(formula, empty) == frozenset() and meaning(formula, empty).bits == 0


def granule_forms(system):
    """Granules as bitset views, as frozensets, and with foreign members.

    Foreign members lie outside the table (at or past its row count) or are
    negative; a view can carry the first kind only.
    """
    n = len(system.objects)
    inside = granules_for(system, allow_empty=True)
    past = strat.sets(strat.sampled_from((n, n + 3)), min_size=1)
    negative = strat.sets(strat.sampled_from((-1, -7)), min_size=1)

    def joined(*parts):
        return strat.tuples(*parts).map(lambda sets: frozenset().union(*sets))

    def as_view(sets):
        return sets.map(lambda g: MemberView(member_bits(g)))

    return strat.one_of(
        inside,
        as_view(inside),
        joined(inside, past),
        joined(inside, negative),
        joined(inside, past, negative),
        as_view(joined(inside, past)),
    )


@hypothesis.given(decision_tables(min_objects=1, max_objects=8), strat.data())
def test_granule_degrees_match_the_set_based_reference(system, data):
    f = data.draw(formulas_for(system))
    g = data.draw(granule_forms(system))
    m = meaning(f, system)
    for mode in NuMode:
        assert extension(g, f, system, mode) == ref_extension(g, f, system, mode)
        assert nu(mode, g, m) == ref_nu(mode, frozenset(g), ref_meaning(f, system))
    assert is_true_at(g, f, system) == ref_is_true_at(g, f, system)
    family = [data.draw(granule_forms(system)) for _ in range(data.draw(strat.integers(0, 3)))]
    assert is_valid(family, f, system) == ref_is_valid(family, f, system)
    assert is_valid(iter(family), f, system) == ref_is_valid(family, f, system)


@hypothesis.given(tables(max_objects=8), strat.data())
def test_nu_on_two_views_matches_the_set_based_reference(table, data):
    x = data.draw(granules_for(table, allow_empty=True))
    y = data.draw(granules_for(table, allow_empty=True))
    for mode in NuMode:
        assert nu(mode, MemberView(member_bits(x)), MemberView(member_bits(y))) == ref_nu(
            mode, x, y
        )


# --- the collapsed reading -------------------------------------------------

WIDE = InformationSystem(
    ("a", "b"),
    tuple(
        ("1" if i < 6 else "0", "1" if i < 9 else "0") for i in range(10)
    ),
)
WIDE_U = frozenset(WIDE.objects)


def test_collapse_of_atom_is_its_extension():
    assert collapse_value(WIDE_U, Atom("a", "1"), WIDE) == Fraction(3, 5)
    assert collapse_value(WIDE_U, Atom("b", "1"), WIDE) == Fraction(9, 10)


def test_collapse_rule_examples():
    rule = parse_formula("a=1 -> b=1")
    assert collapse_value(WIDE_U, rule, WIDE) == 1
    reverse = parse_formula("b=1 -> a=1")
    assert collapse_value(WIDE_U, reverse, WIDE) == Fraction(7, 10)


def test_collapse_connectives():
    a, b = Atom("a", "1"), Atom("b", "1")
    va = collapse_value(WIDE_U, a, WIDE)
    vb = collapse_value(WIDE_U, b, WIDE)
    assert collapse_value(WIDE_U, Not(a), WIDE) == 1 - va
    assert collapse_value(WIDE_U, And(a, b), WIDE) == min(va, vb)
    assert collapse_value(WIDE_U, Or(a, b), WIDE) == max(va, vb)
    assert collapse_value(WIDE_U, Implies(a, b), WIDE) == min(
        Fraction(1), 1 - va + vb
    )


@hypothesis.given(tables(max_objects=6), strat.data())
def test_collapse_matches_extension_on_literals(table, data):
    """On atoms and negated atoms the two degree readings coincide."""
    g = data.draw(granules_for(table))
    f = data.draw(formulas_for(table))
    atoms = list(iter_atoms(f))
    for lit in [atoms[0], Not(atoms[0])]:
        assert collapse_value(g, lit, table) == extension(g, lit, table)


@hypothesis.given(tables(max_objects=6), strat.data())
def test_rule_extension_below_residuum_of_side_extensions(table, data):
    alpha = data.draw(formulas_for(table))
    beta = data.draw(formulas_for(table))
    g = data.draw(granules_for(table))
    ext_rule = extension(g, Implies(alpha, beta), table)
    bound = min(
        Fraction(1),
        1 - extension(g, alpha, table) + extension(g, beta, table),
    )
    assert ext_rule <= bound


def test_rule_audit_fields():
    audit = rule_audit(WIDE_U, Atom("a", "1"), Atom("b", "1"), WIDE)
    assert audit.true_at_g
    assert audit.extension_of_rule == 1
    assert audit.collapse_alpha == Fraction(3, 5)
    assert audit.collapse_beta == Fraction(9, 10)
    assert audit.collapse_rule == 1
    assert audit.collapse_rule == residuum_lukasiewicz(
        audit.collapse_alpha, audit.collapse_beta
    )


def test_collapse_one_does_not_force_truth():
    """A rule can collapse to 1 while failing classically on the granule.

    The two sides have equal proportional degree, so the residuum saturates,
    yet the one object satisfying the antecedent misses the consequent.
    """
    table = InformationSystem(("a", "b"), (("1", "0"), ("0", "1")))
    g = frozenset({0, 1})
    audit = rule_audit(g, Atom("a", "1"), Atom("b", "1"), table)
    assert audit.collapse_rule == 1
    assert not audit.true_at_g
    assert audit.extension_of_rule == Fraction(1, 2)


def test_compound_antecedent_collapse_undershoots_truth():
    """A true rule whose collapsed worth sits strictly below 1.

    min over the conjuncts' degrees overstates how much of the granule
    satisfies the conjunction, so the residuum is charged for antecedent
    mass that never existed.
    """
    alpha = parse_formula("p=1 & q=1", TABLE)
    beta = parse_formula("s=1", TABLE)
    audit = rule_audit(U, alpha, beta, TABLE)
    assert audit.true_at_g
    assert audit.extension_of_rule == 1
    assert audit.collapse_alpha == Fraction(1, 2)
    assert extension(U, alpha, TABLE) == Fraction(1, 4)
    assert audit.collapse_beta == Fraction(1, 4)
    assert audit.collapse_rule == Fraction(3, 4)


@hypothesis.given(tables(max_objects=6), strat.data())
def test_rule_audit_is_total(table, data):
    """Any granule and formula pair yields a complete audit, no raises."""
    alpha = data.draw(formulas_for(table))
    beta = data.draw(formulas_for(table))
    g = data.draw(granules_for(table, allow_empty=True))
    audit = rule_audit(g, alpha, beta, table)
    assert 0 <= audit.extension_of_rule <= 1
    assert 0 <= audit.collapse_rule <= 1
    assert audit.collapse_rule == min(
        Fraction(1), 1 - audit.collapse_alpha + audit.collapse_beta
    )
