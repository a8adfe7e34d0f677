"""Descriptor formulas over a table, evaluated on granules.

A formula is built from atoms ``feature = value`` with ``!``, ``&``, ``|``
and ``->``.  Its meaning is the set of objects satisfying it classically.
On a granule g the formula acquires a degree: how far g sits inside the
meaning, measured three-valuedly (in, out, or astride) or proportionally
(the fraction of g covered).  Truth at g is degree 1, which for the
proportional measure is exactly containment of g in the meaning.

``collapse_value`` forgets the object variable instead: it values every
atom by its proportional degree on g and folds the connectives many-valuedly
(not: 1-v, implies: min(1, 1-v+w), and: min, or: max).  All degrees are
exact rationals.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Union

import numpy as np

from .bits import MemberView, member_bits, pack_rows
from .dataset import DecisionSystem, InformationSystem
from .errors import MereomlError


class ParseError(MereomlError):
    """Formula text rejected; the message carries a 1-based column."""


class UnknownValue(MereomlError):
    """An atom names a value never observed for its feature."""


# --- syntax -----------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    feature: str
    value: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]

#: Most levels a parsed formula may nest: every connective and every pair of
#: parentheses is one level, an atom is the last.  Evaluation and printing
#: recurse once per level, so a deeper formula is a parse error.
MAX_DEPTH = 100

#: One formula token per match: an operator, a word, or any other character
#: but a space, which is an error.
_TOKEN = re.compile(r"(?P<op>->|[!&|()=])|(?P<word>[A-Za-z0-9_.]+)|(?P<bad>\S)")


class _Tokens:
    """Scanner producing (kind, text, column) triples, columns 1-based."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        for match in _TOKEN.finditer(text):
            token, kind = match[0], match.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {token!r} at column {match.start() + 1}")
            self.items.append((token if kind == "op" else kind, token, match.start() + 1))
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("end", "", len(self.text) + 1)

    def take(self, kind: str) -> tuple[str, str, int]:
        item = self.peek()
        if item[0] != kind:
            got = repr(item[1]) if item[0] != "end" else "end of input"
            raise ParseError(f"expected {kind!r}, found {got} at column {item[2]}")
        self.pos += 1
        return item


def parse_formula(
    text: str,
    system: InformationSystem | DecisionSystem | None = None,
    allow_unseen: bool = False,
) -> Formula:
    """Parse formula text; when a system is given, check atoms against it.

    Features must exist in the system (the decision feature counts); values
    must have been observed for their feature unless ``allow_unseen``.  A
    formula nested more than :data:`MAX_DEPTH` levels deep is rejected.
    """
    tokens = _Tokens(text)
    formula, _ = _parse_imp(tokens, 0)
    trailing = tokens.peek()
    if trailing[0] != "end":
        raise ParseError(
            f"unexpected {trailing[1]!r} at column {trailing[2]}"
        )
    if system is not None:
        _check_atoms(formula, system, allow_unseen)
    return formula


# Each parser takes the levels opened above it and returns its formula with
# the levels it spans; a chain of & or | deepens its first operand per link.


def _too_deep(column: int) -> ParseError:
    return ParseError(f"formula nested more than {MAX_DEPTH} levels deep at column {column}")


def _join(kind, left, right, depth: int, column: int) -> tuple[Formula, int]:
    """The node ``kind(left, right)`` of two parsed (formula, levels) pairs."""
    levels = max(left[1], right[1]) + 1
    if depth + levels > MAX_DEPTH:
        raise _too_deep(column)
    return kind(left[0], right[0]), levels


def _parse_imp(tokens: _Tokens, depth: int) -> tuple[Formula, int]:
    left = _parse_or(tokens, depth)
    if tokens.peek()[0] == "->":
        column = tokens.take("->")[2]
        return _join(Implies, left, _parse_imp(tokens, depth + 1), depth, column)
    return left


def _parse_or(tokens: _Tokens, depth: int) -> tuple[Formula, int]:
    node = _parse_and(tokens, depth)
    while tokens.peek()[0] == "|":
        column = tokens.take("|")[2]
        node = _join(Or, node, _parse_and(tokens, depth + 1), depth, column)
    return node


def _parse_and(tokens: _Tokens, depth: int) -> tuple[Formula, int]:
    node = _parse_not(tokens, depth)
    while tokens.peek()[0] == "&":
        column = tokens.take("&")[2]
        node = _join(And, node, _parse_not(tokens, depth + 1), depth, column)
    return node


def _parse_not(tokens: _Tokens, depth: int) -> tuple[Formula, int]:
    kind, _, column = tokens.peek()
    # every recursion passes here, so this also bounds the parser's stack
    if depth >= MAX_DEPTH:
        raise _too_deep(column)
    if kind == "!":
        tokens.take("!")
        sub, levels = _parse_not(tokens, depth + 1)
        return Not(sub), levels + 1
    if kind == "(":
        tokens.take("(")
        inner, levels = _parse_imp(tokens, depth + 1)
        tokens.take(")")
        return inner, levels + 1
    feature = tokens.take("word")[1]
    tokens.take("=")
    value = tokens.take("word")[1]
    return Atom(feature, value), 1


def _check_atoms(formula: Formula, system, allow_unseen: bool) -> None:
    for atom in iter_atoms(formula):
        _, index = _column(atom.feature, system)
        if not allow_unseen and atom.value not in index:
            raise UnknownValue(
                f"value {atom.value!r} never observed for feature {atom.feature!r}"
            )


def _column(feature: str, system) -> tuple[np.ndarray, dict[str, int]]:
    """A feature's column of codes and its token -> code index.

    The decision feature of a decision system counts; any other name must be
    a conditional feature, else :class:`UnknownFeature`.
    """
    j = system.feature_index(feature)
    return system.encoded.codes[:, j], system.encoded.index[j]


def iter_atoms(formula: Formula) -> Iterable[Atom]:
    if isinstance(formula, Atom):
        yield formula
    elif isinstance(formula, Not):
        yield from iter_atoms(formula.sub)
    else:
        yield from iter_atoms(formula.left)
        yield from iter_atoms(formula.right)


_LEVEL = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}


def print_formula(formula: Formula) -> str:
    """Concrete syntax with minimal parentheses; parse round-trips it."""
    return _print(formula, 1)


def _print(node: Formula, context: int) -> str:
    if isinstance(node, Atom):
        return f"{node.feature}={node.value}"
    if isinstance(node, Not):
        body = "!" + _print(node.sub, 4)
    elif isinstance(node, And):
        body = f"{_print(node.left, 3)} & {_print(node.right, 4)}"
    elif isinstance(node, Or):
        body = f"{_print(node.left, 2)} | {_print(node.right, 3)}"
    else:
        body = f"{_print(node.left, 2)} -> {_print(node.right, 1)}"
    return f"({body})" if _LEVEL[type(node)] < context else body


# --- semantics --------------------------------------------------------------

def satisfies(obj: int, formula: Formula, system) -> bool:
    if isinstance(formula, Atom):
        return system.value(obj, formula.feature) == formula.value
    if isinstance(formula, Not):
        return not satisfies(obj, formula.sub, system)
    if isinstance(formula, And):
        return satisfies(obj, formula.left, system) and satisfies(obj, formula.right, system)
    if isinstance(formula, Or):
        return satisfies(obj, formula.left, system) or satisfies(obj, formula.right, system)
    return not satisfies(obj, formula.left, system) or satisfies(obj, formula.right, system)


def meaning(formula: Formula, system) -> MemberView:
    """The set of objects classically satisfying the formula.

    Evaluated as one boolean mask over the table's encoded columns; it agrees
    with :func:`satisfies` object by object.  The set is a
    :class:`MemberView` of the mask's bitset, which equals and hashes like
    the frozenset of its members.
    """
    return MemberView(pack_rows(_mask(formula, system)[None])[0])


def _mask(formula: Formula, system) -> np.ndarray:
    """Per object, whether it satisfies the formula; an unseen value matches none."""
    if isinstance(formula, Atom):
        codes, index = _column(formula.feature, system)
        return codes == index.get(formula.value, -1)
    if isinstance(formula, Not):
        return ~_mask(formula.sub, system)
    left = _mask(formula.left, system)
    right = _mask(formula.right, system)
    if isinstance(formula, And):
        return left & right
    if isinstance(formula, Or):
        return left | right
    return ~left | right


class NuMode(enum.Enum):
    """How far a set X sits inside a set Y."""

    NU3 = "nu3"
    NUL = "nul"


def _as_bits(members: AbstractSet) -> AbstractSet:
    """The members as a bitset view if all are non-negative ints, else a frozenset."""
    if isinstance(members, MemberView):
        return members
    if all(isinstance(x, int) and x >= 0 for x in members):
        return MemberView(member_bits(members))
    return frozenset(members)


def _overlap(x: AbstractSet, y: AbstractSet) -> tuple[int, int]:
    """|x intersect y| and |x|: popcounts when both sets are bitsets."""
    x, y = _as_bits(x), _as_bits(y)
    if isinstance(x, MemberView) and isinstance(y, MemberView):
        return (x.bits & y.bits).bit_count(), len(x)
    return len(x & y), len(x)


def nu(mode: NuMode, x: AbstractSet[int], y: AbstractSet[int]) -> Fraction:
    """Containment degree of x in y: three-valued or proportional.

    The proportional mode returns |x intersect y| / |x|, with the empty x
    vacuously contained (degree 1).  Both modes need only those two counts.
    """
    inside, size = _overlap(x, y)
    if mode is NuMode.NU3:
        # x lies inside y exactly when y holds all of its members
        if inside == size:
            return Fraction(1)
        return Fraction(1, 2) if inside else Fraction(0)
    return Fraction(inside, size) if size else Fraction(1)


def extension(
    g: AbstractSet[int],
    formula: Formula,
    system,
    mode: NuMode = NuMode.NUL,
) -> Fraction:
    """Degree to which the formula's meaning covers the granule."""
    return nu(mode, g, meaning(formula, system))


def is_true_at(g: AbstractSet[int], formula: Formula, system) -> bool:
    """Truth at a granule: the meaning contains it to degree 1.

    For a rule a -> b this is equivalent to (g intersect [a]) being inside
    [b], since the meaning of the rule is the material implication set.
    """
    return nu(NuMode.NU3, g, meaning(formula, system)) == 1


@dataclass(frozen=True)
class GranuleSet:
    """A family of nonempty granules carrying one logic."""

    granules: tuple[frozenset[int], ...]

    def __post_init__(self):
        if any(not g for g in self.granules):
            raise MereomlError("empty granules carry no logic; drop them first")

    def __iter__(self):
        return iter(self.granules)


def is_valid(granules: GranuleSet | Iterable[AbstractSet[int]], formula: Formula, system) -> bool:
    """Validity: truth at the union of all granules, so at each of them."""
    m = meaning(formula, system)
    return all(nu(NuMode.NU3, g, m) == 1 for g in granules)


def graded_truth(
    g: AbstractSet[int],
    formula: Formula,
    system,
    r,
    mode: NuMode = NuMode.NUL,
) -> bool:
    """Truth to degree at least r."""
    return extension(g, formula, system, mode) >= r


def collapse_value(g: AbstractSet[int], formula: Formula, system) -> Fraction:
    """Many-valued worth of the propositional skeleton on a granule.

    Atoms take their proportional degree on g; connectives fold by the
    many-valued truth functions (not: 1-v, implies: min(1, 1-v+w), and:
    min, or: max).  Exact rational throughout.

    On literals the fold equals ``extension``.  On a compound side it only
    bounds the proportional degree: nu(g, [a & b]) <= min(nu(g, [a]),
    nu(g, [b])) and nu(g, [a | b]) >= max(nu(g, [a]), nu(g, [b])).  The
    forward directions of a rule a -> b true at g (worth 1, and the
    antecedent's degree at most the consequent's) therefore hold for
    ``extension`` of each side, not for this fold: a true rule with a
    compound side can collapse below 1.
    """
    g = _as_bits(g)
    if isinstance(formula, Atom):
        return nu(NuMode.NUL, g, meaning(formula, system))
    if isinstance(formula, Not):
        return 1 - collapse_value(g, formula.sub, system)
    if isinstance(formula, And):
        return min(
            collapse_value(g, formula.left, system),
            collapse_value(g, formula.right, system),
        )
    if isinstance(formula, Or):
        return max(
            collapse_value(g, formula.left, system),
            collapse_value(g, formula.right, system),
        )
    v = collapse_value(g, formula.left, system)
    w = collapse_value(g, formula.right, system)
    return min(Fraction(1), 1 - v + w)


@dataclass(frozen=True)
class RuleAudit:
    """All truth readings of one rule on one granule, side by side."""

    true_at_g: bool
    extension_of_rule: Fraction
    collapse_alpha: Fraction
    collapse_beta: Fraction
    collapse_rule: Fraction


def rule_audit(
    g: AbstractSet[int],
    alpha: Formula,
    beta: Formula,
    system,
    mode: NuMode = NuMode.NUL,
) -> RuleAudit:
    """Truth, extension and the collapsed reading of alpha -> beta on g.

    When ``true_at_g`` holds, ``extension_of_rule`` is 1 and the forward
    directions hold for ``extension(g, alpha)`` and ``extension(g, beta)``.
    The collapse fields always satisfy ``collapse_rule == min(1, 1 -
    collapse_alpha + collapse_beta)``, but a true rule constrains them only
    when both sides are literals: with a compound side ``collapse_rule``
    can fall below 1.
    """
    g = _as_bits(g)
    rule = Implies(alpha, beta)
    return RuleAudit(
        true_at_g=is_true_at(g, rule, system),
        extension_of_rule=extension(g, rule, system, mode),
        collapse_alpha=collapse_value(g, alpha, system),
        collapse_beta=collapse_value(g, beta, system),
        collapse_rule=collapse_value(g, rule, system),
    )
