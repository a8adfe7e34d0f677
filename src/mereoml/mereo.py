"""Finite part-whole algebra.

A carrier is a finite set of named atoms.  Entities are the nonempty subsets
of the carrier; the class operator of a family is its union, the product of
two entities their intersection.  Because an intersection can vanish while
the algebra itself has no zero, a single :data:`EMPTY` sentinel stands in for
"no common part".  It holds no bits and no carrier, so each operation is one
bit expression with no branch on it: EMPTY is neutral for sums, absorbing for
products and weighs zero, but is not an entity of the universe, and only the
complement, which needs a carrier, rejects it.

Weights assign a positive rational mass to every atom and extend additively,
which makes them monotone along the part relation and modular over sums.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Union

from .errors import CarrierMismatch, ClassOfEmptyFamily, MereomlError


@dataclass(frozen=True)
class Carrier:
    """A finite universe of named atoms."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise MereomlError("a carrier needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise MereomlError(f"duplicate atom names in {self.atoms}")

    @property
    def universe(self) -> "Entity":
        return Entity(self, (1 << len(self.atoms)) - 1)

    def entity(self, *names: str) -> "Entity":
        """The entity consisting of exactly the named atoms."""
        bits = 0
        for name in names:
            try:
                bits |= 1 << self.atoms.index(name)
            except ValueError:
                raise MereomlError(f"no atom named {name!r}") from None
        if bits == 0:
            raise MereomlError("an entity needs at least one atom; use EMPTY explicitly")
        return Entity(self, bits)

    def singletons(self) -> tuple["Entity", ...]:
        return tuple(Entity(self, 1 << i) for i in range(len(self.atoms)))


class _EmptyEntity:
    """The unique bottom sentinel, deliberately outside every carrier."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    is_empty = True
    carrier = None
    bits = 0

    def __repr__(self):
        return "EMPTY"

    def __add__(self, other):
        return entity_sum(self, other)

    def __mul__(self, other):
        return entity_product(self, other)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0


#: Stand-in result for empty intersections; not an entity of any carrier.
EMPTY = _EmptyEntity()


@dataclass(frozen=True)
class Entity:
    """A nonempty set of atoms of one carrier, encoded as a bitmask."""

    carrier: Carrier
    bits: int

    def __post_init__(self):
        full = (1 << len(self.carrier.atoms)) - 1
        if self.bits == 0:
            raise MereomlError("entities are nonempty; use EMPTY for the bottom")
        if self.bits & ~full:
            raise MereomlError(f"bitmask {self.bits:#x} exceeds carrier of {len(self.carrier.atoms)} atoms")

    is_empty = False

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.carrier.atoms) if self.bits >> i & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, name: str) -> bool:
        return name in self.atoms

    def __repr__(self):
        return f"Entity({'+'.join(self.atoms)})"

    def __add__(self, other: "EntityLike") -> "Entity":
        return entity_sum(self, other)

    def __mul__(self, other: "EntityLike") -> "EntityLike":
        return entity_product(self, other)

    def __neg__(self) -> "EntityLike":
        return complement(self)

    def __sub__(self, other: "EntityLike") -> "EntityLike":
        return rel_complement(self, other)


EntityLike = Union[Entity, _EmptyEntity]


def _carrier(x: EntityLike, y: EntityLike) -> Carrier:
    """The carrier ``x`` and ``y`` share; EMPTY, on none, fits any."""
    if not isinstance(x, EntityLike) or not isinstance(y, EntityLike | WeightFn):
        raise TypeError(f"part-whole operands must be entities, not {x!r} and {y!r}")
    if x.carrier and y.carrier and x.carrier != y.carrier:
        raise CarrierMismatch(f"{x!r} and {y!r} live on different carriers")
    return x.carrier or y.carrier


def _entity(carrier: Carrier, bits: int) -> EntityLike:
    """The entity of ``bits`` on ``carrier``; EMPTY for no bits."""
    return Entity(carrier, bits) if bits else EMPTY


def part(x: EntityLike, y: EntityLike) -> bool:
    """Proper parthood: ``x`` is below ``y`` and distinct from it."""
    return subst(x, y) and x != y


def subst(x: EntityLike, y: EntityLike) -> bool:
    """Improper parthood (ingredient): every atom of ``x`` is an atom of ``y``."""
    _carrier(x, y)
    return x.bits & ~y.bits == 0


def overlap(x: EntityLike, y: EntityLike) -> bool:
    """``x`` and ``y`` share at least one atom."""
    _carrier(x, y)
    return x.bits & y.bits != 0


def exterior(x: EntityLike, y: EntityLike) -> bool:
    return not overlap(x, y)


def entity_sum(x: EntityLike, y: EntityLike) -> EntityLike:
    return _entity(_carrier(x, y), x.bits | y.bits)


def entity_product(x: EntityLike, y: EntityLike) -> EntityLike:
    return _entity(_carrier(x, y), x.bits & y.bits)


def cls(family: Iterable[EntityLike]) -> Entity:
    """The class of a family: the smallest entity every member is part of.

    On a finite carrier this is the union.  The family must contain at least
    one nonempty entity.
    """
    total = reduce(entity_sum, family, EMPTY)
    if total is EMPTY:
        raise ClassOfEmptyFamily("cls needs at least one nonempty entity")
    return total


def complement(x: EntityLike) -> EntityLike:
    """All atoms outside ``x``; EMPTY when ``x`` is the whole universe."""
    if not _carrier(x, x):
        raise MereomlError("the complement of EMPTY has no carrier to live on")
    return _entity(x.carrier, x.carrier.universe.bits & ~x.bits)


def rel_complement(x: EntityLike, y: EntityLike) -> EntityLike:
    """The part of ``x`` outside ``y``, i.e. the product of ``x`` and ``-y``."""
    return _entity(_carrier(x, y), x.bits & ~y.bits)


def implication(x: Entity, y: Entity) -> EntityLike:
    """The material implication entity ``-x + y``."""
    _carrier(x, y)
    return entity_sum(complement(x), y)


def is_valid_implication(x: Entity, y: Entity) -> bool:
    """True when ``-x + y`` is the whole universe, equivalently subst(x, y)."""
    return implication(x, y) == _carrier(x, y).universe


@dataclass(frozen=True)
class WeightFn:
    """Normalized additive mass over one carrier.

    Every atom carries a positive rational mass; an entity weighs the sum of
    its atom masses divided by the total, so the universe always weighs 1 and
    every nonempty entity lands in (0, 1].
    """

    carrier: Carrier
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.masses) != len(self.carrier.atoms):
            raise MereomlError(
                f"{len(self.masses)} masses for {len(self.carrier.atoms)} atoms"
            )
        if any(m <= 0 for m in self.masses):
            raise MereomlError("atom masses must be positive")

    @classmethod
    def uniform(cls, carrier: Carrier) -> "WeightFn":
        """Each atom carries the same share, 1/n."""
        n = len(carrier.atoms)
        return cls(carrier, tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def random(cls, carrier: Carrier, rng: random.Random) -> "WeightFn":
        masses = tuple(
            Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in carrier.atoms
        )
        return cls(carrier, masses)

    def __call__(self, x: EntityLike) -> Fraction:
        _carrier(x, self)
        raw = sum(
            (m for i, m in enumerate(self.masses) if x.bits >> i & 1), Fraction(0)
        )
        return raw / self.total

    @property
    def total(self) -> Fraction:
        return sum(self.masses, Fraction(0))


def weight(w: WeightFn, x: EntityLike) -> Fraction:
    """Function-call spelling of ``w(x)`` for pointfree use."""
    return w(x)
