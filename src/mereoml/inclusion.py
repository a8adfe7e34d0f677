"""Graded containment relations.

Every relation here answers the same question, "to what degree is x a part
of y", on a different domain: entities of a weighted carrier (mass ratio),
unit-interval scalars (residua and Archimedean forms), or objects of a
discrete table (agreeing-feature fraction and the exponential discount of
differing-feature weight).  All of them expose the maximal degree rs*; the
graded relation itself is ``holds(x, y, r)``, true exactly when rs* >= r.

The exponential form admits a multiplicative transitivity bound
``exp_compose``; its exponent carries a negative correction term, which is
what makes the bound sound (see the function docstring).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import dataset
from .bits import pack_rows
from .dataset import (
    DecisionSystem,
    InformationSystem,
    _conditional,
    _pair,
    dis,
    dis_count_matrix,
    ind_fraction,
    lukasiewicz_row_degree,
)
from .errors import DegreeUnderflow, MereomlError
from .mereo import Entity, EntityLike, WeightFn, entity_product

Degree = Union[Fraction, float]


# --- scalar building blocks -------------------------------------------------

def t_lukasiewicz(a: float, b: float) -> float:
    """Lukasiewicz t-norm max(0, a+b-1)."""
    return max(0, a + b - 1)


def residuum_lukasiewicz(a: float, b: float) -> float:
    """Residual implication of the Lukasiewicz t-norm: min(1, 1-a+b)."""
    return min(1, 1 - a + b)


def lukasiewicz_h(t: float) -> float:
    """Decreasing generator companion with h(0)=1; here simply 1-t."""
    return 1 - t


# --- maximal-degree functions -----------------------------------------------

def rs_star_weight(x: EntityLike, y: EntityLike, w: WeightFn) -> Fraction:
    """Mass ratio w(x*y)/w(x); the graded part-of on a weighted carrier."""
    wx = w(x)
    if wx == 0:
        raise DegreeUnderflow("first argument has weight 0; degree undefined")
    return w(entity_product(x, y)) / wx


def rs_star_residual(a: float, b: float) -> float:
    """Unit-interval containment via the Lukasiewicz residuum; 1 exactly when a <= b."""
    return residuum_lukasiewicz(a, b)


def rs_star_archimedean(a: float, b: float, h: Callable[[float], float] = lukasiewicz_h) -> float:
    """Symmetric containment h(|a-b|) for the companion h of an Archimedean t-norm."""
    return h(abs(a - b))


def rs_star_is(x: int, y: int, system: InformationSystem | DecisionSystem) -> Fraction:
    """Fraction of conditional features on which two objects agree."""
    return ind_fraction(x, y, system)


@dataclass(frozen=True)
class FeatureWeights:
    """Positive finite weights of distinct features, for the exponential containment."""

    features: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.features) != len(self.values):
            raise MereomlError(
                f"{len(self.values)} weights for {len(self.features)} features"
            )
        if len(set(self.features)) != len(self.features):
            raise MereomlError(f"duplicate features in {self.features}")
        if not all(0 < v < math.inf for v in self.values):
            raise MereomlError("feature weights must be positive and finite")

    @classmethod
    def uniform(cls, features: Sequence[str]) -> "FeatureWeights":
        """1/|F| each, so any sum over differing features stays within [0,1]."""
        n = len(features)
        return cls(tuple(features), tuple(1 / n for _ in features))

    def __call__(self, feature: str) -> float:
        try:
            return self.values[self.features.index(feature)]
        except ValueError:
            raise MereomlError(f"no weight for feature {feature!r}") from None

    def total(self, features: Iterable[str]) -> float:
        return sum(self(f) for f in features)


def rs_star_exp(
    x: int,
    y: int,
    system: InformationSystem | DecisionSystem,
    fw: FeatureWeights | None = None,
) -> float:
    """exp(-(sum of weights of differing features)^2); 1 iff the rows agree.

    Sums in table feature order, as :func:`exp_row_degree` does.
    """
    if fw is None:
        fw = FeatureWeights.uniform(system.features)
    differing = dis(x, y, system)
    s = fw.total(f for f in system.features if f in differing)
    return math.exp(-(s * s))


def exp_row_degree(
    row_a: Sequence[str], row_b: Sequence[str], fw: FeatureWeights
) -> float:
    """Exponential degree of two aligned value rows under per-position weights."""
    if not (len(row_a) == len(row_b) == len(fw.values)):
        raise MereomlError(
            f"row/weight lengths differ: {len(row_a)}, {len(row_b)}, {len(fw.values)}"
        )
    s = sum(w for a, b, w in zip(row_a, row_b, fw.values) if a != b)
    return math.exp(-(s * s))


def exp_compose(r: float, s: float) -> float:
    """Transitivity bound for the exponential containment.

    alpha(r, s) = r * s * exp(-2 * sqrt(ln r * ln s)).  Writing A = -ln r and
    B = -ln s, the exponent of alpha is -(sqrt(A) + sqrt(B))^2; since the
    weight sums behind the degrees satisfy the triangle inequality, the
    composed degree exp(-(sqrt(A')+sqrt(B'))^2) can never drop below alpha.
    The correction term is a penalty: alpha(r, s) <= r * s <= min(r, s),
    with equality alpha(1, s) = s.
    """
    for v in (r, s):
        if v <= 0:
            raise DegreeUnderflow(f"degree {v} has no finite log; bound undefined")
        if v > 1:
            raise MereomlError(f"degree {v} outside (0, 1]")
    return r * s * math.exp(-2 * math.sqrt(math.log(r) * math.log(s)))


def fuzzy_similarity(x, y, inclusion: "RoughInclusion") -> Degree:
    """Symmetrized degree min(rs*(x,y), rs*(y,x)); reflexive and symmetric."""
    return min(inclusion.degree(x, y), inclusion.degree(y, x))


# --- packaged inclusion kinds -----------------------------------------------

class RoughInclusion:
    """A maximal-degree graded containment over some fixed context.

    Subclasses implement :meth:`degree`; ``holds(x, y, r)`` is always the
    comparison rs*(x, y) >= r.  ``symmetric`` advertises whether the degree
    function is symmetric in its arguments, which neighborhood construction
    requires.
    """

    symmetric: bool = False

    def degree(self, x, y) -> Degree:
        raise NotImplementedError

    def holds(self, x, y, r) -> bool:
        return self.degree(x, y) >= r


@dataclass(frozen=True)
class WeightRatioInclusion(RoughInclusion):
    """Entity containment by mass ratio; asymmetric."""

    w: WeightFn
    symmetric = False

    def degree(self, x: Entity, y: Entity) -> Fraction:
        return rs_star_weight(x, y, self.w)


@dataclass(frozen=True)
class ResidualInclusion(RoughInclusion):
    """Scalar containment a => b under the Lukasiewicz residuum; asymmetric."""

    symmetric = False

    def degree(self, a: float, b: float) -> float:
        return rs_star_residual(a, b)


@dataclass(frozen=True)
class ArchimedeanInclusion(RoughInclusion):
    """Scalar similarity h(|a-b|); symmetric."""

    symmetric = True

    def degree(self, a: float, b: float) -> float:
        return rs_star_archimedean(a, b)


class _TableInclusion(RoughInclusion):
    """Object containment on a discrete table: degrees from rows, granules from counts.

    A degree reads the two rows, so it builds no matrix.  Granule families
    read ``dis_counts``, the differing conditional features of every pair of
    objects, counted as one :func:`dis_count_matrix` product on first use.
    Each kind supplies ``_bounded(r)``, a matrix and a bound from its degree
    formula, with ``matrix[x, y] <= bound`` iff degree(x, y) >= r, read as a
    boolean row for one center, or as every row's integer bitset, packed one
    row block at a time.  An object id outside the table raises :class:`UnknownObject`.
    """

    symmetric = True

    @property
    def _table(self) -> InformationSystem:
        return _conditional(self.system)

    @cached_property
    def dis_counts(self) -> np.ndarray:
        codes = self.system.encoded.codes[:, : len(self._table.features)]
        return dis_count_matrix(codes, codes)

    def membership_mask(self, center: int, r) -> np.ndarray:
        """Boolean row over all objects: degree(y, center) >= r."""
        self._table._check_object(center)
        matrix, bound = self._bounded(r)
        return matrix[center] <= bound

    def membership_bits(self, r) -> list[int]:
        """Row c as an integer bitset, bit y set iff degree(y, c) >= r.

        Rows are compared and packed one block at a time, a block's boolean
        taking at most ``COUNT_BLOCK_BYTES``, so no n x n boolean is built.
        """
        matrix, bound = self._bounded(r)
        rows = max(1, dataset.COUNT_BLOCK_BYTES // max(1, len(matrix)))
        out = []
        for start in range(0, len(matrix), rows):
            out += pack_rows(matrix[start : start + rows] <= bound)
        return out


@dataclass(frozen=True)
class LukasiewiczInclusion(_TableInclusion):
    """Object containment on a discrete table: agreeing-feature fraction.

    A degree is :func:`ind_fraction` of the two rows, an exact rational with
    denominator |F|.  Granules compare the cached counts of differing
    features with one integer bound, one comparison per pair.
    """

    system: InformationSystem | DecisionSystem

    def degree(self, x: int, y: int) -> Fraction:
        return ind_fraction(x, y, self.system)

    def _bounded(self, r) -> tuple[np.ndarray, int]:
        """The counts, and the largest count with degree >= r: m*(1-r), floored
        exactly with r clamped at 0, or -1 past 1 (or NaN), which no degree reaches."""
        m = len(self._table.features)
        return self.dis_counts, math.floor(m * (1 - Fraction(max(r, 0)))) if r <= 1 else -1


_BITS, _DOUBLE = struct.Struct("<q"), struct.Struct("<d")


@lru_cache
def _exp_bound(r) -> float:
    """The largest double s >= 0 (inf included) with ``math.exp(-(s * s)) >= r``,
    or -1.0: the test fails more as s grows and non-negative doubles sort as
    their int64 bit patterns, so <= 64 tests bisect the patterns.  A granule
    loop asks for one radius at every center, so the last 128 are kept."""
    lo, hi = 0, _BITS.unpack(_DOUBLE.pack(math.inf))[0] + 1
    while lo < hi:  # the patterns below lo pass, those from hi on fail
        mid = (lo + hi) // 2
        s = _DOUBLE.unpack(_BITS.pack(mid))[0]
        lo, hi = (mid + 1, hi) if math.exp(-(s * s)) >= r else (lo, mid)
    return _DOUBLE.unpack(_BITS.pack(lo - 1))[0] if lo else -1.0


@dataclass(frozen=True)
class ExponentialInclusion(_TableInclusion):
    """Object containment exp(-(weighted differing-feature sum)^2); symmetric.

    Its weights, uniform by default, are read once in table feature order and
    must weigh every table feature; a degree is :func:`exp_row_degree` of the
    two rows.  Granules read ``dis_counts`` under uniform weights, k differing
    features summing to ``_sums_by_count[k]``, and ``dis_weight_sums`` under
    explicit ones.
    """

    system: InformationSystem | DecisionSystem
    weights: FeatureWeights | None = None

    def __post_init__(self):  # raises for a table feature without a weight
        features = self._table.features
        fw = self.weights or FeatureWeights.uniform(features)
        object.__setattr__(self, "_weights", FeatureWeights(features, tuple(map(fw, features))))

    @cached_property
    def _sums_by_count(self) -> np.ndarray:
        """The uniform weight added k times, k = 0..|F|: bit-equal to the sum
        that :func:`exp_row_degree` forms over k differing features."""
        return np.array(list(accumulate(self._weights.values, initial=0.0)))

    @cached_property
    def dis_weight_sums(self) -> np.ndarray:
        """Pairwise weight sum of the differing features, as float64.

        Explicit weights are added in place, one column at a time in feature
        order where its codes differ, so no float temporary is built and each
        sum adds the same floats in the same order as :func:`exp_row_degree`.
        """
        if self.weights is None:
            return self._sums_by_count[self.dis_counts]
        out = np.zeros((len(self._table.rows),) * 2)
        for col, w in zip(np.ascontiguousarray(self.system.encoded.codes.T), self._weights.values):
            np.add(out, w, out=out, where=col[:, None] != col[None, :])
        return out

    def degree(self, x: int, y: int) -> float:
        _, rx, ry = _pair(x, y, self.system)
        return exp_row_degree(rx, ry, self._weights)

    def _bounded(self, r) -> tuple[np.ndarray, float]:
        """The counts and the largest count whose sum is at most :func:`_exp_bound`,
        or under explicit weights the sums and that bound; -1 keeps no object."""
        bound = _exp_bound(r)
        if self.weights is None:
            return self.dis_counts, int(np.searchsorted(self._sums_by_count, bound, "right")) - 1
        return self.dis_weight_sums, bound
