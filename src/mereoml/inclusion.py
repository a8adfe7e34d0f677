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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import dataset
from .bits import pack_rows
from .dataset import (
    DecisionSystem,
    InformationSystem,
    _conditional,
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


#: Additive generator of the Lukasiewicz t-norm; coincidentally equals h.
lukasiewicz_g = lukasiewicz_h


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


@dataclass(frozen=True)
class ExponentialInclusion(_TableInclusion):
    """Object containment exp(-(weighted differing-feature sum)^2); symmetric.

    A degree is :func:`rs_star_exp` of the two rows.  Explicit weights must
    weigh every table feature.  Granules under the default uniform weights
    read ``dis_counts``, k differing features summing to ``_sums_by_count[k]``;
    explicit weights sum per pair in ``dis_weight_sums``, sorted once.  A granule
    keeps the sums whose float degree, formed as :func:`rs_star_exp` forms it, is >= r.
    """

    system: InformationSystem | DecisionSystem
    weights: FeatureWeights | None = None

    def __post_init__(self):
        if self.weights is not None:
            for f in self._table.features:
                self.weights(f)  # raises for a feature without a weight

    @cached_property
    def _sums_by_count(self) -> np.ndarray:
        """The uniform weight added k times in feature order, for k = 0..|F|.

        Bit-equal to the sum that :func:`exp_row_degree` forms over k
        differing features.
        """
        uniform = FeatureWeights.uniform(self._table.features).values
        return np.array(list(accumulate(uniform, initial=0.0)))

    @cached_property
    def dis_weight_sums(self) -> np.ndarray:
        """Pairwise weight sum of the differing features, as float64.

        Explicit weights accumulate one column at a time in feature order,
        so memory stays O(n^2) and each sum adds the same floats in the same
        order as :func:`exp_row_degree`.
        """
        if self.weights is None:
            return self._sums_by_count[self.dis_counts]
        table = self._table
        out = np.zeros((len(table.rows),) * 2)
        for col, f in zip(np.ascontiguousarray(self.system.encoded.codes.T), table.features):
            out += (col[:, None] != col[None, :]) * self.weights(f)
        return out

    @cached_property
    def _sorted_weight_sums(self) -> np.ndarray:
        return np.sort(self.dis_weight_sums, axis=None)

    def degree(self, x: int, y: int) -> float:
        return rs_star_exp(x, y, self.system, self.weights)

    def _bounded(self, r) -> tuple[np.ndarray, float]:
        """The counts, or under explicit weights the sums, and the largest one
        whose degree passes ``math.exp(-(s * s)) >= r``, or -1 if none does.

        The degree falls as the sum grows, so the sorted sums bisect under the
        negated test, and a NaN radius, which no degree passes, keeps no object.
        """
        uniform = self.weights is None
        sums = self._sums_by_count if uniform else self._sorted_weight_sums
        k = bisect_left(sums, True, key=lambda s: not math.exp(-(s * s)) >= r)
        if uniform:
            return self.dis_counts, k - 1
        return self.dis_weight_sums, sums[k - 1] if k else -1
