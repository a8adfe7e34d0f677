"""Granular compression of decision tables.

A granule collects every object within a given containment degree of its
center.  A covering by granules, made irreducible, is compressed into a
"mirror" table whose rows are granules with majority-voted values; test
objects are then classified against the mirror by nearest row.  The whole
pipeline, swept over a radius grid under cross-validation, is
:func:`run_decider`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from operator import or_
from statistics import fmean
from typing import AbstractSet, Sequence

import numpy as np

from .bits import MemberView, member_bits, pack_rows, unpack_rows
from .dataset import DecisionSystem, EncodedTable, _check_widths, dis_count_matrix
from .errors import FoldError, MereomlError, ParameterError
from .inclusion import (
    Degree,
    ExponentialInclusion,
    LukasiewiczInclusion,
    RoughInclusion,
)

INCLUSION_KINDS = {
    "lukasiewicz": LukasiewiczInclusion,
    "exp": ExponentialInclusion,
}


def make_inclusion(kind: str, system) -> RoughInclusion:
    try:
        return INCLUSION_KINDS[kind](system)
    except KeyError:
        raise MereomlError(
            f"unknown inclusion kind {kind!r}; choose from {sorted(INCLUSION_KINDS)}"
        ) from None


@dataclass(frozen=True, slots=True)
class Granule:
    """All objects whose degree of containment in the center reaches ``radius``.

    The package's granules hold ``members`` as a :class:`MemberView` of
    their bitset; any set of the same members will do.
    """

    center: int
    radius: Degree
    members: AbstractSet[int]


@dataclass(frozen=True)
class Covering:
    """A family of granules whose members jointly exhaust the universe."""

    granules: tuple[Granule, ...]
    universe: frozenset[int]

    def __post_init__(self):
        covered = reduce(or_, (member_bits(g.members) for g in self.granules), 0)
        if covered != member_bits(self.universe):
            raise MereomlError("granules do not cover the universe exactly")


@dataclass(frozen=True)
class GranularReflection:
    """The mirror table: one row per covering granule, values by vote.

    ``rows[i]`` holds the voted conditional values of granule i over
    ``features``; ``decisions[i]`` the voted decision.  ``encoded`` holds
    the same values as codes, the decision as its last column.
    """

    covering: Covering
    features: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    decisions: tuple[str, ...]
    encoded: EncodedTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # a mirror built by hand is encoded from its own tokens
        if self.encoded is None:
            if len(self.decisions) != len(self.rows):
                raise ValueError(f"{len(self.decisions)} decisions for {len(self.rows)} rows")
            _check_widths(self.rows, len(self.features))
            encoded = EncodedTable.from_rows(self.rows, len(self.features), self.decisions)
            object.__setattr__(self, "encoded", encoded)


@dataclass(frozen=True)
class RadiusResult:
    radius: Degree
    accuracy: float
    coverage: float
    granules: float
    reduction: float


@dataclass(frozen=True)
class DeciderReport:
    """Cross-validated pipeline results, one row per radius.

    ``granules`` and ``reduction`` are averaged over folds; ``best_radius``
    maximizes accuracy, with ties going to the smaller radius.
    """

    per_radius: tuple[RadiusResult, ...]
    best_radius: Degree


def radius_grid(feature_count: int) -> tuple[Fraction, ...]:
    """The grid {1/m, 2/m, ..., 1} of meaningful agreement thresholds."""
    if feature_count < 1:
        raise ParameterError("need at least one feature")
    return tuple(Fraction(k, feature_count) for k in range(1, feature_count + 1))


def _check_granule_args(r: Degree, inclusion: RoughInclusion) -> None:
    if not inclusion.symmetric:
        raise MereomlError("granules need a symmetric inclusion")
    if not 0 <= r <= 1:
        raise MereomlError(f"radius {r} outside [0, 1]")
    if not hasattr(inclusion, "membership_bits"):
        raise MereomlError("granules need an inclusion over a table's objects")


def granule(center: int, r: Degree, inclusion: RoughInclusion) -> Granule:
    """The neighborhood {y : degree(y, center) >= r}, read from a table
    inclusion's ``membership_mask``.

    Requires a symmetric inclusion; otherwise the neighborhood reading and
    the class-based reading of a granule part ways.
    """
    _check_granule_args(r, inclusion)
    bits = pack_rows(inclusion.membership_mask(center, r)[None])[0]
    return Granule(center, r, MemberView(bits))


def all_granules(r: Degree, inclusion: RoughInclusion) -> tuple[Granule, ...]:
    """One granule per object, in object order.

    The granules of the radius are one family: the rows of a table
    inclusion's membership matrix, which ``membership_bits`` packs block by
    block into integer bitsets without building the matrix, each held by its
    granule's :class:`MemberView`.  No member set is built until one is
    asked for.
    """
    _check_granule_args(r, inclusion)
    rows = inclusion.membership_bits(r)
    return tuple(map(Granule, inclusion.system.objects, repeat(r), map(MemberView, rows)))


def irreducible_covering(granules: Sequence[Granule], universe: frozenset[int]) -> Covering:
    """Select a covering from which no granule can be dropped.

    Works on the members' integer bitsets (:func:`member_bits`).  Greedy
    pass by descending member count (ties to the lower center id), then a
    reverse elimination pass: a granule added early can be made redundant by
    later picks.  A granule is dropped iff every one of its members in the
    universe is covered by another kept granule, and no other kept granule
    reaches outside the universe.  The other kept granules are the earlier
    picks, all still kept, and the later ones that survived.  Deterministic.
    """
    granules = list(granules)
    bits = [member_bits(g.members) for g in granules]
    whole = member_bits(universe)
    order = np.lexsort(([g.center for g in granules], [-b.bit_count() for b in bits]))
    chosen: list[int] = []
    uncovered = whole
    for i in order.tolist():
        if not uncovered:
            break
        if uncovered & bits[i]:
            chosen.append(i)
            uncovered &= ~bits[i]
    if uncovered:
        raise MereomlError(f"granules cannot cover objects {sorted(MemberView(uncovered))}")
    strays = [(bits[i] & ~whole) != 0 for i in chosen]
    kept_strays = sum(strays)
    earlier = list(accumulate((bits[i] for i in chosen), or_, initial=0))
    later = 0
    kept = []
    for k in reversed(range(len(chosen))):
        own = bits[chosen[k]]
        # the rest cover the universe exactly: every member of this granule
        # is covered again, and no other kept granule reaches outside it
        if kept_strays == strays[k] and (own & whole & ~(earlier[k] | later)) == 0:
            kept_strays -= strays[k]
        else:
            later |= own
            kept.append(chosen[k])
    survivors = sorted((granules[i] for i in reversed(kept)), key=lambda g: g.center)
    return Covering(tuple(survivors), universe)


def majority_value(values: Sequence[str]) -> str:
    """Most frequent token; ties resolved toward the smallest token."""
    if not values:
        raise MereomlError("cannot vote over no values")
    counts = Counter(values)
    top = max(counts.values())
    return min(v for v, c in counts.items() if c == top)


def _vote(membership: np.ndarray, table: EncodedTable) -> EncodedTable:
    """Per row of the 0/1 ``membership`` matrix, each column's commonest code.

    Consecutive columns are voted together in blocks: each column's one-hot
    is padded to the block's widest vocabulary, and a block holds at most one
    one-hot column per object (a wider column is a block of its own).  So a
    block is one product of ``membership`` with an objects x at most objects
    matrix, which counts every token among a row's members, and one
    ``argmax``.  Codes follow sorted token order and padding counts nothing,
    so the first maximum is the smallest tied token, as in
    :func:`majority_value`.
    """
    n, m = table.codes.shape
    widths = [len(tokens) for tokens in table.vocab]
    objects = np.arange(n)[:, None]
    codes = np.empty((len(membership), m), dtype=table.codes.dtype)
    start = 0
    while start < m:
        stop, width = start + 1, widths[start]
        while stop < m and (stop + 1 - start) * max(width, widths[stop]) <= n:
            width = max(width, widths[stop])
            stop += 1
        one_hot = np.zeros((n, (stop - start) * width), dtype=membership.dtype)
        one_hot[objects, table.codes[:, start:stop] + np.arange(0, one_hot.shape[1], width)] = 1
        counts = (membership @ one_hot).reshape(len(membership), stop - start, width)
        codes[:, start:stop] = counts.argmax(axis=2)
        # free this block's arrays before the next block's are built
        del one_hot, counts
        start = stop
    return EncodedTable(codes, table.vocab, table.index)


def granular_mirror(covering: Covering, system: DecisionSystem) -> GranularReflection:
    """Vote each granule into a single mirror row (conditional and decision).

    The covering's member bitsets unpack to one granules x objects 0/1 matrix.
    That matrix times a one-hot of each column's codes counts each token in
    each granule, and ``argmax`` picks the winner, ties going to the
    smallest token as in :func:`majority_value`.  The decision is voted as
    the last column of the table's encoding, and the mirror keeps the voted
    codes for :func:`classify_many`.
    """
    if not covering.granules:
        # a table without objects: nothing to vote, and no token to argmax over
        return GranularReflection(covering, system.features, (), ())
    m = len(system.features)
    bits = [member_bits(g.members) for g in covering.granules]
    membership = unpack_rows(bits, len(system.decisions)).astype(np.float32)
    voted = _vote(membership, system.encoded)
    rows = voted.decode()
    return GranularReflection(
        covering,
        system.features,
        tuple(row[:m] for row in rows),
        tuple(row[m] for row in rows),
        voted,
    )


def classify(reflection: GranularReflection, test_row: Sequence[str]) -> str:
    """Decision of the mirror row agreeing with ``test_row`` on most features."""
    return classify_many(reflection, [test_row])[0]


def classify_many(
    reflection: GranularReflection, test_rows: Sequence[Sequence[str]]
) -> list[str]:
    """Decisions of the nearest mirror rows, for many test rows at once.

    Test tokens are looked up in the mirror's vocabulary, and per test row
    the mirror rows with the fewest differing features are tied.  A tie is
    decided by majority among the tied rows' decisions, counted as the tie
    mask times a one-hot of the mirror's decision codes; if that vote ties
    too, the lowest-index tied row whose decision leads wins.
    """
    if not test_rows:
        return []
    if not reflection.rows:
        raise MereomlError("the mirror has no rows to classify against")
    m = len(reflection.features)
    for row in test_rows:
        if len(row) != m:
            raise MereomlError(f"test row has {len(row)} values, expected {m}")
    enc = reflection.encoded
    dis = dis_count_matrix(enc.lookup(test_rows), enc.codes[:, :m])
    tied = dis == dis.min(axis=1, keepdims=True)
    decisions = enc.codes[:, m]
    one_hot = decisions[:, None] == np.arange(len(enc.vocab[m]))
    votes = tied.astype(np.float32) @ one_hot.astype(np.float32)
    leaders = votes == votes.max(axis=1, keepdims=True)
    winner = (tied & leaders[:, decisions]).argmax(axis=1)
    return [reflection.decisions[i] for i in winner.tolist()]


def stratified_folds(
    decisions: Sequence[str], k: int, seed: int
) -> list[list[int]]:
    """Split object ids into k folds, balanced per decision value, seeded."""
    if k < 2:
        raise MereomlError(f"need at least 2 folds, got {k}")
    if k > len(decisions):
        raise FoldError(f"{k} folds for {len(decisions)} objects")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    by_value: dict[str, list[int]] = {}
    for i, d in enumerate(decisions):
        by_value.setdefault(d, []).append(i)
    offset = 0
    for value in sorted(by_value):
        ids = by_value[value]
        rng.shuffle(ids)
        for j, obj in enumerate(ids):
            folds[(offset + j) % k].append(obj)
        offset += len(ids)
    return folds


def _fold_scores(train: DecisionSystem, test: DecisionSystem, inclusion: str, grid):
    """Per radius of ``grid``: correct test predictions and covering size."""
    incl = make_inclusion(inclusion, train)
    universe = frozenset(train.objects)
    for r in grid:
        covering = irreducible_covering(all_granules(r, incl), universe)
        predicted = classify_many(granular_mirror(covering, train), test.system.rows)
        yield sum(p == t for p, t in zip(predicted, test.decisions)), len(covering.granules)


def run_decider(
    system: DecisionSystem,
    folds: int = 5,
    seed: int = 0,
    radii: Sequence[Degree] | None = None,
    inclusion: str = "lukasiewicz",
) -> DeciderReport:
    """Cross-validated granular classification over a radius sweep.

    Per fold, granules and the mirror come from the training part only; the
    report pools accuracy over all test parts.  Coverage is 1.0 by
    construction of the nearest-row protocol.  Every fold's training part is
    checked first; then the folds are swept one at a time, so only one
    fold's tables and count matrix are alive.
    """
    m = len(system.features)
    if radii is None and m == 0:
        raise MereomlError("the table has no conditional features to build a radius grid from")
    grid = tuple(radii) if radii is not None else radius_grid(m)
    if not grid:
        raise ParameterError("need at least one radius")
    fold_ids = stratified_folds(system.decisions, folds, seed)
    train_ids = []
    for f in range(folds):
        train_ids.append(sorted(i for g in range(folds) if g != f for i in fold_ids[g]))
        if not train_ids[-1]:
            raise FoldError(f"fold {f} leaves no training objects")
    # scores[f][k]: fold f's (correct, covering size) at radius grid[k]
    scores = [
        list(_fold_scores(system.subset(train), system.subset(test), inclusion, grid))
        for train, test in zip(train_ids, fold_ids)
    ]
    total = sum(map(len, fold_ids))
    per_radius = []
    for r, column in zip(grid, zip(*scores)):
        sizes = [size for _, size in column]
        per_radius.append(
            RadiusResult(
                radius=r,
                accuracy=sum(correct for correct, _ in column) / total,
                coverage=1.0,
                granules=fmean(sizes),
                reduction=fmean([size / len(train) for size, train in zip(sizes, train_ids)]),
            )
        )
    best = max(per_radius, key=lambda rr: (rr.accuracy, -rr.radius))
    return DeciderReport(tuple(per_radius), best.radius)
