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
from itertools import chain
from statistics import fmean
from typing import Sequence

import numpy as np

from .dataset import DecisionSystem, EncodedTable, dis_count_matrix
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
    """All objects whose degree of containment in the center reaches ``radius``."""

    center: int
    radius: Degree
    members: frozenset[int]


@dataclass(frozen=True)
class Covering:
    """A family of granules whose members jointly exhaust the universe."""

    granules: tuple[Granule, ...]
    universe: frozenset[int]

    def __post_init__(self):
        covered = frozenset().union(*(g.members for g in self.granules)) if self.granules else frozenset()
        if covered != self.universe:
            raise MereomlError("granules do not cover the universe exactly")


@dataclass(frozen=True)
class GranularReflection:
    """The mirror table: one row per covering granule, values by vote.

    ``rows[i]`` holds the voted conditional values of granule i over
    ``features``; ``decisions[i]`` the voted decision.  ``encoded`` and
    ``decisions_encoded`` hold the same values as codes.
    """

    covering: Covering
    features: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    decisions: tuple[str, ...]
    strategy: str = "MV"
    encoded: EncodedTable | None = field(default=None, compare=False, repr=False)
    decisions_encoded: EncodedTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # a mirror built by hand is encoded from its own tokens
        if self.encoded is None:
            encoded = EncodedTable.from_rows(self.rows, len(self.features))
            object.__setattr__(self, "encoded", encoded)
        if self.decisions_encoded is None:
            encoded = EncodedTable.from_rows([(d,) for d in self.decisions], 1)
            object.__setattr__(self, "decisions_encoded", encoded)


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


def granule(center: int, r: Degree, inclusion: RoughInclusion) -> Granule:
    """The neighborhood {y : degree(y, center) >= r}.

    Requires a symmetric inclusion; otherwise the neighborhood reading and
    the class-based reading of a granule part ways.
    """
    _check_granule_args(r, inclusion)
    if hasattr(inclusion, "membership_mask"):
        mask = inclusion.membership_mask(center, r)
        members = frozenset(int(i) for i in np.nonzero(mask)[0])
    else:
        universe = inclusion.system.objects
        members = frozenset(y for y in universe if inclusion.degree(y, center) >= r)
    return Granule(center, r, members)


def all_granules(r: Degree, inclusion: RoughInclusion) -> tuple[Granule, ...]:
    """One granule per object, in object order.

    With an inclusion offering ``membership_matrix``, every granule is a row
    of one boolean matrix, split into member sets from a single ``nonzero``.
    The members are drawn from one shared array of object ids, so the
    granules share their int objects and dropping them frees none.
    """
    universe = inclusion.system.objects
    if not hasattr(inclusion, "membership_matrix"):
        return tuple(granule(x, r, inclusion) for x in universe)
    _check_granule_args(r, inclusion)
    matrix = inclusion.membership_matrix(r)
    ids = np.array(universe, dtype=object)
    members = ids[np.nonzero(matrix)[1]].tolist()
    ends = np.cumsum(matrix.sum(axis=1)).tolist()
    return tuple(
        Granule(x, r, frozenset(members[start:end]))
        for x, start, end in zip(universe, [0] + ends, ends)
    )


def irreducible_covering(granules: Sequence[Granule], universe: frozenset[int]) -> Covering:
    """Select a covering from which no granule can be dropped.

    Greedy pass by descending member count (ties to the lower center id),
    then a reverse elimination pass: a granule added early can be made
    redundant by later picks.  The reverse pass keeps, per object, the
    number of kept granules covering it.  A granule is dropped iff it is not
    the last one left, each of its members in the universe is covered at
    least twice, and no other kept granule reaches outside the universe;
    dropping it lowers its members' counts before the next, earlier pick is
    tried.  Deterministic.
    """
    order = sorted(granules, key=lambda g: (-len(g.members), g.center))
    chosen: list[Granule] = []
    uncovered = set(universe)
    for g in order:
        if not uncovered:
            break
        if not uncovered.isdisjoint(g.members):
            chosen.append(g)
            uncovered -= g.members
    if uncovered:
        raise MereomlError(f"granules cannot cover objects {sorted(uncovered)}")
    cover = Counter(chain.from_iterable(g.members for g in chosen))
    once = {x for x, c in cover.items() if c == 1} & universe
    strays = [not g.members <= universe for g in chosen]
    kept_strays = sum(strays)
    kept = [True] * len(chosen)
    left = len(chosen)
    for i in reversed(range(len(chosen))):
        g = chosen[i]
        # the rest cover the universe exactly: every member of g is covered
        # again, and no other kept granule reaches outside the universe
        if left > 1 and kept_strays == strays[i] and once.isdisjoint(g.members):
            kept[i] = False
            left -= 1
            kept_strays -= strays[i]
            for x in g.members:
                cover[x] -= 1
                if cover[x] == 1:
                    once.add(x)
    survivors = sorted(
        (g for g, keep in zip(chosen, kept) if keep), key=lambda g: g.center
    )
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

    Per column, ``membership`` times a one-hot of the codes counts every
    token among the row's members; codes follow sorted token order, so the
    first maximum is the smallest tied token, as in :func:`majority_value`.
    """
    codes = np.empty((len(membership), len(table.vocab)), dtype=table.codes.dtype)
    for j, tokens in enumerate(table.vocab):
        one_hot = table.codes[:, j, None] == np.arange(len(tokens))
        codes[:, j] = (membership @ one_hot.astype(membership.dtype)).argmax(axis=1)
    return EncodedTable(codes, table.vocab, table.index)


def _tokens(table: EncodedTable) -> tuple[tuple[str, ...], ...]:
    """The code rows decoded back to token rows."""
    columns = [
        list(map(tokens.__getitem__, codes))
        for tokens, codes in zip(table.vocab, table.codes.T.tolist())
    ]
    return tuple(zip(*columns)) if columns else ((),) * len(table.codes)


def granular_mirror(
    covering: Covering, system: DecisionSystem, strategy: str = "MV"
) -> GranularReflection:
    """Vote each granule into a single mirror row (conditional and decision).

    The covering becomes one granules x objects 0/1 matrix.  Per column,
    that matrix times a one-hot of the column's codes counts each token in
    each granule, and ``argmax`` picks the winner, ties going to the
    smallest token as in :func:`majority_value`.  The mirror keeps the voted
    codes for :func:`classify_many`.
    """
    if strategy != "MV":
        raise MereomlError(f"unknown voting strategy {strategy!r}")
    if not covering.granules:
        # a table without objects: nothing to vote, and no token to argmax over
        return GranularReflection(covering, system.features, (), (), strategy)
    sizes = [len(g.members) for g in covering.granules]
    membership = np.zeros((len(sizes), len(system.decisions)), dtype=np.float32)
    membership[
        np.repeat(np.arange(len(sizes)), sizes),
        [x for g in covering.granules for x in g.members],
    ] = 1
    rows = _vote(membership, system.system.encoded)
    decisions = _vote(membership, system.decisions_encoded)
    return GranularReflection(
        covering,
        system.features,
        _tokens(rows),
        tuple(d for (d,) in _tokens(decisions)),
        strategy,
        rows,
        decisions,
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
    m = len(reflection.features)
    for row in test_rows:
        if len(row) != m:
            raise MereomlError(f"test row has {len(row)} values, expected {m}")
    enc = reflection.encoded
    dis = dis_count_matrix(enc.lookup(test_rows), enc.codes)
    tied = dis == dis.min(axis=1, keepdims=True)
    decisions = reflection.decisions_encoded.codes[:, 0]
    one_hot = decisions[:, None] == np.arange(len(reflection.decisions_encoded.vocab[0]))
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
    construction of the nearest-row protocol.
    """
    m = len(system.features)
    if radii is None and m == 0:
        raise MereomlError("the table has no conditional features to build a radius grid from")
    grid = tuple(radii) if radii is not None else radius_grid(m)
    fold_ids = stratified_folds(system.decisions, folds, seed)
    contexts = []
    for f in range(folds):
        train_ids = sorted(
            i for g in range(folds) if g != f for i in fold_ids[g]
        )
        if not train_ids:
            raise FoldError(f"fold {f} leaves no training objects")
        train = system.subset(train_ids)
        test = system.subset(fold_ids[f])
        contexts.append(
            (train, make_inclusion(inclusion, train), frozenset(train.objects), test)
        )

    per_radius = []
    for r in grid:
        correct = total = 0
        counts = []
        reductions = []
        for train, incl, universe, test in contexts:
            covering = irreducible_covering(all_granules(r, incl), universe)
            mirror = granular_mirror(covering, train)
            predicted = classify_many(mirror, test.system.rows)
            correct += sum(p == t for p, t in zip(predicted, test.decisions))
            total += len(test.decisions)
            counts.append(len(covering.granules))
            reductions.append(len(covering.granules) / len(train.system.rows))
        per_radius.append(
            RadiusResult(
                radius=r,
                accuracy=correct / total,
                coverage=1.0,
                granules=fmean(counts),
                reduction=fmean(reductions),
            )
        )
    best = max(per_radius, key=lambda rr: (rr.accuracy, -rr.radius))
    return DeciderReport(tuple(per_radius), best.radius)
