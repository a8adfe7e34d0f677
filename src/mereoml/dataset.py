"""Discrete information and decision tables.

An information system is a total table of discrete value tokens over a finite
universe of objects (0-based row indices) and a finite list of named features.
A decision system additionally singles out one column as the decision.  The
two discernibility primitives ``dis`` and ``ind_fraction`` defined here are
the raw material for every table-based graded containment in the package.

Numeric columns can be quantized with :func:`discretize` (equal-frequency,
ties to the lower bin) so that equality tests on tokens are meaningful.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import MereomlError, ParameterError, read_text

#: Distinguished token substituted for a declared missing-value sentinel.
NA_VALUE = "NA"


class IngestionError(MereomlError):
    """A CSV file could not be turned into a total discrete table."""


class DuplicateFeature(IngestionError):
    pass


class RaggedRow(IngestionError):
    pass


class MissingDecisionColumn(IngestionError):
    pass


class MissingValue(IngestionError):
    pass


class UnknownObject(MereomlError):
    pass


class UnknownFeature(MereomlError):
    pass


@dataclass(frozen=True)
class EncodedTable:
    """Value tokens as integer codes, one sorted vocabulary per column.

    ``codes[i, j]`` is the position of row i's token in ``vocab[j]``, which
    lists column j's distinct tokens in Python ``sorted`` order; ``index[j]``
    maps each token back to its code.  Equal codes mean equal tokens, and a
    smaller code means a smaller token.
    """

    codes: np.ndarray
    vocab: tuple[tuple[str, ...], ...]
    index: tuple[dict[str, int], ...]

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[str]], width: int, *extra: Sequence[str]
    ) -> "EncodedTable":
        """Encode ``width``-wide token rows, then each extra column, with plain dicts.

        An extra column holds one token per row, so a decision is coded as
        one more column without copying a row.  Dicts keep every token
        distinct; a numpy string array would strip trailing NUL characters
        and merge tokens that differ only by them.
        """
        # a column has at most len(rows) tokens; narrow codes compare faster
        shape = (len(rows), width + len(extra))
        codes = np.empty(shape, dtype=np.int16 if len(rows) < 2**15 else np.int32)
        vocab, index = [], []
        row_columns = ([row[j] for row in rows] for j in range(width))
        for j, column in enumerate(chain(row_columns, extra)):
            tokens = tuple(sorted(set(column)))
            code_of = {t: k for k, t in enumerate(tokens)}
            codes[:, j] = [code_of[t] for t in column]
            vocab.append(tokens)
            index.append(code_of)
        return cls(codes, tuple(vocab), tuple(index))

    def decode(self) -> tuple[tuple[str, ...], ...]:
        """The code rows as token rows, read through one flat vocabulary."""
        tokens = np.array([t for column in self.vocab for t in column], dtype=object)
        offsets = np.cumsum([0, *map(len, self.vocab)])[:-1]
        return tuple(map(tuple, tokens[self.codes + offsets].tolist()))

    def lookup(self, rows: Sequence[Sequence[str]]) -> np.ndarray:
        """Codes of outside rows, as wide as they are, in this vocabulary; a token
        column j lacks is one more code, ``len(vocab[j])``, which no row holds."""
        columns = list(zip(self.index, zip(*rows)))
        codes = np.empty((len(rows), len(columns)), dtype=self.codes.dtype)
        for j, (index, column) in enumerate(columns):
            codes[:, j] = list(map(index.get, column, repeat(len(index))))
        return codes


#: Bytes of the rows that ``dis_count_matrix`` gathers per row block.  At
#: 1250 and 2000 rows, 512 KiB to 1 MiB ran fastest; 1 MiB broke the bound of
#: 4 bytes a pair on 600 rows.
COUNT_BLOCK_BYTES = 768 * 1024

#: Codes a column may hold for ``dis_count_matrix`` to read it from its table
#: of differing codes, which gives every such column as many rows as the
#: widest.  At 1250 rows and 14 columns, one column of 48 to 56 codes costs
#: about as much either way; a wider one is cheaper to compare directly.
WIDE_COLUMN = 48


def dis_count_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise count of differing columns between the code rows of a and b.

    The counts are the one-hot product O_a·D_bᵀ over a flat vocabulary,
    where a cell's bit is its code plus its column's offset and D_b marks
    the codes each row of b does not hold.  A row of O_a has one bit per
    column, so row i of the product is the sum of the rows of D_bᵀ that
    a's codes pick: integers, added in the narrowest unsigned dtype that
    holds the column count.  Rows of a are summed in blocks whose picked
    rows take ``COUNT_BLOCK_BYTES``.  A column with more than
    ``WIDE_COLUMN`` codes is compared directly.  Codes are non-negative, and
    one that only a's rows hold (an unseen token's) differs from every code.
    """
    out = np.empty((len(a), len(b)), dtype=np.min_scalar_type(a.shape[1]))
    top = np.maximum.reduce(np.vstack((a, b)), axis=0, initial=0)
    narrow = top < WIDE_COLUMN
    wide = [] if narrow.all() else list(zip(a.T[~narrow], b.T[~narrow]))
    # narrow column j's code t picks row j * stride + t
    stride = int(np.maximum.reduce(top[narrow], initial=0)) + 1
    differs = (b.T[narrow, None, :] != np.arange(stride)[:, None]).view(np.uint8)
    differs = differs.reshape(len(differs) * stride, len(b))
    codes = a.T[narrow]
    picks = codes + stride * np.arange(len(codes))[:, None]
    rows = max(1, COUNT_BLOCK_BYTES // max(1, len(codes) * len(b)))
    for start in range(0, len(a), rows):
        block = out[start : start + rows]
        np.add.reduce(differs[picks[:, start : start + rows]], axis=0, dtype=out.dtype, out=block)
        for col_a, col_b in wide:
            block += (col_a[start : start + rows, None] != col_b).view(np.uint8)
    return out


class CartesianRows(Sequence):
    """The Cartesian product of row sequences, as a read-only row sequence.

    Row i joins one row of each factor, in ``itertools.product`` order.  It
    is decoded from i as a mixed-radix number on every access, so the
    product is never built.  The product equals and hashes like the tuple of
    its rows, which is built only for that.
    """

    __slots__ = ("factors", "_len")

    def __init__(self, factors: Iterable[Sequence[tuple]]):
        self.factors = tuple(factors)
        self._len = math.prod(map(len, self.factors))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(self._len)[index]))
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("row index out of range")
        row = ()
        for factor in reversed(self.factors):
            i, k = divmod(i, len(factor))
            row = factor[k] + row
        return row

    def __iter__(self):
        for parts in product(*self.factors):
            yield tuple(chain.from_iterable(parts))

    def __eq__(self, other):
        if not isinstance(other, (tuple, CartesianRows)):
            return NotImplemented
        if isinstance(other, CartesianRows) and other.factors == self.factors:
            return True
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CartesianRows({' x '.join(str(len(f)) for f in self.factors)} rows)"


def _check_widths(rows: Iterable[Sequence[str]], width: int) -> None:
    """Raise :class:`RaggedRow` for the first row that is not ``width`` cells wide."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRow(f"row {i} has {len(row)} cells, expected {width}")


@dataclass(frozen=True)
class InformationSystem:
    """A total object x feature table of discrete value tokens.

    ``rows[i][j]`` is the value of feature ``features[j]`` on object ``i``.
    Objects are identified by their 0-based row index.  ``rows`` is a tuple,
    or a :class:`CartesianRows` over the rows of other tables.
    """

    features: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...] | CartesianRows

    def __post_init__(self):
        if len(set(self.features)) != len(self.features):
            raise DuplicateFeature(f"duplicate feature names in {self.features}")
        # a product joins rows of tables that were checked when built, so
        # every row is as wide as its first: the sum of the factor widths
        rows = self.rows[:1] if isinstance(self.rows, CartesianRows) else self.rows
        _check_widths(rows, len(self.features))

    @property
    def objects(self) -> range:
        return range(len(self.rows))

    def feature_index(self, feature: str) -> int:
        try:
            return self.features.index(feature)
        except ValueError:
            raise UnknownFeature(f"no feature named {feature!r}") from None

    def value(self, obj: int, feature: str) -> str:
        self._check_object(obj)
        return self.rows[obj][self.feature_index(feature)]

    def column(self, feature: str) -> tuple[str, ...]:
        j = self.feature_index(feature)
        return tuple(row[j] for row in self.rows)

    def value_set(self, feature: str) -> frozenset[str]:
        return frozenset(self.column(feature))

    @cached_property
    def encoded(self) -> EncodedTable:
        """The table's codes and vocabularies, built on first use."""
        return EncodedTable.from_rows(self.rows, len(self.features))

    def _check_object(self, *objects: int) -> None:
        for obj in objects:
            if not 0 <= obj < len(self.rows):
                raise UnknownObject(obj)


@dataclass(frozen=True)
class DecisionSystem:
    """An information system plus a distinguished decision column.

    The conditional table ``system`` never contains the decision feature;
    ``decisions[i]`` is object ``i``'s decision value.
    """

    system: InformationSystem
    decision: str
    decisions: tuple[str, ...]

    def __post_init__(self):
        if self.decision in self.system.features:
            raise DuplicateFeature(
                f"decision {self.decision!r} also appears among conditional features"
            )
        if len(self.decisions) != len(self.system.rows):
            raise RaggedRow(
                f"{len(self.decisions)} decision values for {len(self.system.rows)} objects"
            )

    @property
    def objects(self) -> range:
        return self.system.objects

    @property
    def features(self) -> tuple[str, ...]:
        return self.system.features

    @property
    def decision_values(self) -> frozenset[str]:
        return frozenset(self.decisions)

    @cached_property
    def encoded(self) -> EncodedTable:
        """The conditional columns' codes and the decision's last, built on first use."""
        return EncodedTable.from_rows(self.system.rows, len(self.features), self.decisions)

    def feature_index(self, feature: str) -> int:
        """The column of ``feature`` in ``encoded``: m for the decision."""
        if feature == self.decision:
            return len(self.features)
        return self.system.feature_index(feature)

    def value(self, obj: int, feature: str) -> str:
        if feature == self.decision:
            self.system._check_object(obj)
            return self.decisions[obj]
        return self.system.value(obj, feature)

    def subset(self, objects: Sequence[int]) -> "DecisionSystem":
        """A new decision system over the given objects (reindexed from 0)."""
        self.system._check_object(*objects)
        rows = tuple(self.system.rows[i] for i in objects)
        decisions = tuple(self.decisions[i] for i in objects)
        return DecisionSystem(
            InformationSystem(self.system.features, rows), self.decision, decisions
        )


def load_csv(
    path: str | Path,
    decision: str | None = None,
    na_token: str | None = None,
) -> InformationSystem | DecisionSystem:
    """Load a header-first CSV file as an information or decision system.

    When ``decision`` names a column it is separated out and a
    :class:`DecisionSystem` is returned.  Empty cells are rejected (tables
    must be total); if ``na_token`` is given, cells equal to it are mapped to
    the distinguished token ``"NA"`` instead of being ordinary values.
    Errors name the physical line of the file where the faulty row ends, so a
    quoted cell that holds a newline counts as the lines it spans.
    """
    path = Path(path)
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file")
            header = [h.strip() for h in header]
            seen = set()
            for col, name in enumerate(header):
                if name in seen:
                    raise DuplicateFeature(f"{path}: duplicate header {name!r} at column {col}")
                seen.add(name)
            width = len(header)
            # the decision column is split off row by row, but a missing one is
            # reported only once every row has been checked
            d = header.index(decision) if decision in header else None
            rows, decisions = [], []
            for raw in reader:
                if len(raw) != width:
                    raise RaggedRow(
                        f"{path}: row at line {reader.line_num} has {len(raw)} cells, expected {width}"
                    )
                cells = [cell.strip() for cell in raw]
                if na_token is not None and na_token in cells:
                    cells = [NA_VALUE if cell == na_token else cell for cell in cells]
                if "" in cells:
                    raise MissingValue(
                        f"{path}: missing value at line {reader.line_num}, "
                        f"column {header[cells.index('')]!r}"
                    )
                if d is not None:
                    decisions.append(cells[d])
                    del cells[d]
                rows.append(tuple(cells))
        except csv.Error as e:
            # a cell past the csv module's field limit, for one
            raise IngestionError(f"{path}: line {reader.line_num}: {e}") from None

    if decision is None:
        return InformationSystem(tuple(header), tuple(rows))
    if d is None:
        raise MissingDecisionColumn(f"{path}: no column named {decision!r}")
    features = tuple(header[:d] + header[d + 1 :])
    return DecisionSystem(InformationSystem(features, tuple(rows)), decision, tuple(decisions))


def _bin_labels(values: Sequence[str], bins: int, feature: str) -> list[str]:
    try:
        numeric = list(map(float, values))
    except ValueError:
        numeric = None
    if numeric is None or any(map(math.isnan, numeric)):
        # name the first cell that is no number; NaN would scramble the order
        for i, token in enumerate(values):
            try:
                bad = math.isnan(float(token))
            except ValueError:
                bad = True
            if bad:
                raise IngestionError(
                    f"non-numeric cell {token!r} at row {i}, column {feature!r}"
                )
    n = len(numeric)
    ranked = sorted(numeric)
    # bin of each value's first rank: equal values share it, which sends
    # boundary ties to the lower bin; filled backwards, so the first rank wins
    bin_of = dict(zip(reversed(ranked), (r * bins // n for r in range(n - 1, -1, -1))))
    labels = {k: f"B{k}" for k in set(bin_of.values())}
    return [labels[bin_of[v]] for v in numeric]


def discretize(
    system: InformationSystem | DecisionSystem,
    columns: Iterable[str],
    bins: int | Sequence[int],
) -> InformationSystem | DecisionSystem:
    """Replace numeric columns by equal-frequency bin labels ``B0..B{bins-1}``.

    Columns not named are untouched.  Ties sit in the lower bin, so equal
    values always land in the same bin.  ``bins`` is one count for every
    named column, and a column named twice is then binned once; or it is one
    count per entry of ``columns``, and the entries apply in turn, so a
    column named again is binned from its labels and fails as non-numeric.
    Every count and every name is checked before any column is binned.
    """
    columns = list(columns)
    counts = list(bins) if isinstance(bins, Sequence) else [bins]
    for count in counts:
        if count < 1:
            raise ParameterError(f"bins must be >= 1, got {count}")
    if not isinstance(bins, Sequence):
        columns = list(dict.fromkeys(columns))
        counts *= len(columns)
    elif len(counts) != len(columns):
        raise ParameterError(f"{len(counts)} bin counts for {len(columns)} columns")
    if isinstance(system, DecisionSystem):
        return DecisionSystem(
            discretize(system.system, columns, counts), system.decision, system.decisions
        )
    named = [system.feature_index(name) for name in columns]
    if not named or not system.rows:
        # nothing to bin; transposing no rows would also lose the columns
        return system
    cols = list(zip(*system.rows))
    for j, name, count in zip(named, columns, counts):
        cols[j] = _bin_labels(cols[j], count, name)
    return InformationSystem(system.features, tuple(zip(*cols)))


def _conditional(system: InformationSystem | DecisionSystem) -> InformationSystem:
    return system.system if isinstance(system, DecisionSystem) else system


def _pair(x: int, y: int, system: InformationSystem | DecisionSystem) -> tuple:
    """The conditional table and the rows of objects ``x`` and ``y``, both checked."""
    table = _conditional(system)
    table._check_object(x, y)
    return table, table.rows[x], table.rows[y]


def dis(x: int, y: int, system: InformationSystem | DecisionSystem) -> frozenset[str]:
    """The set of conditional features on which objects ``x`` and ``y`` differ."""
    table, rx, ry = _pair(x, y, system)
    return frozenset(f for f, a, b in zip(table.features, rx, ry) if a != b)


def ind_fraction(x: int, y: int, system: InformationSystem | DecisionSystem) -> Fraction:
    """The exact fraction of conditional features on which ``x`` and ``y`` agree."""
    _, rx, ry = _pair(x, y, system)
    return lukasiewicz_row_degree(rx, ry)


def row_dis_count(row_a: Sequence[str], row_b: Sequence[str]) -> int:
    """Number of positions on which two equal-length value rows differ."""
    if len(row_a) != len(row_b):
        raise ParameterError(f"row lengths differ: {len(row_a)} vs {len(row_b)}")
    return sum(map(operator.ne, row_a, row_b))


def lukasiewicz_row_degree(row_a: Sequence[str], row_b: Sequence[str]) -> Fraction:
    """Agreeing-position fraction of two aligned value rows; 1 over no position,
    as two rows that no feature tells apart are indiscernible."""
    differing = row_dis_count(row_a, row_b)
    return Fraction(len(row_a) - differing, len(row_a)) if row_a else Fraction(1)
