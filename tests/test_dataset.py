"""Table ingestion, discretization and the discernibility primitives."""

import ast
import csv
import io
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import numpy as np
import pytest

from mereoml import (
    DecisionSystem,
    DuplicateFeature,
    IngestionError,
    InformationSystem,
    MissingDecisionColumn,
    MissingValue,
    MereomlError,
    ParameterError,
    RaggedRow,
    UnknownFeature,
    UnknownObject,
    dis,
    discretize,
    ind_fraction,
    load_csv,
    row_dis_count,
)
import mereoml
from mereoml import dataset
from mereoml.bits import pack_rows, unpack_rows
from mereoml.dataset import (
    NA_VALUE,
    WIDE_COLUMN,
    EncodedTable,
    dis_count_matrix,
)
from mereoml.errors import read_text
from strategies import tables


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_plain(tmp_path):
    path = write(tmp_path, "a,b,d\n1,0,yes\n1,1,yes\n0,1,no\n")
    table = load_csv(path)
    assert isinstance(table, InformationSystem)
    assert table.features == ("a", "b", "d")
    assert table.rows[2] == ("0", "1", "no")
    assert list(table.objects) == [0, 1, 2]


def test_load_csv_with_decision(tmp_path):
    path = write(tmp_path, "a,b,d\n1,0,yes\n1,1,yes\n0,1,no\n")
    system = load_csv(path, decision="d")
    assert isinstance(system, DecisionSystem)
    assert system.features == ("a", "b")
    assert system.decisions == ("yes", "yes", "no")
    assert system.decision_values == frozenset({"yes", "no"})
    # the decision column answers through the same value accessor
    assert system.value(0, "d") == "yes"
    assert system.value(0, "a") == "1"


def test_load_csv_strips_whitespace(tmp_path):
    path = write(tmp_path, " a , b \n 1 , 0 \n")
    table = load_csv(path)
    assert table.features == ("a", "b")
    assert table.rows == (("1", "0"),)


def test_load_csv_duplicate_header(tmp_path):
    path = write(tmp_path, "a,a\n1,2\n")
    with pytest.raises(DuplicateFeature):
        load_csv(path)


def test_load_csv_ragged_row_names_line(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(RaggedRow, match="line 3"):
        load_csv(path)


def test_load_csv_missing_value_names_column(tmp_path):
    path = write(tmp_path, "a,b\n1,\n")
    with pytest.raises(MissingValue, match="'b'"):
        load_csv(path)


def test_load_csv_missing_decision_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(MissingDecisionColumn):
        load_csv(path, decision="z")


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(IngestionError):
        load_csv(write(tmp_path, ""))


def test_load_csv_na_token(tmp_path):
    path = write(tmp_path, "a,b\n?,1\n2,?\n")
    table = load_csv(path, na_token="?")
    assert table.rows == (("NA", "1"), ("2", "NA"))


def test_information_system_validation():
    with pytest.raises(DuplicateFeature):
        InformationSystem(("a", "a"), ())
    with pytest.raises(RaggedRow):
        InformationSystem(("a", "b"), (("1",),))


def test_information_system_accessors():
    table = InformationSystem(("a", "b"), (("1", "0"), ("1", "1")))
    assert table.column("b") == ("0", "1")
    assert table.value_set("a") == frozenset({"1"})
    assert table.value(1, "b") == "1"
    with pytest.raises(UnknownFeature):
        table.feature_index("z")
    with pytest.raises(UnknownObject):
        table.value(5, "a")


def test_decision_system_validation():
    base = InformationSystem(("a",), (("1",),))
    with pytest.raises(DuplicateFeature):
        DecisionSystem(base, "a", ("x",))
    with pytest.raises(RaggedRow):
        DecisionSystem(base, "d", ("x", "y"))


def test_decision_system_subset_reindexes():
    base = InformationSystem(("a",), (("1",), ("2",), ("3",)))
    system = DecisionSystem(base, "d", ("x", "y", "z"))
    sub = system.subset([2, 0])
    assert sub.system.rows == (("3",), ("1",))
    assert sub.decisions == ("z", "x")
    assert list(sub.objects) == [0, 1]


@pytest.mark.parametrize("objects", [[-1, 0], [3]])
def test_decision_system_subset_rejects_unknown_objects(objects):
    base = InformationSystem(("a",), (("1",), ("2",), ("3",)))
    system = DecisionSystem(base, "d", ("x", "y", "z"))
    with pytest.raises(UnknownObject):
        system.subset(objects)


def test_discretize_equal_frequency():
    table = InformationSystem(("v",), tuple((t,) for t in "1 2 3 4".split()))
    out = discretize(table, ["v"], 2)
    assert out.column("v") == ("B0", "B0", "B1", "B1")


def test_discretize_three_bins():
    values = "5 1 3 2 4 6".split()
    table = InformationSystem(("v",), tuple((t,) for t in values))
    out = discretize(table, ["v"], 3)
    assert out.column("v") == ("B2", "B0", "B1", "B0", "B1", "B2")


def test_discretize_ties_share_a_bin():
    # equal values must never straddle a bin boundary
    values = "1 2 2 3".split()
    table = InformationSystem(("v",), tuple((t,) for t in values))
    out = discretize(table, ["v"], 2)
    assert out.column("v") == ("B0", "B0", "B0", "B1")


def test_discretize_single_bin_collapses():
    table = InformationSystem(("v", "w"), ((("1"), "a"), (("9"), "b")))
    out = discretize(table, ["v"], 1)
    assert out.column("v") == ("B0", "B0")
    assert out.column("w") == ("a", "b")
    assert ind_fraction(0, 1, out) == Fraction(1, 2)


def test_discretize_decision_system_keeps_decision():
    base = InformationSystem(("v",), (("1",), ("2",)))
    system = DecisionSystem(base, "d", ("x", "y"))
    out = discretize(system, ["v"], 2)
    assert isinstance(out, DecisionSystem)
    assert out.decisions == ("x", "y")
    assert out.system.column("v") == ("B0", "B1")


def test_discretize_errors():
    table = InformationSystem(("v",), (("x",),))
    with pytest.raises(IngestionError):
        discretize(table, ["v"], 2)
    with pytest.raises(ValueError):
        discretize(table, ["v"], 0)
    with pytest.raises(UnknownFeature):
        discretize(table, ["nope"], 2)


def _bin_labels(values, bins, feature):
    """The reference binning: one float per cell, then a first-rank dict."""
    numeric = []
    for i, token in enumerate(values):
        try:
            numeric.append(float(token))
        except ValueError:
            raise IngestionError(
                f"non-numeric cell {token!r} at row {i}, column {feature!r}"
            ) from None
    n = len(numeric)
    order = sorted(range(n), key=lambda i: numeric[i])
    # rank of the first occurrence of each value; equal values share it, which
    # sends boundary ties to the lower bin
    first_rank: dict[float, int] = {}
    for rank, i in enumerate(order):
        first_rank.setdefault(numeric[i], rank)
    return [f"B{first_rank[v] * bins // n}" for v in numeric]


def ref_discretize(system, columns, bins):
    """The cell-by-cell row rebuild that ``discretize`` replaces."""
    for name in columns:
        system.feature_index(name)
    new_cols = {name: _bin_labels(system.column(name), bins, name) for name in columns}
    rows = tuple(
        tuple(
            new_cols[f][i] if f in new_cols else row[j]
            for j, f in enumerate(system.features)
        )
        for i, row in enumerate(system.rows)
    )
    return InformationSystem(system.features, rows)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (IngestionError, UnknownFeature) as e:
        return type(e), str(e)


@hypothesis.given(
    tables(min_objects=0, max_features=5, tokens=("0", "1", "1.0", "2.5", "-3", "x")),
    strat.data(),
)
def test_discretize_matches_the_row_rebuild(table, data):
    # named columns in any order, repeats allowed, sometimes an unknown name
    columns = data.draw(strat.lists(strat.sampled_from(table.features), min_size=1, max_size=4))
    if data.draw(strat.integers(0, 3)) == 0:
        columns.insert(data.draw(strat.integers(0, len(columns))), "nope")
    bins = data.draw(strat.integers(1, 4))
    assert outcome(discretize, table, columns, bins) == outcome(
        ref_discretize, table, columns, bins
    )


def test_discretize_rejects_a_nan_cell_like_a_non_numeric_one():
    table = InformationSystem(("a",), tuple((t,) for t in ("3", "nan", "1", "2", "0.5")))
    with pytest.raises(IngestionError) as e:
        discretize(table, ["a"], 2)
    assert str(e.value) == "non-numeric cell 'nan' at row 1, column 'a'"
    for token in ("NaN", "-nan", "+NAN"):
        with pytest.raises(IngestionError) as e:
            discretize(InformationSystem(("a",), ((token,), ("1",))), ["a"], 2)
        assert str(e.value) == f"non-numeric cell {token!r} at row 0, column 'a'"
    # the first bad cell is named, whether it is NaN or no number at all
    mixed = InformationSystem(("a",), (("1",), ("x",), ("nan",)))
    with pytest.raises(IngestionError, match="cell 'x' at row 1"):
        discretize(mixed, ["a"], 2)


def test_discretize_orders_infinities():
    table = InformationSystem(("a",), tuple((t,) for t in ("inf", "-inf", "0", "1")))
    assert discretize(table, ["a"], 2).column("a") == ("B1", "B0", "B0", "B1")
    assert discretize(table, ["a"], 4).column("a") == ("B3", "B0", "B1", "B2")


def test_discretize_with_a_count_per_entry():
    table = InformationSystem(
        ("a", "b", "c"), tuple((str(i), str(-i), "x") for i in range(6))
    )
    out = discretize(table, ["a", "b"], [2, 3])
    assert out.column("a") == ("B0",) * 3 + ("B1",) * 3
    assert out.column("b") == ("B2", "B2", "B1", "B1", "B0", "B0")
    assert out.column("c") == ("x",) * 6
    assert discretize(table, ["b", "a"], (3, 2)) == out
    # entries apply in turn: a column named again is binned from its labels
    with pytest.raises(IngestionError) as e:
        discretize(table, ["a", "a"], [2, 2])
    assert str(e.value) == "non-numeric cell 'B0' at row 0, column 'a'"
    # with one count for all, a column named twice is binned once
    assert discretize(table, ["a", "a"], 2).column("a") == out.column("a")
    with pytest.raises(ParameterError, match="got 0"):
        discretize(table, ["a", "nope"], [2, 0])
    with pytest.raises(ParameterError, match="got 0"):
        discretize(table, [], 0)
    with pytest.raises(ParameterError):
        discretize(table, ["a", "b"], [2])
    with pytest.raises(UnknownFeature):
        discretize(table, ["a", "nope"], [2, 2])


def test_discretize_with_more_bins_than_rows():
    table = InformationSystem(("a",), (("5",), ("1",), ("3",)))
    assert discretize(table, ["a"], 7).column("a") == ("B4", "B0", "B2")
    assert discretize(table, ["a"], 10**12).column("a") == (
        "B666666666666", "B0", "B333333333333"
    )


# --- one-pass CSV ingestion --------------------------------------------------


def ref_load_csv(path, decision=None, na_token=None):
    """The cell-by-cell loader, kept as the reference for ``load_csv``."""
    path = Path(path)
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        seen = set()
        for col, name in enumerate(header):
            if name in seen:
                raise DuplicateFeature(f"{path}: duplicate header {name!r} at column {col}")
            seen.add(name)
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise RaggedRow(
                    f"{path}: row at line {lineno} has {len(raw)} cells, expected {len(header)}"
                )
            cells = []
            for col, cell in enumerate(raw):
                cell = cell.strip()
                if na_token is not None and cell == na_token:
                    cell = NA_VALUE
                if cell == "":
                    raise MissingValue(
                        f"{path}: missing value at line {lineno}, column {header[col]!r}"
                    )
                cells.append(cell)
            rows.append(tuple(cells))

    if decision is None:
        return InformationSystem(tuple(header), tuple(rows))
    if decision not in header:
        raise MissingDecisionColumn(f"{path}: no column named {decision!r}")
    d = header.index(decision)
    features = tuple(h for i, h in enumerate(header) if i != d)
    body = tuple(tuple(c for i, c in enumerate(row) if i != d) for row in rows)
    decisions = tuple(row[d] for row in rows)
    return DecisionSystem(InformationSystem(features, body), decision, decisions)


#: header names, padded ones included, and cell texts: quoted cells with
#: commas, padded cells, NA tokens, empty and blank cells
HEADERS = ("a", "b", "c", " d ", "e")
CELLS = ("1", " 2 ", "x", '"p,q"', '" r,s "', "?", "NA", "", " ", '""', "-0.5")


@strat.composite
def csv_texts(draw):
    width = draw(strat.integers(1, 5))
    header = draw(strat.permutations(HEADERS))[:width]
    if draw(strat.integers(0, 5)) == 0:
        # a duplicate name, the same as another once stripped
        header.insert(draw(strat.integers(0, width)), " a")
        width += 1
    lines = [",".join(header)]
    for _ in range(draw(strat.integers(0, 5))):
        # now and then a row one cell short or long
        cells = width + draw(strat.sampled_from((0, 0, 0, 0, 0, -1, 1)))
        lines.append(",".join(draw(strat.sampled_from(CELLS)) for _ in range(max(cells, 1))))
    newline = draw(strat.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + newline * draw(strat.integers(0, 1))


def table_or_error(fn, path, decision, na_token):
    try:
        table = fn(path, decision=decision, na_token=na_token)
    except MereomlError as e:
        return type(e), str(e)
    if isinstance(table, DecisionSystem):
        return table.features, table.system.rows, table.decision, table.decisions
    return table.features, table.rows


@hypothesis.given(
    csv_texts(),
    strat.sampled_from((None, "a", "b", "c", "d", "e", "z")),
    strat.sampled_from((None, "?", "", "x", " x ")),
)
def test_load_csv_matches_the_cell_by_cell_loader(text, decision, na_token):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert table_or_error(load_csv, path, decision, na_token) == table_or_error(
            ref_load_csv, path, decision, na_token
        )


@pytest.mark.parametrize("position", range(4))
def test_load_csv_splits_the_decision_from_any_position(tmp_path, position):
    header = ["a", "b", "c"]
    header.insert(position, "d")
    rows = [[f"{h}{i}" for h in header] for i in range(3)]
    path = write(tmp_path, "\n".join(",".join(r) for r in [header] + rows) + "\n")
    table = load_csv(path, decision="d")
    assert table.features == ("a", "b", "c")
    assert table.decisions == ("d0", "d1", "d2")
    assert table.system.rows == tuple((f"a{i}", f"b{i}", f"c{i}") for i in range(3))


def test_load_csv_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffa,b\n1,x\n".encode("utf-8"))
    table = load_csv(path, decision="a")
    assert table.features == ("b",) and table.decisions == ("1",)
    assert load_csv(path).features == ("a", "b")


def test_read_text_drops_one_byte_order_mark_and_counts_offsets_from_the_file_start(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("\ufeff\ufeffa".encode("utf-8"))
    assert read_text(path) == "\ufeffa"
    path.write_bytes("\ufeffa".encode("utf-8") + b"\xff")
    with pytest.raises(MereomlError, match="byte 0xff at offset 4"):
        read_text(path)


def test_dis_example():
    table = InformationSystem(
        ("a", "b", "c"), (("1", "0", "1"), ("1", "1", "1"))
    )
    assert dis(0, 1, table) == frozenset({"b"})
    assert dis(0, 0, table) == frozenset()
    assert ind_fraction(0, 1, table) == Fraction(2, 3)
    assert ind_fraction(1, 1, table) == 1


def test_dis_ignores_decision_column():
    base = InformationSystem(("a",), (("1",), ("1",)))
    system = DecisionSystem(base, "d", ("x", "y"))
    assert dis(0, 1, system) == frozenset()
    assert ind_fraction(0, 1, system) == 1


def test_fully_differing_rows():
    table = InformationSystem(
        ("a", "b", "c", "d"),
        (("1", "1", "1", "1"), ("2", "2", "2", "2")),
    )
    assert dis(0, 1, table) == frozenset(table.features)
    assert ind_fraction(0, 1, table) == 0


def test_row_dis_count():
    assert row_dis_count(("1", "0"), ("1", "1")) == 1
    with pytest.raises(ValueError):
        row_dis_count(("1",), ("1", "2"))


@hypothesis.given(tables(), strat.data())
def test_discernibility_is_symmetric(table, data):
    x = data.draw(strat.sampled_from(range(len(table.rows))))
    y = data.draw(strat.sampled_from(range(len(table.rows))))
    assert dis(x, y, table) == dis(y, x, table)
    f = ind_fraction(x, y, table)
    assert f == ind_fraction(y, x, table)
    assert 0 <= f <= 1
    assert f == 1 - Fraction(len(dis(x, y, table)), len(table.features))


def ref_dis_count_matrix(a, b):
    """Differing columns of every row pair, one column at a time."""
    out = np.zeros((len(a), len(b)), dtype=np.int64)
    for col_a, col_b in zip(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)):
        out += col_a[:, None] != col_b[None, :]
    return out


@strat.composite
def code_pairs(draw):
    """Code matrices a and b of equal width, with non-negative codes.

    Columns draw b's codes below a per-column width, which may exceed
    ``WIDE_COLUMN``, and a's up to that width, a code that no row of b
    holds, as :meth:`EncodedTable.lookup` gives an unseen token; rows and
    columns may be none.
    """
    m = draw(strat.integers(0, 6))
    widths = draw(strat.lists(
        strat.sampled_from((1, 2, 3, 5, WIDE_COLUMN, WIDE_COLUMN + 1, 3 * WIDE_COLUMN)),
        min_size=m, max_size=m,
    ))

    def rows(count, top):
        cells = [strat.integers(0, w + top) for w in widths]
        return strat.lists(strat.tuples(*cells), min_size=count, max_size=count)

    na, nb = draw(strat.integers(0, 12)), draw(strat.integers(0, 12))
    a = np.array(draw(rows(na, 0)), dtype=np.int16).reshape(na, m)
    b = np.array(draw(rows(nb, -1)), dtype=np.int16).reshape(nb, m)
    return a, b


@hypothesis.given(code_pairs(), strat.sampled_from((1, 40, 200, 2**20)))
def test_dis_count_matrix_matches_the_column_loop(pair, block_bytes):
    a, b = pair
    # small byte budgets split even these few rows into several blocks
    with mock.patch.object(dataset, "COUNT_BLOCK_BYTES", block_bytes):
        counts = dis_count_matrix(a, b)
        self_counts = dis_count_matrix(b, b)
    assert counts.dtype == np.uint8
    assert np.array_equal(counts, ref_dis_count_matrix(a, b))
    assert np.array_equal(self_counts, ref_dis_count_matrix(b, b))


@pytest.mark.parametrize("wide_column", [WIDE_COLUMN, 0])
def test_dis_count_matrix_stores_counts_in_the_narrowest_unsigned_dtype(wide_column):
    for m, dtype in ((0, np.uint8), (255, np.uint8), (256, np.uint16), (70_000, np.uint32)):
        codes = np.zeros((2, m), dtype=np.int16)
        codes[1] = 1
        with mock.patch.object(dataset, "WIDE_COLUMN", wide_column):
            counts = dis_count_matrix(codes, codes)
        assert counts.dtype == dtype
        assert counts.tolist() == [[0, m], [m, 0]]


# tokens a numpy string array would merge: they differ only by trailing NULs
NUL_TOKENS = ("a", "a\x00", "a\x00\x00", "", "\x00", "b")


@hypothesis.given(
    tables(min_objects=0, tokens=NUL_TOKENS),
    strat.lists(strat.sampled_from(NUL_TOKENS), min_size=1),
)
@hypothesis.example(InformationSystem((), ((), ())), ["\x00"])
def test_decode_gives_back_the_encoded_rows(table, tokens):
    encoded = EncodedTable.from_rows(table.rows, len(table.features))
    assert encoded.decode() == table.rows
    # a decision table encodes its decision as the last column
    decisions = tuple(tokens[i % len(tokens)] for i in table.objects)
    system = DecisionSystem(table, "d", decisions)
    assert system.encoded.decode() == tuple(r + (d,) for r, d in zip(table.rows, decisions))
    assert system.feature_index("d") == len(table.features)
    assert [system.feature_index(f) for f in table.features] == list(range(len(table.features)))
    with pytest.raises(UnknownFeature):
        system.feature_index("no such feature")


def test_lookup_gives_an_unseen_token_one_more_code():
    encoded = EncodedTable.from_rows((("a", "x"), ("b", "x")), 2)
    codes = encoded.lookup((("b", "x"), ("c", "y"), ("a", "y")))
    assert codes.tolist() == [[1, 0], [2, 1], [0, 1]]
    assert codes.dtype == encoded.codes.dtype
    assert dis_count_matrix(codes, encoded.codes).tolist() == [[1, 0], [2, 2], [1, 2]]


# --- object sets as integer bitsets ------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_pack_rows_round_trips_through_unpack_rows(n):
    mask = np.random.default_rng(n).random((6, n)) < 0.5
    mask[0], mask[1] = False, True
    bits = pack_rows(mask)
    assert bits == [sum(1 << x for x in range(n) if row[x]) for row in mask.tolist()]
    assert unpack_rows(bits, n).tolist() == mask.astype(np.uint8).tolist()
    assert pack_rows(mask[:0]) == []
    assert unpack_rows([], n).shape == (0, n)


@pytest.mark.parametrize("member", [10, 12, 20])
def test_unpack_rows_rejects_a_member_outside_its_n_objects(member):
    # 12 sits inside the last byte of 10 objects, 20 past it
    with pytest.raises(ParameterError, match="outside the 10 objects"):
        unpack_rows([0b101, 1 << member], 10)


def _package_imports(name):
    """The mereoml modules that ``mereoml.<name>`` imports."""
    source = Path(mereoml.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level 1) is one of the package itself
            module = ".".join(filter(None, ["mereoml" if node.level else "", node.module]))
            if module == "mereoml":
                modules = [f"mereoml.{alias.name}" for alias in node.names]
            else:
                modules = [module]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("mereoml."))
    return found


def test_object_bitsets_sit_below_the_modules_that_read_them():
    assert _package_imports("dataset") == {"errors"}
    assert _package_imports("bits") <= {"errors"}
    codec = {"pack_rows", "unpack_rows", "MemberView", "member_bits", "_plain", "_on_frozen"}
    assert not codec & set(vars(dataset))
    # only the codec knows the bit order and its range
    bit_words = {"packbits", "unpackbits", "from_bytes", "to_bytes", "bit_length"}
    for name in ("dataset", "inclusion", "granulation", "logic", "net"):
        source = Path(mereoml.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            assert not isinstance(node, ast.LShift), name
            assert getattr(node, "attr", getattr(node, "id", None)) not in bit_words, name
    assert "granulation" not in _package_imports("logic")
    assert "granulation" not in _package_imports("inclusion")
    # the walker sees both forms of a package import
    assert {"dataset", "errors", "mereo"} <= _package_imports("inclusion")
