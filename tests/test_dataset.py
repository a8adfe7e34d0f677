"""Table ingestion, discretization and the discernibility primitives."""

from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from mereoml import (
    DecisionSystem,
    DuplicateFeature,
    IngestionError,
    InformationSystem,
    MissingDecisionColumn,
    MissingValue,
    RaggedRow,
    UnknownFeature,
    UnknownObject,
    dis,
    discretize,
    ind_fraction,
    load_csv,
    row_dis_count,
)
from mereoml.dataset import _bin_labels
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
