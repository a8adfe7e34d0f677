"""The mereoml command line: exit codes, JSON shape, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

import mereoml
from mereoml import cli, discretize, load_csv
from mereoml.cli import main
from mereoml.errors import MereomlError

SCHEMAS = json.loads(
    resources.files("mereoml").joinpath("schemas/cli_output.json").read_text()
)

_SCALARS = {"float": float, "string": str, "null": type(None)}


def check_schema(value, schema):
    """Structural validation in the dialect documented inside the file."""
    if isinstance(schema, str):
        if schema == "int":
            assert isinstance(value, int) and not isinstance(value, bool), value
        elif schema == "bool":
            assert isinstance(value, bool), value
        else:
            assert isinstance(value, _SCALARS[schema]), (value, schema)
        return
    if isinstance(schema, list):
        for alt in schema:
            try:
                check_schema(value, alt)
                return
            except AssertionError:
                continue
        raise AssertionError(f"{value!r} matches no alternative in {schema}")
    if "array" in schema:
        assert isinstance(value, list)
        for item in value:
            check_schema(item, schema["array"])
        return
    assert isinstance(value, dict)
    fields = schema["object"]
    optional = set(schema.get("optional", ()))
    assert set(value) <= set(fields), f"unexpected keys {set(value) - set(fields)}"
    missing = set(fields) - optional - set(value)
    assert not missing, f"missing keys {missing}"
    for key, item in value.items():
        check_schema(item, fields[key])


def check_csv(text):
    lines = text.splitlines()
    assert lines, "empty CSV output"
    width = len(lines[0].split(","))
    assert all(len(line.split(",")) == width for line in lines)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    """Run a subcommand expected to succeed and validate its JSON output."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    check_schema(payload, SCHEMAS[argv[0]])
    # sorted keys make the byte stream canonical
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return payload


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "a,b,d\n1,0,y\n1,1,y\n0,1,n\n0,0,y\n1,0,n\n0,1,n\n", encoding="utf-8"
    )
    return str(path)


NET_TEXT = """\
layer
agent b
features f1 f2
object 0 0
object 0 1
object 1 1
target 0
target 2
agent c
features g1
object 0
object 1
target 1
layer
agent top auto
"""


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(NET_TEXT, encoding="utf-8")
    return str(path)


# --- load ------------------------------------------------------------------


def test_load_plain(capsys, table_csv):
    payload = run_json(capsys, "load", table_csv)
    assert payload == {"objects": 6, "features": 3}


def test_load_with_decision(capsys, table_csv):
    payload = run_json(capsys, "load", table_csv, "--decision", "d")
    assert payload == {
        "objects": 6,
        "features": 2,
        "decision": "d",
        "decision_values": 2,
    }


def test_load_with_na_token(capsys, tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("v,d\n5,y\n1,y\n3,n\n?,n\n", encoding="utf-8")
    payload = run_json(capsys, "load", str(path), "--na-token", "?")
    assert payload["objects"] == 4


def test_load_discretize(capsys, tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("v,d\n5,y\n1,y\n3,n\n2,n\n", encoding="utf-8")
    payload = run_json(capsys, "load", str(path), "--discretize", "v:2")
    assert payload["objects"] == 4


def test_load_bad_discretize_spec(capsys, table_csv):
    code, _, err = run(capsys, "load", table_csv, "--discretize", "a")
    assert code == 2
    assert "col:bins" in err
    code, _, err = run(capsys, "load", table_csv, "--discretize", "a:x")
    assert code == 2


def _one_error_line(err, *parts):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mereoml: "), err
    assert "Traceback" not in err
    for part in parts:
        assert part in lines[0]


def test_load_discretize_unknown_column_names_it(capsys, table_csv):
    code, out, err = run(capsys, "load", table_csv, "--discretize", "zz:2")
    assert code == 2 and out == ""
    _one_error_line(err, "'zz'")


def test_load_discretize_keeps_a_header_only_table(capsys, tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,d\n", encoding="utf-8")
    payload = run_json(capsys, "load", str(path), "--discretize", "a:2")
    assert payload == {"objects": 0, "features": 3}


def test_load_discretize_rejects_a_nan_cell(capsys, tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("a,d\n3,x\nnan,y\n1,x\n2,y\n0.5,x\n", encoding="utf-8")
    code, out, err = run(capsys, "load", str(path), "--decision", "d", "--discretize", "a:2")
    assert code == 2 and out == ""
    assert err == "mereoml: non-numeric cell 'nan' at row 1, column 'a'\n"
    path.write_text("a,d\ninf,x\n-inf,y\n1,x\n", encoding="utf-8")
    assert run_json(capsys, "load", str(path), "--decision", "d", "--discretize", "a:2")


def test_load_ignores_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffa,b\n1,x\n2,y\n".encode("utf-8"))
    payload = run_json(capsys, "load", str(path), "--decision", "a")
    assert payload == {"objects": 2, "features": 1, "decision": "a", "decision_values": 2}


def ref_load_table(args):
    """The per-entry loop: one ``discretize`` call for each ``--discretize`` entry."""
    system = load_csv(args.csv, decision=args.decision, na_token=args.na_token)
    if args.discretize:
        for spec in args.discretize.split(","):
            col, _, bins = spec.partition(":")
            if not bins:
                raise MereomlError(f"bad discretize entry {spec!r}; use col:bins")
            try:
                system = discretize(system, [col], int(bins))
            except ValueError:
                raise MereomlError(f"bad bin count in {spec!r}") from None
    return system


@pytest.fixture(scope="module")
def numeric_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("numeric") / "num.csv"
    path.write_text(
        "n1,n2,c,d\n3,0.5,x,y\n1,-2,y,n\n2,0.5,x,y\n1,7,y,n\n", encoding="utf-8"
    )
    return str(path)


def load_outcome(argv, load_table=None):
    """(exit code, stdout, stderr) of ``main``, optionally with another loader."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if load_table is not None:
            stack.enter_context(mock.patch.object(cli, "_load_table", load_table))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


#: good entries, a missing count, bad counts, an unknown name, a
#: non-numeric column and the decision column; drawn with repeats
DISCRETIZE_ENTRIES = (
    "n1:2", "n2:3", "n1:1", "n2:5", "n1", "n1:x", "n1:0", "n2:-1", "zz:2", "c:2", "d:2",
)


@hypothesis.given(
    strat.lists(strat.sampled_from(DISCRETIZE_ENTRIES), min_size=1, max_size=4),
    strat.sampled_from(([], ["--decision", "d"])),
)
def test_one_discretize_call_matches_the_per_entry_loop(numeric_csv, entries, decision):
    def outcome(specs, load_table=None):
        argv = ["load", numeric_csv, *decision, "--discretize", ",".join(specs)]
        return load_outcome(argv, load_table)

    # an entry is a fault if the loop fails on it after the good ones before it;
    # a repeated column fails there too, as its labels are no numbers
    good, faults = [], []
    for entry in entries:
        result = outcome(good + [entry], ref_load_table)
        if result[0] == 0:
            good.append(entry)
        else:
            faults.append(result)
    new = outcome(entries)
    if len(faults) <= 1:
        assert new == outcome(entries, ref_load_table)
    else:
        # several faults: one call may report another of them first
        assert new in faults


def test_load_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "load", str(tmp_path / "absent.csv"))
    assert code == 2
    assert err.startswith("mereoml:")


def test_load_ragged_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1\n", encoding="utf-8")
    code, _, err = run(capsys, "load", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "last, message",
    [("2", "row at line 4 has 1 cells, expected 2"), ("2,", "missing value at line 4, column 'b'")],
    ids=["ragged", "missing"],
)
def test_load_errors_name_the_physical_line(capsys, tmp_path, last, message):
    # the quoted cell spans lines 2 and 3, so the faulty row is on line 4
    path = tmp_path / "multi.csv"
    path.write_text(f'a,b\n"x\ny",1\n{last}\n', encoding="utf-8")
    assert run(capsys, "load", str(path)) == (2, "", f"mereoml: {path}: {message}\n")


@pytest.mark.parametrize("line", [1, 2])
def test_load_a_cell_past_the_field_limit_is_a_data_error(capsys, tmp_path, line):
    limit = csv.field_size_limit()
    cell = "x" * (limit + 1)
    path = tmp_path / "wide.csv"
    lines = [f"a,{cell}", "1,2"] if line == 1 else ["a,b", f"1,{cell}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"mereoml: {path}: line {line}: field larger than field limit ({limit})\n"
    assert run(capsys, "load", str(path)) == (2, "", message)


# --- classify --------------------------------------------------------------


def test_classify_reports_radius_sweep(capsys, table_csv):
    payload = run_json(
        capsys, "classify", table_csv, "--decision", "d", "--seed", "0", "--folds", "2"
    )
    assert len(payload["per_radius"]) == 2  # radius grid over two features
    assert payload["best_radius"] in [rr["radius"] for rr in payload["per_radius"]]
    for rr in payload["per_radius"]:
        assert rr["coverage"] == 1.0
        assert 0 <= rr["accuracy"] <= 1


def test_classify_explicit_radii(capsys, table_csv):
    payload = run_json(
        capsys,
        "classify",
        table_csv,
        "--decision",
        "d",
        "--seed",
        "7",
        "--folds",
        "2",
        "--radii",
        "1/2,1",
        "--inclusion",
        "exp",
    )
    assert [rr["radius"] for rr in payload["per_radius"]] == [0.5, 1.0]


def test_classify_requires_seed(capsys, table_csv):
    code, _, err = run(capsys, "classify", table_csv, "--decision", "d")
    assert code == 1
    assert "--seed" in err


def test_classify_bad_radius(capsys, table_csv):
    code, _, err = run(
        capsys,
        "classify",
        table_csv,
        "--decision",
        "d",
        "--seed",
        "0",
        "--radii",
        "three",
    )
    assert code == 2
    assert "bad radius" in err


def test_classify_empty_radii_is_a_bad_radius(capsys, table_csv):
    code, out, err = run(
        capsys, "classify", table_csv, "--decision", "d", "--seed", "0", "--radii", ""
    )
    assert code == 2 and out == ""
    _one_error_line(err, "bad radius ''")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--seed", "1", "--folds", "2", "--inclusion", "exp", "--radii", "{r}"),
        ("granulate", "--inclusion", "exp", "--radius", "{r}"),
        ("logic", "--granules-from", "{r},exp", "--eval", "a=1"),
    ],
    ids=lambda argv: argv[0],
)
def test_exp_radius_below_the_smallest_float_acts_as_radius_zero(capsys, table_csv, argv):
    """1e-400 is a float 0.0, but it is compared exactly with each float
    degree, and under uniform weights no degree is below exp(-1)."""
    code, out, err = run(capsys, argv[0], table_csv, "--decision", "d",
                         *(a.format(r="1e-400") for a in argv[1:]))
    assert (code, err) == (0, "")
    zero = run(capsys, argv[0], table_csv, "--decision", "d",
               *(a.format(r="0") for a in argv[1:]))
    assert out == zero[1]


@pytest.mark.parametrize(
    "radius", ["1e-99999999", "1e5000", "9" * 4300 + ".5"], ids=["tiny", "huge", "long"]
)
def test_radius_with_too_many_digits_is_a_bad_radius(capsys, table_csv, radius):
    code, out, err = run(
        capsys, "granulate", table_csv, "--decision", "d", "--radius", radius
    )
    assert code == 2 and out == ""
    _one_error_line(err, "bad radius")


@pytest.mark.parametrize(
    "argv, code, first",
    [
        (("granulate", "--radius=--"), 2, "mereoml: bad radius '--'"),
        (("classify", "--seed=--"), 1, "usage: mereoml classify"),
    ],
)
def test_option_value_of_two_dashes_is_read_as_text(capsys, table_csv, argv, code, first):
    got, out, err = run(capsys, argv[0], table_csv, "--decision", "d", *argv[1:])
    assert (got, out) == (code, "")
    assert err.startswith(first) and "Traceback" not in err


def test_classify_rejects_more_folds_than_objects(capsys, tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("a,d\n0,y\n1,n\n0,y\n", encoding="utf-8")
    argv = ("classify", str(path), "--decision", "d", "--seed", "0", "--folds")
    assert run(capsys, *argv, "5") == (2, "", "mereoml: 5 folds for 3 objects\n")
    assert run(capsys, *argv, "3")[0] == 0


def test_classify_decision_only_table_is_data_error(capsys, tmp_path):
    path = tmp_path / "decision_only.csv"
    path.write_text("d\ny\nn\ny\nn\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(path), "--decision", "d", "--seed", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("mereoml: ") and "Traceback" not in err


def test_classify_unknown_inclusion_is_usage_error(capsys, table_csv):
    code, _, _ = run(
        capsys,
        "classify",
        table_csv,
        "--decision",
        "d",
        "--seed",
        "0",
        "--inclusion",
        "cosine",
    )
    assert code == 1


# --- granulate -------------------------------------------------------------


def test_granulate_to_stdout(capsys, table_csv):
    code, out, _ = run(
        capsys, "granulate", table_csv, "--decision", "d", "--radius", "1/2"
    )
    assert code == 0
    check_csv(out)
    assert out.splitlines()[0] == "a,b,d"
    assert SCHEMAS["granulate"] == {"format": "csv"}


def test_granulate_full_radius_reproduces_rows(capsys, table_csv):
    code, out, _ = run(
        capsys, "granulate", table_csv, "--decision", "d", "--radius", "1"
    )
    assert code == 0
    lines = out.splitlines()
    # radius 1 granules merge only identical rows: four distinct rows here,
    # with each duplicated row voting its decision
    assert len(lines) == 5
    assert "0,1,n" in lines
    assert "1,0,n" in lines  # the y/n tie over the (1,0) pair resolves low


def test_granulate_to_file(capsys, table_csv, tmp_path):
    target = tmp_path / "mirror.csv"
    code, out, _ = run(
        capsys,
        "granulate",
        table_csv,
        "--decision",
        "d",
        "--radius",
        "1/2",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    check_csv(target.read_text(encoding="utf-8"))


@pytest.mark.parametrize("inclusion", ["lukasiewicz", "exp"])
def test_granulate_header_only_table_prints_the_header(capsys, tmp_path, inclusion):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,d\n", encoding="utf-8")
    code, out, err = run(
        capsys, "granulate", str(path), "--decision", "d", "--radius", "1/2",
        "--inclusion", inclusion,
    )
    assert (code, out, err) == (0, "a,b,d\n", "")


@pytest.mark.parametrize(
    "rows",
    [
        [("x,1", "p"), ('say "hi"', "q"), ("z", "p")],
        [("line\nbreak", "p"), ("z", "q")],
    ],
)
def test_granulate_writes_a_mirror_that_load_reads_back(capsys, tmp_path, rows):
    # at radius 1 the granules of distinct rows are the rows themselves, so
    # the mirror holds the table's own tokens
    table, mirror = tmp_path / "table.csv", tmp_path / "mirror.csv"
    with table.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("a", "d"), *rows])
    argv = ("granulate", str(table), "--decision", "d", "--radius", "1", "--out", str(mirror))
    assert run(capsys, *argv) == (0, "", "")
    back = load_csv(mirror, decision="d")
    assert back.system.rows == tuple((a,) for a, _ in rows)
    assert back.decisions == tuple(d for _, d in rows)


def test_granulate_quotes_a_lone_carriage_return(capsys, tmp_path):
    table, mirror = tmp_path / "table.csv", tmp_path / "mirror.csv"
    table.write_bytes(b'a,d\n"x\ry",p\nz,q\n')
    argv = ("granulate", str(table), "--decision", "d", "--radius", "1", "--out", str(mirror))
    assert run(capsys, *argv) == (0, "", "")
    assert mirror.read_bytes() == b'a,d\n"x\ry",p\nz,q\n'
    payload = run_json(capsys, "load", str(mirror), "--decision", "d")
    assert (payload["objects"], payload["features"]) == (2, 1)


# --- logic -----------------------------------------------------------------


def test_logic_evaluates_formula(capsys, table_csv):
    payload = run_json(
        capsys,
        "logic",
        table_csv,
        "--decision",
        "d",
        "--granules-from",
        "1/2,lukasiewicz",
        "--eval",
        "a=1 -> d=y",
    )
    assert payload["formula"] == "a=1 -> d=y"
    assert payload["mode"] == "nul"
    assert payload["radius"] == 0.5
    assert payload["granules"]
    for row in payload["granules"]:
        assert row["true"] == (row["extension"] == 1.0)
    assert payload["valid"] == all(row["true"] for row in payload["granules"])


def test_logic_nu3_mode(capsys, table_csv):
    payload = run_json(
        capsys,
        "logic",
        table_csv,
        "--decision",
        "d",
        "--granules-from",
        "1,lukasiewicz",
        "--eval",
        "b=1",
        "--mode",
        "nu3",
    )
    assert payload["mode"] == "nu3"
    for row in payload["granules"]:
        assert row["extension_exact"] in {"0", "1/2", "1"}


def test_logic_allows_unseen_values(capsys, table_csv):
    payload = run_json(
        capsys,
        "logic",
        table_csv,
        "--decision",
        "d",
        "--granules-from",
        "1,lukasiewicz",
        "--eval",
        "a=42",
    )
    assert not payload["valid"]


def test_logic_granules_from_needs_kind(capsys, table_csv):
    code, _, err = run(
        capsys,
        "logic",
        table_csv,
        "--decision",
        "d",
        "--granules-from",
        "1/2",
        "--eval",
        "a=1",
    )
    assert code == 2
    assert "radius,inclusion" in err


def test_logic_unknown_feature_names_it(capsys, table_csv):
    code, out, err = run(
        capsys, "logic", table_csv, "--decision", "d",
        "--granules-from", "1,lukasiewicz", "--eval", "zz=1",
    )
    assert code == 2 and out == ""
    _one_error_line(err, "'zz'")


def test_logic_parse_error_exits_2(capsys, table_csv):
    code, _, err = run(
        capsys,
        "logic",
        table_csv,
        "--decision",
        "d",
        "--granules-from",
        "1,lukasiewicz",
        "--eval",
        "a=",
    )
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize(
    "formula",
    [
        "!" * 3000 + "a=1",
        "(" * 2000 + "a=1" + ")" * 2000,
        " & ".join(["a=1"] * 3001),
        " -> ".join(["a=1"] * 3001),
    ],
    ids=["not", "parentheses", "and-chain", "implies-chain"],
)
def test_logic_formula_nested_too_deep_is_a_data_error(capsys, table_csv, formula):
    code, out, err = run(
        capsys, "logic", table_csv, "--decision", "d",
        "--granules-from", "1/2,lukasiewicz", "--eval", formula,
    )
    assert code == 2 and out == ""
    _one_error_line(err, "more than 100 levels deep", "column")


def test_logic_formula_of_the_deepest_allowed_nesting_evaluates(capsys, table_csv):
    payload = run_json(
        capsys, "logic", table_csv, "--decision", "d",
        "--granules-from", "1/2,lukasiewicz", "--eval", "!" * 98 + "(a=1)",
    )
    assert payload["formula"] == "!" * 98 + "a=1"


# --- net -------------------------------------------------------------------


def test_net_propagates(capsys, net_file):
    payload = run_json(
        capsys, "net", net_file, "--input", "0,1", "--input", "0"
    )
    assert [s["agent"] for s in payload["steps"]] == ["b", "c", "top"]
    assert payload["final_target"] == 1
    assert payload["final_degree"] == pytest.approx(math.exp(-4 / 9))
    assert payload["steps"][0]["lukasiewicz_bound"] is None
    assert payload["steps"][2]["meets_max_bound"] is False


def test_net_line_with_an_unclosed_quote_is_malformed(capsys, tmp_path):
    path = tmp_path / "quote.net"
    path.write_text('layer\nagent "b\n', encoding="utf-8")
    code, out, err = run(capsys, "net", str(path), "--input", "0")
    assert code == 2 and out == ""
    _one_error_line(err, "malformed line 2")


@pytest.mark.parametrize(
    "text,line",
    [
        ("layer junk\n", "malformed line 1: 'layer junk'"),
        ("layer\nagent a junk words\n", "malformed line 2: 'agent a junk words'"),
        ("layer\nagent a\nfeatures f\nobject 0\ntarget 0 7\n", "malformed line 5: 'target 0 7'"),
    ],
    ids=["layer", "agent", "target"],
)
def test_net_line_with_extra_words_is_malformed(capsys, tmp_path, text, line):
    path = tmp_path / "extra.net"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "net", str(path), "--input", "0")
    assert (code, out, err) == (2, "", f"mereoml: {line}\n")


@pytest.mark.parametrize(
    "second,top,message",
    [
        ("a", "agent top auto", "line 6: agent 'a' already defined at line 2"),
        ("b", "agent a auto a b", "line 11: agent 'a' already defined at line 2"),
    ],
    ids=["input", "consumer"],
)
def test_net_rejects_a_repeated_agent_name(capsys, tmp_path, second, top, message):
    path = tmp_path / "repeat.net"
    path.write_text(
        "layer\nagent a\nfeatures f\nobject 0\ntarget 0\n"
        f"agent {second}\nfeatures g\nobject 0\ntarget 0\nlayer\n{top}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "net", str(path), "--input", "0", "--input", "0")
    assert (code, out, err) == (2, "", f"mereoml: {message}\n")


@pytest.mark.parametrize(
    "text,line",
    [
        ("layer\nagent a\nfeatures f\nfeatures g\nobject 0\ntarget 0\n", 4),
        ("layer\nagent a\nfeatures f\nobject 0\nfeatures g h\nobject 1 2\ntarget 0\n", 5),
    ],
    ids=["adjacent", "after-a-row"],
)
def test_net_rejects_a_second_features_line(capsys, tmp_path, text, line):
    path = tmp_path / "features.net"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "net", str(path), "--input", "0")
    assert (code, out, err) == (
        2, "", f"mereoml: line {line}: agent 'a' has a second features line\n"
    )


def test_net_wrong_input_count(capsys, net_file):
    code, _, err = run(capsys, "net", net_file, "--input", "0,1")
    assert code == 2
    assert "input" in err


# --- sim -------------------------------------------------------------------


def test_sim_shipped_scene(capsys, tmp_path):
    out = tmp_path / "t.csv"
    svg = tmp_path / "t.svg"
    payload = run_json(
        capsys,
        "sim",
        "data/corridor_world.txt",
        "data/cross.frm",
        "--out",
        str(out),
        "--svg",
        str(svg),
    )
    assert payload["status"] == "goal_reached"
    assert payload["final_violations"] == 0
    check_csv(out.read_text(encoding="utf-8"))
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_sim_step_budget(capsys, tmp_path):
    payload = run_json(
        capsys,
        "sim",
        "data/corridor_world.txt",
        "data/cross.frm",
        "--steps",
        "2",
        "--out",
        str(tmp_path / "t.csv"),
        "--svg",
        str(tmp_path / "t.svg"),
    )
    assert payload["status"] == "step_budget"
    assert payload["steps"] == 2


@pytest.mark.parametrize("bounds", ["0 0 inf 5", "0 0 1e300 5"])
def test_sim_world_grid_too_large_is_a_data_error(capsys, tmp_path, bounds):
    world, formation = tmp_path / "w.txt", tmp_path / "f.frm"
    world.write_text(
        f"bounds {bounds}\ncell 1\ngoal 1 1 2 2\nrobot 0 0.1 0.1 0.3 0.3\n", encoding="utf-8"
    )
    formation.write_text("(f (set (between roomba 0 roomba 0 roomba 0)))\n", encoding="utf-8")
    code, out, err = run(
        capsys, "sim", str(world), str(formation),
        "--out", str(tmp_path / "t.csv"), "--svg", str(tmp_path / "t.svg"),
    )
    assert code == 2 and out == ""
    _one_error_line(err, "world grid of", "exceeds")


SIM_ERROR_WORLDS = {
    # robot 1 sits inside the obstacle
    "robot-in-obstacle": (
        "bounds 0 0 10 10\ncell 1\nobstacle 4 4 10 10\ngoal 0 8 2 10\n"
        "robot 0 1.4 1.4 1.6 1.6\nrobot 1 6.4 6.4 6.6 6.6\nrobot 2 2.4 1.4 2.6 1.6\n"
        "robot 3 1.4 2.4 1.6 2.6\nrobot 4 1.4 0.4 1.6 0.6\n",
        "robot 1 overlaps an obstacle",
    ),
    # robot 1 touches no obstacle, but leader 0 inflates the two walls around
    # it by 1, which blocks columns 4-6 whole
    "follower-boxed-in": (
        "bounds 0 0 10 10\ncell 1\nobstacle 4.8 0 5 10\nobstacle 6 0 6.2 10\n"
        "goal 1 7 3 9\nrobot 0 1 1 3 3\nrobot 1 5.4 5.4 5.6 5.6\nrobot 2 1.4 4.4 1.6 4.6\n"
        "robot 3 2.4 4.4 2.6 4.6\nrobot 4 3.4 4.4 3.6 4.6\n",
        "robot 1 is boxed in",
    ),
    # a NaN cell size passes a `cell <= 0` test and would reach the grid
    "cell-nan": (
        "bounds 0 0 10 10\ncell nan\ngoal 0 8 2 10\n"
        "robot 0 1.4 1.4 1.6 1.6\nrobot 1 2.4 2.4 2.6 2.6\nrobot 2 2.4 1.4 2.6 1.6\n"
        "robot 3 1.4 2.4 1.6 2.6\nrobot 4 1.4 0.4 1.6 0.6\n",
        "cell size must be positive and finite, got nan",
    ),
    "unknown-directive": (
        "bounds 0 0 10 10\ncell 1\nfoo 1\ngoal 0 8 2 10\nrobot 0 1.4 1.4 1.6 1.6\n",
        "world line 3: unknown directive 'foo'",
    ),
    "degenerate-obstacle": (
        "bounds 0 0 10 10\ncell 1\nobstacle 2 2 1 1\ngoal 0 8 2 10\nrobot 0 1.4 1.4 1.6 1.6\n",
        "world line 3: degenerate rectangle (2.0, 2.0, 1.0, 1.0)",
    ),
    # bounds, cell and goal each appear once; a second line is no override
    "second-bounds": (
        "bounds 0 0 10 10\ncell 1\ngoal 0 8 2 10\nbounds 0 0 20 20\nrobot 0 1.4 1.4 1.6 1.6\n",
        "world line 4: second 'bounds' line",
    ),
    "second-cell": (
        "bounds 0 0 10 10\ncell 1\ncell 2\ngoal 0 8 2 10\nrobot 0 1.4 1.4 1.6 1.6\n",
        "world line 3: second 'cell' line",
    ),
    "second-goal": (
        "bounds 0 0 10 10\ncell 1\ngoal 0 8 2 10\ngoal 8 8 10 10\nrobot 0 1.4 1.4 1.6 1.6\n",
        "world line 4: second 'goal' line",
    ),
}


@pytest.mark.parametrize("case", sorted(SIM_ERROR_WORLDS))
def test_sim_world_a_robot_cannot_move_in_is_a_data_error(capsys, tmp_path, case):
    text, fragment = SIM_ERROR_WORLDS[case]
    world = tmp_path / "w.txt"
    world.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "sim", str(world), "data/cross.frm",
        "--out", str(tmp_path / "t.csv"), "--svg", str(tmp_path / "t.svg"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("mereoml: ") and err.count("\n") == 1
    assert fragment in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("t.*"))


# --- cross-cutting ---------------------------------------------------------


def test_no_command_prints_help(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "explode")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("load", "{bad}"),
        ("net", "{bad}", "--input", "0"),
        ("sim", "{bad}", "data/cross.frm", "--out", "{tmp}/t.csv", "--svg", "{tmp}/t.svg"),
        ("sim", "data/corridor_world.txt", "{bad}", "--out", "{tmp}/t.csv",
         "--svg", "{tmp}/t.svg"),
    ],
    ids=["load", "net", "sim-world", "sim-formation"],
)
def test_input_that_is_not_utf8_is_a_data_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfea,b\n")
    code, out, err = run(capsys, *(a.format(bad=bad, tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("mereoml: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("t.*"))


@pytest.mark.parametrize(
    "argv",
    [
        ("load", "{bad}"),
        ("net", "{bad}", "--input", "0"),
        ("sim", "{bad}", "data/cross.frm", "--out", "{tmp}/t.csv", "--svg", "{tmp}/t.svg"),
        ("sim", "data/corridor_world.txt", "{bad}", "--out", "{tmp}/t.csv",
         "--svg", "{tmp}/t.svg"),
    ],
    ids=["load", "net", "sim-world", "sim-formation"],
)
def test_input_that_is_not_utf8_names_the_file(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a,b\n\xff\xfe\n")
    code, _, err = run(capsys, *(a.format(bad=bad, tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith(f"mereoml: {bad}: not UTF-8")
    assert "0xff at offset 4" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "{table}", "--decision", "d", "--seed", "0", "--folds", "0"),
        ("classify", "{table}", "--decision", "d", "--seed", "0", "--folds", "1"),
        ("sim", "data/corridor_world.txt", "data/cross.frm", "--steps", "-1",
         "--out", "{tmp}/t.csv", "--svg", "{tmp}/t.svg"),
    ],
)
def test_counts_out_of_range_are_usage_errors(capsys, table_csv, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(table=table_csv, tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("usage: mereoml ") and "Traceback" not in err
    assert not list(tmp_path.glob("t.*"))
    # the parser is built once per process: a rejected call must not change
    # what the next call in the same process prints
    valid = ["classify", table_csv, "--decision", "d", "--seed", "3", "--folds", "2"]
    code, out, _ = run(capsys, *valid)
    src = str(Path(mereoml.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "mereoml.cli", *valid],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert code == fresh.returncode == 0
    assert out == fresh.stdout


def test_output_bytes_are_deterministic(capsys, table_csv, net_file, tmp_path):
    invocations = [
        ("load", table_csv, "--decision", "d"),
        (
            "classify",
            table_csv,
            "--decision",
            "d",
            "--seed",
            "3",
            "--folds",
            "2",
        ),
        ("granulate", table_csv, "--decision", "d", "--radius", "1/2"),
        (
            "logic",
            table_csv,
            "--decision",
            "d",
            "--granules-from",
            "1/2,lukasiewicz",
            "--eval",
            "a=1 & b=0 -> d=y",
        ),
        ("net", net_file, "--input", "0,0", "--input", "1"),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_sim_runs_are_deterministic(capsys, tmp_path):
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        code, text, _ = run(
            capsys,
            "sim",
            "data/corridor_world.txt",
            "data/cross.frm",
            "--out",
            str(out),
            "--svg",
            str(svg),
        )
        assert code == 0
        outputs.append((out.read_bytes(), svg.read_bytes()))
    assert outputs[0] == outputs[1]


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, net_file):
    rng = random.Random(11)
    lines = ["c0,c1,c2,c3,d"]
    for _ in range(40):
        row = [rng.choice(("lo", "mid", "hi", "x\0")) for _ in range(4)]
        lines.append(",".join(row + [rng.choice(("yes", "no", "maybe"))]))
    table = tmp_path / "t.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    traj, svg = tmp_path / "traj.csv", tmp_path / "traj.svg"
    invocations = [
        ["classify", str(table), "--decision", "d", "--seed", "4", "--folds", "3"],
        ["classify", str(table), "--decision", "d", "--seed", "4", "--inclusion", "exp",
         "--radii", "0.3,0.7"],
        ["granulate", str(table), "--decision", "d", "--radius", "1/2"],
        ["logic", str(table), "--decision", "d", "--granules-from", "1/2,lukasiewicz",
         "--eval", "c0=lo | c1=hi -> d=yes"],
        ["load", str(table), "--decision", "d"],
        ["net", net_file, "--input", "0,1", "--input", "1"],
        ["sim", "data/corridor_world.txt", "data/cross.frm", "--out", str(traj),
         "--svg", str(svg)],
    ]
    src = str(Path(mereoml.__file__).resolve().parents[1])
    for argv in invocations:
        outputs = []
        for hash_seed in ("0", "1"):
            traj.unlink(missing_ok=True)
            svg.unlink(missing_ok=True)
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "mereoml.cli", *argv],
                capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            # sim also writes its trajectory files
            written = [p.read_bytes() for p in (traj, svg) if p.exists()]
            assert len(written) == (2 if argv[0] == "sim" else 0)
            outputs.append((proc.stdout, written))
        assert outputs[0] == outputs[1], argv


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the vote and the tie-break count with float32 matrix products; the
    # counts are exact integers, so no BLAS summation order may show
    rng = random.Random(23)
    lines = ["c0,c1,c2,c3,c4,c5,n0,d"]
    for _ in range(400):
        row = [rng.choice("abcde") for _ in range(6)] + [str(rng.randrange(60))]
        lines.append(",".join(row + [rng.choice(("yes", "no"))]))
    table = tmp_path / "t.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    invocations = [
        ["classify", str(table), "--decision", "d", "--seed", "5"],
        ["classify", str(table), "--decision", "d", "--seed", "5", "--inclusion", "exp"],
        ["logic", str(table), "--decision", "d", "--granules-from", "4/7,lukasiewicz",
         "--eval", "c0=a | c1=b -> d=yes"],
    ]
    src = str(Path(mereoml.__file__).resolve().parents[1])
    for argv in invocations:
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "mereoml.cli", *argv],
                capture_output=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
