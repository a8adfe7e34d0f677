"""Malformed input at the command line: exit 0, 1 or 2, and never a traceback.

Each test calls ``cli.main`` in-process on generated input, so an exception
that escapes ``main`` fails the test.  A failing run prints exactly one
``mereoml:`` line (exit 2, a data error) or starts with a usage line (exit
1); a run that succeeds prints nothing on stderr.
"""

import contextlib
import io

import hypothesis
import hypothesis.strategies as strat
import pytest

from mereoml.cli import main

# few examples each, so the whole file stays within a few seconds
FUZZ = hypothesis.settings(max_examples=100, deadline=None)

TABLE = "a,b,d\n1,0,y\n1,1,y\n0,1,n\n0,0,y\n1,0,n\n0,1,n\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "toy.csv").write_text(TABLE, encoding="utf-8")
    return root


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, err):
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err.startswith("usage: mereoml"), err
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mereoml: "), err


RADII = strat.one_of(
    strat.sampled_from(
        ["1e-400", "nan", "inf", "-inf", "-0", "1e999", "1e5000", "1e-99999999",
         "9" * 5000, "1/0", "", " ", "2/3", "1", "0", ".5", "1e", "e5", "0x10", "1_0"]
    ),
    strat.floats().map(repr),
    strat.fractions().map(str),
    strat.builds("{}e{}".format, strat.integers(-99, 99), strat.integers(-10**9, 10**9)),
    strat.builds("{}e{}".format, strat.integers(1, 9), strat.integers(-5000, 50)),
    strat.text(alphabet="0123456789./eE-+ ,", max_size=10),
)


@FUZZ
@hypothesis.given(
    strat.sampled_from(["classify", "granulate", "logic"]),
    strat.sampled_from(["lukasiewicz", "exp"]),
    RADII,
)
def test_any_radius_text(files, command, inclusion, radius):
    table = str(files / "toy.csv")
    if command == "classify":
        flags = ("--seed", "1", "--folds", "2", f"--inclusion={inclusion}", f"--radii={radius}")
    elif command == "granulate":
        flags = (f"--inclusion={inclusion}", f"--radius={radius}")
    else:
        flags = (f"--granules-from={radius},{inclusion}", "--eval=a=1")
    code, _, err = run_main(command, table, "--decision", "d", *flags)
    check_outcome(code, err)


FORMULA_TOKENS = ["!", "&", "|", "->", "(", ")", "=", "a", "b", "d", "0", "1", "y",
                  "zz", "-", ">", "#", "é", " ", "a=1", "d=n"]

NESTING = strat.builds(
    lambda opener, k: opener * k,
    strat.sampled_from(["!", "(", "a=1 & ", "a=1 -> ", "a=1 | ", "!(", "(a=1 & "]),
    strat.one_of(strat.integers(0, 120), strat.sampled_from([99, 100, 101, 3000])),
)


@FUZZ
@hypothesis.given(
    NESTING,
    strat.lists(strat.sampled_from(FORMULA_TOKENS), max_size=30),
    strat.one_of(strat.integers(0, 5), strat.sampled_from([100, 3000])),
    strat.sampled_from(["1/2,lukasiewicz", "0.6,exp"]),
)
def test_any_formula_text(files, prefix, soup, closers, granules_from):
    formula = prefix + "".join(soup) + ")" * closers
    code, _, err = run_main(
        "logic", str(files / "toy.csv"), "--decision", "d",
        f"--granules-from={granules_from}", f"--eval={formula}",
    )
    check_outcome(code, err)


CSV_TEXT = strat.one_of(
    strat.text(alphabet='ab01d,"\n\r \t\ufeff\x00é.', max_size=60),
    strat.lists(
        strat.lists(strat.sampled_from(["a", "b", "d", "0", "1", "1.5", "nan", "", '"', "NA"]),
                    max_size=4).map(",".join),
        max_size=8,
    ).map("\n".join),
).map(str.encode) | strat.binary(max_size=40)


@FUZZ
@hypothesis.given(
    strat.sampled_from([b"", b"a,b,d\n"]),
    CSV_TEXT,
    strat.sampled_from([
        ("load",),
        ("load", "--decision", "d"),
        ("load", "--discretize", "a:2,b:0"),
        ("classify", "--decision", "d", "--seed", "0", "--folds", "2"),
        ("classify", "--decision", "d", "--seed", "0", "--folds", "2", "--inclusion", "exp",
         "--discretize", "a:2"),
        ("granulate", "--decision", "d", "--radius", "1/2", "--na-token", "NA"),
        ("logic", "--decision", "d", "--granules-from", "1/2,lukasiewicz", "--eval", "a=1"),
    ]),
)
def test_any_csv_text(files, header, body, argv):
    path = files / "fuzz.csv"
    path.write_bytes(header + body)
    code, _, err = run_main(argv[0], str(path), *argv[1:])
    check_outcome(code, err)


NET_WORDS = ["layer", "agent", "features", "object", "target", "auto", "b", "c", "f1",
             "g1", "0", "1", "2", "-1", "x", "#", '"', "'", "b c"]


@FUZZ
@hypothesis.given(
    strat.lists(strat.lists(strat.sampled_from(NET_WORDS), max_size=4).map(" ".join),
                max_size=10),
    strat.lists(strat.sampled_from(["0", "1", "0,1", "1,1", "", "x,y", "0,0,0"]),
                min_size=1, max_size=3),
)
def test_any_net_lines(files, lines, inputs):
    path = files / "fuzz.net"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["net", str(path)]
    for text in inputs:
        argv.append(f"--input={text}")
    code, _, err = run_main(*argv)
    check_outcome(code, err)


# grid sizes stay small here; a grid past the cell limit is one more error
WORLD_NUMBERS = ["0", "1", "2", "3", "5", "0.5", "1.5", "-1", "nan", "inf", "1e300", "1e-300",
                 "x"]
WORLD_ARITY = {"bounds": 4, "cell": 1, "obstacle": 4, "goal": 4, "robot": 5, "wall": 2, "#": 0}


@strat.composite
def world_lines(draw):
    """A directive with, most often, as many numbers as it takes."""
    directive = draw(strat.sampled_from(sorted(WORLD_ARITY)))
    count = draw(strat.one_of(strat.just(WORLD_ARITY[directive]), strat.integers(0, 6)))
    numbers = draw(strat.lists(strat.sampled_from(WORLD_NUMBERS), min_size=count, max_size=count))
    return " ".join([directive, *numbers])


@FUZZ
@hypothesis.given(strat.lists(world_lines(), max_size=8))
def test_any_world_lines(files, lines):
    world = files / "fuzz_world.txt"
    formation = files / "fuzz.frm"
    # a valid world first, so later lines override or extend it
    world.write_text(
        "bounds 0 0 5 5\ncell 0.5\ngoal 3 3 4 4\nrobot 0 0.5 0.5 1 1\n" + "\n".join(lines) + "\n",
        encoding="utf-8",
    )
    formation.write_text("(f (set (between roomba 0 roomba 0 roomba 0)))\n", encoding="utf-8")
    code, _, err = run_main(
        "sim", str(world), str(formation), "--steps", "5",
        "--out", str(files / "fuzz.csv.out"), "--svg", str(files / "fuzz.svg"),
    )
    check_outcome(code, err)
