"""The recorded command-line output digests, checked on the seed-0 slice."""

import importlib.util
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digests", _ROOT / "scripts" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)

#: a seed-0 case that writes a file, a round trip of two commands in one
#: directory, and a data error (exit 2, one stderr line)
_VIA_CASES = ("granulate/seed0/rows138/exp/r1/2", "ci/quoted/granulate-load", "ci/error/load-multi")


def _via_cases():
    every = cli_digests.cases([0])
    return {name: every[name] for name in _VIA_CASES}


def test_seed_zero_outputs_match_the_recorded_digests():
    assert cli_digests.check(cli_digests.cases([0])) == []


def test_a_changed_digest_file_fails_the_check_and_names_the_case(tmp_path):
    recorded = json.loads(cli_digests.DIGESTS.read_text(encoding="utf-8"))
    case = "classify/seed0/rows138/exp/default"
    recorded[case[:-1] + "x"] = recorded.pop(case)
    digest = recorded["net/seed0"]
    recorded["net/seed0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(recorded), encoding="utf-8")
    assert cli_digests.check(cli_digests.cases([0]), path) == [
        "classify/seed0/rows138/exp/defaulx: recorded but not a case",
        f"{case}: no recorded digest",
        "net/seed0: output differs from the recorded digest",
    ]


def test_cases_run_through_a_command_match_the_recorded_digests(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(_ROOT / "src"))
    via = [sys.executable, "-m", "mereoml.cli"]
    assert cli_digests.check(_via_cases(), via=via) == []


def test_a_command_that_adds_a_byte_to_stdout_fails_the_check_and_names_the_case(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(_ROOT / "src"))
    stand_in = tmp_path / "stand_in.py"
    stand_in.write_text(
        "import sys\nfrom mereoml.cli import main\ncode = main()\nsys.stdout.write('x')\nsys.exit(code)\n",
        encoding="utf-8",
    )
    assert cli_digests.check(_via_cases(), via=[sys.executable, str(stand_in)]) == [
        f"{name}: output differs from the recorded digest" for name in _VIA_CASES
    ]
