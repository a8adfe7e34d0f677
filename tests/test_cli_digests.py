"""The recorded command-line output digests, checked on the seed-0 slice."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
_spec = importlib.util.spec_from_file_location("cli_digests", _SCRIPT)
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


def test_seed_zero_outputs_match_the_recorded_digests():
    assert cli_digests.check([0]) == []


def test_a_changed_digest_file_fails_the_check_and_names_the_case(tmp_path):
    recorded = json.loads(cli_digests.DIGESTS.read_text(encoding="utf-8"))
    case = "classify/seed0/rows138/exp/default"
    recorded[case[:-1] + "x"] = recorded.pop(case)
    digest = recorded["net/seed0"]
    recorded["net/seed0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(recorded), encoding="utf-8")
    assert cli_digests.check([0], path) == [
        "classify/seed0/rows138/exp/defaulx: recorded but not a case",
        f"{case}: no recorded digest",
        "net/seed0: output differs from the recorded digest",
    ]
