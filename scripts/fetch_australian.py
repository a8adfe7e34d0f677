#!/usr/bin/env python3
"""Download the Statlog Australian Credit data and write data/australian.csv.

Acceptance criterion 5 in tests/test_acceptance.py needs this file and
skips when it is absent.  Run from the repository root on a machine with
network access:

    python3 scripts/fetch_australian.py

The source file is whitespace-separated with 14 attribute columns and a
final 0/1 class column; we add the header A1..A15 and store it as CSV with
A15 as the decision.
"""

import argparse
import sys
import urllib.request
from pathlib import Path

DEFAULT_URL = (
    "https://archive.ics.uci.edu/ml/machine-learning-databases/statlog/"
    "australian/australian.dat"
)
EXPECTED_ROWS = 690
EXPECTED_COLS = 15


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--url", default=DEFAULT_URL)
    ap.add_argument("--out", default="data/australian.csv")
    args = ap.parse_args()

    print(f"fetching {args.url} ...", file=sys.stderr)
    with urllib.request.urlopen(args.url, timeout=60) as resp:
        text = resp.read().decode("utf-8")

    rows = [line.split() for line in text.splitlines() if line.strip()]
    if len(rows) != EXPECTED_ROWS or any(len(r) != EXPECTED_COLS for r in rows):
        print(
            f"unexpected shape: {len(rows)} rows; wanted {EXPECTED_ROWS} x {EXPECTED_COLS}",
            file=sys.stderr,
        )
        return 1

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"A{i}" for i in range(1, EXPECTED_COLS + 1))
    out.write_text(
        header + "\n" + "\n".join(",".join(r) for r in rows) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out} ({len(rows)} rows)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
