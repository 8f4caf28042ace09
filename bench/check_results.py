#!/usr/bin/env python3
"""Check that freshly written figure CSVs reproduce the committed ones.

Usage: python3 bench/check_results.py FRESH_DIR

Run the figure benches from a scratch directory (they write
`results/<name>.csv` relative to the working directory), then point
FRESH_DIR at that `results/` directory. Every CSV in FRESH_DIR must have a
committed counterpart in the repository's `results/` with the same shape;
headers and non-numeric cells must match exactly, and numeric cells may
differ by at most RTOL relative (|a - b| <= RTOL * max(|a|, |b|)).

RTOL absorbs last-ulp noise across compilers and still catches a real
change: a solver change that moves a figure moves some cell by far more.
"""

import csv
import math
import pathlib
import sys

RTOL = 1e-9
REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "results"


def parse_number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def cells_match(a, b):
    if a == b:
        return True
    x, y = parse_number(a), parse_number(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def compare_file(fresh, reference):
    """Returns a list of mismatch descriptions (empty when they agree)."""
    with open(fresh, newline="") as f:
        got = list(csv.reader(f))
    with open(reference, newline="") as f:
        want = list(csv.reader(f))
    if len(got) != len(want):
        return [f"{len(got)} rows, committed {len(want)}"]
    if got and got[0] != want[0]:
        return [f"header {got[0]}, committed {want[0]}"]
    problems = []
    for r, (row_got, row_want) in enumerate(zip(got, want), start=1):
        if len(row_got) != len(row_want):
            problems.append(f"line {r}: {len(row_got)} cells, committed "
                            f"{len(row_want)}")
            continue
        for c, (a, b) in enumerate(zip(row_got, row_want)):
            if not cells_match(a, b):
                problems.append(f"line {r} column {c + 1}: {a!r}, committed "
                                f"{b!r}")
    return problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().split("\n\n")[1])
    fresh = sorted(pathlib.Path(sys.argv[1]).glob("*.csv"))
    if not fresh:
        sys.exit(f"{sys.argv[1]}: no CSV files to check")
    failed = False
    for path in fresh:
        reference = REFERENCE / path.name
        if not reference.exists():
            print(f"{path.name}: no committed {reference}")
            failed = True
            continue
        problems = compare_file(path, reference)
        if problems:
            failed = True
            print(f"{path.name}: differs from {reference}")
            for p in problems[:20]:
                print(f"  {p}")
            if len(problems) > 20:
                print(f"  ... {len(problems) - 20} more")
        else:
            print(f"{path.name}: matches {reference}")
    if failed:
        sys.exit("figure CSVs do not reproduce the committed results/; "
                 "regenerate them and update EXPERIMENTS.md if the change "
                 "is intended")


if __name__ == "__main__":
    main()
