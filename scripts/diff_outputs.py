#!/usr/bin/env python3
"""Print every CSV cell and every SVG chart that differs between two output trees.

Usage: python scripts/diff_outputs.py DIR_A DIR_B

Every *.csv under DIR_A or DIR_B (searched recursively, matched by relative
path) is compared row by row and cell by cell. Each differing cell is
printed as `file:row:column  a -> b  (relative change)`; the relative change
is |b - a| / |a| for numeric cells (inf where a is 0) and empty otherwise.
Every *.svg is compared byte for byte, and each one that differs is printed
as `file: differs`. The last line is a summary: the count of differing cells, and the largest
relative change among numeric cells whose magnitude in DIR_A is at least
1e-12 (the gate for changes that should move cells by round-off only).
The exit code is 0 when every file is present in both trees and each CSV
has the same number of rows in both, whether or not cells or charts differ,
and 1 otherwise. Nothing is
written.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path


def _files(root: Path, pattern: str) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob(pattern)}


def _paired(a: Path, b: Path, pattern: str, out) -> tuple[list[Path], int]:
    """The files matching pattern in both trees, and the count of those in
    one tree only, each printed as missing from the other."""
    files_a, files_b = _files(a, pattern), _files(b, pattern)
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: missing in {a if rel not in files_a else b}", file=out)
    return sorted(files_a & files_b), len(files_a ^ files_b)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# parent magnitude from which a numeric cell counts toward the summary's
# largest relative change
GATE_FLOOR = 1e-12


def _numbers(a: str, b: str) -> tuple[float, float] | None:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return None
    return x, y


def _relative(a: str, b: str) -> str:
    if (pair := _numbers(a, b)) is None:
        return ""
    x, y = pair
    return f"{abs(y - x) / abs(x):.3e}" if x else "inf"


def diff_trees(a: Path, b: Path, out=sys.stdout) -> int:
    """Print the differing cells of the CSVs of two trees and the differing
    SVGs, then the summary line; return the count of structural faults (a
    file missing on one side, a different row count)."""
    cells = 0
    worst = 0.0  # largest relative change of a numeric cell of magnitude >= GATE_FLOOR
    csvs, faults = _paired(a, b, "*.csv", out)
    for rel in csvs:
        rows_a, rows_b = _rows(a / rel), _rows(b / rel)
        if len(rows_a) != len(rows_b):
            print(f"{rel}: {len(rows_a)} rows against {len(rows_b)}", file=out)
            faults += 1
            continue
        header = rows_a[0] if rows_a else []
        for n, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            for c in range(max(len(ra), len(rb))):
                x = ra[c] if c < len(ra) else ""
                y = rb[c] if c < len(rb) else ""
                if x != y:
                    name = header[c] if c < len(header) else str(c)
                    print(f"{rel}:{n}:{name}  {x} -> {y}  ({_relative(x, y)})", file=out)
                    cells += 1
                    if (pair := _numbers(x, y)) is not None and abs(pair[0]) >= GATE_FLOOR:
                        worst = max(worst, abs(pair[1] - pair[0]) / abs(pair[0]))
    svgs, missing = _paired(a, b, "*.svg", out)
    faults += missing
    for rel in svgs:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            print(f"{rel}: differs", file=out)
    print(f"{cells} differing cells; largest relative change at |a| >= {GATE_FLOOR:g}: {worst:.3e}", file=out)
    return faults


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            print(f"{d}: not a directory", file=sys.stderr)
            return 1
    return 1 if diff_trees(args.dir_a, args.dir_b) else 0


if __name__ == "__main__":
    sys.exit(main())
