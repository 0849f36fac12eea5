#!/usr/bin/env python3
"""Regenerate the reference CSVs the benchmark compares against at seed 0.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every config of each workload once at workload seed 0 and copies the
CSVs to perfbench/reference/<workload>/. Do this only on code whose outputs
are known to be right: the references define what "correct" means.
"""

from __future__ import annotations

import shutil
import sys

from run import OUT, REFERENCE, run_pass
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    for name in argv or list(WORKLOADS):
        wl = WORKLOADS[name]
        out = OUT / f"{name}-reference"
        shutil.rmtree(out, ignore_errors=True)
        cfg_dir = out / "configs"
        cfg_dir.mkdir(parents=True)
        for c in wl.configs:
            (cfg_dir / f"{c.name}.cfg").write_text(c.text(0))
        done = run_pass(wl, cfg_dir, out / "pass", False, None)
        problems = [p for r in done.runs for p in r.problems]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        dest = REFERENCE / name
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        for c in wl.configs:
            shutil.copy(done.out_dir / f"{c.tag}.csv", dest)
        print(f"{name}: {len(wl.configs)} reference CSVs in {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
