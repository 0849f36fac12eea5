#!/usr/bin/env python3
"""Run every experiment config in scripts/configs into ./results.

Usage: python scripts/run_all.py [--out-dir DIR]
Equivalent to invoking `hardylab run <cfg>` per file.
"""

import argparse
import sys
from pathlib import Path

from hardylab.cli import main as cli_main

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    worst = 0
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        print(f"== {cfg.name}")
        code = cli_main(["run", str(cfg), "--out-dir", args.out_dir])
        if code != 0:
            print(f"   exited with {code}", file=sys.stderr)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
