"""Run one hardylab config in this fresh process, as `hardylab run <cfg>` does,
and write its timings (and, with --trace, its span aggregates) to a JSON file.

Usage:
    child.py --result FILE --config CFG --out-dir DIR --spawned-at T [--trace]
    child.py --result FILE      (import hardylab and record the environment only)

Exit codes follow the hardylab CLI: 2 config error, 3 numerical failure.
`--spawned-at` is the parent's time.monotonic() just before the spawn; on
Linux that clock is shared by all processes, so the time from then until the
config is parsed and run_experiment is about to be called is the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_hardylab() -> bool:
    """Import hardylab as it is. Only if that fails on NumPy 2.4's removed
    np.trapz, set numpy.trapz = numpy.trapezoid and import again. The package
    looks up np.trapezoid first, so the alias is never called and computed
    values are unchanged. Returns whether the alias was needed."""
    try:
        import hardylab.cli  # noqa: F401
        return False
    except AttributeError as e:
        if "trapz" not in str(e):
            raise
    import numpy

    for name in [n for n in sys.modules if n == "hardylab" or n.startswith("hardylab.")]:
        del sys.modules[name]
    numpy.trapz = numpy.trapezoid
    import hardylab.cli  # noqa: F401
    return True


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "cpu_count": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--config")
    ap.add_argument("--out-dir")
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    alias = import_hardylab()
    import hardylab

    result: dict = {"numpy_trapz_alias": alias, "hardylab_file": hardylab.__file__}
    if args.config is None:
        result["environment"] = environment()
    else:
        from hardylab.config import ExperimentConfig
        from hardylab.errors import ConfigError, NumericalError
        from hardylab.experiments import run_experiment

        spans = None
        if args.trace:
            import tracer

            spans = tracer.Tracer()
            tracer.install(spans)
        try:
            cfg = ExperimentConfig.from_file(args.config, out_dir=args.out_dir)
            result["setup_s"] = time.monotonic() - args.spawned_at
            t0 = time.perf_counter()
            run_experiment(cfg)
            result["compute_s"] = time.perf_counter() - t0
        except (ConfigError, ValueError, FileNotFoundError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return 3
        if spans is not None:
            result["spans"] = spans.summary()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
