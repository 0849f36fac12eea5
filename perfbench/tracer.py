"""Per-layer spans recorded from outside the hardylab package.

`install` rebinds the public functions of every hardylab module (and the
numpy/scipy FFT and linear-algebra entry points they call) to wrappers that
time each call. Spans nest: a span's self time is its duration minus the time
of the spans it caused, and `total_s` counts only the outermost call of a name,
so recursion is not counted twice. Aggregates stay in memory and are returned
by `Tracer.summary` when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute); "Class.attr" names a method
SPANS = {
    "grid.convolve": ("hardylab.grid", "convolve"),
    # every padded convolution, including the ones maximal.py makes directly
    "grid.padded_convolution": ("hardylab.grid", "_convolve_from_ffts"),
    "grid.fourier_multiplier": ("hardylab.grid", "fourier_multiplier"),
    "grid.dilate": ("hardylab.grid", "dilate"),
    "grid.Ball.mask": ("hardylab.grid", "Ball.mask"),
    "grid.GridSpec.points": ("hardylab.grid", "GridSpec.points"),
    "grid.GridFunction.init": ("hardylab.grid", "GridFunction.__init__"),
    "maximal.small_maximal": ("hardylab.maximal", "small_maximal"),
    "maximal.grand_maximal": ("hardylab.maximal", "grand_maximal"),
    "maximal.hp_norm": ("hardylab.maximal", "hp_norm"),
    "maximal.build_test_dictionary": ("hardylab.maximal", "build_test_dictionary"),
    "moments.poly_project": ("hardylab.moments", "poly_project"),
    "moments.weighted_poly_project": ("hardylab.moments", "weighted_poly_project"),
    "moments.match_moments_with_bump": ("hardylab.moments", "match_moments_with_bump"),
    "moments.local_oscillation": ("hardylab.moments", "local_oscillation"),
    "moments.dual_norm_check": ("hardylab.moments", "dual_norm_check"),
    "moments.moment": ("hardylab.moments", "moment"),
    "atoms.make_atom": ("hardylab.atoms", "make_atom"),
    "atoms.random_smooth_field": ("hardylab.atoms", "random_smooth_field"),
    "atoms.edge_cutoff": ("hardylab.atoms", "edge_cutoff"),
    "atoms.validate_premolecule": ("hardylab.atoms", "validate_premolecule"),
    "atoms.moment_bound_check": ("hardylab.atoms", "moment_bound_check"),
    "operators.tstar_monomial": ("hardylab.operators", "tstar_monomial"),
    "operators.cancellation_test": ("hardylab.operators", "cancellation_test"),
    "operators.smooth_window": ("hardylab.operators", "smooth_window"),
    "experiments.run_E1": ("hardylab.experiments", "run_E1_moment_decay"),
    "experiments.run_E2": ("hardylab.experiments", "run_E2_grand_maximal_constant"),
    "experiments.run_E3": ("hardylab.experiments", "run_E3_atom_image"),
    "experiments.run_E4": ("hardylab.experiments", "run_E4_cancellation"),
    "experiments.run_E5": ("hardylab.experiments", "run_E5_duality"),
    "experiments.write_csv": ("hardylab.experiments", "write_csv"),
    "svgchart.line_chart": ("hardylab.svgchart", "line_chart"),
    "config.from_file": ("hardylab.config", "ExperimentConfig.from_file"),
    "linalg.cond": ("numpy.linalg", "cond"),
    "linalg.cho_factor": ("scipy.linalg", "cho_factor"),
    "linalg.cho_solve": ("scipy.linalg", "cho_solve"),
}
# plus "operators.apply" (every OperatorSpec subclass) and "fft" (below)
SPAN_NAMES = sorted([*SPANS, "operators.apply", "fft"])

# the spans run_experiment calls: their total_s adds up to compute_s
RUNNER_SPANS = ("experiments.run_E1", "experiments.run_E2", "experiments.run_E3",
                "experiments.run_E4", "experiments.run_E5", "experiments.write_csv",
                "svgchart.line_chart")
TOTAL_SPANS = RUNNER_SPANS + ("maximal.small_maximal", "maximal.grand_maximal",
                              "moments.dual_norm_check", "atoms.make_atom",
                              "operators.tstar_monomial", "operators.cancellation_test")

_FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
_FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2", "hfft2", "ihfft2")
_FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn")


def fft_work(name: str, args: tuple, kwargs: dict, out) -> tuple[int, float]:
    """(points, flops) of one transform: 5 N log2 N per complex transform of
    length N, 2.5 N log2 N per real one, times the number of batched transforms."""
    import numpy as np

    real = "rfft" in name or "hfft" in name
    if name.startswith(("rfft", "ihfft")):  # real input; irfft/hfft have real output
        arr = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    else:
        arr = np.asarray(out)
    if name in _FFT_1D:
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    elif name in _FFT_2D:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    else:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = range(arr.ndim) if s is None else range(arr.ndim - len(s), arr.ndim)
    n = math.prod(arr.shape[a] for a in axes)
    if arr.size == 0 or n <= 1:
        return int(arr.size), 0.0
    return int(arr.size), (2.5 if real else 5.0) * arr.size * math.log2(n)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.caused: Counter = Counter()  # (parent span, span) -> calls
        self.fft_points = 0
        self.fft_flops = 0.0
        self.missing: list[str] = []  # spans whose target no longer exists

    def wrap(self, name: str, fn, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            tracer.calls[name] += 1
            tracer.caused[(stack[-1][0] if stack else "", name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            tracer.depth[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.depth[name] -= 1
                tracer.self_s[name] += dt - frame[1]
                if tracer.depth[name] == 0:
                    tracer.total_s[name] += dt
                if stack:
                    stack[-1][1] += dt
            if on_exit is not None and tracer.depth[name] == 0:
                on_exit(args, kwargs, out)
            return out

        return span

    def _count_fft(self, name):
        def on_exit(args, kwargs, out):
            points, flops = fft_work(name, args, kwargs, out)
            self.fft_points += points
            self.fft_flops += flops
        return on_exit

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "caused": [[p, c, n] for (p, c), n in self.caused.items()],
                "fft_points": self.fft_points, "fft_flops": self.fft_flops,
                "missing": self.missing}


def _rebind(original, wrapper) -> None:
    """Replace every binding of `original` in the loaded hardylab modules."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hardylab" or modname.startswith("hardylab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every span target. A span whose target no longer exists (renamed
    or removed by a refactor) records no calls and is listed in
    `tracer.missing`."""
    import importlib

    import numpy
    import scipy.fft

    for name, (modname, path) in SPANS.items():
        mod = importlib.import_module(modname)
        owner, _, attr = path.rpartition(".")
        target = getattr(mod, owner, None) if owner else mod
        if target is None or attr not in vars(target):
            tracer.missing.append(name)
            continue
        raw = vars(target)[attr]
        if owner and isinstance(raw, classmethod):
            setattr(target, attr, classmethod(tracer.wrap(name, raw.__func__)))
            continue
        wrapper = tracer.wrap(name, raw)
        setattr(target, attr, wrapper)
        if not owner and modname.startswith("hardylab."):
            _rebind(raw, wrapper)

    ops = importlib.import_module("hardylab.operators")
    todo = list(ops.OperatorSpec.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "apply" in cls.__dict__:
            cls.apply = tracer.wrap("operators.apply", cls.__dict__["apply"])

    for mod in (numpy.fft, scipy.fft):
        for fname in _FFT_1D + _FFT_2D + _FFT_ND:
            fn = getattr(mod, fname, None)
            if fn is not None:
                setattr(mod, fname, tracer.wrap("fft", fn, tracer._count_fft(fname)))
