"""Small and grand maximal functions with their admissible test families.

The small maximal function m_phi f(x) = sup_{0<t<1} |<f, phi_t(x-.)>| is
computed as a pointwise max of |f * phi_t| over a geometric scale grid with
floor 2h; every reported value is therefore a lower bound for the continuum
sup that is nondecreasing under scale refinement.

The grand maximal function is taken over a finite certified dictionary of
test functions admissible for the family {phi smooth, supp phi in B(x,t),
t < T, ||D^beta phi||_inf <= t^{-n-|beta|}}. A dictionary is the triple
(mollifier, scale ladder, amplitude): the copies c * phi_t(x - .) of one
compactly supported mollifier, one per scale of the ladder, translated to
every grid site, with the one amplitude c that certifies them all.

Both maximal functions fold |f * phi_t| into running maxima, one distinct
scale at a time, on a thread pool, through one streamed pass: each distinct
kernel is built once, used for every function of the call and dropped, and
the padded spectra alive at one time stay under FOLD_SPECTRA_BYTES.
small_maximal_table runs the pass over one ladder, grand_maximal_table over
the distinct ladders of all its dictionaries. The functions' spectra are
held as one stacked array per spectral layer, and each kernel meets them a
sub-stack at a time: one product and one inverse transform for all the
rows, with the stacked scratch of a chunk under FOLD_STACK_BYTES. In 1D
that puts several functions in one call; a 2D function at the sizes the
configs run fills the bound alone.

The fold takes one of the two spectral layers of grid.py for each pair of a
function and a mollifier. Real samples through a mollifier without compact
support (the Gaussian small maximal function of E1 and E3) take the real
layer: rfft spectra, half the transform work and half the bytes. Complex
samples and every compactly supported kernel, so every test dictionary,
take the complex layer.

A test dictionary of order 1 (N_p = 0, so every p = 1 dictionary) is folded
on sub-grids: phi_t vanishes off B(0, t), so |f * phi_t| is exactly 0 more
than ceil(t/h) samples from the box of f's nonzero samples, and each pair
of a function and a scale runs the same fold on the smallest power-of-two
window that holds that neighbourhood, pasted into full-size maxima that
stay 0 elsewhere. Every other dictionary, and the small maximal function,
runs on the padded full grid: the recorded p < 1 grand maximal norms
contain its far-field round-off, which a sub-grid or another transform
would move.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    abs_convolve_output,
    abs_convolve_spectra,
    dilate,
    padded_spectrum,
    spectral_scratch,
    spectrum_shape,
    sq_distance,
)
from .moments import HardyIndex, MultiIndex, multiindices

# ---------------------------------------------------------------------------
# smooth profiles


def quintic_step(u):
    """C^2 smoothstep: 0 for u<=0, 1 for u>=1, 6u^5-15u^4+10u^3 between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


@functools.lru_cache(maxsize=8)
def _bump_normalizer(dim: int) -> float:
    # integral of exp(1 - 1/(1-s^2)) over the unit ball, dense radial trapezoid
    s = np.linspace(0.0, 1.0, 200001)[:-1]
    prof = np.exp(1.0 - 1.0 / (1.0 - s**2))
    if dim == 1:
        return float(2.0 * np.trapezoid(prof, s))
    return float(2.0 * np.pi * np.trapezoid(s * prof, s))


def _bump_profile(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


@dataclass(frozen=True)
class MollifierSpec:
    """A closed-form mollifier phi with integral 1 (>= the 0.5 floor).

    gaussian: pi^{-dim/2} exp(-|x|^2), rapidly decaying.
    smooth-bump: normalized exp(1 - 1/(1-|x|^2)) supported in the unit ball.
    """

    shape: str
    dim: int

    def __post_init__(self):
        if self.shape not in ("gaussian", "smooth-bump"):
            raise ValueError(f"unknown mollifier shape {self.shape!r}")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        r = np.sqrt(sq_distance(pts, (0.0,) * self.dim))
        if self.shape == "gaussian":
            return np.pi ** (-self.dim / 2.0) * np.exp(-(r**2))
        return _bump_profile(r) / _bump_normalizer(self.dim)

    @property
    def compact_support(self) -> bool:
        return self.shape == "smooth-bump"


# ---------------------------------------------------------------------------
# scale grids and the small maximal function


# largest ratio of neighbouring scales in ScaleGrid.default
SCALE_RATIO = 2.0**0.25


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly increasing geometric scale ladder with at least 16 entries."""

    scales: tuple[float, ...]

    def __post_init__(self):
        s = self.scales
        if len(s) < 16:
            raise ValueError("scale grid needs at least 16 scales")
        if any(b <= a for a, b in zip(s, s[1:])):
            raise ValueError("scales must be strictly increasing")

    @classmethod
    def default(cls, spec: GridSpec, t_max: float) -> "ScaleGrid":
        """Geometric ladder from the floor 2h to t_max with ratio <= SCALE_RATIO."""
        lo = 2.0 * spec.spacing
        if not t_max > lo:
            raise ValueError(f"t_max = {t_max} must exceed the floor {lo}")
        count = max(16, int(math.ceil(math.log(t_max / lo) / math.log(SCALE_RATIO))) + 1)
        return cls(tuple(np.geomspace(lo, t_max, count)))


# the padded spectra alive in one fold: one 2D m=4096 spectrum is 1 GiB, so
# the functions of one call run in groups bounded in bytes
FOLD_SPECTRA_BYTES = 512 * 2**20

# the stacked scratch of one chunk in one spectral layer, |.| included: a
# fold group's functions meet each kernel a sub-stack at a time, as many as
# fit here (at least one). Two real 1D m=8192 functions fit, and no 2D
# function at m >= 128: each chunk adds its stack to the peak RSS, and E1's
# 1D peak is close to E5's, the battery-1d peak
FOLD_STACK_BYTES = 768 * 2**10


_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = ThreadPoolExecutor(_WORKERS)


def _reset_pool():
    # a forked child inherits the executor but none of its threads
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _real_layer(is_real: bool, mollifier: MollifierSpec) -> bool:
    # the spectral layer of |f * phi_t|: real for real samples through a
    # mollifier without compact support, complex otherwise
    return is_real and not mollifier.compact_support


def _fold_chunk(work: list, runs: dict, stacks: dict, maxima: list, spec: GridSpec,
                scratch: dict, lock: threading.Lock) -> None:
    for (mollifier, t), slots in work:
        kernel = dilate(mollifier, t, spec)
        Fk = {real: padded_spectrum(kernel, real) for real, _, _ in runs[mollifier]}
        del kernel
        for real, lo, hi in runs[mollifier]:
            first, spectra = stacks[real]
            bufs, vals = scratch[real]
            for i in range(lo, hi, len(vals)):
                k = min(len(vals), hi - i)
                abs_convolve_spectra(spectra[i - first:i - first + k], Fk[real], spec,
                                     tuple(b[:k] for b in bufs), vals[:k])
                with lock:
                    for row, val in zip(maxima[i:i + k], vals):
                        for s in slots:
                            np.maximum(row[s], val, out=row[s])
        del Fk  # this scale is done: drop its kernel before building the next


def _running_maxima(fs: list, work: dict, nsets: int) -> list:
    """maxima[i][s], the pointwise max of |fs[i] * phi_t| over the scales of
    scale set s, walking each distinct scale once.

    work maps each distinct (mollifier, t) to the scale sets that hold it.
    One interleaved chunk of the scales per CPU runs on the pool (NumPy's
    FFT releases the GIL) and folds into the one shared set of maxima under
    a lock; max is exact, so the result does not depend on the split or the
    order. A chunk builds the padded spectra of each of its kernels, folds
    them against every function of the group and drops them before the next.

    Each pair of a function and a mollifier takes one spectral layer (see
    _real_layer); the complex functions are ordered before the real ones,
    so the functions of a group that share a layer for a mollifier are one
    run of rows. A group holds its padded spectra as one stacked array per
    layer, each function a row, built in place, and a kernel has a spectrum
    in each layer its runs need. Against a kernel, a run is transformed a
    sub-stack of rows at a time: one product with the kernel spectrum and
    one inverse transform along the last axis for all its rows, then the
    window, the scale and |.|, and the lock is taken once per sub-stack.
    Every transform runs row by row with the plan of a one-row call, and
    the rest acts on each element alone, so a row equals its one-row call
    bit for bit. Each function keeps its maxima in arrays of its own: one
    array for all of them measured 1.3 MB more peak RSS in 2D E2, where the
    separate arrays reuse memory that atom generation freed.

    Each chunk has one scratch, reused for every sub-stack it takes: per
    layer of the call a spectral_scratch stacked to the sub-stack size and
    its abs_convolve_output for |.|, which the real layer keeps in its
    product. The sub-stack size of a layer is the largest count of rows
    whose stacked scratch and |.| fit in FOLD_STACK_BYTES, at least one and
    at most the functions in that layer.
    The scratch is allocated here, in the calling thread: freed in a worker,
    it would stay in that thread's malloc arena and raise the peak RSS. The
    functions run in groups, so that their padded spectra plus the kernels
    and the scratch of every chunk stay within FOLD_SPECTRA_BYTES, with the
    bytes of each layer's spectrum taken from spectrum_shape; a group holds
    at least one function, and every kernel is built once per group. No
    functions give no maxima; functions on different grids raise ValueError."""
    if not fs:
        return []
    spec = fs[0].spec
    if any(f.spec != spec for f in fs):
        raise ValueError("grid mismatch")
    order = sorted(range(len(fs)), key=lambda i: fs[i].is_real)  # stable: complex, then real
    fs = [fs[i] for i in order]
    ncomplex = sum(not f.is_real for f in fs)
    maxima = [[np.zeros(spec.shape) for _ in range(nsets)] for _ in fs]
    rows = [maxima[pos] for pos in np.argsort(order)]
    items = list(work.items())
    chunks = [items[i::_WORKERS] for i in range(min(_WORKERS, len(items)))]
    if not chunks:
        return rows

    def layer_runs(lo, hi):  # mollifier -> (layer, first, end) of each run in [lo, hi)
        mid = min(max(lo, ncomplex), hi)
        runs = {}
        for mollifier in {mollifier for mollifier, _ in work}:
            real = _real_layer(True, mollifier)
            parts = [(False, lo, mid), (real, mid, hi)] if real else [(False, lo, hi)]
            runs[mollifier] = [run for run in parts if run[1] < run[2]]
        return runs

    def spans(runs):  # layer -> (first, end) of the functions that need it
        out = {}
        for real, lo, hi in (run for rs in runs.values() for run in rs):
            a, b = out.get(real, (lo, hi))
            out[real] = (min(a, lo), max(b, hi))
        return out

    def nbytes(real):  # one padded spectrum of the layer
        return 16 * math.prod(spectrum_shape(spec, real))

    def layer_scratch(real, n):  # a layer's scratch and |.| for n rows
        bufs = spectral_scratch(spec, real, n)
        return bufs, abs_convolve_output(spec, bufs)

    def owned(bufs, vals):  # their bytes, views of the scratch not counted
        return sum(a.nbytes for a in (*bufs, vals) if a.base is None)

    counts = {real: hi - lo for real, (lo, hi) in spans(layer_runs(0, len(fs))).items()}
    stack = {real: max(1, min(count, FOLD_STACK_BYTES // owned(*layer_scratch(real, 1))))
             for real, count in counts.items()}
    lock = threading.Lock()
    scratch = [{real: layer_scratch(real, n) for real, n in stack.items()} for _ in chunks]
    per_chunk = sum(nbytes(real) + owned(*layers) for real, layers in scratch[0].items())
    # a function's layers follow from is_real alone: the first function is
    # complex if any is, the last real if any is
    per_function = max(sum(map(nbytes, spans(layer_runs(i, i + 1)))) for i in {0, len(fs) - 1})
    group = max(1, (FOLD_SPECTRA_BYTES - len(chunks) * per_chunk) // per_function)
    for start in range(0, len(fs), group):
        runs = layer_runs(start, min(start + group, len(fs)))
        stacks = {}
        for real, (lo, hi) in spans(runs).items():
            spectra = np.empty((hi - lo,) + spectrum_shape(spec, real), dtype=np.complex128)
            for j in range(lo, hi):
                padded_spectrum(fs[j], real, out=spectra[j - lo])
            stacks[real] = lo, spectra
        list(_pool.map(_fold_chunk, chunks, repeat(runs), repeat(stacks), repeat(maxima),
                       repeat(spec), scratch, repeat(lock)))
        del stacks
    return rows


def small_maximal_table(fs: list[GridFunction], mollifier: MollifierSpec,
                        scales: ScaleGrid) -> list[GridFunction]:
    """out[i] = small_maximal(fs[i], mollifier, scales) for every function, in
    one pass over the scales: each kernel is built once, convolved with every
    function and dropped. As in grand_maximal_table, no functions give [] and
    functions on different grids raise ValueError."""
    maxima = _running_maxima(fs, dict.fromkeys(((mollifier, t) for t in scales.scales), (0,)), 1)
    return [GridFunction(f.spec, row[0]) for f, row in zip(fs, maxima)]


def small_maximal(f: GridFunction, mollifier: MollifierSpec, scales: ScaleGrid) -> GridFunction:
    """Pointwise max over the scale grid of |f * phi_t| (lower bound for m_phi f).
    The one-row case of small_maximal_table."""
    return small_maximal_table([f], mollifier, scales)[0]


# ---------------------------------------------------------------------------
# finite-difference certification of derivative bounds


def derivative_sups(fn, center, radius: float, dim: int, max_order: int,
                    samples_per_axis: int | None = None) -> dict[MultiIndex, float]:
    """Sup of |D^beta fn| for |beta| <= max_order via dense iterated central
    differences over the box of the given radius around center."""
    n = samples_per_axis or (4001 if dim == 1 else 401)
    halo = max_order
    d = 2.0 * radius / (n - 1)
    axes = [np.linspace(c - radius - halo * d, c + radius + halo * d, n + 2 * halo)
            for c in center]
    base = np.asarray(fn(np.stack(np.meshgrid(*axes, indexing="ij"))), dtype=float)

    def diff(arr, axis):
        sl_hi = [slice(None)] * dim
        sl_lo = [slice(None)] * dim
        sl_hi[axis] = slice(2, None)
        sl_lo[axis] = slice(None, -2)
        return (arr[tuple(sl_hi)] - arr[tuple(sl_lo)]) / (2.0 * d)

    sups: dict[MultiIndex, float] = {}
    for beta in multiindices(dim, max_order):
        arr = base
        for axis, k in enumerate(beta):
            for _ in range(k):
                arr = diff(arr, axis)
        sups[beta] = float(np.max(np.abs(arr)))
    return sups


# ---------------------------------------------------------------------------
# dictionary-based grand maximal function


@dataclass(frozen=True)
class TestDictionary:
    """The copies amplitude * phi_t(x - .) of one mollifier, one per scale t of
    the ladder, each translated to every grid site, with the order k = N_p + 1
    up to which the amplitude certifies their derivative bounds. A dictionary
    of order 1 has its grand maximal function folded on sub-grids around the
    support of f (see grand_maximal_table)."""

    __test__ = False  # not a pytest class

    mollifier: MollifierSpec
    scales: ScaleGrid
    amplitude: float
    order: int


@functools.lru_cache(maxsize=64)
def _mollifier_amplitude(mollifier: MollifierSpec, k: int) -> float:
    """Largest c (with 1% headroom) so that c * phi_t(x-.) meets every
    derivative bound of the admissible family; t-independent by scaling."""
    if not mollifier.compact_support:
        raise ValueError("dictionary entries need a compactly supported mollifier")
    sups = derivative_sups(mollifier, (0.0,) * mollifier.dim, 1.02, mollifier.dim, k)
    return 0.99 / max(max(sups.values()), 1e-300)


def build_test_dictionary(spec: GridSpec, idx: HardyIndex, T: float,
                          mollifier: MollifierSpec | None = None,
                          scales: ScaleGrid | None = None) -> TestDictionary:
    """Dictionary of the mollifier copies at every scale of the ladder (by
    default ScaleGrid.default(spec, T)), certified up to the order
    k = N_p + 1 that the index requires."""
    mollifier = mollifier or MollifierSpec("smooth-bump", spec.dim)
    scales = scales or ScaleGrid.default(spec, T)
    k = idx.N_p + 1
    return TestDictionary(mollifier, scales, _mollifier_amplitude(mollifier, k), k)


def _on_support(dictionary: TestDictionary) -> bool:
    # whether grand_maximal_table folds the dictionary on sub-grids around
    # the support of f: order 1 and a compactly supported mollifier
    return dictionary.order == 1 and dictionary.mollifier.compact_support


def _support_box(f: GridFunction) -> list[tuple[int, int]] | None:
    # per axis, the first index of a nonzero sample and one past the last;
    # None for a function with no nonzero sample
    nonzero = f.samples != 0
    if not nonzero.any():
        return None
    dim = f.spec.dim
    hits = [np.flatnonzero(nonzero.any(axis=tuple(a for a in range(dim) if a != axis)))
            for axis in range(dim)]
    return [(int(hit[0]), int(hit[-1]) + 1) for hit in hits]


def _fold_on_support(fs: list, work: dict, maxima: list) -> None:
    """Fold |fs[i] * phi_t| for the compactly supported kernels of work into
    maxima[i][s], each function and scale on a sub-grid around f's support.

    phi_t vanishes off B(0, t), so |f * phi_t| is 0 more than K = ceil(t/h)
    samples from the box of f's nonzero samples (of side b, the longest
    axis). The pair takes the sub-grid of side s = min(m, max(8, the least
    power of two >= b + 2K)), of the grid's spacing, and f's samples on the
    s-point window centred on the box (clamped to the grid), which holds
    the box widened by K. The fold _running_maxima runs there unchanged, one
    call for each side and each set of functions that meet a kernel at that
    side, so every kernel is built once per side. Its maxima are pasted with
    np.maximum on the window's part of the box widened by the largest K of
    the scale set; the rest stays exactly 0. The window depends on the box
    and the side alone, and max is exact, so a row equals its one-row call
    bit for bit; where s = m the window is the grid, and the bits are the
    full grid's. A function with no nonzero sample takes no transform."""
    if not fs or not work:
        return
    spec = fs[0].spec
    m, h = spec.points_per_axis, spec.spacing
    reach = {key: math.ceil(key[1] / h) for key in work}
    set_reach: dict[int, int] = {}
    for key, sets in work.items():
        for s in sets:
            set_reach[s] = max(set_reach.get(s, 0), reach[key])
    boxes = [_support_box(f) for f in fs]
    meets: dict[tuple, list[int]] = {}  # (side, (mollifier, t)) -> the functions
    for i, box in enumerate(boxes):
        if box is not None:
            b = max(hi - lo for lo, hi in box)
            for key in work:
                side = min(m, max(8, 1 << (b + 2 * reach[key] - 1).bit_length()))
                meets.setdefault((side, key), []).append(i)
    calls: dict[tuple, list] = {}  # (side, functions) -> their kernels
    for (side, key), members in meets.items():
        calls.setdefault((side, tuple(members)), []).append(key)
    for (side, members), keys in calls.items():
        sub = GridSpec(spec.dim, side * h / 2, side)  # == spec where side = m
        starts = [[min(max(lo - (side - (hi - lo)) // 2, 0), m - side) for lo, hi in boxes[i]]
                  for i in members]
        crops = [GridFunction(sub, fs[i].samples[tuple(slice(a, a + side) for a in start)])
                 for i, start in zip(members, starts)]
        sets = sorted({s for key in keys for s in work[key]})
        local = {s: n for n, s in enumerate(sets)}
        folded = _running_maxima(crops, {key: [local[s] for s in work[key]] for key in keys}, len(sets))
        for i, start, row in zip(members, starts, folded):
            for s, vals in zip(sets, row):
                cut = [(max(a, lo - set_reach[s]), min(a + side, hi + set_reach[s]))
                       for (lo, hi), a in zip(boxes[i], start)]
                target = maxima[i][s][tuple(slice(u, v) for u, v in cut)]
                np.maximum(target, vals[tuple(slice(u - a, v - a) for (u, v), a in zip(cut, start))],
                           out=target)
        del folded  # before the next call allocates its own


def grand_maximal_table(fs: list[GridFunction],
                        dictionaries: list[TestDictionary]) -> list[list[GridFunction]]:
    """out[i][j] = grand_maximal(fs[i], dictionaries[j]) for every pair, in one
    pass over the distinct (mollifier, scale) pairs of all the dictionaries.

    Each distinct scale's kernel is built once (once per sub-grid side on
    the support path), convolved with every function and dropped.
    |f * phi_t| is folded into a running max per distinct (mollifier,
    ladder, path), and each dictionary's amplitude is applied once at the
    end: rounding is monotone, so amp * max|.| equals max(amp * |.|) bit for
    bit. A dictionary of order 1 takes the support path (_fold_on_support):
    its values are exactly 0 more than ceil(t_max/h) samples from the box of
    f's nonzero samples, t_max its largest scale, and equal the full grid's
    within round-off elsewhere. Every other dictionary is folded on the
    padded full grid, whose far-field round-off the recorded p < 1 norms
    contain."""
    ladders: dict[tuple, int] = {}  # (mollifier, scales, support path) -> its running max
    work: tuple[dict, dict] = ({}, {})  # per path: (mollifier, t) -> the ladders holding it
    for d in dictionaries:
        key = (d.mollifier, d.scales, _on_support(d))
        if key not in ladders:
            s = ladders[key] = len(ladders)
            for t in d.scales.scales:
                work[key[2]].setdefault((d.mollifier, t), []).append(s)
    maxima = _running_maxima(fs, work[False], len(ladders))
    _fold_on_support(fs, work[True], maxima)
    return [[GridFunction(f.spec, d.amplitude * row[ladders[d.mollifier, d.scales, _on_support(d)]])
             for d in dictionaries]
            for f, row in zip(fs, maxima)]


def grand_maximal(f: GridFunction, dictionary: TestDictionary) -> GridFunction:
    """Pointwise max of |<f, phi>| over the dictionary's mollifier copies. A
    certified lower bound for the grand maximal function: a ladder that holds
    every scale of another can only increase values. The one-row case of
    grand_maximal_table."""
    return grand_maximal_table([f], [dictionary])[0][0]
