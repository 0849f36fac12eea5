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
scale at a time. On the padded full grid that is one streamed pass on a
thread pool (_running_maxima): each distinct kernel is built once, used
for every function of the call and dropped, and the padded spectra alive
at one time stay under FOLD_SPECTRA_BYTES. small_maximal_table runs the
pass over one ladder, grand_maximal_table over the distinct ladders of its
full-grid dictionaries. The functions' spectra are held as one stacked
array, and each kernel meets them a sub-stack at a time: one product and
one inverse transform for all the rows, with the stacked scratch of a
chunk under FOLD_STACK_BYTES. In 1D that puts several functions in one
call; a 2D function at the sizes the configs run fills the bound alone.

Each call of the full-grid fold runs in one of the two padded spectral
layers of grid.py, picked by its caller. Real samples through a mollifier
without compact support (the Gaussian small maximal function of E1 and E3)
take the real layer: rfft spectra, half the transform work and half the
bytes; the rest take the complex layer. small_maximal_table runs one call
per layer present; every test dictionary's mollifier is compactly
supported, so grand_maximal_table folds in the complex layer alone.

A test dictionary of order 1 (N_p = 0, so every p = 1 dictionary) is folded
on exact windows instead, serially: phi_t vanishes off B(0, t), so
|f * phi_t| is exactly 0 more than K = ceil(t/h) samples from the box of
f's nonzero samples, and each pair of a function and a scale takes one
unpadded circular real transform (the window layer of grid.py) of the
least side 2^i 3^j that holds that box widened by K, pasted there into
full-size maxima that stay 0 elsewhere. The p < 1 dictionaries and the
small maximal function run on the padded full grid: the recorded p < 1
norms contain its far-field round-off, which another transform would move.
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
    kernel_spectrum,
    padded_spectrum,
    spectral_scratch,
    spectrum_shape,
    sq_distance,
    window_convolve,
    window_side,
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
        return self.radial(np.sqrt(sq_distance(pts, (0.0,) * self.dim)))

    def radial(self, r: np.ndarray) -> np.ndarray:
        """phi at the points at distance r from the origin."""
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

# the stacked scratch of one chunk in one spectral layer, |.| included (or
# the windows and half spectra of a window sub-stack): a fold group's
# functions meet each kernel a sub-stack at a time, as many as fit here (at
# least one). Two real 1D m=8192 functions fit, and no 2D function at
# m >= 128: each chunk adds its stack to the peak RSS, and E1's 1D peak is
# close to E5's, the battery-1d peak
FOLD_STACK_BYTES = 768 * 2**10


_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = ThreadPoolExecutor(_WORKERS)


def _reset_pool():
    # a forked child inherits the executor but none of its threads
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _fold_chunk(work: list, spectra: np.ndarray, maxima: list, spec: GridSpec, real: bool,
                scratch: tuple, lock: threading.Lock) -> None:
    bufs, vals = scratch
    for (mollifier, t), slots in work:
        Fk = padded_spectrum(dilate(mollifier, t, spec), real)
        for i in range(0, len(spectra), len(vals)):
            k = min(len(vals), len(spectra) - i)
            abs_convolve_spectra(spectra[i:i + k], Fk, spec, tuple(b[:k] for b in bufs), vals[:k])
            with lock:
                for row, val in zip(maxima[i:i + k], vals):
                    for s in slots:
                        np.maximum(row[s], val, out=row[s])
        del Fk  # this scale is done: drop its kernel before building the next


def _running_maxima(fs: list, work: dict, nsets: int, real: bool) -> list:
    """maxima[i][s], the pointwise max of |fs[i] * phi_t| over the scales of
    scale set s, walking each distinct scale once, in the real spectral
    layer with real (real samples only) and in the complex one without.

    work maps each distinct (mollifier, t) to the scale sets that hold it.
    One interleaved chunk of the scales per CPU runs on the pool (NumPy's
    FFT releases the GIL) and folds into the one shared set of maxima under
    a lock; max is exact, so the result does not depend on the split or the
    order. A chunk builds the padded spectrum of each of its kernels, folds
    it against every function of the group and drops it before the next.

    A group holds its padded spectra as one stacked array, each function a
    row, built in place. Against a kernel, the stack is transformed a
    sub-stack of rows at a time: one product with the kernel spectrum and
    one inverse transform along the last axis for all its rows, then the
    window, the scale and |.|, and the lock is taken once per sub-stack.
    Every transform runs row by row with the plan of a one-row call, and
    the rest acts on each element alone, so a row equals its one-row call
    bit for bit. Each function keeps its maxima in arrays of its own: one
    array for all of them measured 1.3 MB more peak RSS in 2D E2, where the
    separate arrays reuse memory that atom generation freed.

    Each chunk has one scratch, reused for every sub-stack it takes: a
    spectral_scratch stacked to the sub-stack size and its |.|
    (abs_convolve_output, which the real layer keeps in its product), as
    many rows as fit in FOLD_STACK_BYTES, at least one, at most all.
    The scratch is allocated here, in the calling thread: freed in a worker,
    it would stay in that thread's malloc arena and raise the peak RSS. The
    functions run in groups, so that their padded spectra plus the kernels
    and the scratch of every chunk stay within FOLD_SPECTRA_BYTES, with the
    bytes of a spectrum taken from spectrum_shape; a group holds at least
    one function, and every kernel is built once per group. No functions
    give no maxima; functions on different grids raise ValueError."""
    if not fs:
        return []
    spec = fs[0].spec
    if any(f.spec != spec for f in fs):
        raise ValueError("grid mismatch")
    maxima = [[np.zeros(spec.shape) for _ in range(nsets)] for _ in fs]
    items = list(work.items())
    chunks = [items[i::_WORKERS] for i in range(min(_WORKERS, len(items)))]
    if not chunks:
        return maxima

    def chunk_scratch(n):  # a chunk's scratch and |.| for n rows
        bufs = spectral_scratch(spec, real, n)
        return bufs, abs_convolve_output(spec, bufs)

    def owned(bufs, vals):  # their bytes, views of the scratch not counted
        return sum(a.nbytes for a in (*bufs, vals) if a.base is None)

    stack = max(1, min(len(fs), FOLD_STACK_BYTES // owned(*chunk_scratch(1))))
    scratch = [chunk_scratch(stack) for _ in chunks]
    shape = spectrum_shape(spec, real)
    spectrum = 16 * math.prod(shape)
    group = max(1, (FOLD_SPECTRA_BYTES - len(chunks) * (spectrum + owned(*scratch[0]))) // spectrum)
    lock = threading.Lock()
    for start in range(0, len(fs), group):
        members = fs[start:start + group]
        spectra = np.empty((len(members),) + shape, dtype=np.complex128)
        for f, out in zip(members, spectra):
            padded_spectrum(f, real, out=out)
        list(_pool.map(_fold_chunk, chunks, repeat(spectra), repeat(maxima[start:start + group]),
                       repeat(spec), repeat(real), scratch, repeat(lock)))
        del spectra
    return maxima


def small_maximal_table(fs: list[GridFunction], mollifier: MollifierSpec,
                        scales: ScaleGrid) -> list[GridFunction]:
    """out[i], the pointwise max over the scale grid of |fs[i] * phi_t| (a
    lower bound for m_phi fs[i]), equals the one-row call
    small_maximal_table([fs[i]], mollifier, scales)[0] bit for bit. One fold
    per spectral layer present (real for real samples through a mollifier
    without compact support): each kernel is built once per layer, used for
    every function in it and dropped. No functions give [] and functions on
    different grids raise ValueError."""
    if any(f.spec != fs[0].spec for f in fs):
        raise ValueError("grid mismatch")
    work = dict.fromkeys(((mollifier, t) for t in scales.scales), (0,))
    layers = [f.is_real and not mollifier.compact_support for f in fs]
    out = [None] * len(fs)
    for real in set(layers):
        members = [i for i, layer in enumerate(layers) if layer == real]
        for i, row in zip(members, _running_maxima([fs[i] for i in members], work, 1, real)):
            out[i] = GridFunction(fs[i].spec, row[0])
    return out


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
    """The copies amplitude * phi_t(x - .) of one compactly supported
    mollifier (any other raises ValueError), one per scale t of the ladder,
    each translated to every grid site, with the order k = N_p + 1 up to
    which the amplitude certifies their derivative bounds (order 1 folds on
    exact windows around f's support, see grand_maximal_table)."""

    __test__ = False  # not a pytest class

    mollifier: MollifierSpec
    scales: ScaleGrid
    amplitude: float
    order: int

    def __post_init__(self):
        if not self.mollifier.compact_support:
            raise ValueError("dictionary entries need a compactly supported mollifier")


@functools.lru_cache(maxsize=64)
def _mollifier_amplitude(mollifier: MollifierSpec, k: int) -> float:
    """Largest c (with 1% headroom) so that c * phi_t(x-.) meets every
    derivative bound of the admissible family; t-independent by scaling."""
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


def _fold_on_support(fs: list, work: dict, maxima: list) -> None:
    """Fold h^dim |fs[i] * phi_t| for the compactly supported kernels of
    work into maxima[i][s], each pair on the window of side
    window_side(b + 2K + 1), b the longest side of f's box and K = ceil(t/h):
    each kernel sampled once by dilate (the full grid's bits), its spectrum
    built once per side, its functions there stacked in sub-stacks whose
    windows and spectra fit in FOLD_STACK_BYTES (at least one function), a
    complex f as two rows, Re f and Im f, combined by hypot. A window depends
    on f and t alone, so a row equals its one-row call bit for bit. A
    function with no nonzero sample takes no transform. Serial: the pool
    lost on these small transforms."""
    if not fs or not work:
        return
    spec = fs[0].spec
    m, dim = spec.points_per_axis, spec.dim
    boxes, blocks = {}, {}  # per nonzero f: its nonzero range per axis; its real planes there
    for i, f in enumerate(fs):
        if (hits := np.nonzero(f.samples))[0].size:
            boxes[i] = [(int(a.min()), int(a.max()) + 1) for a in hits]
            planes = (f.samples,) if f.is_real else (f.samples.real, f.samples.imag)
            blocks[i] = [p[tuple(slice(*b) for b in boxes[i])] for p in planes]
    for (mollifier, t), sets in work.items():
        reach = math.ceil(t / spec.spacing)
        sides: dict[int, list[int]] = {}  # window side -> the functions that take it
        for i in boxes:
            sides.setdefault(window_side(max(hi - lo for lo, hi in boxes[i]) + 2 * reach + 1), []).append(i)
        kernel = Fk = windows = vals = None  # the last scale's, freed before this kernel is built
        kernel = dilate(mollifier, t, spec) if sides else None
        for n, members in sides.items():
            Fk = kernel_spectrum(kernel, reach, n)
            per = FOLD_STACK_BYTES // (max(len(blocks[i]) for i in members) * (8 * n**dim + Fk.nbytes)) or 1
            for j in range(0, len(members), per):
                planes = [block for i in members[j:j + per] for block in blocks[i]]
                windows = np.zeros((len(planes),) + (n,) * dim)
                for w, block in zip(windows, planes):
                    w[tuple(map(slice, block.shape))] = block
                vals = iter(window_convolve(windows, Fk, spec))
                for i in members[j:j + per]:
                    cut = [(max(lo - reach, 0), min(hi + reach, m), lo - reach) for lo, hi in boxes[i]]
                    parts = [next(vals)[tuple(slice(u - o, v - o) for u, v, o in cut)] for _ in blocks[i]]
                    near = np.abs(parts[0]) if len(parts) == 1 else np.hypot(*parts)
                    for s in sets:
                        target = maxima[i][s][tuple(slice(u, v) for u, v, _ in cut)]
                        np.maximum(target, near, out=target)


def grand_maximal_table(fs: list[GridFunction],
                        dictionaries: list[TestDictionary]) -> list[list[GridFunction]]:
    """out[i][j] = max |<fs[i], phi>| over the copies phi in dictionaries[j],
    a certified lower bound for the grand maximal function (a ladder that
    holds every scale of another can only increase values); each cell equals
    its one-row call grand_maximal_table([fs[i]], [d])[0][0] bit for bit.

    One pass over the distinct (mollifier, scale) pairs of the full-grid
    dictionaries, in the complex layer, and one over those of the order-1
    ones on exact windows (_fold_on_support): each kernel is built once per
    pass, convolved with every function and dropped. h^dim |f * phi_t| is
    folded into a running max per distinct (mollifier, ladder, path), and
    each dictionary's amplitude is applied once at the end, in place on a
    ladder no other dictionary reads: rounding is monotone, so amp * max|.|
    equals max(amp * |.|) bit for bit. On the window path each scale t adds
    its values only on the box of f's nonzero samples widened by ceil(t/h),
    within round-off of the full grid's, so a cell is exactly 0 where every
    scale's exact result is 0. The full grid's far-field round-off is in the
    recorded p < 1 norms."""
    ladders: dict[tuple, int] = {}  # (mollifier, scales, support path) -> its running max
    work: tuple[dict, dict] = ({}, {})  # per path: (mollifier, t) -> the ladders holding it
    for d in dictionaries:
        key = (d.mollifier, d.scales, d.order == 1)
        if key not in ladders:
            s = ladders[key] = len(ladders)
            for t in d.scales.scales:
                work[key[2]].setdefault((d.mollifier, t), []).append(s)
    maxima = _running_maxima(fs, work[False], len(ladders), False)
    _fold_on_support(fs, work[True], maxima)
    cells = [ladders[d.mollifier, d.scales, d.order == 1] for d in dictionaries]
    owned = {s for s in cells if cells.count(s) == 1}  # scaled in place, no copy
    return [[GridFunction(f.spec, np.multiply(row[s], d.amplitude, out=row[s] if s in owned else None))
             for d, s in zip(dictionaries, cells)]
            for f, row in zip(fs, maxima)]

