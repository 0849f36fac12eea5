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
scale at a time: each distinct kernel is sampled once, used for every
function of the call and dropped, and the spectra alive at one time stay
under FOLD_SPECTRA_BYTES. The functions' spectra meet each kernel a
sub-stack at a time: one product and one inverse transform for all the
rows, then the scale and |.| in place, with the stacked scratch of a chunk
under FOLD_STACK_BYTES. In 1D that puts several functions in one call; a
2D function at the sizes the configs run fills the bound alone.

There is one real fold, the window fold (_window_fold, on the real window
layer of grid.py), and it serves small_maximal_table and every order-1
test dictionary (N_p = 0, so every p = 1 dictionary) of
grand_maximal_table. phi_t reaches K = ceil(t/h) samples from the origin
for a compactly supported mollifier, and the grid's m offsets otherwise.
Each pair of a function f and a scale takes one unpadded circular real
transform on a window of the least side c 2^i (c = 1, 3, 9) that holds the
linear convolution of f's nonzero box with that kernel: b + 2K for a box of
longest side b, or b + m - 1 (288 for E1's 2D fields at m = 256, 2m for a
function that fills the grid). The result is cut to the samples the kernel
reaches from the box, exactly 0 elsewhere, and a complex f runs as two
real rows, Re f and Im f, combined by hypot. The scales are walked in
ascending order, and each function's half spectra are built once per run
of scales at which its side does not change: once per call for the
Gaussian.

The pool rule: a run of scales runs on pool.POOL, one chunk of its scales
per worker, only when its kernels span the grid's m offsets (the Gaussian);
otherwise it folds serially in the calling thread. On a 2-CPU host (best
of 7 calls, three rounds) E1's twelve 2D fields at m = 256 took 0.21 s on
the pool against 0.23-0.36 s serially, and the order-1 2D E2 call (six
atoms at m = 256, T = 1 ... 8) 0.044-0.065 s serially against
0.077-0.081 s on the pool, where its small transforms pay more for the
hand-off than they gain.

The p < 1 dictionaries run on the padded full grid in the complex layer
(_padded_fold, always on the pool): the recorded p < 1 norms contain its
far-field round-off, which another transform would move.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from itertools import groupby, repeat

import numpy as np

from . import pool
from .grid import (
    TILE_ROWS,
    GridFunction,
    GridSpec,
    abs_convolve_spectra,
    dilate,
    dilate_box,
    nonzero_box,
    padded_spectrum,
    sized_side,
    spectral_scratch,
    spectrum_shape,
    sq_distance,
    window_cut,
    window_inverse,
    window_product,
    window_spectrum,
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


# the spectra alive in one fold: one padded 2D m=4096 spectrum is 1 GiB, so
# the functions of one call run in groups bounded in bytes
FOLD_SPECTRA_BYTES = 512 * 2**20

# the stacked scratch of one chunk, |.| included: a fold group's functions
# meet each kernel a sub-stack at a time, as many as fit here (at least
# one). Five of E1's 1D fields at m=8192 (window side 9216) fit, and no 2D
# function at m >= 128: each chunk adds its stack to the peak RSS, and E1's
# 1D peak is close to E5's, the battery-1d peak
FOLD_STACK_BYTES = 768 * 2**10


def _maxima(fs: list, nsets: int) -> list:
    # zero running maxima, nsets per function; functions on different grids
    # raise ValueError
    if any(f.spec != fs[0].spec for f in fs):
        raise ValueError("grid mismatch")
    return [[np.zeros(f.spec.shape) for _ in range(nsets)] for f in fs]


def _groups(todo: list, size: dict, budget: int):
    # the functions in order, in groups whose sizes fit the budget, at least
    # one function each
    group, used = [], 0
    for i in todo:
        if group and used + size[i] > budget:
            yield group
            group, used = [], 0
        group.append(i)
        used += size[i]
    if group:
        yield group


def _padded_chunk(items: list, group: list, spectra: np.ndarray, stack: int, maxima: list,
                  spec: GridSpec, scratch: tuple, lock: threading.Lock) -> None:
    *bufs, vals = scratch
    for (mollifier, t), slots in items:
        Fk = padded_spectrum(dilate(mollifier, t, spec))
        for j in range(0, len(group), stack):
            k = min(stack, len(group) - j)
            abs_convolve_spectra(spectra[j:j + k], Fk, spec, tuple(b[:k] for b in bufs), vals[:k])
            with lock:
                for i, near in zip(group[j:j + k], vals):
                    for s in slots:
                        np.maximum(maxima[i][s], near, out=maxima[i][s])
        del Fk  # this scale is done: drop its spectrum before building the next


def _padded_fold(fs: list, work: dict, maxima: list) -> None:
    """Fold h^dim |fs[i] * phi_t| into maxima[i][s] for every distinct
    (mollifier, t) of work and scale set s that holds it, in the complex
    padded layer: a (2m)^dim spectrum per function, the functions in groups
    whose spectra, plus one kernel spectrum and the scratch of every chunk,
    stay within FOLD_SPECTRA_BYTES, each group's spectra stacked and met by
    each kernel FOLD_STACK_BYTES of sub-stack at a time. Every kernel spans
    the grid's m offsets, so one interleaved chunk of the scales per worker
    runs on pool.POOL (NumPy's FFT releases the GIL) and folds into the
    shared maxima under a lock; max is exact, so the result depends neither
    on the split nor on the order. The scratch is allocated here, in the
    calling thread: freed in a worker, it would stay in that thread's malloc
    arena and raise the peak RSS."""
    if not fs or not work:
        return
    spec = fs[0].spec
    items = list(work.items())
    chunks = [items[c::pool.WORKERS] for c in range(min(pool.WORKERS, len(items)))]
    per_row = sum(a.nbytes for a in spectral_scratch(spec, 1)) + 8 * spec.num_samples
    stack = max(1, min(len(fs), FOLD_STACK_BYTES // per_row))
    scratch = [(*spectral_scratch(spec, stack), np.empty((stack,) + spec.shape)) for _ in chunks]
    spectrum = 16 * math.prod(spectrum_shape(spec))
    budget = FOLD_SPECTRA_BYTES - len(chunks) * (spectrum + sum(a.nbytes for a in scratch[0]))
    lock = threading.Lock()
    for group in _groups(list(range(len(fs))), dict.fromkeys(range(len(fs)), spectrum), budget):
        spectra = np.empty((len(group),) + spectrum_shape(spec), dtype=np.complex128)
        for i, out in zip(group, spectra):
            padded_spectrum(fs[i], out=out)
        list(pool.POOL.map(_padded_chunk, chunks, repeat(group), repeat(spectra), repeat(stack),
                           repeat(maxima), repeat(spec), scratch, repeat(lock)))
        del spectra


def _planes(f: GridFunction) -> tuple:
    # the real planes that carry f in the window layer
    return (f.samples,) if f.is_real else (f.samples.real, f.samples.imag)


def _half_shape(n: int, dim: int) -> tuple[int, ...]:
    # the rfftn half spectrum of a window of side n
    return (n,) * (dim - 1) + (n // 2 + 1,)


def _reach(mollifier: MollifierSpec, t: float, spec: GridSpec) -> tuple[int, int]:
    # the offsets below and above the origin that phi_t's samples reach: K =
    # ceil(t/h) each way for a compactly supported mollifier, otherwise the
    # grid's m offsets -m/2 ... m/2 - 1
    if mollifier.compact_support:
        K = math.ceil(t / spec.spacing)
        return K, K
    return spec.points_per_axis // 2, spec.points_per_axis // 2 - 1


@dataclass
class _Window:
    """What one fold group shares with the chunks of a run of scales."""

    spec: GridSpec
    boxes: dict  # function -> the box of its nonzero samples
    spectra: dict  # function -> (its side, its half spectra, one row per real plane)
    subs: list  # (side, functions): sub-stacks of whole functions, grouped by side
    maxima: list
    lock: threading.Lock


def _place(win: _Window, sub: list, reach: tuple) -> tuple:
    # where the values of one sub-stack land against a kernel of this reach:
    # each function's window_cut, and the window rows and columns that some
    # cut holds
    cuts = [window_cut(win.boxes[i], *reach, win.spec.points_per_axis) for i in sub]
    rows = slice(min(w[0].start for _, w in cuts), max(w[0].stop for _, w in cuts))
    cols = slice(min(w[-1].start for _, w in cuts), max(w[-1].stop for _, w in cuts))
    return cuts, rows, cols


def _fold_sub(win: _Window, n: int, sub: list, Fk: np.ndarray, place: tuple, slots,
              scratch: tuple) -> None:
    # h^dim |f * phi_t| of the functions of one sub-stack, folded into their
    # maxima: one product and one inverse transform for all their rows (in
    # 2D a band of TILE_ROWS window rows at a time), then the scale and |.|
    # in place on the rows and columns that some function's cut holds, one
    # hypot per complex function and one lock
    spec = win.spec
    prod_buf, real_buf = scratch
    F = [win.spectra[i][1] for i in sub]
    k = sum(map(len, F))
    prod = window_product(F, Fk, prod_buf[:k * Fk.size].reshape((k,) + Fk.shape))
    cuts, (lo, hi), cols = place[0], (place[1].start, place[1].stop), place[2]
    step = hi - lo if spec.dim == 1 else TILE_ROWS
    for r in range(lo, hi, step):
        band = slice(r, min(r + step, hi))
        size = band.stop - band.start
        if spec.dim == 1:  # the whole window, and band a view of it
            vals = window_inverse(prod, n, 1, band, real_buf[:k * n].reshape(k, n))
            block = vals
        else:
            vals = window_inverse(prod, n, 2, band, real_buf[:k * size * n].reshape(k, size, n))
            block = vals[..., cols]
        np.multiply(block, spec.cell_volume, out=block)
        np.abs(block, out=block)
        near, row = [], 0
        for i, (where, window), planes in zip(sub, cuts, F):
            u, v = max(window[0].start, r), min(window[0].stop, band.stop)
            if u < v:
                at = (slice(u - r, v - r),) + window[1:]
                start = where[0].start + u - window[0].start
                val = vals[row][at] if len(planes) == 1 else np.hypot(vals[row][at], vals[row + 1][at],
                                                                       out=vals[row][at])
                near.append((win.maxima[i], (slice(start, start + v - u),) + where[1:], val))
            row += len(planes)
        with win.lock:
            for maxima, where, val in near:
                for s in slots:
                    target = maxima[s][where]
                    np.maximum(target, val, out=target)


def _window_chunk(items: list, win: _Window, scratch: tuple) -> None:
    reach = None
    for (mollifier, t), slots in items:
        if (now := _reach(mollifier, t, win.spec)) != reach:  # every sub-stack's cuts, once per reach
            reach = now
            places = [_place(win, sub, reach) for _, sub in win.subs]
        if mollifier.compact_support:
            g, first = dilate_box(mollifier, t, win.spec, reach[0])
        else:
            g, first = dilate(mollifier, t, win.spec).samples, 0
        Fk, side = None, None
        for (n, sub), place in zip(win.subs, places):
            if n != side:
                Fk, side = None, n  # the last side's spectrum, freed before this one is built
                Fk = window_spectrum(g, first, n)
            _fold_sub(win, n, sub, Fk, place, slots, scratch)
        del g, Fk  # this scale is done: drop its kernel before building the next


def _window_fold(fs: list, work: dict, maxima: list) -> None:
    """Fold h^dim |fs[i] * phi_t| into maxima[i][s] for every distinct
    (mollifier, t) of work and scale set s that holds it, in the real window
    layer, by the side and pool rules of the module docstring. A function
    with no nonzero sample takes no transform. A function's half spectra,
    one row per real plane, are built in the calling thread whenever its side
    changes; a kernel is sampled once per group (by dilate_box if compactly
    supported), its spectrum built once per side. The functions run in
    groups whose spectra at their largest side, plus one kernel spectrum and
    the scratch of every chunk, stay within FOLD_SPECTRA_BYTES. So the
    spectra held grow with the number of functions, up to that bound, for a
    compact kernel too: a group's spectra stay across its runs of scales,
    where a fold that re-transformed every window at every scale would hold
    one sub-stack of them at a time (the order-1 E2 calls' traced peak: 1D
    1.22 to 1.32 MB, 2D 14.07 to 14.93 MB, at 12 and 6 atoms). Each chunk
    has one scratch, allocated in the calling thread and reused for every
    sub-stack: whole functions of one side, as many rows as fit in
    FOLD_STACK_BYTES at that side (per row its product and what irfft
    writes, the window in 1D and a band of TILE_ROWS window rows in 2D), at
    least one function. Every transform runs row by row with the plan of a
    one-row call, the side depends on f and the kernel alone, and the rest
    acts on each element alone, so a row equals its one-row call bit for
    bit; max is exact, so the result depends neither on the chunks nor on
    the order."""
    boxes = {i: box for i, f in enumerate(fs) if (box := nonzero_box(f.samples)) is not None}
    if not boxes or not work:
        return
    spec = fs[0].spec
    dim, m = spec.dim, spec.points_per_axis
    rows = {i: len(_planes(fs[i])) for i in boxes}
    runs: list = []  # (on the pool, {function: side}, [(mollifier, t), slots])
    keys = sorted(work, key=lambda key: (key[0].shape, key[1]))
    for span, same in groupby(keys, key=lambda key: sum(_reach(*key, spec)) + 1):
        sides = {i: sized_side(box, span) for i, box in boxes.items()}
        if not (runs and runs[-1][:2] == (span >= m, sides)):
            runs.append((span >= m, sides, []))
        runs[-1][2].extend((key, work[key]) for key in same)
    per_row = {n: 16 * math.prod(_half_shape(n, dim)) + 8 * n * (1 if dim == 1 else min(TILE_ROWS, n))
               for _, sides, _ in runs for n in sides.values()}
    stack = {n: max(max(rows.values()), min(sum(rows.values()), FOLD_STACK_BYTES // b)) for n, b in per_row.items()}
    chunks = max([min(pool.WORKERS, len(items)) for on_pool, _, items in runs if on_pool], default=1)
    scratch = [(np.empty(max(stack[n] * math.prod(_half_shape(n, dim)) for n in stack), dtype=np.complex128),
                np.empty(max(stack[n] * n * (1 if dim == 1 else min(TILE_ROWS, n)) for n in stack)))
               for _ in range(chunks)]
    top = {i: max(sides[i] for _, sides, _ in runs) for i in boxes}
    size = {i: rows[i] * 16 * math.prod(_half_shape(top[i], dim)) for i in boxes}
    kernel = 16 * math.prod(_half_shape(max(top.values()), dim))
    budget = FOLD_SPECTRA_BYTES - chunks * (kernel + sum(a.nbytes for a in scratch[0]))
    for group in _groups(list(boxes), size, budget):
        win = _Window(spec, boxes, {}, [], maxima, threading.Lock())
        for on_pool, sides, items in runs:
            for i in group:
                n = sides[i]
                if win.spectra.get(i, (None,))[0] != n:
                    win.spectra.pop(i, None)  # freed before the new side's are built
                    F = np.empty((rows[i],) + _half_shape(n, dim), dtype=np.complex128)
                    for plane, out in zip(_planes(fs[i]), F):
                        window_spectrum(plane[tuple(slice(*b) for b in boxes[i])], 0, n, out=out)
                    win.spectra[i] = n, F
            win.subs = [(n, sub) for n in dict.fromkeys(sides[i] for i in group)
                        for sub in _groups([i for i in group if sides[i] == n], rows, stack[n])]
            if on_pool:
                parts = [items[c::pool.WORKERS] for c in range(min(pool.WORKERS, len(items)))]
                list(pool.POOL.map(_window_chunk, parts, repeat(win), scratch))
            else:
                _window_chunk(items, win, scratch[0])
        del win


def small_maximal_table(fs: list[GridFunction], mollifier: MollifierSpec,
                        scales: ScaleGrid) -> list[GridFunction]:
    """out[i], the pointwise max over the scale grid of |fs[i] * phi_t| (a
    lower bound for m_phi fs[i]), equals the one-row call
    small_maximal_table([fs[i]], mollifier, scales)[0] bit for bit. One fold
    in the real window layer (_window_fold), a complex f as Re f and Im f
    combined by hypot: each kernel is built once, used for every function
    and dropped. No functions give [] and functions on different grids
    raise ValueError."""
    maxima = _maxima(fs, 1)
    _window_fold(fs, dict.fromkeys(((mollifier, t) for t in scales.scales), (0,)), maxima)
    return [GridFunction(f.spec, row[0]) for f, row in zip(fs, maxima)]


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


def grand_maximal_table(fs: list[GridFunction],
                        dictionaries: list[TestDictionary]) -> list[list[GridFunction]]:
    """out[i][j] = max |<fs[i], phi>| over the copies phi in dictionaries[j],
    a certified lower bound for the grand maximal function (a ladder that
    holds every scale of another can only increase values); each cell equals
    its one-row call grand_maximal_table([fs[i]], [d])[0][0] bit for bit.

    One pass over the distinct (mollifier, scale) pairs of the full-grid
    dictionaries, in the complex padded layer (_padded_fold), and one over
    those of the order-1 ones in the real window layer (_window_fold): each
    kernel is built once per pass, convolved with every function and
    dropped. h^dim |f * phi_t| is folded into a running max per distinct
    (mollifier, ladder, path), and each dictionary's amplitude is applied
    once at the end, in place on a ladder no other dictionary reads:
    rounding is monotone, so amp * max |.| equals max(amp * |.|) bit for
    bit. On the window path each scale t adds its values only on the box of
    f's nonzero samples widened by ceil(t/h), within round-off of the full
    grid's, so a cell is exactly 0 where every scale's exact result is 0.
    The full grid's far-field round-off is in the recorded p < 1 norms."""
    ladders: dict[tuple, int] = {}  # (mollifier, scales, window path) -> its running max
    work: tuple[dict, dict] = ({}, {})  # per path: (mollifier, t) -> the ladders holding it
    for d in dictionaries:
        key = (d.mollifier, d.scales, d.order == 1)
        if key not in ladders:
            s = ladders[key] = len(ladders)
            for t in d.scales.scales:
                work[key[2]].setdefault((d.mollifier, t), []).append(s)
    maxima = _maxima(fs, len(ladders))
    _padded_fold(fs, work[False], maxima)
    _window_fold(fs, work[True], maxima)
    cells = [ladders[d.mollifier, d.scales, d.order == 1] for d in dictionaries]
    owned = {s for s in cells if cells.count(s) == 1}  # scaled in place, no copy
    return [[GridFunction(f.spec, np.multiply(row[s], d.amplitude, out=row[s] if s in owned else None))
             for d, s in zip(dictionaries, cells)]
            for f, row in zip(fs, maxima)]

