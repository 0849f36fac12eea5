"""Uniform periodic grids on centered boxes and the basic calculus on them.

Functions live on the box [-L, L)^dim sampled at x_i = -L + i*h per axis
(h = 2L/m, m a power of two), so 0 is always a sample point and negation
maps the grid to itself. Quadrature is the rectangle rule h^dim * sum,
which for these periodic grids is the midpoint rule up to an index shift
and is exact enough (O(h^2)) for the indicator-like and smooth integrands
used throughout.

Closed forms (symbols, kernels, monomials, distances) are evaluated on open
grids: tuples of per-axis coordinate arrays, each shaped to broadcast along
its own axis as np.ix_ shapes them (GridSpec.points and frequencies), so no
(dim,) + grid stack of points is built.

All operations here are pure: they never mutate their inputs, apart from
the scratch, output and window arrays handed to the spectral functions
(padded_spectrum, abs_convolve_spectra, window_spectrum, window_product and
window_inverse), and are safe to share across threads.

Convolutions run in one spectral layer, the real window layer (sized_side,
window_spectrum, window_product, window_inverse, window_cut): it puts a real
function's nonzero box at the start of a window just long enough to hold
its linear convolution with a kernel of a given span, and cuts the result
to the kernel's reach. The padded transforms (padded_spectrum,
spectral_scratch, abs_convolve_spectra) pad to twice the side and serve one
caller, the full-grid fold of the p < 1 grand maximal function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.fft  # noqa: F401  (NumPy loads it lazily; load it with the package)

from . import pool
from .errors import NumericalError

MAX_TOTAL_SAMPLES = 2**24


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform periodic grid on [-L, L)^dim.

    Attributes:
        dim: spatial dimension, 1 or 2.
        half_width: L, half the side of the centered box.
        points_per_axis: m, a power of two >= 8; total samples m^dim <= 2^24.
    """

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        m = self.points_per_axis
        if not _is_power_of_two(m) or m < 8:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {m}")
        if m**self.dim > MAX_TOTAL_SAMPLES:
            raise ValueError(f"total sample count {m**self.dim} exceeds 2^24")

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2L/m."""
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def num_samples(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis."""
        m = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(m)

    def points(self) -> tuple[np.ndarray, ...]:
        """All sample points, as an open grid."""
        return np.ix_(*[self.axis()] * self.dim)

    def frequencies(self) -> tuple[np.ndarray, ...]:
        """Discrete frequencies 2*pi*k/(2L) per axis, as an open grid."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return np.ix_(*[xi] * self.dim)


def sq_distance(grid, center=None) -> np.ndarray:
    """|x - center|^2 (center defaults to the origin) on an open grid, such
    as GridSpec.points() or np.ix_ of per-axis coordinates, shaped as the
    full grid: one squared term per axis, summed in axis order."""
    d2 = np.zeros(())
    for x, c in zip(grid, (0.0,) * len(grid) if center is None else center):
        d2 = d2 + (x - c) ** 2
    return d2


@dataclass(frozen=True, eq=False)
class BallSlab:
    """The samples of a ball on a grid: idx, the per-axis indices of its
    bounding slab, inside, the membership mask on that slab, and sq_dist,
    the squared distances to the centre on that slab.

    The slab indices ascend on every axis, so a row-major walk over the
    slab's members meets them in the order of a row-major walk over the
    full grid: gather equals samples[ball.mask(spec)] bit for bit.
    """

    spec: GridSpec
    idx: tuple[np.ndarray, ...]
    inside: np.ndarray
    sq_dist: np.ndarray

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.inside))

    def gather(self, samples: np.ndarray) -> np.ndarray:
        """The full-grid samples at the ball's members, as a flat array."""
        if not self.inside.any():
            raise NumericalError("degenerate region")
        return samples[np.ix_(*self.idx)][self.inside]

    def scatter(self, values) -> np.ndarray:
        """A full-grid array holding values at the ball's members (in gather
        order) and 0 everywhere else."""
        values = np.asarray(values)
        block = np.zeros(self.inside.shape, dtype=values.dtype)
        block[self.inside] = values
        out = np.zeros(self.spec.shape, dtype=values.dtype)
        out[np.ix_(*self.idx)] = block
        return out


@dataclass(frozen=True)
class Ball:
    """Open ball B(x0, r); membership at sample points is strict |x - x0| < r."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def box(self, spec: GridSpec) -> BallSlab:
        """The ball's slab on the grid: every restriction to the ball goes
        through it.

        A sample off the slab has one term (x_i - c_i)^2 >= r^2, and a sum of
        nonnegative terms rounds to no less than any of them, so the slab
        holds every sample of the ball. The slab's squared distances are
        sq_distance on its open grid, so the membership equals
        sq_distance(spec.points(), center) < r^2 bit for bit.
        """
        if spec.dim != self.dim:
            raise ValueError("ball/grid dimension mismatch")
        # compare squares: sqrt(d2) < r would flip points on the boundary
        r2 = self.radius**2
        ax = spec.axis()
        idx = tuple(np.flatnonzero((ax - c) ** 2 < r2) for c in self.center)
        d2 = sq_distance(np.ix_(*(ax[i] for i in idx)), self.center)
        return BallSlab(spec, idx, d2 < r2, d2)

    def mask(self, spec: GridSpec) -> np.ndarray:
        """Membership of every sample of the grid."""
        return self.box(spec).scatter(True)

    def fits_in(self, spec: GridSpec) -> bool:
        return all(
            abs(c) + self.radius <= spec.half_width for c in self.center
        )


class GridFunction:
    """A sampled function on a GridSpec. Samples are float64 or complex128,
    in an array of shape (m,)*dim."""

    __slots__ = ("spec", "samples")

    def __init__(self, spec: GridSpec, samples: np.ndarray):
        samples = np.asarray(samples)
        if samples.shape != spec.shape:
            raise ValueError(f"sample shape {samples.shape} != grid shape {spec.shape}")
        if not np.iscomplexobj(samples):
            samples = samples.astype(np.float64, copy=False)
        else:
            samples = samples.astype(np.complex128, copy=False)
        if not np.all(np.isfinite(samples.view(np.float64) if samples.dtype == np.complex128 else samples)):
            raise ValueError("samples contain non-finite values")
        self.spec = spec
        self.samples = samples

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.samples)

    def _check_compatible(self, other: "GridFunction"):
        if other.spec != self.spec:
            raise ValueError("grid mismatch")

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.spec, self.samples - other.samples)

    def __mul__(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            self._check_compatible(other)
            return GridFunction(self.spec, self.samples * other.samples)
        return GridFunction(self.spec, self.samples * other)

    __rmul__ = __mul__

    def conj(self) -> "GridFunction":
        return GridFunction(self.spec, np.conj(self.samples))


def sample_function(spec: GridSpec, fn: Callable[[tuple[np.ndarray, ...]], np.ndarray]) -> GridFunction:
    """Sample a closed-form function; fn takes the open grid of the points
    and returns values that broadcast to the grid's shape."""
    vals = np.asarray(fn(spec.points()))
    return GridFunction(spec, np.broadcast_to(vals, spec.shape).copy())


def integrate(f: GridFunction):
    """Rectangle-rule integral h^dim * sum of samples."""
    val = f.samples.sum() * f.spec.cell_volume
    if f.is_real:
        return float(val)
    return complex(val)


def lp_quasinorm(f: GridFunction, s: float, region: Ball | None = None) -> float:
    """(int |f|^s)^{1/s} over the grid or a ball, for any s > 0 or s = inf;
    a quasi-norm when s < 1."""
    vals = np.abs(f.samples if region is None else region.box(f.spec).gather(f.samples))
    if np.isinf(s):
        return float(vals.max(initial=0.0))
    return float((np.sum(vals**s) * f.spec.cell_volume) ** (1.0 / s))


def lp_norm(f: GridFunction, s: float, region: Ball | None = None) -> float:
    """L^s norm over the grid or a ball. Requires s >= 1 or inf."""
    if not (np.isinf(s) or s >= 1):
        raise ValueError(f"lp_norm requires s >= 1 or s = inf, got {s}")
    return lp_quasinorm(f, s, region)


# rows of the padded product that the 2D inverse transforms at a time: a
# constant, so that a convolution always takes the same number of transforms
TILE_ROWS = 64


def spectrum_shape(spec: GridSpec) -> tuple[int, ...]:
    """Shape of a padded_spectrum: (2m)^dim."""
    return (2 * spec.points_per_axis,) * spec.dim


def padded_spectrum(f: GridFunction, out: np.ndarray | None = None) -> np.ndarray:
    """FFT of f zero-padded to twice the side, the operand of
    abs_convolve_spectra. With out, a contiguous complex array of
    spectrum_shape(spec) such as one row of a stack of spectra, the spectrum
    is written there; no other spectrum-sized array is built.

    In 2D no padded copy is built: each run of rows of f that hold a nonzero
    sample is written at its embedding rows of the spectrum and transformed
    there along the last axis, in place; the axis-0 FFT then runs in place.
    fftn takes the same transforms in the same axis order (casting real rows
    to complex first), and a zero row transforms to +0.0, so the result
    equals fftn of the padded copy bit for bit.
    """
    spec = f.spec
    m = spec.points_per_axis
    off = m // 2
    if spec.dim == 1:
        F = np.zeros(2 * m, dtype=f.samples.dtype)
        F[off:off + m] = f.samples
        return np.fft.fftn(F, out=out)
    F = np.empty(spectrum_shape(spec), dtype=np.complex128) if out is None else out
    F[:] = 0.0
    edges = np.flatnonzero(np.diff(f.samples.any(axis=1), prepend=False, append=False))
    for lo, hi in zip(edges[::2], edges[1::2]):  # the runs of nonzero rows
        rows = F[off + lo:off + hi]
        rows[:, off:off + m] = f.samples[lo:hi]
        np.fft.fft(rows, axis=-1, out=rows)
    return np.fft.fft(F, axis=0, out=F)


def spectral_scratch(spec: GridSpec, stack: int) -> tuple[np.ndarray, ...]:
    """Scratch for abs_convolve_spectra on a stack of up to `stack` spectra,
    reusable from call to call: in 1D the padded products; in 2D the
    (2m x m) halves that the axis-0 inverse runs on and one tile of rows of
    each, every array with a leading axis of length stack."""
    m = spec.points_per_axis
    if spec.dim == 1:
        return (np.empty((stack, 2 * m), dtype=np.complex128),)
    return (np.empty((stack, 2 * m, m), dtype=np.complex128),
            np.empty((stack, min(TILE_ROWS, 2 * m), 2 * m), dtype=np.complex128))


def abs_convolve_spectra(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec,
                         scratch: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """|f * g| (h^dim scaling) from padded spectra, for a stack Ff of them
    along a leading axis against one Fg, written into out (stacked alike)
    with no array allocated: scratch is a spectral_scratch of that stack.

    Circular convolution of arrays anchored at -2L returns the true
    convolution shifted by half the padded period, so the window is the
    indices (i - m) mod 2m: the last m/2 of the 2m, then the first m/2. The
    inverse FFT runs along the last axis first, as ifftn does. In 2D it runs
    on TILE_ROWS rows of the product at a time, only the m window columns of
    each tile are kept, and the axis-0 pass covers those columns alone, so
    no (2m)^2 array is built. Each row of out equals np.abs of ifftn of its
    Ff * Fg, windowed and scaled, bit for bit: every transform runs row by
    row with the plan of a one-row call, and the products, scaling and
    modulus act on each element alone.
    """
    m = spec.points_per_axis
    first, second = slice(3 * m // 2, 2 * m), slice(0, m // 2)
    if spec.dim == 1:
        (buf,) = scratch
        np.multiply(Ff, Fg, out=buf)
        np.fft.ifft(buf, axis=-1, out=buf)
    else:
        buf, tile = scratch
        n = tile.shape[-2]
        for r in range(0, 2 * m, n):
            rows = slice(r, r + n)
            np.multiply(Ff[:, rows], Fg[rows], out=tile)
            np.fft.ifft(tile, axis=-1, out=tile)
            buf[:, rows, :m // 2] = tile[..., first]
            buf[:, rows, m // 2:] = tile[..., second]
        np.fft.ifft(buf, axis=-2, out=buf)
    # the grid's first axis is the second of every stacked array
    for part, at in ((buf[:, first], slice(None, m // 2)), (buf[:, second], slice(m // 2, None))):
        part *= spec.cell_volume
        np.abs(part, out=out[:, at])
    return out


# the window sides of the real window layer: c 2^i for c in these factors,
# picked by timing irfft at 8192 to 16384 points (8192: 107 us, 8748 =
# 2^2 3^7: 130 us, 9216 = 9 2^10: 124 us, 16384: 150 us); the factor 9
# gives E1's 2D fields at m = 256 a side of 288
SIZED_SIDE_FACTORS = (1, 3, 9)


def nonzero_box(samples: np.ndarray) -> list[tuple[int, int]] | None:
    """Per axis, the first index of a nonzero sample and one past the last;
    None if no sample is nonzero."""
    hits = np.nonzero(samples)
    if not hits[0].size:
        return None
    return [(int(a.min()), int(a.max()) + 1) for a in hits]


def sized_side(box, span: int) -> int:
    """The window side of a function with this nonzero box against a kernel
    whose samples span `span` consecutive offsets per axis: the least c 2^i
    >= b + span - 1 (c in SIZED_SIDE_FACTORS), b the longest side of the
    box. On that side the circular convolution of the box, at the start of a
    zero window, with the kernel right after it holds their linear
    convolution with no wrap-around. A kernel sampled on the grid spans its
    m offsets, so a function that fills the grid then takes 2m, the padded
    side; a kernel within K samples of the origin spans 2K + 1."""
    need = max(hi - lo for lo, hi in box) + span - 1
    return min(c << (-(-need // c) - 1).bit_length() for c in SIZED_SIDE_FACTORS)


def window_cut(box, before: int, after: int, m: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Where a window convolution lands: the grid samples from `before`
    samples below a function's nonzero box to `after` samples above it, per
    axis and clipped to the grid, and the window indices that hold them when
    the box sits at the start of its window and the kernel's offset k at
    index k + before."""
    cut = [(max(lo - before, 0), min(hi + after, m), lo - before) for lo, hi in box]
    return tuple(slice(u, v) for u, v, _ in cut), tuple(slice(u - o, v - o) for u, v, o in cut)


def window_spectrum(g: np.ndarray, first: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfftn of the zero window of side n that holds the real samples
    g from index first on, per axis, bit for bit; with out (such as a row of
    a stack of spectra) written there. In 2D only the rows that hold g take
    rfft, TILE_ROWS at a time, written into their rows of the half
    spectrum; every other row holds the transform of a zero row (rfft
    leaves -0.0 at some of its frequencies), and the axis-0 FFT runs in
    place: rfftn's transforms in its order."""
    if g.ndim == 1:
        window = np.zeros(n)
        window[first:first + len(g)] = g
        return np.fft.rfft(window, out=out)
    F = np.empty((n, n // 2 + 1), dtype=np.complex128) if out is None else out
    F[:] = np.fft.rfft(np.zeros(n))
    tile = np.zeros((min(TILE_ROWS, len(g)), n))
    for r in range(0, len(g), len(tile)):
        k = min(len(tile), len(g) - r)
        tile[:k, first:first + g.shape[1]] = g[r:r + k]
        np.fft.rfft(tile[:k], axis=-1, out=F[first + r:first + r + k])
    return np.fft.fft(F, axis=0, out=F)


def window_product(stacks, Fk: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """The product of every half spectrum in stacks (arrays of them stacked
    along a leading axis, whose rows fill prod's leading axis in order) with
    Fk, a window_spectrum of the same side, written into prod; then in 2D
    the axis-0 inverse FFT in place, one call for every row: the first steps
    of np.fft.irfftn of each product on the window."""
    row = 0
    for F in stacks:
        np.multiply(F, Fk, out=prod[row:row + len(F)])
        row += len(F)
    if Fk.ndim == 2:
        np.fft.ifft(prod, axis=-2, out=prod)
    return prod


def window_inverse(prod: np.ndarray, n: int, dim: int, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """The window indices rows, along the first of the dim window axes, of
    np.fft.irfftn on side n of the product that window_product left in
    prod, unscaled, written into out if given. In 2D irfft runs on those
    rows alone; in 1D on the whole window, and the rows are a view. These
    are irfftn's transforms in its order, row by row, so every value equals
    irfftn's bit for bit, and each row of a stack its one-row call."""
    if dim == 1:
        return np.fft.irfft(prod, n, axis=-1, out=out)[..., rows]
    return np.fft.irfft(prod[..., rows, :], n, axis=-1, out=out)


def convolve(f: GridFunction, g: GridFunction, spectra: dict | None = None) -> GridFunction:
    """Convolution f * g with h^dim scaling, g real and sampled at the
    offsets -m/2 ... m/2 - 1 from the origin (its sample at index k at
    offset k - m/2).

    One path, the real window layer: f's nonzero box at the start of a zero
    window of side sized_side(box, m), g's samples at indices 0 ... m - 1 of
    another, window_product and window_inverse of their rfftn, scaled and
    cut to the grid (window_cut). That is the linear convolution up to
    round-off, exactly 0 more than m/2 samples from f's box. A complex f or
    g raises ValueError: no operator of the lab has a complex kernel, and no
    run applies one to a complex function.

    A caller that convolves with the same g many times passes spectra, a
    dict in which g's spectra are kept by window side, so that each is
    taken once.
    """
    f._check_compatible(g)
    if not (f.is_real and g.is_real):
        raise ValueError("convolve takes a real function and a real kernel")
    spec = f.spec
    spectra = {} if spectra is None else spectra
    out = np.zeros(spec.shape)
    box = nonzero_box(f.samples)
    if box is not None:
        m = spec.points_per_axis
        n = sized_side(box, m)
        if n not in spectra:
            spectra[n] = window_spectrum(g.samples, 0, n)
        where, window = window_cut(box, m // 2, m // 2 - 1, m)
        F = window_spectrum(f.samples[tuple(slice(*b) for b in box)], 0, n)[None]
        vals = window_inverse(window_product([F], spectra[n], F), n, spec.dim, window[0])[0]
        at = (slice(0, window[0].stop - window[0].start),) + window[1:]
        np.multiply(vals[at], spec.cell_volume, out=out[where])
    return GridFunction(spec, out)


def _negation_index(m: int) -> np.ndarray:
    return (-np.arange(m)) % m


def reflect(f: GridFunction) -> GridFunction:
    """Samples of x -> f(-x); exact on this grid since negation permutes it."""
    idx = _negation_index(f.spec.points_per_axis)
    out = f.samples[idx] if f.spec.dim == 1 else f.samples[np.ix_(idx, idx)]
    return GridFunction(f.spec, out.copy())


@dataclass(frozen=True, eq=False)
class SampledSymbol:
    """A multiplier symbol evaluated once on one grid, ready to apply by FFT.

    hermitian: whether S(-k) = conj S(k) up to a defect of 1e-12 max|S| off
    the Nyquist planes and the zero frequency (real inputs then give real
    outputs). values: for a Hermitian symbol only the rfftn half of its
    Hermitian part (S(k) + conj S(-k)) / 2, the last axis cut to m/2 + 1, in
    the symbol's dtype; for any other, the symbol at every frequency.
    """

    spec: GridSpec
    values: np.ndarray
    hermitian: bool


def sample_symbol(spec: GridSpec, symbol: Callable[[tuple[np.ndarray, ...]], np.ndarray]) -> SampledSymbol:
    """Evaluate a symbol on the open grid of the frequencies, check it is
    finite and take its Hermitian part: the build step of
    fourier_multiplier, to be done once per grid. The defect of a bin equals
    that of its negative, so the half holds it."""
    S = np.asarray(symbol(spec.frequencies()))
    S = np.broadcast_to(S, spec.shape)
    bad = ~np.isfinite(S)
    if bad.any():
        k = np.argwhere(bad)[0]
        raise NumericalError(f"singular symbol at frequency {tuple(int(i) for i in k)}")
    m = spec.points_per_axis
    idx = _negation_index(m)
    half = slice(0, m // 2 + 1)
    S_half = S[..., half]
    S_neg = S[idx[half]] if spec.dim == 1 else S[np.ix_(idx, idx[half])]
    H = 0.5 * (S_half + np.conj(S_neg))
    # on a Nyquist plane +-pi/h alias, so negation mod m is not the
    # frequency's negation there; those bins and the zero frequency take
    # their Hermitian part without counting in the defect
    skip = np.zeros(H.shape, dtype=bool)
    skip[..., m // 2] = skip[m // 2] = skip[(0,) * spec.dim] = True
    defect = np.max(np.abs((S_half - H)[~skip]), initial=0.0)
    if defect <= 1e-12 * max(float(np.max(np.abs(S))), 1e-300):
        return SampledSymbol(spec, H, True)
    return SampledSymbol(spec, S, False)


def _real_multiplier(x: np.ndarray, half: np.ndarray, spec: GridSpec) -> np.ndarray:
    """irfftn(half * rfftn(x)) for real x, the transforms in place on one
    half spectrum: np.fft.irfftn's calls, with out given to the complex
    inverse of the leading axis, so the bits are those of that expression."""
    axes = tuple(range(spec.dim))
    F = np.fft.rfftn(x, axes=axes, out=np.empty(half.shape, np.complex128))
    np.multiply(half, F, out=F)
    if spec.dim == 2:
        np.fft.ifft(F, axis=0, out=F)
    return np.fft.irfft(F, spec.points_per_axis, axis=-1)


def fourier_multiplier(f: GridFunction, symbol: SampledSymbol) -> GridFunction:
    """Apply a Fourier multiplier at the discrete frequencies 2*pi*k/(2L).

    symbol comes from sample_symbol(f.spec, ...), so that an operator
    applied many times builds it once. A Hermitian symbol acts by its
    Hermitian part on the real FFT and takes real f only: it gives
    irfftn(half * rfftn(f)), real, and a complex f raises ValueError (no run
    applies a Hermitian multiplier to one). On the self-paired Nyquist bins
    the Hermitian part is the real part, the usual spectral convention for
    odd symbols such as derivatives. Any other symbol multiplies fftn(f) in
    full, for real or complex f, and returns a complex output.
    """
    spec = f.spec
    if symbol.spec != spec:
        raise ValueError("grid mismatch")
    # the operand order of S * F is fixed: a complex product's last bits
    # depend on it, and for S * fftn(...) written as one expression NumPy
    # swaps the operands once the temporary spectrum reaches 256 KiB
    if not symbol.hermitian:
        F = np.fft.fftn(f.samples)
        np.multiply(symbol.values, F, out=F)
        return GridFunction(spec, np.fft.ifftn(F, out=F))
    if not f.is_real:
        raise ValueError("a Hermitian multiplier takes a real function")
    return GridFunction(spec, _real_multiplier(f.samples, symbol.values, spec))


# normal samples in flight in ball_smooth_fields across the pool (1 MiB of
# float64)
NOISE_BATCH_SAMPLES = 2**17

# the most multiply-adds m n k of one dgemm that OpenBLAS runs on the
# calling thread (65536 times its default GEMM_MULTITHREAD_THRESHOLD of 4);
# above it OpenBLAS may hand the product to threads of its own
BLAS_SERIAL_MADDS = 2**18


def _serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out, where each call to BLAS has at most BLAS_SERIAL_MADDS
    multiply-adds if one column of b allows it: one call if the whole product
    does, otherwise blocks of b's columns of the largest power-of-two width
    that does. With OpenBLAS 0.3.31's Haswell kernels, blocks of 8, 16, 32,
    ... columns give every entry the bits of one call, and blocks of 1, 2, 4,
    12 or 33 columns do not."""
    per_col = a.shape[-2] * a.shape[-1]
    cols = max(b.shape[-1], 1)
    if cols * per_col > BLAS_SERIAL_MADDS:
        cols = 1 << max((BLAS_SERIAL_MADDS // per_col).bit_length() - 1, 0)
    for c in range(0, b.shape[-1], cols):
        np.matmul(a, b[..., c:c + cols], out=out[..., c:c + cols])
    return out


def ball_smooth_fields(spec: GridSpec, ball: Ball, ell: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """count random fields on the ball's samples, as the columns of an
    (npts, count) array, each column contiguous: white noise on the grid (one
    standard normal per sample, in row-major order) smoothed by the periodic
    Gaussian of correlation length ell, cut to the ball. Every random field
    of the lab (atoms, E1's random profile, E5's instances and dual-norm test
    functions) lives on a ball and is drawn here, max(1, NOISE_BATCH_SAMPLES
    // (WORKERS m^dim)) fields at a time, so that one call per worker of the
    pool holds at most NOISE_BATCH_SAMPLES normals in all.

    The periodic filter multiplies each frequency by g = exp(-ell^2 xi^2 / 2),
    and none of its work goes to BLAS's own threads, which would spin beside
    the pool's workers (E5 runs its instances there):
    - 1D: each batch takes rfft, is multiplied by the half of g and is
      inverted in place into its normals, then cut to the ball;
    - 2D: the filter is separable, so a field is C N C^T, C the circulant of
      a = ifft(g). Only the rows of C at the ball's slab indices are formed,
      and each product with them runs in column blocks that OpenBLAS keeps
      on the calling thread. Such blocks would be too thin in 1D.
    """
    slab = ball.box(spec)
    idx, inside = slab.idx, slab.inside
    out = np.empty((count, slab.count))
    if count == 0:
        return out.T
    m = spec.points_per_axis
    xi = 2.0 * np.pi * np.fft.fftfreq(m, d=spec.spacing)
    g = np.exp(-(ell**2) * xi**2 / 2.0)
    batch = max(1, NOISE_BATCH_SAMPLES // (pool.WORKERS * spec.num_samples))
    if spec.dim == 1:
        half, cut = g[:m // 2 + 1], idx[0][inside]  # xi^2 is even: g's first half is rfft's
        for start in range(0, count, batch):
            noise = rng.standard_normal((min(batch, count - start), m))
            F = np.fft.rfft(noise)
            out[start:start + len(noise)] = np.fft.irfft(np.multiply(F, half, out=F), m, out=noise)[:, cut]
        return out.T
    a = np.fft.ifft(g).real
    # window s of the doubled reversed kernel is a[(m - 1 - s - j) mod m],
    # so row x of C, a[(x - j) mod m], is window m - 1 - x
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(a[::-1], 2), m)
    rows = [windows[m - 1 - i] for i in idx]
    for start in range(0, count, batch):
        k = min(batch, count - start)
        noise = rng.standard_normal((k,) + spec.shape)
        left = _serial_matmul(rows[0], noise, np.empty((k, len(rows[0]), m)))
        out[start:start + k] = _serial_matmul(left, rows[1].T, np.empty((k, len(rows[0]), len(rows[1]))))[:, inside]
    return out.T


def dilate(phi, t: float, spec: GridSpec) -> GridFunction:
    """Samples of the L1-normalized dilation t^{-dim} phi(x/t) of a mollifier
    phi (a MollifierSpec: its radial form phi.radial and compact_support),
    sampled by phi.radial at sq_distance of the scaled axes' open grid: bit
    for bit t^{-dim} phi(x / t) at every point x. Without compact support the
    values are scaled in place, so no other grid-sized array is built. With
    it the samples within K = ceil(t/h) of the origin come from dilate_box;
    off them |x/t|^2 >= 1, so the +0.0 left there is the full evaluation's,
    bit for bit."""
    if t < 2 * spec.spacing:
        raise NumericalError("scale below grid resolution")
    if phi.compact_support:
        # the grid before the box's temporaries: with glibc's malloc the
        # other order raised the 2D E2 config's peak RSS by about 0.5 MB
        out = np.zeros(spec.shape)
        reach = math.ceil(t / spec.spacing)
        box, first = dilate_box(phi, t, spec, reach)
        lo = spec.points_per_axis // 2 - reach + first
        out[(slice(lo, lo + len(box)),) * spec.dim] = box
        return GridFunction(spec, out)
    ax = spec.axis() / t
    vals = phi.radial(np.sqrt(sq_distance(np.ix_(*[ax] * spec.dim))))
    return GridFunction(spec, np.multiply(t ** (-spec.dim), vals, out=vals))


def dilate_box(phi, t: float, spec: GridSpec, reach: int) -> tuple[np.ndarray, int]:
    """dilate(phi, t, spec)'s samples at the offsets -reach ... reach from
    the origin that lie on the grid, for a phi with compact_support and
    reach >= t/h, with no full-grid array: the same radial expression on
    that box alone, so the same bits (+0.0 off the support). Also returns
    the window index of the first of them when the offset k sits at index
    k + reach, the placement of the window layer."""
    if t < 2 * spec.spacing:
        raise NumericalError("scale below grid resolution")
    m, half = spec.points_per_axis, spec.points_per_axis // 2
    lo, hi = max(half - reach, 0), min(half + reach + 1, m)
    ax = spec.axis()[lo:hi] / t
    box = t ** (-spec.dim) * phi.radial(np.sqrt(sq_distance(np.ix_(*[ax] * spec.dim))))
    return box, lo - half + reach
