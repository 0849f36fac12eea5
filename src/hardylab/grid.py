"""Uniform periodic grids on centered boxes and the basic calculus on them.

Functions live on the box [-L, L)^dim sampled at x_i = -L + i*h per axis
(h = 2L/m, m a power of two), so 0 is always a sample point and negation
maps the grid to itself. Quadrature is the rectangle rule h^dim * sum,
which for these periodic grids is the midpoint rule up to an index shift
and is exact enough (O(h^2)) for the indicator-like and smooth integrands
used throughout.

All operations here are pure: they never mutate their inputs, apart from
the scratch, output and window arrays handed to padded_spectrum,
abs_convolve_spectra and window_convolve, and are safe to share across threads.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.fft  # noqa: F401  (NumPy loads it lazily; load it with the package)

from .errors import NumericalError

MAX_TOTAL_SAMPLES = 2**24

_MAGIC = b"HLGRDFN1"
_HEADER = struct.Struct("<IQdB")


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
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
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

    def points(self) -> np.ndarray:
        """All sample points, shape (dim,) + shape."""
        return np.stack(np.meshgrid(*[self.axis()] * self.dim, indexing="ij"))

    def frequencies(self) -> np.ndarray:
        """Discrete frequencies 2*pi*k/(2L) per axis, shape (dim,) + shape."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return np.stack(np.meshgrid(*[xi] * self.dim, indexing="ij"))

    def index_of(self, x) -> tuple[int, ...]:
        """Grid index of the sample nearest to x, per axis modulo m."""
        m, h, L = self.points_per_axis, self.spacing, self.half_width
        return tuple(int(round((c + L) / h)) % m for c in x)


def sq_distance(pts: np.ndarray, center) -> np.ndarray:
    """|x - center|^2 at every point of pts, shape (dim,) + grid."""
    d2 = np.zeros(pts.shape[1:])
    for i in range(pts.shape[0]):
        d2 += (pts[i] - center[i]) ** 2
    return d2


def axes_sq_distance(axes, center) -> np.ndarray:
    """|x - center|^2 on the product of the given per-axis coordinates, by
    broadcasting instead of a meshgrid. The terms are summed in the order
    sq_distance sums them, so the two agree bit for bit."""
    d2 = np.zeros(())
    for i, (ax, c) in enumerate(zip(axes, center)):
        shape = [1] * len(axes)
        shape[i] = -1
        d2 = d2 + ((ax - c) ** 2).reshape(shape)
    return d2


@dataclass(frozen=True, eq=False)
class BallSlab:
    """The samples of a ball on a grid: idx, the per-axis indices of its
    bounding slab, inside, the membership mask on that slab, and sq_dist,
    the squared distances to the centre on that slab. Unpacks as
    `idx, inside`.

    The slab indices ascend on every axis, so a row-major walk over the
    slab's members meets them in the order of a row-major walk over the
    full grid: gather equals samples[ball.mask(spec)] bit for bit.
    """

    spec: GridSpec
    idx: tuple[np.ndarray, ...]
    inside: np.ndarray
    sq_dist: np.ndarray

    def __iter__(self):
        return iter((self.idx, self.inside))

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
        holds every sample of the ball. On the slab the terms are summed as
        sq_distance sums them, so the membership equals
        sq_distance(spec.points(), center) < r^2 bit for bit.
        """
        if spec.dim != self.dim:
            raise ValueError("ball/grid dimension mismatch")
        # compare squares: sqrt(d2) < r would flip points on the boundary
        r2 = self.radius**2
        ax = spec.axis()
        idx = tuple(np.flatnonzero((ax - c) ** 2 < r2) for c in self.center)
        d2 = axes_sq_distance([ax[i] for i in idx], self.center)
        return BallSlab(spec, idx, d2 < r2, d2)

    def mask(self, spec: GridSpec) -> np.ndarray:
        """Membership of every sample of the grid."""
        return self.box(spec).scatter(True)

    def fits_in(self, spec: GridSpec) -> bool:
        return all(
            abs(c) + self.radius <= spec.half_width for c in self.center
        )


class GridFunction:
    """A sampled function on a GridSpec. Samples are float64 or complex128.

    The sample array has shape (m,)*dim; flattening it row-major gives the
    lexicographic order used by the binary container.
    """

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

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.samples.copy())

    def _check_compatible(self, other: "GridFunction"):
        if other.spec != self.spec:
            raise ValueError("grid mismatch")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.spec, self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.spec, self.samples - other.samples)

    def __mul__(self, other) -> "GridFunction":
        if isinstance(other, GridFunction):
            self._check_compatible(other)
            return GridFunction(self.spec, self.samples * other.samples)
        return GridFunction(self.spec, self.samples * other)

    __rmul__ = __mul__

    def abs(self) -> "GridFunction":
        return GridFunction(self.spec, np.abs(self.samples))

    def conj(self) -> "GridFunction":
        return GridFunction(self.spec, np.conj(self.samples))


def sample_function(spec: GridSpec, fn: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """Sample a closed-form function; fn takes points of shape (dim,)+grid."""
    vals = np.asarray(fn(spec.points()))
    return GridFunction(spec, np.broadcast_to(vals, spec.shape).copy())


def integrate(f: GridFunction):
    """Rectangle-rule integral h^dim * sum of samples."""
    val = f.samples.sum() * f.spec.cell_volume
    if f.is_real:
        return float(val)
    return complex(val)


def inner(f: GridFunction, g: GridFunction):
    """L2 inner product <f, g> = integral of f * conj(g)."""
    f._check_compatible(g)
    val = np.vdot(g.samples, f.samples) * f.spec.cell_volume
    if f.is_real and g.is_real:
        return float(val.real)
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


# rows of the padded product that the 2D inverse transforms at a time, and
# of padded real rows that the 2D real forward transforms at a time: a
# constant, so that a convolution always takes the same number of transforms
TILE_ROWS = 64


def spectrum_shape(spec: GridSpec, real: bool = False) -> tuple[int, ...]:
    """Shape of a padded_spectrum: (2m)^dim, or with real the half spectrum
    of rfftn, whose last axis keeps the m + 1 nonnegative frequencies."""
    n = 2 * spec.points_per_axis
    return (n,) * (spec.dim - 1) + (n // 2 + 1 if real else n,)


def padded_spectrum(f: GridFunction, real: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """FFT of f zero-padded to twice the side, the operand of convolve_spectra
    and abs_convolve_spectra. With out, a contiguous complex array of
    spectrum_shape(spec, real) such as one row of a stack of spectra, the
    spectrum is written there; no other spectrum-sized array is built.

    By default the complex layer: fftn of the padded copy. In 2D no padded
    copy is built: each run of rows of f that hold a nonzero sample is
    written at its embedding rows of the complex spectrum and transformed
    there along the last axis, in place; the axis-0 FFT then runs in place.
    fftn takes the same transforms in the same axis order (casting real rows
    to complex first), and a zero row transforms to +0.0, so the result
    equals fftn of the padded copy bit for bit.

    With real, for real f only, the real layer: rfftn of the padded copy,
    of spectrum_shape(spec, real=True). In 2D the nonzero rows are padded
    TILE_ROWS at a time in one real tile and rfft'd into their rows of the
    half spectrum, the remaining rows hold the transform of a zero row, and
    the axis-0 FFT runs in place on the m + 1 columns: rfftn's transforms in
    rfftn's order, so again equal bit for bit.
    """
    spec = f.spec
    m = spec.points_per_axis
    off = m // 2
    if real and not f.is_real:
        raise ValueError("the real layer needs real samples")
    if spec.dim == 1:
        F = np.zeros(2 * m, dtype=np.float64 if f.is_real else np.complex128)
        F[off:off + m] = f.samples
        return np.fft.rfft(F, out=out) if real else np.fft.fftn(F, out=out)
    F = np.empty(spectrum_shape(spec, real), dtype=np.complex128) if out is None else out
    if real:
        # rfft leaves -0.0 at some frequencies of a zero row: copy its
        # transform into every row, then overwrite the nonzero ones
        F[:] = np.fft.rfft(np.zeros(2 * m))
        tile = np.zeros((min(TILE_ROWS, m), 2 * m))
    else:
        F[:] = 0.0
    edges = np.flatnonzero(np.diff(f.samples.any(axis=1), prepend=False, append=False))
    for lo, hi in zip(edges[::2], edges[1::2]):  # the runs of nonzero rows
        if real:
            for r in range(lo, hi, len(tile)):
                k = min(len(tile), hi - r)
                tile[:k, off:off + m] = f.samples[r:r + k]
                np.fft.rfft(tile[:k], axis=-1, out=F[off + r:off + r + k])
        else:
            rows = F[off + lo:off + hi]
            rows[:, off:off + m] = f.samples[lo:hi]
            np.fft.fft(rows, axis=-1, out=rows)
    return np.fft.fft(F, axis=0, out=F)


def spectral_scratch(spec: GridSpec, real: bool = False, stack: int | None = None) -> tuple[np.ndarray, ...]:
    """Scratch for abs_convolve_spectra, reusable from call to call. In the
    complex layer: in 1D the padded product; in 2D the (2m x m) half that
    the axis-0 inverse runs on and one tile of rows. In the real layer: the
    product of the half spectra and the real output of irfft: in 1D the
    padded row, in 2D a tile of rows. With stack, every array has a leading
    axis of that length: the scratch of a stack of that many spectra."""
    m = spec.points_per_axis
    lead = () if stack is None else (stack,)
    if real:
        return (np.empty(lead + spectrum_shape(spec, real=True), dtype=np.complex128),
                np.empty(lead + (min(TILE_ROWS, m // 2),) * (spec.dim - 1) + (2 * m,)))
    if spec.dim == 1:
        return (np.empty(lead + (2 * m,), dtype=np.complex128),)
    return (np.empty(lead + (2 * m, m), dtype=np.complex128),
            np.empty(lead + (min(TILE_ROWS, 2 * m), 2 * m), dtype=np.complex128))


def abs_convolve_output(spec: GridSpec, scratch: tuple[np.ndarray, ...]) -> np.ndarray:
    """An out for abs_convolve_spectra with this spectral_scratch, stacked
    alike. In the real layer it is a view of the scratch's product, of the
    rows the inverse reads no more by the time it writes out (in 1D all of
    them, in 2D the middle m), so that the layer needs no array of its own
    for |f * g|; in the complex layer it is a new array."""
    prod = scratch[0]
    if not _is_half(prod, spec):
        return np.empty(prod.shape[:-spec.dim] + spec.shape)
    half = spec.points_per_axis // 2
    return prod[_along_axis0(slice(half, 3 * half), spec.dim)].view(np.float64)[..., :spec.points_per_axis]


def _along_axis0(rows: slice, dim: int) -> tuple:
    # the index of rows along the first grid axis, after any stack axis
    return (Ellipsis, rows) + (slice(None),) * (dim - 1)


def _is_half(F: np.ndarray, spec: GridSpec) -> bool:
    # a half spectrum of the real layer keeps m + 1 entries on its last axis
    return F.shape[-1] == spec.points_per_axis + 1


def _convolution_window(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec,
                        scratch: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    # the first and the second half along axis 0 of the samples of f * g,
    # two views of scratch; Ff may be a stack of spectra along a leading axis
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
            np.multiply(Ff[..., rows, :], Fg[rows], out=tile)
            np.fft.ifft(tile, axis=-1, out=tile)
            buf[..., rows, :m // 2] = tile[..., first]
            buf[..., rows, m // 2:] = tile[..., second]
        np.fft.ifft(buf, axis=-2, out=buf)
    parts = buf[_along_axis0(first, spec.dim)], buf[_along_axis0(second, spec.dim)]
    for part in parts:
        part *= spec.cell_volume
    return parts


def _real_convolution_window(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec,
                             scratch: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    # the samples of f * g from two half spectra, written into out: the
    # axis-0 inverse on the (2m x m + 1) product, then irfft on its m window
    # rows alone, a tile of rows at a time, scaled by h^dim; Ff and out may
    # be stacks along a leading axis
    m, half = spec.points_per_axis, spec.points_per_axis // 2
    prod, rows = scratch
    np.multiply(Ff, Fg, out=prod)
    if spec.dim == 1:
        blocks = [(prod, out)]
    else:  # the window rows of the product, a tile at a time
        np.fft.ifft(prod, axis=-2, out=prod)
        n = rows.shape[-2]  # divides m/2: both are powers of two
        blocks = [(prod[..., src + r:src + r + n, :], out[..., dst + r:dst + r + n, :])
                  for src, dst in ((3 * half, 0), (0, half)) for r in range(0, half, n)]
    for spectrum, target in blocks:
        np.fft.irfft(spectrum, 2 * m, axis=-1, out=rows)
        np.multiply(rows[..., 3 * half:], spec.cell_volume, out=target[..., :half])
        np.multiply(rows[..., :half], spec.cell_volume, out=target[..., half:])
    return out


def convolve_spectra(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Samples of f * g (h^dim scaling) from two padded spectra of one layer:
    complex samples from complex spectra, real ones from half spectra.

    Circular convolution of arrays anchored at -2L returns the true
    convolution shifted by half the padded period, so the window is the
    indices (i - m) mod 2m: the last m/2 of the 2m, then the first m/2. The
    inverse FFT runs along the last axis first, as ifftn does. In 2D it runs
    on TILE_ROWS rows of the product at a time, only the m window columns of
    each tile are kept, and the axis-0 pass covers those columns alone, so
    no (2m)^2 array is built. The result equals ifftn of Ff * Fg, windowed
    and scaled, bit for bit; for half spectra, irfftn's (see
    abs_convolve_spectra).
    """
    if _is_half(Ff, spec):
        return _real_convolution_window(Ff, Fg, spec, spectral_scratch(spec, True), np.empty(spec.shape))
    return np.concatenate(_convolution_window(Ff, Fg, spec, spectral_scratch(spec)))


def abs_convolve_spectra(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec,
                         scratch: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """|f * g| written into out, with no array allocated, from two padded
    spectra of one layer: scratch is the spectral_scratch of that layer.
    Both layers scale by h^dim before the modulus. Ff may be a stack of
    spectra along a leading axis, with out and scratch stacked alike: each
    row of out then equals its one-row call bit for bit, because every
    transform runs row by row with the plan of a one-row call and the
    products, scaling and modulus act on each element alone.

    Complex spectra give np.abs(convolve_spectra(Ff, Fg, spec)) bit for bit.
    Half spectra (padded_spectrum with real) give np.abs of irfftn of
    Ff * Fg, windowed and scaled, bit for bit: irfftn's transforms in its
    order, the axis-0 inverse on the (2m x m + 1) product, then irfft on its
    m window rows alone, a tile of rows at a time.
    """
    if _is_half(Ff, spec):
        return np.abs(_real_convolution_window(Ff, Fg, spec, scratch, out), out=out)
    half = spec.points_per_axis // 2
    first, second = _convolution_window(Ff, Fg, spec, scratch)
    np.abs(first, out=out[_along_axis0(slice(None, half), spec.dim)])
    np.abs(second, out=out[_along_axis0(slice(half, None), spec.dim)])
    return out


def convolve(f: GridFunction, g: GridFunction, g_spectrum: np.ndarray | None = None) -> GridFunction:
    """Convolution f * g with h^dim scaling, FFT on a grid padded to twice the side.

    The padding guarantees that no periodic wrap-around contaminates the
    result as long as supp f + supp g fits inside [-2L, 2L)^dim. Real f and
    g take the real layer and give real samples; otherwise the complex
    layer. A caller that convolves with the same g many times passes
    g_spectrum, its padded_spectrum in that layer
    (padded_spectrum(g, f.is_real and g.is_real)), so that it is taken once.
    """
    f._check_compatible(g)
    real = f.is_real and g.is_real
    if g_spectrum is None:
        g_spectrum = padded_spectrum(g, real)
    return GridFunction(f.spec, convolve_spectra(padded_spectrum(f, real), g_spectrum, f.spec))


@functools.lru_cache(maxsize=1024)  # the window path asks once per (function, scale)
def window_side(need: int) -> int:
    """The least 2^i 3^j >= need, a fast FFT size. The window layer convolves
    a function whose nonzero samples fit in b per axis, at the start of a
    zero window, with a kernel within K samples of the origin: on a side
    >= b + 2K + 1 its circular convolution holds the linear one on the box
    widened by K, shifted by K, with no wrap-around."""
    powers = range(need.bit_length() + 1)
    return min(2**a * 3**b for a in powers for b in powers if 2**a * 3**b >= need)


def kernel_spectrum(g: GridFunction, reach: int, n: int) -> np.ndarray:
    """np.fft.rfftn of the window of side n > 2 reach that holds the samples
    of g at most reach samples from the origin, the one at offset k at index
    k + reach, and 0 elsewhere."""
    m, half, dim = g.spec.points_per_axis, g.spec.points_per_axis // 2, g.spec.dim
    lo, hi = max(half - reach, 0), min(half + reach + 1, m)
    window = np.zeros((n,) * dim)
    window[(slice(lo - half + reach, hi - half + reach),) * dim] = g.samples[(slice(lo, hi),) * dim]
    return np.fft.rfftn(window)


def window_convolve(windows: np.ndarray, Fk: np.ndarray, spec: GridSpec) -> np.ndarray:
    """h^dim times the circular convolution of each real window, stacked
    along a leading axis, with the kernel of kernel_spectrum Fk, written
    back into windows: np.fft.rfftn, the product, np.fft.irfftn, each along
    the last dim axes and so row by row, bit for bit the one-row call."""
    axes = tuple(range(-spec.dim, 0))
    F = np.fft.rfftn(windows, axes=axes)
    np.fft.irfftn(np.multiply(F, Fk, out=F), windows.shape[-spec.dim:], axes=axes, out=windows)
    return np.multiply(windows, spec.cell_volume, out=windows)


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


def sample_symbol(spec: GridSpec, symbol: Callable[[np.ndarray], np.ndarray]) -> SampledSymbol:
    """Evaluate a symbol, check it is finite and take its Hermitian part:
    the build step of fourier_multiplier, to be done once per grid. The
    defect of a bin equals that of its negative, so the half holds it."""
    S = np.asarray(symbol(spec.frequencies()))
    S = np.broadcast_to(S, spec.shape)
    bad = ~np.isfinite(S)
    if np.iscomplexobj(S):
        bad = ~(np.isfinite(S.real) & np.isfinite(S.imag))
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


def fourier_multiplier(f: GridFunction,
                       symbol: Callable[[np.ndarray], np.ndarray] | SampledSymbol) -> GridFunction:
    """Apply a Fourier multiplier at the discrete frequencies 2*pi*k/(2L).

    symbol is a callable on frequencies of shape (dim,) + grid, sampled here,
    or a SampledSymbol from sample_symbol(f.spec, ...), so that an operator
    applied many times builds its symbol once. A Hermitian symbol acts by
    its Hermitian part on the real FFT: a real input gives
    irfftn(half * rfftn(f)), real, and a complex one runs as Re f and Im f
    through that path, recombined. On the self-paired Nyquist bins the
    Hermitian part is the real part, the usual spectral convention for odd
    symbols such as derivatives. Any other symbol multiplies fftn(f) in
    full and returns a complex output.
    """
    spec = f.spec
    if not isinstance(symbol, SampledSymbol):
        symbol = sample_symbol(spec, symbol)
    elif symbol.spec != spec:
        raise ValueError("grid mismatch")
    # the operand order of S * F is fixed: a complex product's last bits
    # depend on it, and for S * fftn(...) written as one expression NumPy
    # swaps the operands once the temporary spectrum reaches 256 KiB
    if not symbol.hermitian:
        F = np.fft.fftn(f.samples)
        np.multiply(symbol.values, F, out=F)
        return GridFunction(spec, np.fft.ifftn(F, out=F))
    if f.is_real:
        return GridFunction(spec, _real_multiplier(f.samples, symbol.values, spec))
    out = np.empty(spec.shape, np.complex128)
    out.real = _real_multiplier(f.samples.real, symbol.values, spec)
    out.imag = _real_multiplier(f.samples.imag, symbol.values, spec)
    return GridFunction(spec, out)


def random_smooth_field(spec: GridSpec, ell: float, rng: np.random.Generator) -> np.ndarray:
    """White noise smoothed by a Gaussian of correlation length ell."""
    noise = rng.standard_normal(spec.shape)
    xi2 = np.sum(spec.frequencies() ** 2, axis=0)
    return np.fft.ifftn(np.exp(-(ell**2) * xi2 / 2.0) * np.fft.fftn(noise)).real


# normal samples drawn per batch by ball_smooth_fields (1 MiB of float64)
NOISE_BATCH_SAMPLES = 2**17


def ball_smooth_fields(spec: GridSpec, ball: Ball, ell: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """count draws of random_smooth_field(spec, ell, rng)[ball.mask(spec)] as
    the columns of an (npts, count) array, each column contiguous, taking the
    same normals from rng.

    The periodic Gaussian filter is separable, so a field is C N C^T (C N in
    1D), C the circulant of a = ifft(exp(-ell^2 xi^2 / 2)). Only the rows of
    C at the ball's slab indices are formed, and they are applied by matmul
    to batches of normals; the result equals the FFT route up to round-off
    (about 1e-15 relative), not bit for bit. That makes this a second noise
    path on purpose: atoms and the E1/E5 instance fields keep
    random_smooth_field, because moving the atoms' draws moved E2 p < 1
    norms by 5e-9 relative through far-field FFT round-off, which the
    reference outputs record. Only the order-1 (p = 1) grand maximal
    function is cut to its support; the two paths become one once the p < 1
    dictionaries are cut too and those references are remade.
    """
    slab = ball.box(spec)
    idx, inside = slab
    out = np.empty((count, slab.count))
    if count == 0:
        return out.T
    m = spec.points_per_axis
    xi = 2.0 * np.pi * np.fft.fftfreq(m, d=spec.spacing)
    a = np.fft.ifft(np.exp(-(ell**2) * xi**2 / 2.0)).real
    # window s of the doubled reversed kernel is a[(m - 1 - s - j) mod m],
    # so row x of C, a[(x - j) mod m], is window m - 1 - x
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(a[::-1], 2), m)
    rows = [windows[m - 1 - i] for i in idx]
    batch = max(1, NOISE_BATCH_SAMPLES // spec.num_samples)
    for start in range(0, count, batch):
        k = min(batch, count - start)
        noise = rng.standard_normal((k,) + spec.shape)
        if spec.dim == 1:
            out[start:start + k] = (noise @ rows[0].T)[:, inside]
        else:
            out[start:start + k] = (rows[0] @ noise @ rows[1].T)[:, inside]
    return out.T


def dilate(phi: Callable[[np.ndarray], np.ndarray], t: float, spec: GridSpec) -> GridFunction:
    """Samples of the L1-normalized dilation t^{-dim} phi(x/t), with the
    closed form phi (a callable on points of shape (dim,)+grid) evaluated at
    the scaled points. A phi with compact_support (a MollifierSpec) is
    sampled by its radial form at axes_sq_distance only on the box where
    (x/t)^2 < 1 per axis, widened by one sample; off it |x/t|^2 >= 1, so the
    +0.0 left there is the full evaluation's, bit for bit."""
    if t < 2 * spec.spacing:
        raise NumericalError("scale below grid resolution")
    scale = t ** (-spec.dim)
    if getattr(phi, "compact_support", False):
        ax = spec.axis() / t
        hit = np.flatnonzero(ax**2 < 1.0)
        box = (slice(max(hit[0] - 1, 0), min(hit[-1] + 2, spec.points_per_axis)),) * spec.dim
        out = np.zeros(spec.shape)
        out[box] = scale * phi.radial(np.sqrt(axes_sq_distance([ax[b] for b in box], (0.0,) * spec.dim)))
        return GridFunction(spec, out)
    return GridFunction(spec, scale * np.broadcast_to(np.asarray(phi(spec.points() / t)), spec.shape).copy())


def load_gridfunction(path) -> GridFunction:
    """Read the flat binary container: magic, a little-endian (dim, m, L,
    complex flag) header, then the samples as <f8 (flag 0) or <c16 (flag 1)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not a grid-function container")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated grid-function header")
        dim, m, L, flag = _HEADER.unpack(header)
        if flag not in (0, 1):
            raise ValueError(f"bad complex flag {flag} in grid-function header")
        spec = GridSpec(dim, L, int(m))
        data = np.frombuffer(fh.read(), dtype="<c16" if flag else "<f8")
    if data.size != spec.num_samples:
        raise ValueError("payload size does not match header")
    return GridFunction(spec, data.reshape(spec.shape).copy())

