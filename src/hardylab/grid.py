"""Uniform periodic grids on centered boxes and the basic calculus on them.

Functions live on the box [-L, L)^dim sampled at x_i = -L + i*h per axis
(h = 2L/m, m a power of two), so 0 is always a sample point and negation
maps the grid to itself. Quadrature is the rectangle rule h^dim * sum,
which for these periodic grids is the midpoint rule up to an index shift
and is exact enough (O(h^2)) for the indicator-like and smooth integrands
used throughout.

All operations here are pure: they never mutate their inputs and are safe
to share across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy import ndimage

from .errors import NumericalError

MAX_TOTAL_SAMPLES = 2**24

_MAGIC = b"HLGRDFN1"


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
        ax = self.axis()
        if self.dim == 1:
            return ax[None, :]
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([X, Y])

    def frequencies(self) -> np.ndarray:
        """Discrete frequencies 2*pi*k/(2L) per axis, shape (dim,) + shape."""
        m = self.points_per_axis
        xi = 2.0 * np.pi * np.fft.fftfreq(m, d=self.spacing)
        if self.dim == 1:
            return xi[None, :]
        K1, K2 = np.meshgrid(xi, xi, indexing="ij")
        return np.stack([K1, K2])


def sq_distance(pts: np.ndarray, center) -> np.ndarray:
    """|x - center|^2 at every point of pts, shape (dim,) + grid."""
    d2 = np.zeros(pts.shape[1:])
    for i in range(pts.shape[0]):
        d2 += (pts[i] - center[i]) ** 2
    return d2


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

    def mask(self, spec: GridSpec) -> np.ndarray:
        if spec.dim != self.dim:
            raise ValueError("ball/grid dimension mismatch")
        # compare squares: sqrt(d2) < r would flip points on the boundary
        return sq_distance(spec.points(), self.center) < self.radius**2

    def fits_in(self, spec: GridSpec) -> bool:
        return all(
            abs(c) + self.radius <= spec.half_width for c in self.center
        )

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.center, self.radius * factor)


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

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.spec, -self.samples)

    def abs(self) -> "GridFunction":
        return GridFunction(self.spec, np.abs(self.samples))

    def conj(self) -> "GridFunction":
        return GridFunction(self.spec, np.conj(self.samples))

    def real(self) -> "GridFunction":
        return GridFunction(self.spec, self.samples.real.copy())


FunctionLike = Union[GridFunction, Callable[[np.ndarray], np.ndarray]]


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


def _region_mask(f: GridFunction, region: Ball | None, complement: bool) -> np.ndarray | None:
    if region is None:
        return None
    mask = region.mask(f.spec)
    if complement:
        mask = ~mask
    if not mask.any():
        raise NumericalError("degenerate region")
    return mask


def _lp_impl(f: GridFunction, s: float, region: Ball | None = None, complement: bool = False) -> float:
    mask = _region_mask(f, region, complement)
    vals = np.abs(f.samples if mask is None else f.samples[mask])
    if np.isinf(s):
        return float(vals.max(initial=0.0))
    return float((np.sum(vals**s) * f.spec.cell_volume) ** (1.0 / s))


def lp_norm(f: GridFunction, s: float, region: Ball | None = None, complement: bool = False) -> float:
    """L^s norm over the grid, a ball, or a ball complement. Requires s >= 1 or inf."""
    if not (np.isinf(s) or s >= 1):
        raise ValueError(f"lp_norm requires s >= 1 or s = inf, got {s}")
    return _lp_impl(f, s, region, complement)


def restrict(f: GridFunction, ball: Ball, inside: bool = True) -> GridFunction:
    """Zero f outside (inside=True) or inside (inside=False) the ball."""
    if not ball.fits_in(f.spec):
        raise ValueError("ball not contained in the grid domain")
    mask = ball.mask(f.spec)
    out = f.samples.copy()
    out[~mask if inside else mask] = 0
    return GridFunction(f.spec, out)


def _embedding(spec: GridSpec):
    m = spec.points_per_axis
    off = m // 2
    return (2 * m,) * spec.dim, tuple(slice(off, off + m) for _ in range(spec.dim))


def padded_spectrum(f: GridFunction) -> np.ndarray:
    """FFT of f zero-padded to twice the side, the operand of convolve_spectra."""
    big, emb = _embedding(f.spec)
    F = np.zeros(big, dtype=np.complex128 if not f.is_real else np.float64)
    F[emb] = f.samples
    return np.fft.fftn(F)


def convolve_spectra(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec,
                     buf: np.ndarray | None = None) -> np.ndarray:
    """Complex samples of f * g (h^dim scaling) from two padded spectra.

    buf, a complex scratch array of the padded shape, receives Ff * Fg and is
    overwritten. Circular convolution of arrays anchored at -2L returns the
    true convolution shifted by half the padded period, so the window is
    gathered from the indices (i - m) mod 2m. The inverse FFT runs along the
    last axis first, as ifftn does, and in 2D the axis-0 pass covers only the
    m window columns: the result equals ifftn followed by the window bit for
    bit.
    """
    m = spec.points_per_axis
    buf = np.multiply(Ff, Fg, out=buf)
    np.fft.ifft(buf, axis=-1, out=buf)
    window = (np.arange(m // 2, 3 * m // 2) - m) % (2 * m)
    out = buf[..., window]
    if spec.dim == 2:
        np.fft.ifft(out, axis=0, out=out)
        out = out[window]
    out *= spec.cell_volume
    return out


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Convolution f * g with h^dim scaling, FFT on a grid padded to twice the side.

    The padding guarantees that no periodic wrap-around contaminates the
    result as long as supp f + supp g fits inside [-2L, 2L)^dim.
    """
    f._check_compatible(g)
    out = convolve_spectra(padded_spectrum(f), padded_spectrum(g), f.spec)
    return GridFunction(f.spec, out.real.copy() if f.is_real and g.is_real else out)


def _negation_index(m: int) -> np.ndarray:
    return (-np.arange(m)) % m


def reflect(f: GridFunction) -> GridFunction:
    """Samples of x -> f(-x); exact on this grid since negation permutes it."""
    idx = _negation_index(f.spec.points_per_axis)
    out = f.samples[idx] if f.spec.dim == 1 else f.samples[np.ix_(idx, idx)]
    return GridFunction(f.spec, out.copy())


def _symbol_array(spec: GridSpec, symbol: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    S = np.asarray(symbol(spec.frequencies()))
    S = np.broadcast_to(S, spec.shape)
    bad = ~np.isfinite(S)
    if np.iscomplexobj(S):
        bad = ~(np.isfinite(S.real) & np.isfinite(S.imag))
    if bad.any():
        k = np.argwhere(bad)[0]
        raise NumericalError(f"singular symbol at frequency {tuple(int(i) for i in k)}")
    return S


def _hermitian_parts(spec: GridSpec, S: np.ndarray):
    """Return (Hermitian symmetrization of S, defect away from self-paired bins)."""
    m = spec.points_per_axis
    idx = _negation_index(m)
    S_neg = S[idx] if spec.dim == 1 else S[np.ix_(idx, idx)]
    S_sym = 0.5 * (S + np.conj(S_neg))
    ax = np.zeros(m, dtype=bool)
    ax[0] = ax[m // 2] = True  # bins with -k = k mod m
    self_paired = ax if spec.dim == 1 else np.logical_and.outer(ax, ax)
    defect = np.max(np.abs((S - S_sym)[~self_paired]), initial=0.0)
    return S_sym, float(defect)


def fourier_multiplier(f: GridFunction, symbol: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """Apply a Fourier multiplier at the discrete frequencies 2*pi*k/(2L).

    Real input with a Hermitian-symmetric symbol returns a real output; the
    self-paired Nyquist bins are symmetrized (real part) in that case, the
    usual spectral convention for odd symbols such as derivatives.
    """
    spec = f.spec
    S = _symbol_array(spec, symbol)
    if f.is_real:
        S_sym, defect = _hermitian_parts(spec, S)
        if defect <= 1e-12 * max(float(np.max(np.abs(S))), 1e-300):
            out = np.fft.ifftn(S_sym * np.fft.fftn(f.samples)).real
            return GridFunction(spec, out.copy())
    out = np.fft.ifftn(S * np.fft.fftn(f.samples))
    return GridFunction(spec, out.copy())


def random_smooth_field(spec: GridSpec, ell: float, rng: np.random.Generator) -> np.ndarray:
    """White noise smoothed by a Gaussian of correlation length ell."""
    noise = rng.standard_normal(spec.shape)
    xi2 = np.sum(spec.frequencies() ** 2, axis=0)
    return np.fft.ifftn(np.exp(-(ell**2) * xi2 / 2.0) * np.fft.fftn(noise)).real


def dilate(phi: FunctionLike, t: float, spec: GridSpec) -> GridFunction:
    """Samples of the L1-normalized dilation t^{-dim} phi(x/t).

    A closed form (callable on points of shape (dim,)+grid) is re-evaluated
    analytically. A GridFunction input is resampled by periodic linear
    interpolation, which loses accuracy; prefer closed forms.
    """
    if t < 2 * spec.spacing:
        raise NumericalError("scale below grid resolution")
    scale = t ** (-spec.dim)
    if callable(phi):
        return GridFunction(spec, scale * np.broadcast_to(np.asarray(phi(spec.points() / t)), spec.shape).copy())
    if phi.spec.dim != spec.dim:
        raise ValueError("grid mismatch")
    pts = spec.points() / t
    h0, L0 = phi.spec.spacing, phi.spec.half_width
    coords = [(pts[i] + L0) / h0 for i in range(spec.dim)]
    vals = ndimage.map_coordinates(phi.samples, np.array(coords), order=1, mode="grid-wrap")
    return GridFunction(spec, scale * vals)


def save_gridfunction(f: GridFunction, path) -> None:
    """Write the flat binary container: header + little-endian float64 payload."""
    flag = 0 if f.is_real else 1
    header = _MAGIC + struct.pack("<IQdB", f.spec.dim, f.spec.points_per_axis, f.spec.half_width, flag)
    payload = f.samples.ravel().astype("<c16" if flag else "<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_gridfunction(path) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError("not a grid-function container")
        dim, m, L, flag = struct.unpack("<IQdB", fh.read(21))
        spec = GridSpec(dim, L, int(m))
        data = np.frombuffer(fh.read(), dtype="<c16" if flag else "<f8")
    if data.size != spec.num_samples:
        raise ValueError("payload size does not match header")
    return GridFunction(spec, data.reshape(spec.shape).copy())

