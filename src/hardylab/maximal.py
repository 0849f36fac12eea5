"""Small and grand maximal functions with their admissible test families.

The small maximal function m_phi f(x) = sup_{0<t<1} |<f, phi_t(x-.)>| is
computed as a pointwise max of |f * phi_t| over a geometric scale grid with
floor 2h; every reported value is therefore a lower bound for the continuum
sup that is nondecreasing under scale refinement.

The grand maximal function is taken over a finite certified dictionary of
test functions admissible for the family {phi smooth, supp phi in B(x,t),
t < T, ||D^beta phi||_inf <= t^{-n-|beta|}}. The dictionary holds rescaled
copies of a compactly supported mollifier (one per scale) and, optionally,
the explicit moment-probe bumps phi^{x,alpha} used to bound moments of
small-ball functions from below.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import NumericalError
from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    _lp_impl,
    convolve_spectra,
    dilate,
    padded_spectrum,
    sq_distance,
)
from .moments import HardyIndex, MultiIndex, as_multiindex, moment, multiindices, order

# ---------------------------------------------------------------------------
# smooth profiles


def quintic_step(u):
    """C^2 smoothstep: 0 for u<=0, 1 for u>=1, 6u^5-15u^4+10u^3 between."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def cutoff_eta(s):
    """Radial cutoff: 1 on [0, 3/2], quintic descent on [3/2, 2], 0 beyond."""
    return 1.0 - quintic_step(2.0 * (np.asarray(s, dtype=float) - 1.5))


def _radius(pts: np.ndarray, center=None) -> np.ndarray:
    return np.sqrt(sq_distance(pts, (0.0,) * pts.shape[0] if center is None else center))


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
        r = _radius(pts)
        if self.shape == "gaussian":
            return np.pi ** (-self.dim / 2.0) * np.exp(-(r**2))
        return _bump_profile(r) / _bump_normalizer(self.dim)

    @property
    def compact_support(self) -> bool:
        return self.shape == "smooth-bump"

    @property
    def integral(self) -> float:
        return 1.0


# ---------------------------------------------------------------------------
# scale grids and the small maximal function


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

    @property
    def t_min(self) -> float:
        return self.scales[0]

    @property
    def t_max(self) -> float:
        return self.scales[-1]

    @classmethod
    def default(cls, spec: GridSpec, t_max: float, t_min: float | None = None,
                max_ratio: float = 2.0**0.25) -> "ScaleGrid":
        """Geometric ladder from max(t_min, 2h) to t_max with ratio <= 2^(1/4)."""
        lo = max(t_min if t_min is not None else 0.0, 2.0 * spec.spacing)
        if not t_max > lo:
            raise ValueError(f"t_max = {t_max} must exceed the floor {lo}")
        count = max(16, int(math.ceil(math.log(t_max / lo) / math.log(max_ratio))) + 1)
        return cls(tuple(np.geomspace(lo, t_max, count)))


# padded mollifier spectra, least recently used first; one 2D m=4096
# spectrum is 1 GiB, so the cache is bounded in bytes, not in entries
KERNEL_CACHE_BYTES = 512 * 2**20
_kernel_cache: OrderedDict = OrderedDict()
_kernel_cache_lock = threading.Lock()


def _mollifier_kernel_fft(mollifier: MollifierSpec, spec: GridSpec, t: float) -> np.ndarray:
    key = (mollifier, spec, t)
    with _kernel_cache_lock:
        F = _kernel_cache.get(key)
        if F is not None:
            _kernel_cache.move_to_end(key)
            return F
    F = padded_spectrum(dilate(mollifier, t, spec))
    F.flags.writeable = False
    if F.nbytes <= KERNEL_CACHE_BYTES:
        with _kernel_cache_lock:
            _kernel_cache[key] = F
            cached = sum(a.nbytes for a in _kernel_cache.values())
            while cached > KERNEL_CACHE_BYTES:
                cached -= _kernel_cache.popitem(last=False)[1].nbytes
    return F


_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = ThreadPoolExecutor(_WORKERS)


def _reset_pool():
    # a forked child inherits the executor but none of its threads
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _max_abs_chunk(Ff: np.ndarray, kernels: list, spec: GridSpec, buf: np.ndarray) -> np.ndarray:
    out = np.zeros(spec.shape)
    for Fk, amplitude in kernels:
        vals = np.abs(convolve_spectra(Ff, Fk, spec, buf))
        vals *= amplitude
        np.maximum(out, vals, out=out)
    return out


def _max_abs_convolutions(Ff: np.ndarray, kernels: list, spec: GridSpec) -> np.ndarray:
    """Pointwise max of amplitude * |f * k| over (kernel spectrum, amplitude)
    pairs. One interleaved chunk per CPU runs on the pool (NumPy's FFT releases
    the GIL); max is exact, so the result does not depend on the split.

    Each chunk's padded scratch buffer lives for this call only and is
    allocated here, in the calling thread: freed in a worker, it would stay in
    that thread's malloc arena and raise the peak RSS."""
    chunks = [kernels[i::_WORKERS] for i in range(min(_WORKERS, len(kernels)))]
    bufs = [np.empty(Ff.shape, dtype=np.complex128) for _ in chunks]
    parts = _pool.map(_max_abs_chunk, repeat(Ff), chunks, repeat(spec), bufs)
    return functools.reduce(np.maximum, parts)


def small_maximal(f: GridFunction, mollifier: MollifierSpec, scales: ScaleGrid) -> GridFunction:
    """Pointwise max over the scale grid of |f * phi_t| (lower bound for m_phi f)."""
    spec = f.spec
    kernels = [(_mollifier_kernel_fft(mollifier, spec, t), 1.0) for t in scales.scales]
    return GridFunction(spec, _max_abs_convolutions(padded_spectrum(f), kernels, spec))


def hp_norm(f: GridFunction, idx: HardyIndex, mollifier: MollifierSpec | None = None,
            scales: ScaleGrid | None = None) -> float:
    """||m_phi f||_{L^p} over scales 0 < t < 1, a quasi-norm for p < 1."""
    mollifier = mollifier or MollifierSpec("gaussian", f.spec.dim)
    scales = scales or ScaleGrid.default(f.spec, 1.0)
    return _lp_impl(small_maximal(f, mollifier, scales), idx.p)


def _global_moment_scale(f: GridFunction, alpha: MultiIndex) -> float:
    L = f.spec.half_width
    l2 = float(np.sqrt(np.sum(np.abs(f.samples) ** 2) * f.spec.cell_volume))
    return l2 * L ** order(alpha) * (2 * L) ** (f.spec.dim / 2.0)


def hp_norm_global(f: GridFunction, idx: HardyIndex, mollifier: MollifierSpec | None = None,
                   t_max: float | None = None, scales: ScaleGrid | None = None) -> tuple[float, bool]:
    """Truncated all-scale maximal norm; scales run up to t_max (default L/2).

    Returns (value, flagged). When the discrete moments of f up to order N_p
    do not vanish (relative threshold 1e-8), the truncated value diverges as
    t_max grows; the result is then flagged rather than rejected.
    """
    mollifier = mollifier or MollifierSpec("gaussian", f.spec.dim)
    t_max = t_max if t_max is not None else f.spec.half_width / 2.0
    scales = scales or ScaleGrid.default(f.spec, t_max)
    flagged = False
    for alpha in multiindices(f.spec.dim, idx.N_p):
        if abs(moment(f, (0.0,) * f.spec.dim, alpha)) > 1e-8 * _global_moment_scale(f, alpha):
            flagged = True
            break
    value = _lp_impl(small_maximal(f, mollifier, scales), idx.p)
    return value, flagged


# ---------------------------------------------------------------------------
# finite-difference certification of derivative bounds


def _fd_sups(fn, center, radius: float, dim: int, max_order: int,
             samples_per_axis: int | None = None) -> dict[MultiIndex, float]:
    """Sup of |D^beta fn| for |beta| <= max_order via dense iterated central
    differences over the box of the given radius around center."""
    n = samples_per_axis or (4001 if dim == 1 else 401)
    halo = max_order
    d = 2.0 * radius / (n - 1)
    axes = [np.linspace(c - radius - halo * d, c + radius + halo * d, n + 2 * halo)
            for c in center]
    if dim == 1:
        pts = axes[0][None, :]
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([X, Y])
    base = np.asarray(fn(pts), dtype=float)

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


@dataclass
class BoundRow:
    beta: MultiIndex
    measured: float
    bound: float

    @property
    def margin(self) -> float:
        """Fraction of headroom below the bound (1 - measured/bound)."""
        return 1.0 - self.measured / self.bound

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound * (1.0 + _SAMPLING_SLACK)


_SAMPLING_SLACK = 0.01


@dataclass
class AdmissibilityReport:
    t: float
    k: int
    support_ok: bool
    support_leak: float
    rows: list[BoundRow]

    @property
    def passed(self) -> bool:
        return self.support_ok and all(r.passed for r in self.rows)

    def to_text(self) -> str:
        lines = [f"admissible t={self.t!r} k={self.k} support_ok={self.support_ok} "
                 f"leak={self.support_leak:.3e} passed={self.passed}"]
        for r in self.rows:
            lines.append(f"  beta={r.beta} measured={r.measured:.6e} bound={r.bound:.6e} "
                         f"margin={r.margin:+.4f} {'ok' if r.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def verify_admissible(phi, k: int, t: float, x, samples_per_axis: int | None = None) -> AdmissibilityReport:
    """Certify supp(phi) in B(x,t) and ||D^beta phi||_inf <= t^{-n-|beta|} for
    |beta| <= k by dense sampling plus finite differences (1% slack)."""
    x = tuple(float(c) for c in x)
    dim = len(x)
    sups = _fd_sups(phi, x, 1.05 * t, dim, k, samples_per_axis)

    n = samples_per_axis or (4001 if dim == 1 else 401)
    axes = [np.linspace(c - 1.5 * t, c + 1.5 * t, n) for c in x]
    if dim == 1:
        pts = axes[0][None, :]
    else:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.stack([X, Y])
    vals = np.abs(np.asarray(phi(pts), dtype=float))
    outside = _radius(pts, x) > t * (1.0 + 1e-9)
    scale = float(vals.max()) or 1.0
    leak = float(vals[outside].max(initial=0.0)) / scale
    support_ok = leak <= 1e-12

    rows = [BoundRow(beta, sups[beta], t ** (-dim - order(beta)))
            for beta in multiindices(dim, k)]
    return AdmissibilityReport(t=t, k=k, support_ok=support_ok, support_leak=leak, rows=rows)


# ---------------------------------------------------------------------------
# the explicit moment-probe bumps


@dataclass(frozen=True)
class Phi0Bump:
    """C_alpha y^alpha times a cutoff equal to 1 for |y| < 1, supported in
    B(v/2, 2), with all derivative sups up to order k below 2^{-|beta|-2n}.

    The quoted construction bounds the derivatives by 2^{|beta|-2n}; the
    tighter exponent used here is what actually survives the rescaling to
    phi^{x,alpha}, so the rescaled copies meet the admissible-family bounds.
    """

    v: tuple[float, ...]
    alpha: MultiIndex
    c_alpha: float
    k: int
    fallback: bool
    lobe_sign: float
    lobe_center: tuple[float, ...]
    integral: float
    certification: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.v)

    @property
    def support(self) -> Ball:
        return Ball(tuple(c / 2.0 for c in self.v), 2.0)

    def _profile(self, pts: np.ndarray) -> np.ndarray:
        z = _radius(pts, tuple(c / 2.0 for c in self.v))
        prof = cutoff_eta(z)
        if self.fallback:
            s = _radius(pts, self.lobe_center) / _LOBE_RADIUS
            prof = prof + self.lobe_sign * np.clip(1.0 - s**2, 0.0, None) ** 3
        return prof

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        mono = np.ones(pts.shape[1:])
        for i, a in enumerate(self.alpha):
            if a:
                mono = mono * pts[i] ** a
        return self.c_alpha * mono * self._profile(pts)


_LOBE_RADIUS = 0.2
_LOBE_DISTANCE = 1.75
_PHI0_SAFETY = 0.9
_PHI0_INTEGRAL_FLOOR = 1e-4


def _box_integral(fn, center, radius, dim, n=2001):
    axes = [np.linspace(c - radius, c + radius, n) for c in center]
    d = axes[0][1] - axes[0][0]
    if dim == 1:
        return float(np.trapezoid(np.asarray(fn(axes[0][None, :])), dx=d))
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    vals = np.asarray(fn(np.stack([X, Y])))
    return float(np.trapezoid(np.trapezoid(vals, dx=d, axis=1), dx=d))


def _lobe_directions(v):
    dim = len(v)
    if dim == 1:
        return [(1.0,), (-1.0,)]
    s = 1.0 / math.sqrt(2.0)
    return [(s, s), (s, -s), (1.0, 0.0), (0.0, 1.0), tuple(v)]


@functools.lru_cache(maxsize=256)
def _build_phi0_cached(v: tuple, alpha: MultiIndex, k: int) -> Phi0Bump:
    dim = len(v)
    center = tuple(c / 2.0 for c in v)

    def make(fallback, sign, lobe_center):
        probe = Phi0Bump(v, alpha, 1.0, k, fallback, sign, lobe_center, 0.0)
        sups = _fd_sups(probe, center, 2.1, dim, k,
                        samples_per_axis=4001 if dim == 1 else 321)
        c = _PHI0_SAFETY * min(
            2.0 ** (-order(beta) - 2 * dim) / max(s, 1e-300)
            for beta, s in sups.items()
        )
        raw_integral = _box_integral(probe, center, 2.05, dim,
                                     n=20001 if dim == 1 else 801)
        cert = tuple(
            (beta, c * sups[beta], 2.0 ** (-order(beta) - 2 * dim))
            for beta in multiindices(dim, k)
        )
        return Phi0Bump(v, alpha, c, k, fallback, sign, lobe_center,
                        c * raw_integral, cert)

    bump = make(False, 0.0, center)
    if abs(bump.integral) >= _PHI0_INTEGRAL_FLOOR:
        return bump

    # the radial cutoff can annihilate the moment of y^alpha (mixed alpha in
    # dim 2); perturb it with a small off-axis lobe in the outer annulus,
    # which leaves the |y| < 1 monomial region untouched
    best = None
    for u in _lobe_directions(v):
        lc = tuple(center[i] + _LOBE_DISTANCE * u[i] for i in range(dim))
        mono_at = math.prod(lc[i] ** alpha[i] for i in range(dim))
        if mono_at == 0.0:
            continue
        for sign in (math.copysign(1.0, mono_at) * s for s in (1.0,)):
            cand = make(True, sign, lc)
            if best is None or abs(cand.integral) > abs(best.integral):
                best = cand
    if best is None or abs(best.integral) < _PHI0_INTEGRAL_FLOOR:
        raise NumericalError("degenerate phi0 construction")
    return best


def build_phi0(v, alpha, idx: HardyIndex) -> Phi0Bump:
    """The explicit bump of the moment lower-bound construction: equal to
    C_alpha y^alpha on |y| < 1, supported in B(v/2, 2), derivative-certified
    up to order N_p + 1, with a numerically certified nonzero integral."""
    alpha = as_multiindex(alpha, idx.dim)
    if order(alpha) > idx.N_p:
        raise ValueError(f"|alpha| = {order(alpha)} exceeds N_p = {idx.N_p}")
    nv = math.sqrt(sum(c * c for c in v))
    if nv == 0:
        raise ValueError("v must be a nonzero direction")
    v = tuple(round(c / nv, 12) for c in v)
    return _build_phi0_cached(v, alpha, idx.N_p + 1)


@dataclass(frozen=True)
class RescaledProbe:
    """phi^{x,alpha}(y) = |x|^{-n} phi0^{x/|x|,alpha}(y / (2|x|)); supported in
    B(x, 4|x|) and admissible for the family with T = 2, t = 4|x|."""

    x: tuple[float, ...]
    phi0: Phi0Bump

    @property
    def scale(self) -> float:
        return 4.0 * math.sqrt(sum(c * c for c in self.x))

    @property
    def support(self) -> Ball:
        return Ball(self.x, self.scale)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        ax = math.sqrt(sum(c * c for c in self.x))
        return ax ** (-len(self.x)) * self.phi0(pts / (2.0 * ax))


def phi_x_alpha(x, alpha, idx: HardyIndex) -> RescaledProbe:
    x = tuple(float(c) for c in x)
    if all(c == 0 for c in x):
        raise ValueError("x must be nonzero")
    return RescaledProbe(x, build_phi0(x, alpha, idx))


# ---------------------------------------------------------------------------
# dictionary-based grand maximal function


@dataclass(frozen=True)
class MollifierCopyEntry:
    """Amplitude-normalized copy of the mollifier at one scale: the test
    function at site x is c * phi_t(x - .), admissible by the scaling law."""

    mollifier: MollifierSpec
    scale: float
    amplitude: float

    def manifest_line(self) -> str:
        return f"kind=mollifier-copy t={self.scale!r} amplitude={self.amplitude!r}"


@dataclass(frozen=True)
class MomentProbeEntry:
    """phi^{x,alpha} probes evaluated at explicit sites."""

    alpha: MultiIndex
    sites: tuple[tuple[float, ...], ...]

    def manifest_line(self) -> str:
        return f"kind=moment-probe alpha={','.join(map(str, self.alpha))} sites={len(self.sites)}"


@dataclass
class TestDictionary:
    __test__ = False  # not a pytest class

    k: int
    T: float
    idx: HardyIndex
    entries: list

    def manifest(self) -> str:
        lines = [f"# test dictionary k={self.k} T={self.T!r} entries={len(self.entries)}"]
        lines += [e.manifest_line() for e in self.entries]
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _mollifier_amplitude(mollifier: MollifierSpec, k: int) -> float:
    """Largest c (with 1% headroom) so that c * phi_t(x-.) meets every
    derivative bound of the admissible family; t-independent by scaling."""
    if not mollifier.compact_support:
        raise ValueError("dictionary entries need a compactly supported mollifier")
    sups = _fd_sups(mollifier, (0.0,) * mollifier.dim, 1.02, mollifier.dim, k)
    return 0.99 / max(max(sups.values()), 1e-300)


def build_test_dictionary(spec: GridSpec, idx: HardyIndex, T: float,
                          mollifier: MollifierSpec | None = None,
                          scales: ScaleGrid | None = None,
                          probe_alphas: tuple = (),
                          probe_sites: tuple = ()) -> TestDictionary:
    """Dictionary with one normalized mollifier copy per scale plus optional
    moment probes; k = N_p + 1 matches the regularity the index requires."""
    k = idx.N_p + 1
    mollifier = mollifier or MollifierSpec("smooth-bump", spec.dim)
    scales = scales or ScaleGrid.default(spec, T)
    amp = _mollifier_amplitude(mollifier, k)
    entries: list = [MollifierCopyEntry(mollifier, t, amp) for t in scales.scales]
    for alpha in probe_alphas:
        entries.append(MomentProbeEntry(as_multiindex(alpha, spec.dim),
                                        tuple(tuple(map(float, s)) for s in probe_sites)))
    return TestDictionary(k=k, T=T, idx=idx, entries=entries)


def _site_index(spec: GridSpec, x) -> tuple[int, ...]:
    idxs = []
    for c in x:
        i = int(round((c + spec.half_width) / spec.spacing)) % spec.points_per_axis
        idxs.append(i)
    return tuple(idxs)


def grand_maximal(f: GridFunction, dictionary: TestDictionary) -> GridFunction:
    """Pointwise max of |<f, phi>| over the dictionary (each mollifier copy is
    translated to every grid site; probes only at their sites). A certified
    lower bound for the grand maximal function: enlarging the dictionary can
    only increase values."""
    if not dictionary.entries:
        raise ValueError("empty dictionary")
    spec = f.spec
    kernels, probes = [], []
    for entry in dictionary.entries:
        if isinstance(entry, MollifierCopyEntry):
            kernels.append((_mollifier_kernel_fft(entry.mollifier, spec, entry.scale), entry.amplitude))
        elif isinstance(entry, MomentProbeEntry):
            probes.append(entry)
        else:
            raise TypeError(f"unknown dictionary entry {entry!r}")
    out = _max_abs_convolutions(padded_spectrum(f), kernels, spec) if kernels else np.zeros(spec.shape)
    for entry in probes:
        for site in entry.sites:
            probe = phi_x_alpha(site, entry.alpha, dictionary.idx)
            if probe.scale >= dictionary.T or not probe.support.fits_in(spec):
                continue  # outside the family or the domain: skip (lower bound)
            vals = probe(spec.points())
            pairing = abs(np.sum(f.samples * vals) * spec.cell_volume)
            i = _site_index(spec, site)
            out[i] = max(out[i], pairing)
    return GridFunction(spec, out)
