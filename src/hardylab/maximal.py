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

Both maximal functions fold |f * phi_t| into running maxima, one distinct
scale at a time, on a thread pool. small_maximal takes its kernel spectra
from a cache bounded by KERNEL_CACHE_BYTES; grand_maximal_table streams:
each distinct kernel of all its dictionaries is built once, used for every
function and dropped, and the padded spectra alive at one time stay under
the same bound.
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
    convolve_spectra,
    dilate,
    lp_quasinorm,
    padded_spectrum,
    sq_distance,
)
from .moments import HardyIndex, MultiIndex, as_multiindex, monomial, multiindices, order

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


# padded mollifier spectra of small_maximal, least recently used first; one
# 2D m=4096 spectrum is 1 GiB, so the cache is bounded in bytes, not in
# entries, and grand_maximal_table keeps the padded spectra it holds at one
# time under the same bound
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
    F = _build_kernel_fft(mollifier, spec, t)
    if F.nbytes <= KERNEL_CACHE_BYTES:
        with _kernel_cache_lock:
            _kernel_cache[key] = F
            cached = sum(a.nbytes for a in _kernel_cache.values())
            while cached > KERNEL_CACHE_BYTES:
                cached -= _kernel_cache.popitem(last=False)[1].nbytes
    return F


def _build_kernel_fft(mollifier: MollifierSpec, spec: GridSpec, t: float) -> np.ndarray:
    F = padded_spectrum(dilate(mollifier, t, spec))
    F.flags.writeable = False
    return F


_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = ThreadPoolExecutor(_WORKERS)


def _reset_pool():
    # a forked child inherits the executor but none of its threads
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _fold_chunk(work: list, kernel, spectra: list, maxima: list, spec: GridSpec,
                buf: np.ndarray, lock: threading.Lock) -> None:
    for key, slots in work:
        Fk = kernel(key)
        for Ff, row in zip(spectra, maxima):
            vals = np.abs(convolve_spectra(Ff, Fk, spec, buf))
            with lock:
                for s in slots:
                    np.maximum(row[s], vals, out=row[s])
        del Fk  # this scale is done: drop its kernel before building the next


def _running_maxima(fs: list, work: dict, nsets: int, kernel) -> list:
    """maxima[i][s], the pointwise max of |fs[i] * phi_t| over the scales of
    scale set s, walking each distinct scale once.

    work maps each distinct (mollifier, t) to the scale sets that hold it,
    and kernel((mollifier, t)) gives its padded spectrum. One interleaved
    chunk of the scales per CPU runs on the pool (NumPy's FFT releases the
    GIL) and folds into the one shared set of maxima under a lock; max is
    exact, so the result does not depend on the split or the order.

    The functions run in groups, so that their padded spectra plus one kernel
    and one scratch buffer per chunk stay within KERNEL_CACHE_BYTES; a group
    holds at least one function, and every kernel is built once per group.
    The scratch buffers live for one group and are allocated here, in the
    calling thread: freed in a worker, they would stay in that thread's malloc
    arena and raise the peak RSS."""
    spec = fs[0].spec
    maxima = [[np.zeros(spec.shape) for _ in range(nsets)] for _ in fs]
    items = list(work.items())
    chunks = [items[i::_WORKERS] for i in range(min(_WORKERS, len(items)))]
    if not chunks:
        return maxima
    lock = threading.Lock()
    nbytes = 16 * (2 * spec.points_per_axis) ** spec.dim  # one padded spectrum
    group = max(1, KERNEL_CACHE_BYTES // nbytes - 2 * len(chunks))
    for start in range(0, len(fs), group):
        spectra = [padded_spectrum(f) for f in fs[start:start + group]]
        bufs = [np.empty(spectra[0].shape, dtype=np.complex128) for _ in chunks]
        list(_pool.map(_fold_chunk, chunks, repeat(kernel), repeat(spectra),
                       repeat(maxima[start:start + group]), repeat(spec), bufs, repeat(lock)))
        del spectra, bufs
    return maxima


def small_maximal(f: GridFunction, mollifier: MollifierSpec, scales: ScaleGrid) -> GridFunction:
    """Pointwise max over the scale grid of |f * phi_t| (lower bound for m_phi f)."""
    # fetched here, in the calling thread: built in a worker, the cached
    # spectra would sit in that thread's malloc arena (2D E1 peak RSS +10%)
    kernels = {(mollifier, t): _mollifier_kernel_fft(mollifier, f.spec, t) for t in scales.scales}
    maxima = _running_maxima([f], dict.fromkeys(kernels, (0,)), 1, kernels.__getitem__)
    return GridFunction(f.spec, maxima[0][0])


def hp_norm(f: GridFunction, idx: HardyIndex, mollifier: MollifierSpec | None = None,
            scales: ScaleGrid | None = None) -> float:
    """||m_phi f||_{L^p} over scales 0 < t < 1, a quasi-norm for p < 1."""
    mollifier = mollifier or MollifierSpec("gaussian", f.spec.dim)
    scales = scales or ScaleGrid.default(f.spec, 1.0)
    return lp_quasinorm(small_maximal(f, mollifier, scales), idx.p)


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
        mono = monomial(pts, (0.0,) * self.dim, self.alpha)
        return self.c_alpha * mono * self._profile(pts)


_LOBE_RADIUS = 0.2
_LOBE_DISTANCE = 1.75
_PHI0_SAFETY = 0.9
_PHI0_INTEGRAL_FLOOR = 1e-4


def _box_integral(fn, center, radius, n):
    """Iterated trapezoid rule over the box, last axis first."""
    axes = [np.linspace(c - radius, c + radius, n) for c in center]
    d = axes[0][1] - axes[0][0]
    vals = np.asarray(fn(np.stack(np.meshgrid(*axes, indexing="ij"))))
    for _ in center:
        vals = np.trapezoid(vals, dx=d)
    return float(vals)


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
        raw_integral = _box_integral(probe, center, 2.05, n=20001 if dim == 1 else 801)
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


@dataclass(frozen=True)
class MomentProbeEntry:
    """phi^{x,alpha} probes evaluated at explicit sites."""

    alpha: MultiIndex
    sites: tuple[tuple[float, ...], ...]


@dataclass
class TestDictionary:
    __test__ = False  # not a pytest class

    k: int
    T: float
    idx: HardyIndex
    entries: list


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


def _fold_probes(out: np.ndarray, f: GridFunction, dictionary: TestDictionary) -> None:
    spec = f.spec
    for entry in dictionary.entries:
        if not isinstance(entry, MomentProbeEntry):
            continue
        for site in entry.sites:
            probe = phi_x_alpha(site, entry.alpha, dictionary.idx)
            if probe.scale >= dictionary.T or not probe.support.fits_in(spec):
                continue  # outside the family or the domain: skip (lower bound)
            vals = probe(spec.points())
            pairing = abs(np.sum(f.samples * vals) * spec.cell_volume)
            i = spec.index_of(site)
            out[i] = max(out[i], pairing)


def grand_maximal_table(fs: list[GridFunction],
                        dictionaries: list[TestDictionary]) -> list[list[GridFunction]]:
    """out[i][j] = grand_maximal(fs[i], dictionaries[j]) for every pair, in one
    pass over the distinct (mollifier, scale) pairs of all the dictionaries.

    Each distinct scale's kernel is built once, convolved with every function
    and dropped; it never enters the small_maximal kernel cache. |f * phi_t|
    is folded into a running max per scale set (the mollifier copies of one
    dictionary that share an amplitude), and the amplitude is applied once at
    the end: rounding is monotone, so amp * max|.| equals max(amp * |.|) bit
    for bit."""
    if not fs:
        return []
    spec = fs[0].spec
    if any(f.spec != spec for f in fs):
        raise ValueError("grid mismatch")
    scale_sets: dict[frozenset, int] = {}
    work: dict[tuple, list[int]] = {}  # (mollifier, t) -> the scale sets holding it
    terms = []  # per dictionary: its (amplitude, scale set) pairs
    for dictionary in dictionaries:
        if not dictionary.entries:
            raise ValueError("empty dictionary")
        by_amplitude: dict[float, dict] = {}
        for entry in dictionary.entries:
            if isinstance(entry, MollifierCopyEntry):
                by_amplitude.setdefault(entry.amplitude, {})[(entry.mollifier, entry.scale)] = None
            elif not isinstance(entry, MomentProbeEntry):
                raise TypeError(f"unknown dictionary entry {entry!r}")
        pairs = []
        for amplitude, keys in by_amplitude.items():
            key_set = frozenset(keys)
            if key_set not in scale_sets:
                scale_sets[key_set] = len(scale_sets)
                for key in keys:  # in dictionary order
                    work.setdefault(key, []).append(scale_sets[key_set])
            pairs.append((amplitude, scale_sets[key_set]))
        terms.append(pairs)
    maxima = _running_maxima(fs, work, len(scale_sets), lambda key: _build_kernel_fft(key[0], spec, key[1]))
    out = []
    for f, row in zip(fs, maxima):
        cells = []
        for dictionary, pairs in zip(dictionaries, terms):
            vals = np.zeros(spec.shape)
            for amplitude, s in pairs:
                np.maximum(vals, amplitude * row[s], out=vals)
            _fold_probes(vals, f, dictionary)
            cells.append(GridFunction(spec, vals))
        out.append(cells)
    return out


def grand_maximal(f: GridFunction, dictionary: TestDictionary) -> GridFunction:
    """Pointwise max of |<f, phi>| over the dictionary (each mollifier copy is
    translated to every grid site; probes only at their sites). A certified
    lower bound for the grand maximal function: enlarging the dictionary can
    only increase values. The one-row case of grand_maximal_table."""
    return grand_maximal_table([f], [dictionary])[0][0]
