"""Linear operators (Fourier multipliers, convolution kernels, pointwise
multipliers, compositions), adjoints, windowed monomial pairings,
the cancellation-condition tester, and sample-based kernel checkers.

Adjoints are Hermitian (conjugate symbol / conjugate transpose); for the real
windowed monomials fed to `tstar_monomial` this agrees with the pairing-based
definition <T*[m], a> = <m, Ta>.

Since the monomial is not integrable, T*[(.-x0)^alpha] is realized through a
smooth window equal to 1 on B(x0, W) and 0 outside B(x0, 2W). Every such
computation carries a window-sensitivity certificate: the same field at W/2,
compared on B(x0, W/4) and normalized by the size of the windowed monomial,
must move by at most 10%, otherwise the kernel tail is too heavy for the
truncation to mean anything.

`cancellation_test` computes each of these fields once: it takes the adjoint
once, a `MultiplierOp` samples its symbol once per grid, and along a ladder
of balls the fields at W and W/2 of one ball are reused by the next, which
needs the same radii or half of them. The rows equal those of one
`tstar_monomial` call per (ball, alpha) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .grid import (
    Ball,
    GridFunction,
    GridSpec,
    SampledSymbol,
    convolve,
    fourier_multiplier,
    reflect,
    sample_function,
    sample_symbol,
    sq_distance,
)
from .maximal import quintic_step
from .moments import (
    HardyIndex,
    as_multiindex,
    dual_norm_check,
    local_oscillation,
    monomial_field,
    psi,
)

# ---------------------------------------------------------------------------
# operator variants


class OperatorSpec:
    """Base class: a linear operator with application and an adjoint."""

    name: str = "operator"
    params: dict = {}

    @property
    def translation_invariant(self) -> bool:
        return False

    def apply(self, f: GridFunction) -> GridFunction:
        raise NotImplementedError

    def adjoint(self) -> "OperatorSpec":
        raise NotImplementedError


@dataclass
class MultiplierOp(OperatorSpec):
    """Fourier multiplier with a closed-form symbol xi -> complex.

    The symbol is sampled on the grid of the first application and kept (a
    Hermitian one as the half spectrum of its Hermitian part), so later
    applications on that grid only run the FFTs: real ones, on one half
    spectrum, for a Hermitian symbol.
    """

    symbol: object
    name: str = "multiplier"
    params: dict = field(default_factory=dict)
    _sampled: SampledSymbol | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def translation_invariant(self) -> bool:
        return True

    def apply(self, f: GridFunction) -> GridFunction:
        if self._sampled is None or self._sampled.spec != f.spec:
            self._sampled = sample_symbol(f.spec, self.symbol)
        return fourier_multiplier(f, self._sampled)

    def adjoint(self) -> "MultiplierOp":
        sym = self.symbol
        return MultiplierOp(lambda xi: np.conj(sym(xi)), name=f"{self.name}*", params=self.params)


@dataclass
class KernelOp(OperatorSpec):
    """Convolution with a sampled kernel k: (Tf)(x) = (k * f)(x).

    convolve keeps the kernel's spectra here, one per window side of the
    real window layer and one for the complex padded layer, each taken on the
    first application that needs it, so later applications only transform f.
    """

    kernel: GridFunction
    name: str = "kernel"
    params: dict = field(default_factory=dict)
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def translation_invariant(self) -> bool:
        return True

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.kernel.spec:
            raise ValueError("grid mismatch")
        return convolve(f, self.kernel, self._spectra)

    def adjoint(self) -> "KernelOp":
        return KernelOp(reflect(self.kernel).conj(), name=f"{self.name}*", params=self.params)


@dataclass
class PointwiseOp(OperatorSpec):
    """Multiplication by a fixed grid function (sign flips, modulations, ...).

    Not expressible as a multiplier or convolution kernel; kept as its own
    variant so the pathological catalog entries do not need dense matrices.
    """

    factor: GridFunction
    name: str = "pointwise"
    params: dict = field(default_factory=dict)

    @property
    def translation_invariant(self) -> bool:
        return False

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.factor.spec:
            raise ValueError("grid mismatch")
        return self.factor * f

    def adjoint(self) -> "PointwiseOp":
        return PointwiseOp(self.factor.conj(), name=f"{self.name}*", params=self.params)


# ---------------------------------------------------------------------------
# windowed monomials and the cancellation test


def smooth_window(spec: GridSpec, center, W: float) -> GridFunction:
    """Radial window equal to 1 on B(center, W), 0 outside B(center, 2W).

    The ramp is evaluated only on the samples of B(center, 2W + h); off that
    ball the distance exceeds 2W by far more than round-off, so the ramp
    formula would give exactly 0 there too.
    """
    slab = Ball(center, 2.0 * W + spec.spacing).box(spec)
    dist = np.sqrt(slab.sq_dist[slab.inside])
    return GridFunction(spec, slab.scatter(1.0 - quintic_step(dist / W - 1.0)))


def window_radius(r: float) -> float:
    """The window radius W = max(8r, 1) that T*[(.-x0)^alpha] is cut off at
    for a ball of radius r."""
    return max(8.0 * r, 1.0)


WINDOW_SENSITIVITY_LIMIT = 0.10


@dataclass
class TStarMonomial:
    """T*(window * (.-x0)^alpha) plus its stability certificate."""

    field: GridFunction
    x0: tuple[float, ...]
    alpha: tuple[int, ...]
    window_radius: float
    sensitivity: float


def _rms(vals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def _check_window(spec: GridSpec, x0, W: float) -> None:
    if W > spec.half_width / 2.0:
        raise ValueError("window radius W must be at most L/2")
    if not Ball(x0, 2.0 * W).fits_in(spec):
        raise ValueError("window support B(x0, 2W) escapes the domain")


class _TStarLadder:
    """Certified T*(window_W * (.-x0)^alpha) for one adjoint and one alpha,
    over a sequence of (x0, W).

    A certificate needs the fields at W and W/2. The two fields of the last
    certificate are kept and reused when x0 and a radius match, so a ladder
    whose W repeats or halves computes each field once, and no more than two
    fields are alive at a time.
    """

    def __init__(self, T_adj: OperatorSpec, spec: GridSpec, alpha: tuple[int, ...]):
        self.T_adj, self.spec, self.alpha = T_adj, spec, alpha
        self.x0 = None
        self.mono = None
        # radius R -> (T* field, rms of window_R * monomial over B(x0, 2R))
        self.fields: dict = {}

    def certify(self, x0: tuple[float, ...], W: float) -> TStarMonomial:
        spec = self.spec
        if x0 != self.x0:
            self.fields, self.mono = {}, None  # freed before the new monomial is built
            self.x0, self.mono = x0, monomial_field(spec, x0, self.alpha)
        self.fields = {R: v for R, v in self.fields.items() if R in (W, W / 2.0)}
        for R in (W, W / 2.0):
            if R not in self.fields:
                wm = smooth_window(spec, x0, R) * self.mono
                self.fields[R] = (self.T_adj.apply(wm),
                                  _rms(Ball(x0, 2.0 * R).box(spec).gather(wm.samples)))
        (f_full, scale), (f_half, _) = self.fields[W], self.fields[W / 2.0]
        core = Ball(x0, W / 4.0).box(spec)
        diff = core.gather(f_full.samples) - core.gather(f_half.samples)
        sens = _rms(diff) / max(scale, 1e-300)
        if sens > WINDOW_SENSITIVITY_LIMIT:
            raise NumericalError("T* monomial not stable: kernel tail too heavy")
        return TStarMonomial(f_full, x0, self.alpha, W, float(sens))


def tstar_monomial(T: OperatorSpec, x0, alpha, W: float, spec: GridSpec) -> TStarMonomial:
    """T* applied to the windowed monomial, with window-sensitivity control.

    The sensitivity is the rms difference between the W and W/2 computations
    on B(x0, W/4), normalized by the rms of the windowed monomial itself on
    B(x0, 2W); above 10% the truncation of the non-integrable monomial is not
    trustworthy and the computation fails.
    """
    x0 = tuple(float(c) for c in x0)
    alpha = as_multiindex(alpha, spec.dim)
    _check_window(spec, x0, W)
    return _TStarLadder(T.adjoint(), spec, alpha).certify(x0, W)


@dataclass
class CancellationRow:
    ball: Ball
    alpha: tuple[int, ...]
    oscillation: float
    psi_value: float
    ratio: float
    window_radius: float
    window_sensitivity: float
    dual_gap: float


@dataclass
class CancellationReport:
    operator: str
    idx: HardyIndex
    rows: list[CancellationRow]

    def ratios(self, alpha=None) -> list[float]:
        return [r.ratio for r in self.rows if alpha is None or r.alpha == tuple(alpha)]


def cancellation_test(T: OperatorSpec, idx: HardyIndex, balls, alphas,
                      spec: GridSpec, check_duality: bool = True) -> CancellationReport:
    """Measure the local oscillation of T*[(.-x0)^alpha] against the decay
    modulus psi on each ball.

    For each (B, alpha): f = tstar_monomial(T, x0, alpha, W = window_radius(r)),
    oscillation = (fint_B |f - P^{N_p}_B f|^2)^{1/2}, ratio = oscillation /
    psi(r). The duality identity behind this functional is re-validated per
    row by the deterministic dual-norm check; the gap is recorded.

    T is adjointed once, and each alpha runs down the balls in the given
    order, so the W/2 field of one ball serves as the W field of the next
    and balls sharing W share their fields. Rows come out ball by ball.
    """
    balls = list(balls)
    windows = []
    for ball in balls:
        if not ball.radius < 1.0:
            raise ValueError("cancellation balls need r < 1")
        W = window_radius(ball.radius)
        _check_window(spec, ball.center, W)
        windows.append(W)
    alphas = [as_multiindex(alpha, spec.dim) for alpha in alphas]
    T_adj = T.adjoint()
    table = [[None] * len(alphas) for _ in balls]
    for j, alpha in enumerate(alphas):
        ladder = _TStarLadder(T_adj, spec, alpha)
        for i, (ball, W) in enumerate(zip(balls, windows)):
            table[i][j] = _cancellation_row(ladder.certify(ball.center, W), ball, idx,
                                            check_duality)
    return CancellationReport(T.name, idx, [row for ball_rows in table for row in ball_rows])


def _cancellation_row(ts: TStarMonomial, ball: Ball, idx: HardyIndex,
                      check_duality: bool) -> CancellationRow:
    osc = local_oscillation(ts.field, ball, idx.N_p)
    psival = psi(idx, ts.alpha, ball.radius)
    gap = float("nan")
    if check_duality:
        lhs, rhs = dual_norm_check(ts.field, ball, idx.N_p, trials=0)
        gap = abs(lhs - rhs)
    return CancellationRow(ball, ts.alpha, float(osc), float(psival),
                           float(osc / psival), ts.window_radius, ts.sensitivity, gap)


# ---------------------------------------------------------------------------
# sample-based kernel condition checkers


def _materialized_kernel(T: OperatorSpec, spec: GridSpec) -> GridFunction:
    if not T.translation_invariant:
        raise NumericalError(f"operator {T.name!r} is not translation-invariant")
    h = spec.cell_volume
    e = np.zeros(spec.shape)
    center = tuple(spec.points_per_axis // 2 for _ in range(spec.dim))
    e[center] = 1.0 / h
    return T.apply(GridFunction(spec, e))


@dataclass
class KernelSizeReport:
    operator: str
    mu: float
    fitted_C: float
    argmax_distance: float
    n_samples: int
    no_off_diagonal: bool

    def to_text(self) -> str:
        if self.no_off_diagonal:
            return f"kernel-size {self.operator}: no off-diagonal kernel\n"
        return (f"kernel-size {self.operator}: mu={self.mu!r} fitted_C={self.fitted_C!r} "
                f"at |u|={self.argmax_distance!r} over {self.n_samples} samples\n")


def kernel_size_check(T: OperatorSpec, mu: float, spec: GridSpec) -> KernelSizeReport:
    """Fitted constant in |k(u)| <= C min(|u|^-n, |u|^-n-mu), sampled at every
    grid offset with |u| >= 4h."""
    k = _materialized_kernel(T, spec)
    dist = np.sqrt(sq_distance(spec.points(), (0.0,) * spec.dim))
    sel = dist >= 4.0 * spec.spacing
    dvals = dist[sel]
    kvals = np.abs(k.samples[sel])

    diag = abs(k.samples[tuple(spec.points_per_axis // 2 for _ in range(spec.dim))])
    off_max = float(kvals.max(initial=0.0))
    if off_max <= 1e-12 * max(diag, 1e-300):
        return KernelSizeReport(T.name, mu, 0.0, 0.0, int(dvals.size), True)

    envelope = np.minimum(dvals ** (-spec.dim * 1.0), dvals ** (-(spec.dim + mu)))
    ratios = kvals / envelope
    i = int(np.argmax(ratios))
    return KernelSizeReport(T.name, mu, float(ratios[i]), float(dvals[i]),
                            int(dvals.size), False)


@dataclass
class KernelHolderReport:
    operator: str
    delta: float
    sigma: float
    fitted_C: float
    n_triples: int

    def to_text(self) -> str:
        return (f"kernel-holder {self.operator}: delta={self.delta!r} sigma={self.sigma!r} "
                f"fitted_C={self.fitted_C!r} over {self.n_triples} triples\n")


def default_holder_triples(spec: GridSpec, sigma: float) -> list:
    """Triples (x, y, z) on the grid with |x - z| >= 2 |y - z|^sigma.

    Six anchors z sweep [-L/8, L/8] on the first axis. Up to six separations
    |y - z| double from one cell upward along the first axis; the
    distances |x - z| sweep both multiples of the admissibility floor and a
    fixed ladder of absolute distances, so that jump discontinuities at O(1)
    distances are straddled by one-cell separations (the refinement check).
    """
    h = spec.spacing
    L = spec.half_width
    axis_dirs = [np.eye(spec.dim)[i] for i in range(spec.dim)]
    absolute = [c * L for c in (0.0625, 0.09375, 0.125, 0.1875, 0.25, 0.375, 0.5)]
    triples = []
    rng_anchors = np.linspace(-L / 8, L / 8, 6)
    for za in rng_anchors:
        z = np.zeros(spec.dim)
        z[0] = round(za / h) * h
        for ksep in range(6):
            s = h * 2**ksep
            if s > L / 8:
                break
            y = z + s * axis_dirs[0]
            dmin = 2.0 * s**sigma
            cands = [dmin * fac for fac in (1.0, 1.5, 2.0, 3.0, 5.0)]
            cands += [d for d in absolute if d >= dmin]
            for d in cands:
                if d > L / 2:
                    continue
                d = max(round(d / h), 1) * h
                if d < dmin:
                    d += h
                for direction in axis_dirs:
                    x = z + d * direction
                    if np.max(np.abs(x)) < L - 2 * h and np.max(np.abs(y)) < L - 2 * h:
                        triples.append((tuple(x), tuple(y), tuple(z)))
    return triples


def kernel_holder_check(T: OperatorSpec, delta: float, sigma: float, spec: GridSpec,
                        sample_triples=None) -> KernelHolderReport:
    """Fitted constant in the kernel regularity bound
    |K(x,y)-K(x,z)| + |K(y,x)-K(z,x)| <= C |y-z|^delta / |x-z|^{n+delta/sigma}
    over sample triples with |x-z| >= 2 |y-z|^sigma."""
    if not (0 < delta <= 1 and 0 < sigma <= 1):
        raise ValueError("need delta, sigma in (0, 1]")
    k = _materialized_kernel(T, spec)
    if sample_triples is None:
        sample_triples = default_holder_triples(spec, sigma)

    h = spec.spacing

    def k_at(u):
        return k.samples[spec.index_of(u)]

    best = 0.0
    used = 0
    for x, y, z in sample_triples:
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        dyz = float(np.linalg.norm(y - z))
        dxz = float(np.linalg.norm(x - z))
        if dyz < h / 2 or dxz < 2.0 * dyz**sigma:
            continue
        used += 1
        num = abs(k_at(x - y) - k_at(x - z)) + abs(k_at(y - x) - k_at(z - x))
        best = max(best, num * dxz ** (spec.dim + delta / sigma) / dyz**delta)
    if used == 0:
        raise NumericalError("no admissible triples at current resolution")
    return KernelHolderReport(T.name, delta, sigma, float(best), used)


# ---------------------------------------------------------------------------
# builtin catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    description: str
    defaults: tuple = ()
    claimed: tuple = ()
    pathological: bool = False

    def claims(self) -> dict:
        return dict(self.claimed)


def _xi_norm(xi):
    return np.sqrt(np.sum(xi**2, axis=0))


def _jap(xi):
    """Japanese bracket <xi> = sqrt(1 + |xi|^2)."""
    return np.sqrt(1.0 + np.sum(xi**2, axis=0))


_CATALOG = [
    CatalogEntry("identity", "multiplier", "symbol 1", (), (("mu", 4.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("gaussian", "multiplier", "smoothing exp(-(w|xi|)^2/4) at width w",
                 (("width", 0.05),), (("mu", 4.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("riesz", "multiplier", "inhomogeneous Riesz -i xi_1/<xi>",
                 (), (("mu", 1.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("bessel-phase", "multiplier", "imaginary-order Bessel <xi>^{i beta}",
                 (("beta", 1.0),), (("mu", 1.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("order-zero", "multiplier", "<xi>^{-1} (1 + i xi_1)",
                 (), (("mu", 1.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("strongly-singular", "multiplier",
                 "e^{i |xi|^b} <xi>^{-a}; L^q -> L^2 bookkeeping 1/q = 1/2 + beta/n, "
                 "beta = a = n(1-sigma)/2, sigma = b",
                 (("b", 0.5), ("a", None)), (("mu", 1.0), ("delta", 1.0), ("sigma", 0.5))),
    CatalogEntry("truncated-power", "kernel", "|u|^{-n-mu} cut smoothly below |u|=1 "
                 "and near the half-domain", (("mu", 1.0),), (("mu", 1.0),)),
    CatalogEntry("jump-kernel", "kernel", "bounded kernel with a jump across |u1| = c",
                 (("c", 0.5),), (), True),
    CatalogEntry("sign-mult", "pointwise", "multiplication by sign(x1)", (), (), True),
    CatalogEntry("halfpower-mult", "pointwise", "multiplication by |x1|^{1/2} cutoff", (), (), True),
    CatalogEntry("modulation", "pointwise", "multiplication by e^{i x . xi0}",
                 (("xi0", 8.0),), (), True),
]


def builtin_operators() -> dict[str, CatalogEntry]:
    """Named catalog of builtin operators with parameter metadata."""
    return {e.name: e for e in _CATALOG}


def get_operator(name: str, spec: GridSpec, **params) -> OperatorSpec:
    """Instantiate a catalog operator on a grid; params override the defaults."""
    try:
        entry = builtin_operators()[name]
    except KeyError:
        raise KeyError(f"unknown operator {name!r}; see builtin_operators()") from None
    opts = dict(entry.defaults)
    opts.update(params)
    meta = {**entry.claims(), **opts}

    if name == "identity":
        return MultiplierOp(lambda xi: np.ones(xi.shape[1:]), name=name, params=meta)
    if name == "gaussian":
        w = float(opts["width"])
        return MultiplierOp(lambda xi: np.exp(-(w**2) * np.sum(xi**2, axis=0) / 4.0),
                            name=name, params=meta)
    if name == "riesz":
        return MultiplierOp(lambda xi: -1j * xi[0] / _jap(xi), name=name, params=meta)
    if name == "bessel-phase":
        b = float(opts["beta"])
        return MultiplierOp(lambda xi: _jap(xi) ** (1j * b), name=name, params=meta)
    if name == "order-zero":
        return MultiplierOp(lambda xi: (1.0 + 1j * xi[0]) / _jap(xi), name=name, params=meta)
    if name == "strongly-singular":
        b = float(opts["b"])
        a = opts["a"]
        a = spec.dim * (1.0 - b) / 2.0 if a is None else float(a)
        meta["a"] = a
        meta["beta"] = a
        meta["sigma"] = b
        meta["q"] = 1.0 / (0.5 + a / spec.dim)
        return MultiplierOp(
            lambda xi: np.exp(1j * _xi_norm(xi) ** b) * _jap(xi) ** (-a),
            name=name, params=meta)
    if name == "truncated-power":
        mu = float(opts["mu"])
        L = spec.half_width

        def kern(pts):
            u = np.sqrt(np.sum(pts**2, axis=0))
            with np.errstate(divide="ignore"):
                vals = np.where(u > 0, u, 1.0) ** (-(spec.dim + mu))
            vals = vals * quintic_step(2.0 * u - 1.0)  # zero below |u| = 1/2
            vals = vals * (1.0 - quintic_step(u / (0.40 * L) - 1.0))  # zero beyond 0.8 L
            return vals

        return KernelOp(sample_function(spec, kern), name=name, params=meta)
    if name == "jump-kernel":
        c = float(opts["c"])

        def kern(pts):
            u2 = np.sum(pts**2, axis=0)
            return np.exp(-u2) * (1.0 + 0.5 * np.sign(np.abs(pts[0]) - c))

        return KernelOp(sample_function(spec, kern), name=name, params=meta)
    if name == "sign-mult":
        return PointwiseOp(sample_function(spec, lambda p: np.sign(p[0])), name=name, params=meta)
    if name == "halfpower-mult":
        def factor(pts):
            r2 = np.sum(pts**2, axis=0)
            return np.sqrt(np.abs(pts[0])) * (1.0 - quintic_step(np.sqrt(r2) / 1.5 - 1.0))

        return PointwiseOp(sample_function(spec, factor), name=name, params=meta)
    if name == "modulation":
        xi0 = opts["xi0"]
        xi0 = (float(xi0),) * spec.dim if np.isscalar(xi0) else tuple(map(float, xi0))
        meta["xi0"] = xi0

        def factor(pts):
            phase = np.zeros(pts.shape[1:])
            for i in range(spec.dim):
                phase = phase + xi0[i] * pts[i]
            return np.exp(1j * phase)

        return PointwiseOp(sample_function(spec, factor), name=name, params=meta)
    raise AssertionError(f"catalog entry {name} without builder")
