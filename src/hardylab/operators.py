"""Linear operators (Fourier multipliers, convolution kernels, pointwise
multipliers), adjoints, windowed monomial pairings and the
cancellation-condition tester.

Adjoints are Hermitian (conjugate symbol / conjugate transpose); for the real
windowed monomials that `cancellation_test` applies T* to, this agrees with
the pairing-based definition <T*[m], a> = <m, Ta>.

Since the monomial is not integrable, T*[(.-x0)^alpha] is realized through a
smooth window equal to 1 on B(x0, W) and 0 outside B(x0, 2W). Every such
computation carries a window-sensitivity certificate: the same field at W/2,
compared on B(x0, W/4) and normalized by the size of the windowed monomial,
must move by at most 10%, otherwise the kernel tail is too heavy for the
truncation to mean anything.

`cancellation_test` computes each of these fields once: it takes the adjoint
once, a `MultiplierOp` samples its symbol once per grid, and along a ladder
of balls the fields at W and W/2 of one ball are reused by the next, which
needs the same radii or half of them. The rows equal, bit for bit, those
computed with a fresh pair of fields per (ball, alpha).

Each entry of the builtin catalog holds its operator's closed form and its
default parameters. `get_operator` merges the defaults with the given
parameters, rejects a parameter the entry does not take, and has the entry
build the operator.
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
    _sampled: SampledSymbol | None = field(default=None, init=False, repr=False, compare=False)

    def apply(self, f: GridFunction) -> GridFunction:
        if self._sampled is None or self._sampled.spec != f.spec:
            self._sampled = sample_symbol(f.spec, self.symbol)
        return fourier_multiplier(f, self._sampled)

    def adjoint(self) -> "MultiplierOp":
        sym = self.symbol
        return MultiplierOp(lambda xi: np.conj(sym(xi)), name=f"{self.name}*")


@dataclass
class KernelOp(OperatorSpec):
    """Convolution with a sampled kernel k: (Tf)(x) = (k * f)(x).

    The kernel and f are real (convolve raises ValueError otherwise), and so
    is the adjoint's kernel, the reflected one. convolve keeps its spectra
    here, one per window side of the real window layer, each taken on the
    first application that needs it, so later applications only transform f.
    """

    kernel: GridFunction
    name: str = "kernel"
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.kernel.spec:
            raise ValueError("grid mismatch")
        return convolve(f, self.kernel, self._spectra)

    def adjoint(self) -> "KernelOp":
        return KernelOp(reflect(self.kernel), name=f"{self.name}*")


@dataclass
class PointwiseOp(OperatorSpec):
    """Multiplication by a fixed grid function (sign flips, modulations, ...).

    Not expressible as a multiplier or convolution kernel; kept as its own
    variant so the pathological catalog entries do not need dense matrices.
    """

    factor: GridFunction
    name: str = "pointwise"

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.factor.spec:
            raise ValueError("grid mismatch")
        return self.factor * f

    def adjoint(self) -> "PointwiseOp":
        return PointwiseOp(self.factor.conj(), name=f"{self.name}*")


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

    def certify(self, x0: tuple[float, ...], W: float) -> tuple[GridFunction, float]:
        """T*(window_W * (.-x0)^alpha) and its window sensitivity."""
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
        return f_full, float(sens)


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


def cancellation_test(T: OperatorSpec, idx: HardyIndex, balls, alphas,
                      spec: GridSpec) -> list[CancellationRow]:
    """Measure the local oscillation of T*[(.-x0)^alpha] against the decay
    modulus psi on each ball.

    For each (B, alpha): f = T*(window_W * (.-x0)^alpha) at
    W = window_radius(r), with its window-sensitivity certificate,
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
            f, sens = ladder.certify(ball.center, W)
            osc = local_oscillation(f, ball, idx.N_p)
            psival = psi(idx, alpha, ball.radius)
            lhs, rhs = dual_norm_check(f, ball, idx.N_p, trials=0)
            table[i][j] = CancellationRow(ball, alpha, float(osc), float(psival),
                                          float(osc / psival), W, sens, abs(lhs - rhs))
            del f  # the ladder keeps the fields it reuses; none other outlives its row
    return [row for ball_rows in table for row in ball_rows]


# ---------------------------------------------------------------------------
# builtin catalog


@dataclass(frozen=True)
class CatalogEntry:
    """A named operator. form(x, spec, **params) is its closed form: the
    symbol at the frequencies x for a multiplier, the kernel or the factor at
    the points x otherwise."""

    name: str
    kind: str
    description: str
    form: object
    defaults: tuple = ()
    claimed: tuple = ()
    pathological: bool = False

    def build(self, spec: GridSpec, **params) -> OperatorSpec:
        """The operator on the grid, with every parameter given."""
        if self.kind == "multiplier":
            return MultiplierOp(lambda xi: self.form(xi, spec, **params), name=self.name)
        op = KernelOp if self.kind == "kernel" else PointwiseOp
        return op(sample_function(spec, lambda pts: self.form(pts, spec, **params)), name=self.name)


def _jap(xi):
    """Japanese bracket <xi> = sqrt(1 + |xi|^2)."""
    return np.sqrt(1.0 + np.sum(xi**2, axis=0))


def _strongly_singular(xi, spec, b, a):
    b = float(b)
    a = spec.dim * (1.0 - b) / 2.0 if a is None else float(a)
    return np.exp(1j * np.sqrt(np.sum(xi**2, axis=0)) ** b) * _jap(xi) ** (-a)


def _truncated_power(pts, spec, mu):
    u = np.sqrt(np.sum(pts**2, axis=0))
    with np.errstate(divide="ignore"):
        vals = np.where(u > 0, u, 1.0) ** (-(spec.dim + float(mu)))
    vals = vals * quintic_step(2.0 * u - 1.0)  # zero below |u| = 1/2
    return vals * (1.0 - quintic_step(u / (0.40 * spec.half_width) - 1.0))  # zero beyond 0.8 L


def _halfpower(pts, spec):
    r2 = np.sum(pts**2, axis=0)
    return np.sqrt(np.abs(pts[0])) * (1.0 - quintic_step(np.sqrt(r2) / 1.5 - 1.0))


def _modulation(pts, spec, xi0):
    xi0 = (float(xi0),) * spec.dim if np.isscalar(xi0) else tuple(map(float, xi0))
    phase = np.zeros(pts.shape[1:])
    for i in range(spec.dim):
        phase = phase + xi0[i] * pts[i]
    return np.exp(1j * phase)


_CATALOG = [
    CatalogEntry("identity", "multiplier", "symbol 1", lambda xi, spec: np.ones(xi.shape[1:]),
                 (), (("mu", 4.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("gaussian", "multiplier", "smoothing exp(-(w|xi|)^2/4) at width w",
                 lambda xi, spec, width: np.exp(-(float(width)**2) * np.sum(xi**2, axis=0) / 4.0),
                 (("width", 0.05),), (("mu", 4.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("riesz", "multiplier", "inhomogeneous Riesz -i xi_1/<xi>",
                 lambda xi, spec: -1j * xi[0] / _jap(xi),
                 (), (("mu", 1.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("bessel-phase", "multiplier", "imaginary-order Bessel <xi>^{i beta}",
                 lambda xi, spec, beta: _jap(xi) ** (1j * float(beta)),
                 (("beta", 1.0),), (("mu", 1.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("order-zero", "multiplier", "<xi>^{-1} (1 + i xi_1)",
                 lambda xi, spec: (1.0 + 1j * xi[0]) / _jap(xi),
                 (), (("mu", 1.0), ("delta", 1.0), ("sigma", 1.0))),
    CatalogEntry("strongly-singular", "multiplier",
                 "e^{i |xi|^b} <xi>^{-a}; L^q -> L^2 bookkeeping 1/q = 1/2 + beta/n, "
                 "beta = a = n(1-sigma)/2, sigma = b", _strongly_singular,
                 (("b", 0.5), ("a", None)), (("mu", 1.0), ("delta", 1.0), ("sigma", 0.5))),
    CatalogEntry("truncated-power", "kernel", "|u|^{-n-mu} cut smoothly below |u|=1 "
                 "and near the half-domain", _truncated_power, (("mu", 1.0),), (("mu", 1.0),)),
    CatalogEntry("jump-kernel", "kernel", "bounded kernel with a jump across |u1| = c",
                 lambda pts, spec, c: np.exp(-np.sum(pts**2, axis=0))
                 * (1.0 + 0.5 * np.sign(np.abs(pts[0]) - float(c))),
                 (("c", 0.5),), (), True),
    CatalogEntry("sign-mult", "pointwise", "multiplication by sign(x1)",
                 lambda pts, spec: np.sign(pts[0]), (), (), True),
    CatalogEntry("halfpower-mult", "pointwise", "multiplication by |x1|^{1/2} cutoff", _halfpower,
                 (), (), True),
    CatalogEntry("modulation", "pointwise", "multiplication by e^{i x . xi0}", _modulation,
                 (("xi0", 8.0),), (), True),
]


def builtin_operators() -> dict[str, CatalogEntry]:
    """Named catalog of builtin operators with parameter metadata."""
    return {e.name: e for e in _CATALOG}


def catalog_entry(name: str) -> CatalogEntry:
    """The catalog entry of name; ValueError for a name not in the catalog."""
    try:
        return builtin_operators()[name]
    except KeyError:
        raise ValueError(f"unknown operator {name!r}; see hardylab list-operators") from None


def get_operator(name: str, spec: GridSpec, **params) -> OperatorSpec:
    """Instantiate a catalog operator on a grid; params override the
    defaults, and a parameter the entry does not take is a ValueError."""
    entry = catalog_entry(name)
    opts = dict(entry.defaults)
    unknown = sorted(params.keys() - opts.keys())
    if unknown:
        takes = f"takes {', '.join(opts)}" if opts else "takes no parameters"
        raise ValueError(f"operator {name!r} has no parameter {unknown[0]!r}; it {takes}")
    return entry.build(spec, **{**opts, **params})
