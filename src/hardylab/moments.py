"""Multi-indices, moments, moment-matching polynomial projections, and the
local oscillation functional together with its dual-norm characterization.

The projection P_B^N(f) solves the Gram system over monomials scaled by the
ball radius, G c = b with G_ab = int_B ((y-x0)/r)^(a+b) dy; this is the
L2(B)-orthogonal projection onto polynomials of degree <= N and matches the
moments of f over B up to order N exactly at the quadrature level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily; load it with the package)

from .errors import NumericalError
from .grid import Ball, GridFunction, GridSpec, ball_smooth_fields

GRAM_CONDITION_LIMIT = 1e12

MultiIndex = tuple[int, ...]


def as_multiindex(alpha, dim: int | None = None) -> MultiIndex:
    """Normalize alpha to a tuple of nonnegative ints, optionally checking dim."""
    if isinstance(alpha, int):
        alpha = (alpha,)
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
    if dim is not None and len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} has wrong dimension (want {dim})")
    return alpha


def order(alpha: MultiIndex) -> int:
    return sum(alpha)


def multiindices(dim: int, degree: int) -> list[MultiIndex]:
    """All multi-indices with |alpha| <= degree, sorted by (order, lexicographic)."""
    out = [
        a
        for a in itertools.product(range(degree + 1), repeat=dim)
        if sum(a) <= degree
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


@dataclass(frozen=True)
class PolySpace:
    """Polynomials of degree <= degree on R^dim, with an ordered monomial basis."""

    dim: int
    degree: int
    basis: tuple[MultiIndex, ...] = field(init=False)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        object.__setattr__(self, "basis", tuple(multiindices(self.dim, self.degree)))
        expected = math.comb(self.degree + self.dim, self.dim)
        assert len(self.basis) == len(set(self.basis)) == expected

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class HardyIndex:
    """The integrability index p in (0,1] with its cancellation bookkeeping.

    gamma_p = dim*(1/p - 1), N_p = floor(gamma_p); the critical case is
    gamma_p an integer, where the top moment bound picks up the log factor.
    Values within 1e-9 of an integer are snapped, so p = 1/2 or 1/3 written
    in floating point land in the critical branch as intended.
    """

    p: float
    dim: int

    def __post_init__(self):
        if not (0 < self.p <= 1):
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")

    @property
    def gamma_p(self) -> float:
        g = self.dim * (1.0 / self.p - 1.0)
        r = round(g)
        return float(r) if abs(g - r) <= 1e-9 * max(1.0, abs(g)) else g

    @property
    def N_p(self) -> int:
        return int(math.floor(self.gamma_p))

    @property
    def critical(self) -> bool:
        return self.gamma_p == self.N_p


def monomial(pts: np.ndarray, x0, alpha: MultiIndex) -> np.ndarray:
    """(x - x0)^alpha at every point of pts, shape (dim,) + grid."""
    out = np.ones(pts.shape[1:])
    for i, a in enumerate(alpha):
        if a:
            out = out * (pts[i] - x0[i]) ** a
    return out


def monomial_field(spec: GridSpec, x0, alpha: MultiIndex) -> GridFunction:
    """(x - x0)^alpha sampled on the grid: each factor (x_i - x0_i)^a_i on
    its axis, multiplied in by broadcasting, bit for bit monomial at
    spec.points() without building them."""
    out = np.ones(spec.shape)
    for i, a in enumerate(alpha):
        if a:
            out *= ((spec.axis() - x0[i]) ** a).reshape((-1,) + (1,) * (spec.dim - 1 - i))
    return GridFunction(spec, out)


def _boundary_l1_fraction(f: GridFunction) -> float:
    a = np.abs(f.samples)
    total = a.sum()
    if total == 0:
        return 0.0
    m = f.spec.points_per_axis
    mask = np.zeros(f.spec.shape, dtype=bool)
    for axis in range(f.spec.dim):
        sl = [slice(None)] * f.spec.dim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = m - 1
        mask[tuple(sl)] = True
    return float(a[mask].sum() / total)


def moment(f: GridFunction, x0, alpha) -> float | complex:
    """The moment <f, (.-x0)^alpha>; f must be supported inside the domain."""
    alpha = as_multiindex(alpha, f.spec.dim)
    if _boundary_l1_fraction(f) > 1e-12:
        raise NumericalError("moment undefined: support escapes domain")
    vals = f.samples * monomial(f.spec.points(), x0, alpha)
    out = vals.sum() * f.spec.cell_volume
    return float(out) if f.is_real else complex(out)


class BallBasis:
    """The scaled monomials ((y-x0)/r)^a, |a| <= degree, at the grid points of
    a ball, with the Cholesky factor G = U^T U of the Gram matrix
    G_ab = int_B w ((y-x0)/r)^(a+b) dy (w = 1 unless a weight is given).

    Values on the ball are passed as `slab.gather(samples)`, one column per
    function.
    """

    def __init__(self, spec: GridSpec, ball: Ball, degree: int, weight: GridFunction | None = None):
        self.space = PolySpace(spec.dim, degree)
        self.slab = ball.box(spec)
        self.npts = self.slab.count
        if self.npts < self.space.dimension:
            raise NumericalError(
                f"degenerate region: ball holds {self.npts} grid points"
                f" < {self.space.dimension} basis functions"
            )
        idx, inside = self.slab
        ax = spec.axis()
        pts = np.stack([x[inside] for x in np.meshgrid(*(ax[i] for i in idx), indexing="ij")])
        self.scales = np.array([ball.radius ** order(a) for a in self.space.basis])
        self._monomials = [monomial(pts, ball.center, a) for a in self.space.basis]
        self.cols = np.stack([m / s for m, s in zip(self._monomials, self.scales)], axis=1)
        self.weight = None if weight is None else self.slab.gather(weight.samples)
        self._weighted = self.cols if weight is None else self.cols * self.weight[:, None]
        self.h = spec.cell_volume
        G = self._weighted.T @ self.cols * self.h
        if np.linalg.cond(G) > GRAM_CONDITION_LIMIT:
            raise NumericalError("ill-conditioned projection (N too large for ball resolution)")
        try:
            self._U = np.linalg.cholesky(G, upper=True)
        except np.linalg.LinAlgError:
            raise NumericalError("projection Gram matrix is not positive definite"
                                 " (the weight must be positive on the ball)") from None

    def solve(self, b: np.ndarray) -> np.ndarray:
        """G^{-1} b by forward substitution in U^T and back substitution in U,
        one basis row at a time; real and imaginary parts are solved separately."""
        if np.iscomplexobj(b):
            return self.solve(b.real) + 1j * self.solve(b.imag)
        U, x = self._U, np.array(b, dtype=np.float64)
        for i in range(len(U)):
            x[i] = (x[i] - U[:i, i] @ x[:i]) / U[i, i]
        for i in reversed(range(len(U))):
            x[i] = (x[i] - U[i, i + 1:] @ x[i + 1:]) / U[i, i]
        return x

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of the (weighted) L2(B) projection of each column."""
        return self.solve(self._weighted.T @ values * self.h)

    def evaluate(self, c: np.ndarray) -> np.ndarray:
        """The polynomial sum_a c_a ((y-x0)/r)^a at the ball's points, summed
        monomial by monomial. With one column of c per function, the result
        has one contiguous row per function."""
        fit = np.zeros(c.shape[1:] + (self.npts,), dtype=c.dtype)
        for m, s, ca in zip(self._monomials, self.scales, c):
            fit = fit + np.multiply.outer(ca, m) / s
        return fit

    def residual(self, values: np.ndarray) -> np.ndarray:
        """values minus their projection. For values = np.stack(fields).T
        every residual column is contiguous and sums over it equal the sums
        over a single field."""
        return values - self.evaluate(self.coeffs(values)).T


def poly_project(f: GridFunction, ball: Ball, degree: int,
                 weight: GridFunction | None = None) -> GridFunction:
    """L2(B)-orthogonal projection of f onto polynomials of degree <= N, on
    the ball's samples and 0 off the ball; with a weight w, the Q with
    int_B w*(f - Q)*(y-x0)^b dy = 0 for all |b| <= N (the atom generator
    subtracts w*Q from w*f to kill moments while keeping the smooth edge
    cutoff w).

    Monomials are scaled by r^{-|a|} so the Gram condition number does not
    depend on the ball radius; a condition estimate above 1e12 is a hard
    failure, since a silent loss of moment matching would corrupt every
    oscillation value downstream.
    """
    basis = BallBasis(f.spec, ball, degree, weight)
    fit = basis.evaluate(basis.coeffs(basis.slab.gather(f.samples)))
    return GridFunction(f.spec, basis.slab.scatter(fit))


def match_moments_with_bump(spec: GridSpec, ball: Ball, degree: int,
                            weight: GridFunction, targets: np.ndarray) -> GridFunction:
    """A smooth function q = weight * (polynomial) supported in the ball whose
    raw moments about the ball center equal `targets` (ordered like the
    PolySpace basis) exactly at the quadrature level."""
    targets = np.asarray(targets)
    if targets.shape != (PolySpace(spec.dim, degree).dimension,):
        raise ValueError("targets must match the polynomial basis size")
    basis = BallBasis(spec, ball, degree, weight)
    d = basis.solve(targets / basis.scales)
    return GridFunction(spec, basis.slab.scatter(basis.weight * basis.evaluate(d)))


def local_oscillation(f: GridFunction, ball: Ball, degree: int) -> float:
    """(|B|^{-1} int_B |f - P_B^N(f)|^2)^{1/2} with the discrete ball measure."""
    basis = BallBasis(f.spec, ball, degree)
    resid = basis.residual(basis.slab.gather(f.samples))
    return float(np.sqrt(np.sum(np.abs(resid) ** 2) / basis.npts))


def small_ball_factor(idx: HardyIndex, alpha, r: float) -> float:
    """The extra factor [log(1+1/r)]^{-1/p} of the small-ball moment bound at
    the critical order |alpha| = gamma_p = N_p, and 1 at every other order."""
    if idx.critical and order(alpha) == idx.N_p:
        return math.log1p(1.0 / r) ** (-1.0 / idx.p)
    return 1.0


def psi(idx: HardyIndex, alpha, t: float) -> float:
    """The moment decay modulus: t^gamma, times small_ball_factor, which is
    not 1 only in the integer-critical case |alpha| = gamma_p = N_p."""
    alpha = as_multiindex(alpha, idx.dim)
    if not (0 < t < 1):
        raise ValueError(f"t must lie in (0, 1), got {t}")
    k = order(alpha)
    g = idx.gamma_p
    if k < g or (k == g and idx.critical):
        return float(t**g * small_ball_factor(idx, alpha, t))
    raise ValueError(
        f"|alpha| = {k} outside the admissible range: need |alpha| < gamma_p"
        f" = {g}, or |alpha| = gamma_p with gamma_p an integer"
    )


def dual_norm_check(
    f: GridFunction,
    ball: Ball,
    degree: int,
    trials: int,
    seed: int = 0,
    include_deterministic: bool = True,
) -> tuple[float, float]:
    """Test the identity sup{|<f,psi>| : psi in L2(B), moments 0, ||psi|| <= 1}
    = ||f - P_B^N(f)||_{L2(B)}.

    Returns (lhs, rhs): lhs maximizes over `trials` random moment-free test
    functions (smooth noise with correlation length r/2, drawn on the ball
    only by ball_smooth_fields, plus, when requested,
    the extremal candidate (f-P)/||f-P||, which makes lhs = rhs up to solver
    roundoff); rhs is the projection residual norm. lhs <= rhs always, by
    Cauchy-Schwarz at the discrete level.
    """
    basis = BallBasis(f.spec, ball, degree)
    h = basis.h
    fm = basis.slab.gather(f.samples)
    resid = basis.residual(fm)
    rhs = float(np.sqrt(np.sum(np.abs(resid) ** 2) * h))

    candidates = ball_smooth_fields(f.spec, ball, ball.radius / 2.0, trials,
                                    np.random.default_rng(seed))
    if include_deterministic and rhs > 0:
        # one contiguous column per candidate, as residual expects
        candidates = np.vstack([candidates.T, resid]).T
    if candidates.shape[1] == 0:
        return 0.0, rhs
    v = basis.residual(candidates)
    nrm = np.sqrt(np.sum(np.abs(v) ** 2, axis=0) * h)
    pairing = np.abs(np.sum(fm[:, None] * np.conj(v), axis=0) * h)
    keep = nrm >= 1e-14
    return float(np.max(pairing[keep] / nrm[keep], initial=0.0)), rhs
