"""Atom generation and validation, pre-molecule size checks, and
moment-decay tables for small-ball functions.

Atoms follow the local convention: supported in B(x0, r), L^s size bound
r^{n(1/s - 1/p)} (imposed with equality by the generator), and vanishing
moments up to N_p required only when r < 1; "global" atoms require the
moments regardless of r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (NumPy loads it lazily; load it with the package)

from .errors import NumericalError
from .grid import Ball, GridFunction, GridSpec, axes_sq_distance, ball_smooth_fields, lp_norm, lp_quasinorm
from .maximal import quintic_step
from .moments import (
    HardyIndex,
    moment,
    multiindices,
    order,
    poly_project,
    small_ball_factor,
)

LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True)
class AtomSpec:
    """Parameters of a (p, s) atom on a ball, for the local or global space."""

    idx: HardyIndex
    s: float
    ball: Ball
    space: str = LOCAL

    def __post_init__(self):
        if not (np.isinf(self.s) or self.s >= 1):
            raise ValueError("s must satisfy s >= 1 (or inf)")
        if self.s == self.idx.p:
            raise ValueError("s must differ from p")
        if self.space not in (LOCAL, GLOBAL):
            raise ValueError(f"space must be '{LOCAL}' or '{GLOBAL}'")
        if self.ball.dim != self.idx.dim:
            raise ValueError("ball/index dimension mismatch")

    @property
    def needs_cancellation(self) -> bool:
        return self.space == GLOBAL or self.ball.radius < 1.0

    @property
    def size_bound(self) -> float:
        n, p, s = self.idx.dim, self.idx.p, self.s
        inv_s = 0.0 if np.isinf(s) else 1.0 / s
        return self.ball.radius ** (n * (inv_s - 1.0 / p))


@dataclass(frozen=True)
class PreMoleculeSpec:
    """Size parameters (p, s, lambda, C): an L^s bound on the ball and a
    weighted L^s tail bound outside it, with lambda > n(s/p - 1) strictly."""

    idx: HardyIndex
    s: float
    lam: float
    C: float
    ball: Ball

    def __post_init__(self):
        if np.isinf(self.s) or not self.s >= 1:
            raise ValueError("pre-molecules use finite s >= 1")
        if not self.lam > self.idx.dim * (self.s / self.idx.p - 1.0):
            raise ValueError(
                f"lambda = {self.lam} must exceed n(s/p - 1) = "
                f"{self.idx.dim * (self.s / self.idx.p - 1.0)}"
            )
        if not self.C > 0:
            raise ValueError("C must be positive")


def edge_cutoff(spec: GridSpec, ball: Ball, width_frac: float = 0.3) -> GridFunction:
    """Smooth cutoff equal to 1 in the core of the ball, 0 at and beyond its
    boundary; quintic descent over the outer width_frac of the radius. It is
    evaluated on the ball's samples only and is exactly 0 off the ball."""
    slab = ball.box(spec)
    dist = np.sqrt(slab.sq_dist[slab.inside])
    vals = quintic_step((ball.radius - dist) / (width_frac * ball.radius))
    vals[dist >= ball.radius] = 0.0
    return GridFunction(spec, slab.scatter(vals))


def make_atom(spec_: AtomSpec, seed: int, grid: GridSpec) -> GridFunction:
    """Seeded random atom: band-limited noise on the ball times a smooth edge
    cutoff, projected off polynomials of degree <= N_p (in the cutoff-weighted
    sense, so discrete moments vanish at quadrature level) when cancellation
    is required, then rescaled so the L^s size bound holds with equality."""
    ball, idx = spec_.ball, spec_.idx
    if not ball.fits_in(grid):
        raise ValueError("atom ball not contained in the grid domain")
    slab = ball.box(grid)
    needed = 4 * len(multiindices(grid.dim, idx.N_p))
    if slab.count < needed:
        raise NumericalError(
            f"ball too small to resolve an atom: {slab.count} grid points < {needed}"
        )
    w = edge_cutoff(grid, ball)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        u = GridFunction(grid, slab.scatter(ball_smooth_fields(grid, ball, ball.radius / 3.0, 1, rng)[:, 0]))
        raw = w * u
        if spec_.needs_cancellation:
            raw = w * (u - poly_project(u, ball, idx.N_p, weight=w))
        nrm = lp_quasinorm(raw, spec_.s)
        if nrm > 1e-12 * max(lp_quasinorm(w * u, spec_.s), 1e-300):
            return (spec_.size_bound / nrm) * raw
    raise NumericalError("atom generation failed: projection annihilated 8 seeds")


@dataclass
class AtomReport:
    spec: AtomSpec
    tol: float
    support_leak: float
    size_ratio: float
    moment_ratios: dict = field(default_factory=dict)

    @property
    def support_ok(self) -> bool:
        return self.support_leak <= self.tol

    @property
    def size_ok(self) -> bool:
        return self.size_ratio <= 1.0 + self.tol

    @property
    def moments_ok(self) -> bool:
        return all(v <= self.tol for v in self.moment_ratios.values())

    @property
    def passed(self) -> bool:
        return self.support_ok and self.size_ok and self.moments_ok

    def to_text(self) -> str:
        lines = [
            f"atom p={self.spec.idx.p!r} s={self.spec.s!r} r={self.spec.ball.radius!r} "
            f"space={self.spec.space} tol={self.tol:g} passed={self.passed}",
            f"  support leak={self.support_leak:.3e} ok={self.support_ok}",
            f"  size ratio={self.size_ratio!r} ok={self.size_ok}",
        ]
        for a, v in self.moment_ratios.items():
            lines.append(f"  moment alpha={a} normalized={v:.3e}")
        return "\n".join(lines) + "\n"


def validate_atom(a: GridFunction, spec_: AtomSpec, tol: float = 1e-8) -> AtomReport:
    """Check support, the L^s size bound, and (when required) the vanishing
    moments; moment alpha is normalized by ||a||_{L2} * r^{|alpha|}."""
    ball = spec_.ball
    mass = np.abs(a.samples).sum()
    outside = np.abs(a.samples[~ball.mask(a.spec)]).sum()
    leak = float(outside / mass) if mass > 0 else 0.0
    size_ratio = lp_quasinorm(a, spec_.s) / spec_.size_bound
    report = AtomReport(spec_, tol, leak, float(size_ratio))
    if spec_.needs_cancellation:
        l2 = lp_quasinorm(a, 2.0)
        for alpha in multiindices(a.spec.dim, spec_.idx.N_p):
            m = abs(moment(a, ball.center, alpha))
            scale = max(l2 * ball.radius ** order(alpha), 1e-300)
            report.moment_ratios[alpha] = float(m / scale)
    return report


@dataclass
class PreMoleculeReport:
    m1_ratio: float
    m2_ratio: float


def _weighted_tail_norm(M: GridFunction, ball: Ball, s: float, lam: float) -> float:
    # axes_sq_distance: sq_distance's bits with no meshgrid of the points
    d2 = axes_sq_distance([M.spec.axis()] * M.spec.dim, ball.center)
    outside = ~ball.mask(M.spec)
    vals = np.abs(M.samples[outside]) ** s * d2[outside] ** (lam / 2.0)
    return float((vals.sum() * M.spec.cell_volume) ** (1.0 / s))


def validate_premolecule(M: GridFunction, spec_: PreMoleculeSpec) -> PreMoleculeReport:
    """Evaluate both size conditions and report the two LHS/RHS ratios."""
    n, p, s, lam = spec_.idx.dim, spec_.idx.p, spec_.s, spec_.lam
    r = spec_.ball.radius
    m1_lhs = lp_norm(M, s, region=spec_.ball)
    m1_rhs = spec_.C * r ** (n * (1.0 / s - 1.0 / p))
    m2_lhs = _weighted_tail_norm(M, spec_.ball, s, lam)
    m2_rhs = spec_.C * r ** (lam / s + n * (1.0 / s - 1.0 / p))
    return PreMoleculeReport(m1_lhs / m1_rhs, m2_lhs / m2_rhs)


def min_premolecule_constant(M: GridFunction, idx: HardyIndex, s: float,
                             lam: float, ball: Ball) -> float:
    """The smallest admissible C: the max of the two LHS/RHS ratios at C = 1."""
    rep = validate_premolecule(M, PreMoleculeSpec(idx, s, lam, 1.0, ball))
    return max(rep.m1_ratio, rep.m2_ratio)


@dataclass
class MomentBoundRow:
    alpha: tuple
    abs_moment: float
    bound: float
    critical: bool
    ratio: float


def moment_bound_check(g: GridFunction, ball: Ball, idx: HardyIndex, hp: float) -> list[MomentBoundRow]:
    """Empirical constants in the small-ball moment bounds: for each
    |alpha| <= N_p, ratio = |<g, (.-x0)^alpha>| / (hp * bound) with hp the
    caller's ||g||_{h^p} (the L^p quasi-norm of g's small maximal function,
    as E1 and E3 take it from small_maximal_table) and bound = 1 below the
    critical order and [log(1+1/r)]^{-1/p} at it."""
    if not ball.radius < 1.0:
        raise ValueError("moment bounds need r < 1")
    if hp == 0.0:
        raise NumericalError("zero input")
    rows = []
    for alpha in multiindices(g.spec.dim, idx.N_p):
        critical = idx.critical and order(alpha) == idx.N_p
        bound = small_ball_factor(idx, alpha, ball.radius)
        m = abs(moment(g, ball.center, alpha))
        rows.append(MomentBoundRow(alpha, float(m), float(bound), critical,
                                   float(m / (hp * bound))))
    return rows
