"""Brute-force oracles the tests check the library against.

`materialize` turns any operator into its dense matrix (O(m^{2 dim}) memory,
so only on small grids), `verify_admissible` certifies a test function's
support and derivative bounds by dense sampling and finite differences,
`container_bytes` writes the binary grid-function container, and
`reference_cancellation_test` runs the cancellation test one row at a time,
with a fresh adjoint and symbol per application and full-grid windows and
masks. None of them is used by the experiments.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from hardylab.errors import NumericalError
from hardylab.grid import Ball, GridFunction, GridSpec, sq_distance
from hardylab.maximal import _fd_sups, _radius, quintic_step
from hardylab.moments import (
    MultiIndex,
    as_multiindex,
    dual_norm_check,
    local_oscillation,
    monomial_field,
    multiindices,
    order,
    psi,
)
from hardylab.operators import WINDOW_SENSITIVITY_LIMIT, CancellationRow, OperatorSpec

MATERIALIZE_CAP = 128


@dataclass
class MatrixOp(OperatorSpec):
    """Dense kernel samples A with (Tf)_i = h^dim * sum_j A_ij f_j."""

    matrix: np.ndarray
    spec: GridSpec
    name: str = "matrix"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.spec.num_samples
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}")

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise ValueError("grid mismatch")
        out = self.spec.cell_volume * (self.matrix @ f.samples.ravel())
        return GridFunction(self.spec, out.reshape(self.spec.shape))

    def adjoint(self) -> "MatrixOp":
        return MatrixOp(self.matrix.conj().T.copy(), self.spec, name=f"{self.name}*",
                        params=self.params)


def materialize(T: OperatorSpec, spec: GridSpec) -> MatrixOp:
    """Dense matrix of T from its action on single-cell unit-mass spikes,
    capped at m <= 128 per axis."""
    if spec.points_per_axis > MATERIALIZE_CAP:
        raise ValueError(f"materialization capped at m <= {MATERIALIZE_CAP}")
    n = spec.num_samples
    h = spec.cell_volume
    cols = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0 / h
        cols[:, j] = T.apply(GridFunction(spec, e.reshape(spec.shape))).samples.ravel()
    if np.max(np.abs(cols.imag)) == 0:
        cols = cols.real.copy()
    return MatrixOp(cols, spec, name=f"{T.name}.matrix", params=dict(T.params))


_SAMPLING_SLACK = 0.01


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
    pts = np.stack(np.meshgrid(*axes, indexing="ij"))
    vals = np.abs(np.asarray(phi(pts), dtype=float))
    outside = _radius(pts, x) > t * (1.0 + 1e-9)
    scale = float(vals.max()) or 1.0
    leak = float(vals[outside].max(initial=0.0)) / scale
    support_ok = leak <= 1e-12

    rows = [BoundRow(beta, sups[beta], t ** (-dim - order(beta)))
            for beta in multiindices(dim, k)]
    return AdmissibilityReport(t=t, k=k, support_ok=support_ok, support_leak=leak, rows=rows)


def container_bytes(f: GridFunction) -> bytes:
    """f in the flat binary container, written independently of the library:
    magic, little-endian (dim, m, L, complex flag), then the samples."""
    flag = 0 if f.is_real else 1
    header = b"HLGRDFN1" + struct.pack("<IQdB", f.spec.dim, f.spec.points_per_axis,
                                       f.spec.half_width, flag)
    return header + f.samples.ravel().astype("<c16" if flag else "<f8").tobytes()


def _full_grid_rms(f: GridFunction, ball: Ball) -> float:
    mask = sq_distance(f.spec.points(), ball.center) < ball.radius**2
    if not mask.any():
        raise NumericalError("degenerate region")
    return float(np.sqrt(np.mean(np.abs(f.samples[mask]) ** 2)))


def reference_tstar_monomial(T: OperatorSpec, x0, alpha, W: float, spec: GridSpec):
    """(T* of the windowed monomial at W, window sensitivity), each field by
    its own T.adjoint().apply on a full-grid window."""
    x0 = tuple(float(c) for c in x0)
    alpha = as_multiindex(alpha, spec.dim)
    mono = monomial_field(spec, x0, alpha)
    dist = np.sqrt(sq_distance(spec.points(), x0))

    def window(R):
        return GridFunction(spec, 1.0 - quintic_step(dist / R - 1.0))

    f_full = T.adjoint().apply(window(W) * mono)
    f_half = T.adjoint().apply(window(W / 2.0) * mono)
    scale = _full_grid_rms(window(W) * mono, Ball(x0, 2.0 * W))
    sens = _full_grid_rms(f_full - f_half, Ball(x0, W / 4.0)) / max(scale, 1e-300)
    if sens > WINDOW_SENSITIVITY_LIMIT:
        raise NumericalError("T* monomial not stable: kernel tail too heavy")
    return f_full, float(sens)


def reference_cancellation_test(T: OperatorSpec, idx, balls, alphas, spec: GridSpec,
                                check_duality: bool = True) -> list[CancellationRow]:
    """The rows of cancellation_test, ball by ball and alpha by alpha, each
    from its own reference_tstar_monomial."""
    rows = []
    for ball in balls:
        W = max(8.0 * ball.radius, 1.0)
        for alpha in alphas:
            alpha = as_multiindex(alpha, spec.dim)
            field, sens = reference_tstar_monomial(T, ball.center, alpha, W, spec)
            osc = local_oscillation(field, ball, idx.N_p)
            psival = psi(idx, alpha, ball.radius)
            gap = float("nan")
            if check_duality:
                lhs, rhs = dual_norm_check(field, ball, idx.N_p, trials=0)
                gap = abs(lhs - rhs)
            rows.append(CancellationRow(ball, alpha, float(osc), float(psival),
                                        float(osc / psival), W, sens, gap))
    return rows
