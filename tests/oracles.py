"""Brute-force oracles the tests check the library against.

`stacked_points` is every sample point as a full meshgrid, the reference
of the open grid that the library evaluates its closed forms on,
`materialize` turns any operator into its dense matrix (O(m^{2 dim}) memory,
so only on small grids), `CompositionOp` chains operators (no experiment
composes them), `verify_admissible` certifies a test function's support and
derivative bounds by dense sampling and finite differences,
`reference_padded_spectrum` and `reference_convolve_spectra` are the padded
convolution as full-size fftn/ifftn with a fancy-index window, the
reference of the padded transforms that only the p < 1 grand maximal fold
runs (rfftn/irfftn in the 2m real layer that the window layer replaced), `window_convolution`
is the real window layer's convolution on its window, `window_maximal` is
the maximal function of both tables one scale at a time in that layer (the
small one, and the grand one of an order-1 dictionary), and
`padded_small_maximal` the small one on the padded grid,
`inner` is the L2 inner product of two grid functions,
`random_smooth_field` is the full-grid fftn/ifftn draw of the random
fields that the library draws on their ball with `ball_smooth_fields`,
`reference_fourier_multiplier` is a multiplier as full-grid fftn/ifftn with
the symbol's full-grid Hermitian part, `serial_grand_maximal` is the grand
maximal function of a dictionary one scale at a time on the padded full
grid, `small_maximal` and `grand_maximal` are the one-row calls of the
library's tables, `hp_norm` is the h^p quasi-norm of one small maximal function, and
`reference_cancellation_test` runs the cancellation test one row at a time
from `reference_tstar_monomial`, with one adjoint per operator, a field per
application and full-grid windows and masks. The explicit moment-probe
bumps phi^{x,alpha} of the paper's moment lower bound (`build_phi0`,
`phi_x_alpha`) live here too, with `with_probes`, which raises a grand
maximal function to their pairings at given sites, and `index_of`, the grid
index of a site.

So do the paper's verification tools that no experiment runs: the
pre-molecule split `pseudo_decompose` (with `PseudoDecomposition` and
`match_moments_with_bump`, which carries its moment corrections on a bump),
and the sample-based kernel condition checks `kernel_size_check` and
`kernel_holder_check` (with `default_holder_triples`), which take the kernel
of an operator that `translation_invariant` accepts by its class. None of
them is used by the experiments."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from hardylab.atoms import edge_cutoff
from hardylab.errors import NumericalError
from hardylab.grid import Ball, GridFunction, GridSpec, dilate, lp_quasinorm, sq_distance
from hardylab.maximal import (
    MollifierSpec,
    ScaleGrid,
    derivative_sups,
    grand_maximal_table,
    quintic_step,
    small_maximal_table,
)
from hardylab.moments import (
    BallBasis,
    HardyIndex,
    MultiIndex,
    as_multiindex,
    dual_norm_check,
    local_oscillation,
    moment,
    monomial,
    monomial_field,
    multiindices,
    order,
    psi,
)
from hardylab.operators import WINDOW_SENSITIVITY_LIMIT, CancellationRow, KernelOp, MultiplierOp, OperatorSpec


def stacked_points(spec: GridSpec) -> np.ndarray:
    """Every sample point as a full meshgrid, shape (dim,) + shape: the
    full-grid reference of the open grid spec.points()."""
    return np.stack(np.meshgrid(*[spec.axis()] * spec.dim, indexing="ij"))


MATERIALIZE_CAP = 128


@dataclass
class MatrixOp(OperatorSpec):
    """Dense kernel samples A with (Tf)_i = h^dim * sum_j A_ij f_j."""

    matrix: np.ndarray
    spec: GridSpec
    name: str = "matrix"

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
        return MatrixOp(self.matrix.conj().T.copy(), self.spec, name=f"{self.name}*")


@dataclass
class CompositionOp(OperatorSpec):
    """Pipeline [T1, T2, ...]: f -> ... (T2 (T1 f))."""

    parts: list
    name: str = "composition"

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composition must be non-empty")

    def apply(self, f: GridFunction) -> GridFunction:
        for part in self.parts:
            f = part.apply(f)
        return f

    def adjoint(self) -> "CompositionOp":
        return CompositionOp([p.adjoint() for p in reversed(self.parts)], name=f"{self.name}*")


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
    return MatrixOp(cols, spec, name=f"{T.name}.matrix")


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
    sups = derivative_sups(phi, x, 1.05 * t, dim, k, samples_per_axis)

    n = samples_per_axis or (4001 if dim == 1 else 401)
    axes = [np.linspace(c - 1.5 * t, c + 1.5 * t, n) for c in x]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"))
    vals = np.abs(np.asarray(phi(pts), dtype=float))
    outside = np.sqrt(sq_distance(pts, x)) > t * (1.0 + 1e-9)
    scale = float(vals.max()) or 1.0
    leak = float(vals[outside].max(initial=0.0)) / scale
    support_ok = leak <= 1e-12

    rows = [BoundRow(beta, sups[beta], t ** (-dim - order(beta)))
            for beta in multiindices(dim, k)]
    return AdmissibilityReport(t=t, k=k, support_ok=support_ok, support_leak=leak, rows=rows)


def reference_padded_spectrum(f: GridFunction, real: bool = False) -> np.ndarray:
    """np.fft.fftn of the copy of f zero-padded to twice the side; with real,
    np.fft.rfftn, the half spectrum of the real layer."""
    m = f.spec.points_per_axis
    F = np.zeros((2 * m,) * f.spec.dim, dtype=np.float64 if f.is_real else np.complex128)
    F[(slice(m // 2, m // 2 + m),) * f.spec.dim] = f.samples
    return np.fft.rfftn(F) if real else np.fft.fftn(F)


def reference_convolve_spectra(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec) -> np.ndarray:
    """ifftn(Ff * Fg) on the window of indices (i - m) mod 2m, times
    cell_volume; irfftn for half spectra, whose last axis has m + 1 entries."""
    m = spec.points_per_axis
    window = (np.arange(m // 2, 3 * m // 2) - m) % (2 * m)
    if Ff.shape[-1] == m + 1:
        raw = np.fft.irfftn(Ff * Fg, s=(2 * m,) * spec.dim, axes=tuple(range(spec.dim)))
    else:
        raw = np.fft.ifftn(Ff * Fg)
    return raw[np.ix_(*(window,) * spec.dim)] * spec.cell_volume


def inner(f: GridFunction, g: GridFunction):
    """L2 inner product <f, g> = integral of f * conj(g)."""
    f._check_compatible(g)
    val = np.vdot(g.samples, f.samples) * f.spec.cell_volume
    if f.is_real and g.is_real:
        return float(val.real)
    return complex(val)


def random_smooth_field(spec: GridSpec, ell: float, rng: np.random.Generator) -> np.ndarray:
    """White noise smoothed by a Gaussian of correlation length ell."""
    noise = rng.standard_normal(spec.shape)
    xi2 = sq_distance(spec.frequencies())
    return np.fft.ifftn(np.exp(-(ell**2) * xi2 / 2.0) * np.fft.fftn(noise)).real


def reference_fourier_multiplier(f: GridFunction, symbol, hermitian: bool) -> np.ndarray:
    """ifftn(S * fftn(f)) on the full grid, S the sampled symbol, or for a
    Hermitian one its Hermitian part (S(k) + conj S(-k)) / 2 over every
    frequency, with the real part taken for real f."""
    S = np.broadcast_to(symbol(f.spec.frequencies()), f.spec.shape)
    if hermitian:
        neg = (-np.arange(f.spec.points_per_axis)) % f.spec.points_per_axis
        S = 0.5 * (S + np.conj(S[np.ix_(*(neg,) * f.spec.dim)]))
    out = np.fft.ifftn(S * np.fft.fftn(f.samples))
    return out.real if hermitian and f.is_real else out


def small_maximal(f: GridFunction, mollifier: MollifierSpec, scales: ScaleGrid) -> GridFunction:
    """Pointwise max over the scale grid of |f * phi_t|: the one-row
    small_maximal_table call."""
    return small_maximal_table([f], mollifier, scales)[0]


def grand_maximal(f: GridFunction, dictionary) -> GridFunction:
    """Pointwise max of |<f, phi>| over the dictionary's mollifier copies: the
    one-row grand_maximal_table call."""
    return grand_maximal_table([f], [dictionary])[0][0]


def serial_grand_maximal(f: GridFunction, dictionary, probes=()) -> np.ndarray:
    """The grand maximal function of a dictionary on the padded full grid, one
    convolution per copy in ladder order, with the (alpha, sites, idx, T)
    moment probes folded in halfway up the ladder."""
    spec = f.spec
    out = np.zeros(spec.shape)
    Ff = reference_padded_spectrum(f)
    scales = dictionary.scales.scales
    for n, t in enumerate(scales):
        if n == len(scales) // 2:
            for alpha, sites, idx, T in probes:
                out = with_probes(out, f, alpha, sites, idx, T)
        Fk = reference_padded_spectrum(dilate(dictionary.mollifier, t, spec))
        np.maximum(out, dictionary.amplitude * np.abs(reference_convolve_spectra(Ff, Fk, spec)), out=out)
    return out


def support_box(f: GridFunction):
    """Per axis, the first index of a nonzero sample of f and one past the
    last; None if f has no nonzero sample."""
    hits = np.nonzero(f.samples)
    if not hits[0].size:
        return None
    return [(int(i.min()), int(i.max()) + 1) for i in hits]


def side_by_search(need: int) -> int:
    """The least n >= need of the form 2^i, 3 2^i or 9 2^i, by search."""
    n = need
    while True:
        rest = n
        while rest % 2 == 0:
            rest //= 2
        if rest in (1, 3, 9):
            return n
        n += 1


def kernel_reach(mollifier: MollifierSpec, t: float, spec: GridSpec) -> tuple[int, int]:
    """The offsets below and above the origin that phi_t reaches on the grid:
    K = ceil(t/h) each way for a compactly supported mollifier, otherwise
    all m offsets, -m/2 ... m/2 - 1."""
    m = spec.points_per_axis
    if mollifier.compact_support:
        K = math.ceil(t / spec.spacing)
        return K, K
    return m // 2, m // 2 - 1


def window_convolution(plane: np.ndarray, box, g: GridFunction, before: int, after: int) -> np.ndarray:
    """The real window layer's f * g for the real samples plane of f, whose
    nonzero samples lie in box, and a kernel g whose samples are 0 beyond
    `before` offsets below and `after` above the origin: with b the longest
    side of the box, the side n is side_by_search(b + before + after).
    plane's box sits at the start of a zero window of side n and g's sample
    at offset k from the origin at index k + before of another (every sample
    placed off [0, n) must be 0). h^dim times np.fft.irfftn of the product
    of their np.fft.rfftn is f * g shifted by before - lo per axis, lo the
    box's start; the grid sample i takes window index i - lo + before when
    that lies in [0, b_axis + before + after), the linear convolution's
    reach, and is 0 otherwise."""
    spec = g.spec
    m, dim = spec.points_per_axis, spec.dim
    n = side_by_search(max(hi - lo for lo, hi in box) + before + after)
    at = np.arange(m) - m // 2 + before
    keep = (at >= 0) & (at < n)
    placed = np.zeros(spec.shape, dtype=bool)
    placed[np.ix_(*[keep] * dim)] = True
    assert not g.samples[~placed].any()
    Wf, Wg = np.zeros((n,) * dim), np.zeros((n,) * dim)
    Wf[tuple(slice(0, hi - lo) for lo, hi in box)] = plane[tuple(slice(lo, hi) for lo, hi in box)]
    Wg[np.ix_(*[at[keep]] * dim)] = g.samples[np.ix_(*[keep] * dim)]
    conv = np.fft.irfftn(np.fft.rfftn(Wf) * np.fft.rfftn(Wg), s=(n,) * dim, axes=tuple(range(dim)))
    conv = conv * spec.cell_volume
    at = [np.arange(m) - lo + before for lo, _ in box]
    keep = [(q >= 0) & (q < hi - lo + before + after) for q, (lo, hi) in zip(at, box)]
    out = np.zeros(spec.shape)
    out[np.ix_(*keep)] = conv[np.ix_(*[q[k] for q, k in zip(at, keep)])]
    return out


def window_maximal(f: GridFunction, mollifier: MollifierSpec, scales: ScaleGrid, amplitude: float = 1.0,
                   probes=()) -> np.ndarray:
    """The maximal function of both tables in the real window layer, one
    scale at a time in ladder order: amplitude * |window_convolution| of f
    with phi_t on the offsets kernel_reach(mollifier, t) (for a complex f
    np.hypot of those of Re f and Im f, both on the box of f's nonzero
    samples), with the (alpha, sites, idx, T) moment probes folded in
    halfway up the ladder."""
    out = np.zeros(f.spec.shape)
    box = support_box(f)
    planes = [f.samples] if f.is_real else [f.samples.real, f.samples.imag]
    for count, t in enumerate(scales.scales):
        if count == len(scales.scales) // 2:
            for alpha, sites, idx, T in probes:
                out = with_probes(out, f, alpha, sites, idx, T)
        if box is None:
            continue
        kernel = dilate(mollifier, t, f.spec)
        parts = [window_convolution(plane, box, kernel, *kernel_reach(mollifier, t, f.spec)) for plane in planes]
        np.maximum(out, amplitude * (np.abs(parts[0]) if f.is_real else np.hypot(*parts)), out=out)
    return out


def padded_small_maximal(f: GridFunction, mollifier: MollifierSpec, scales: ScaleGrid) -> np.ndarray:
    """The small maximal function on the grid padded to twice the side, one
    scale at a time in ladder order, by full-size fftn/ifftn."""
    out = np.zeros(f.spec.shape)
    Ff = reference_padded_spectrum(f)
    for t in scales.scales:
        Fk = reference_padded_spectrum(dilate(mollifier, t, f.spec))
        np.maximum(out, np.abs(reference_convolve_spectra(Ff, Fk, f.spec)), out=out)
    return out


def hp_norm(f: GridFunction, idx: HardyIndex, mollifier: MollifierSpec | None = None,
            scales: ScaleGrid | None = None) -> float:
    """||m_phi f||_{L^p} over scales 0 < t < 1, a quasi-norm for p < 1."""
    mollifier = mollifier or MollifierSpec("gaussian", f.spec.dim)
    scales = scales or ScaleGrid.default(f.spec, 1.0)
    return lp_quasinorm(small_maximal(f, mollifier, scales), idx.p)


def _full_grid_rms(f: GridFunction, ball: Ball) -> float:
    mask = sq_distance(f.spec.points(), ball.center) < ball.radius**2
    if not mask.any():
        raise NumericalError("degenerate region")
    return float(np.sqrt(np.mean(np.abs(f.samples[mask]) ** 2)))


def reference_tstar_monomial(T: OperatorSpec, x0, alpha, W: float, spec: GridSpec,
                             adjoint: OperatorSpec | None = None):
    """(T* of the windowed monomial at W, window sensitivity), each field by
    its own apply of T* (adjoint, or T.adjoint()) on a full-grid window."""
    if adjoint is None:
        adjoint = T.adjoint()
    x0 = tuple(float(c) for c in x0)
    alpha = as_multiindex(alpha, spec.dim)
    mono = monomial_field(spec, x0, alpha)
    dist = np.sqrt(sq_distance(spec.points(), x0))

    def window(R):
        return GridFunction(spec, 1.0 - quintic_step(dist / R - 1.0))

    f_full = adjoint.apply(window(W) * mono)
    f_half = adjoint.apply(window(W / 2.0) * mono)
    scale = _full_grid_rms(window(W) * mono, Ball(x0, 2.0 * W))
    sens = _full_grid_rms(f_full - f_half, Ball(x0, W / 4.0)) / max(scale, 1e-300)
    if sens > WINDOW_SENSITIVITY_LIMIT:
        raise NumericalError("T* monomial not stable: kernel tail too heavy")
    return f_full, float(sens)


def reference_cancellation_test(T: OperatorSpec, idx, balls, alphas,
                                spec: GridSpec) -> list[CancellationRow]:
    """The rows of cancellation_test, ball by ball and alpha by alpha, each
    from its own reference_tstar_monomial with the one adjoint of T."""
    adjoint = T.adjoint()
    rows = []
    for ball in balls:
        W = max(8.0 * ball.radius, 1.0)
        for alpha in alphas:
            alpha = as_multiindex(alpha, spec.dim)
            field, sens = reference_tstar_monomial(T, ball.center, alpha, W, spec, adjoint)
            osc = local_oscillation(field, ball, idx.N_p)
            psival = psi(idx, alpha, ball.radius)
            lhs, rhs = dual_norm_check(field, ball, idx.N_p, trials=0)
            rows.append(CancellationRow(ball, alpha, float(osc), float(psival),
                                        float(osc / psival), W, sens, abs(lhs - rhs)))
    return rows


# ---------------------------------------------------------------------------
# the pre-molecule split


def match_moments_with_bump(spec: GridSpec, ball: Ball, degree: int,
                            weight: GridFunction, targets: np.ndarray) -> GridFunction:
    """A smooth function q = weight * (polynomial) supported in the ball whose
    raw moments about the ball center equal `targets` (ordered like
    multiindices(dim, degree)) exactly at the quadrature level."""
    targets = np.asarray(targets)
    if targets.shape != (len(multiindices(spec.dim, degree)),):
        raise ValueError("targets must match the polynomial basis size")
    basis = BallBasis(spec, ball, degree, weight)
    d = basis.solve(targets / basis.scales)
    return GridFunction(spec, basis.slab.scatter(basis.weight * basis.evaluate(d)))


@dataclass
class PseudoDecomposition:
    """M = g + sum_j c_j a_j (+ discarded tail of size `residual` in L2):
    g is supported in the base ball, each a_j is a cancelling (p,2) atom on
    B(x0, 2^j r)."""

    g: GridFunction
    atoms: list[tuple[float, GridFunction, Ball]]
    residual: float
    sum_cp: float

    def reconstruct(self) -> GridFunction:
        out = self.g.samples
        for c, a, _ in self.atoms:
            out = out + a.samples * c
        return GridFunction(self.g.spec, out)


def pseudo_decompose(M: GridFunction, ball: Ball, idx: HardyIndex, J: int) -> PseudoDecomposition:
    """Annular split with inward-telescoped moment corrections.

    Pieces of M on the annuli B(x0, 2^j r) \\ B(x0, 2^{j-1} r) are corrected
    by bump-carried polynomials so that each has vanishing moments up to N_p;
    the corrections telescope inward and the innermost lands in g, supported
    in the base ball. The sum is truncated at J annuli (or at the domain
    edge); the discarded tail is reported as the residual, never hidden.
    """
    spec = M.spec
    x0 = ball.center
    r = ball.radius
    max_r = spec.half_width - max(abs(c) for c in x0) - 2.0 * spec.spacing
    J_eff = J
    while J_eff > 0 and (2.0**J_eff) * r > max_r:
        J_eff -= 1
    if J_eff < 1:
        raise NumericalError("tail too heavy for desk-scale decomposition")
    clipped = J_eff < J

    l2 = lp_quasinorm(M, 2.0)
    outer = Ball(x0, (2.0**J_eff) * r)
    tail = M.samples.copy()
    tail[outer.mask(spec)] = 0.0
    residual = float(np.sqrt(np.sum(np.abs(tail) ** 2) * spec.cell_volume))
    if not clipped and residual > 1e-6 * max(l2, 1e-300):
        raise NumericalError("tail too heavy for desk-scale decomposition")

    basis = multiindices(spec.dim, idx.N_p)

    def moments_of(samples: np.ndarray) -> np.ndarray:
        f = GridFunction(spec, samples)
        return np.array([moment(f, x0, a) for a in basis])

    # annular pieces and their moment vectors
    pieces = []
    inner_mask = ball.mask(spec)
    core = M.samples.copy()
    core[~inner_mask] = 0.0
    prev_mask = inner_mask
    for j in range(1, J_eff + 1):
        bj = Ball(x0, (2.0**j) * r)
        mask = bj.mask(spec) & ~prev_mask
        piece = M.samples.copy()
        piece[~mask] = 0.0
        pieces.append((j, bj, piece))
        prev_mask = bj.mask(spec)

    mu = [moments_of(piece) for _, _, piece in pieces]
    # cumulative moments from annulus j outward
    acc = np.zeros(len(basis), dtype=mu[0].dtype)
    T: list = [None] * (J_eff + 2)
    T[J_eff + 1] = acc
    for j in range(J_eff, 0, -1):
        acc = acc + mu[j - 1]
        T[j] = acc

    def carrier(ball_j: Ball, targets: np.ndarray) -> GridFunction:
        bump = edge_cutoff(spec, ball_j, width_frac=0.5)
        return match_moments_with_bump(spec, ball_j, idx.N_p, bump, targets)

    atoms: list[tuple[float, GridFunction, Ball]] = []
    sum_cp = 0.0
    n, p = idx.dim, idx.p
    q_next: GridFunction | None = None  # q_{j+1}, supported in B_j
    for j in range(J_eff, 0, -1):
        inner_ball = Ball(x0, (2.0 ** (j - 1)) * r)
        q_j = carrier(inner_ball, T[j])
        corrected = GridFunction(spec, pieces[j - 1][2]) - q_j
        if q_next is not None:
            corrected = GridFunction(spec, corrected.samples + q_next.samples)
        c = lp_quasinorm(corrected, 2.0) / (2.0**j * r) ** (n * (0.5 - 1.0 / p))
        if c > 0:
            atoms.append((float(c), (1.0 / c) * corrected, pieces[j - 1][1]))
            sum_cp += float(c) ** p
        q_next = q_j

    atoms.reverse()
    g = GridFunction(spec, core if q_next is None else core + q_next.samples)
    return PseudoDecomposition(g=g, atoms=atoms, residual=residual, sum_cp=sum_cp)


# ---------------------------------------------------------------------------
# sample-based kernel condition checkers


def translation_invariant(T: OperatorSpec) -> bool:
    """Whether T commutes with translations, decided from its class: a
    Fourier multiplier, a convolution kernel, or a composition of them."""
    if isinstance(T, CompositionOp):
        return all(translation_invariant(part) for part in T.parts)
    return isinstance(T, (MultiplierOp, KernelOp))


def _materialized_kernel(T: OperatorSpec, spec: GridSpec) -> GridFunction:
    if not translation_invariant(T):
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
        return k.samples[index_of(spec, u)]

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


def index_of(spec: GridSpec, x) -> tuple[int, ...]:
    """Grid index of the sample nearest to x, per axis modulo m."""
    m, h, L = spec.points_per_axis, spec.spacing, spec.half_width
    return tuple(int(round((c + L) / h)) % m for c in x)


# ---------------------------------------------------------------------------
# the explicit moment-probe bumps


def cutoff_eta(s):
    """Radial cutoff: 1 on [0, 3/2], quintic descent on [3/2, 2], 0 beyond."""
    return 1.0 - quintic_step(2.0 * (np.asarray(s, dtype=float) - 1.5))


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
        z = np.sqrt(sq_distance(pts, tuple(c / 2.0 for c in self.v)))
        prof = cutoff_eta(z)
        if self.fallback:
            s = np.sqrt(sq_distance(pts, self.lobe_center)) / _LOBE_RADIUS
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
        sups = derivative_sups(probe, center, 2.1, dim, k,
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
        return ax ** (-len(self.x)) * self.phi0(tuple(x / (2.0 * ax) for x in pts))


def phi_x_alpha(x, alpha, idx: HardyIndex) -> RescaledProbe:
    x = tuple(float(c) for c in x)
    if all(c == 0 for c in x):
        raise ValueError("x must be nonzero")
    return RescaledProbe(x, build_phi0(x, alpha, idx))


def with_probes(values: np.ndarray, f: GridFunction, alpha, sites, idx: HardyIndex,
                T: float) -> np.ndarray:
    """values raised, at each site x, to |<f, phi^{x,alpha}>|: a grand maximal
    function over a dictionary plus the moment probes at the given sites.
    Probes outside the family (scale >= T) or the domain are skipped."""
    spec = f.spec
    out = values.copy()
    for site in sites:
        probe = phi_x_alpha(site, alpha, idx)
        if probe.scale >= T or not probe.support.fits_in(spec):
            continue
        pairing = abs(np.sum(f.samples * probe(spec.points())) * spec.cell_volume)
        i = index_of(spec, site)
        out[i] = max(out[i], pairing)
    return out
