import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as scipy_linalg

from hardylab.errors import NumericalError
from hardylab.grid import Ball, GridFunction, GridSpec, lp_norm, sample_function
from hardylab.moments import (
    BallBasis,
    HardyIndex,
    dual_norm_check,
    local_oscillation,
    moment,
    monomial,
    monomial_field,
    multiindices,
    poly_project,
    psi,
)
from oracles import match_moments_with_bump, random_smooth_field, stacked_points


@given(data=st.data(), dim=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_monomial_field_matches_monomial_on_points(data, dim):
    spec = GridSpec(dim, data.draw(st.sampled_from([1.0, 4.0, 16.0])), data.draw(st.sampled_from([8, 32])))
    x0 = data.draw(st.tuples(*[st.floats(-spec.half_width, spec.half_width)] * dim))
    alpha = data.draw(st.tuples(*[st.integers(0, 4)] * dim))
    assert np.array_equal(monomial_field(spec, x0, alpha).samples, monomial(stacked_points(spec), x0, alpha))


@given(dim=st.integers(1, 2), degree=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_polyspace_dimension(dim, degree):
    basis = multiindices(dim, degree)
    assert len(basis) == math.comb(degree + dim, dim)
    assert len(set(basis)) == len(basis)
    assert all(sum(a) <= degree for a in basis)


@pytest.mark.parametrize("p,dim,gamma,N,critical", [
    (1.0, 1, 0.0, 0, True),
    (1.0, 2, 0.0, 0, True),
    (2 / 3, 1, 0.5, 0, False),
    (0.5, 1, 1.0, 1, True),
    (1 / 3, 1, 2.0, 2, True),
    (0.5, 2, 2.0, 2, True),
    (0.8, 2, 0.5, 0, False),
])
def test_hardy_index(p, dim, gamma, N, critical):
    idx = HardyIndex(p, dim)
    assert idx.gamma_p == pytest.approx(gamma, abs=1e-12)
    assert idx.N_p == N
    assert idx.critical is critical


def test_hardy_index_rejects_bad_p():
    with pytest.raises(ValueError):
        HardyIndex(1.5, 1)
    with pytest.raises(ValueError):
        HardyIndex(0.0, 1)


def test_moment_even_bump_odd_order():
    spec = GridSpec(1, 4.0, 2048)
    f = sample_function(spec, lambda p: np.exp(-8 * p[0]**2))
    f = f * Ball((0.0,), 2.0).mask(spec)
    assert abs(moment(f, (0.0,), 1)) < 1e-10


def test_moment_indicator():
    spec = GridSpec(1, 4.0, 2048)
    r = 0.5
    f = GridFunction(spec, Ball((0.0,), r).mask(spec).astype(float))
    assert abs(moment(f, (0.0,), 0) - 2 * r) <= spec.cell_volume


def test_moment_matches_direct_summation():
    spec = GridSpec(1, 4.0, 512)
    rng = np.random.default_rng(0)
    f = GridFunction(spec, rng.normal(size=spec.shape) * Ball((0.0,), 2.0).mask(spec))
    x = spec.points()[0]
    for alpha in ((0,), (1,), (2,)):
        direct = float(np.sum(f.samples * (x - 0.3) ** alpha[0]) * spec.cell_volume)
        assert moment(f, (0.3,), alpha) == pytest.approx(direct, abs=1e-12)


def test_moment_rejects_boundary_support():
    spec = GridSpec(1, 4.0, 256)
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(NumericalError, match="support escapes"):
        moment(f, (0.0,), 0)


def test_projection_recovers_polynomials():
    spec = GridSpec(1, 4.0, 2048)
    B = Ball((0.3,), 0.7)
    g = sample_function(spec, lambda p: 1.5 - 0.7 * (p[0] - 0.3) + 0.3 * (p[0] - 0.3) ** 2)
    pc = poly_project(g * B.mask(spec), B, 2)
    mask = B.mask(spec)
    err = np.max(np.abs(pc.samples[mask] - g.samples[mask]))
    assert err < 1e-9


def test_projection_order_zero_is_mean():
    spec = GridSpec(1, 4.0, 1024)
    rng = np.random.default_rng(1)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    B = Ball((0.0,), 0.5)
    pc = poly_project(f, B, 0)
    assert pc.samples[B.mask(spec)] == pytest.approx(f.samples[B.mask(spec)].mean(), abs=1e-13)


def gram_schmidt_projection(f: GridFunction, B: Ball, degree: int) -> np.ndarray:
    """Independent least-squares oracle via QR on the sampled monomials."""
    spec = f.spec
    mask = B.mask(spec)
    x = spec.points()
    cols = np.stack([(np.prod([(x[i] - B.center[i]) ** a
                               for i, a in enumerate(alpha)], axis=0))[mask]
                     for alpha in multiindices(spec.dim, degree)], axis=1)
    Q, _ = np.linalg.qr(cols)
    return Q @ (Q.T @ f.samples[mask])


def test_projection_matches_gram_schmidt_oracle():
    spec = GridSpec(1, 4.0, 2048)
    rng = np.random.default_rng(2)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    B = Ball((-0.2,), 0.6)
    pc = poly_project(f, B, 2)
    mask = B.mask(spec)
    mine = pc.samples[mask]
    oracle = gram_schmidt_projection(f, B, 2)
    scale = np.max(np.abs(oracle)) + 1e-30
    assert np.max(np.abs(mine - oracle)) <= 1e-9 * scale


@given(seed=st.integers(0, 500), degree=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_moment_matching(seed, degree):
    spec = GridSpec(1, 2.0, 512)
    rng = np.random.default_rng(seed)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    B = Ball((0.0,), 0.5)
    pc = poly_project(f, B, degree)
    mask = B.mask(spec)
    resid = np.zeros(spec.shape)
    resid[mask] = f.samples[mask] - pc.samples[mask]
    l2 = np.sqrt(np.sum(f.samples[mask] ** 2) * spec.cell_volume)
    x = spec.points()[0]
    for k in range(degree + 1):
        mom = abs(np.sum(resid[mask] * x[mask] ** k) * spec.cell_volume)
        assert mom <= 1e-9 * l2 * B.radius**k + 1e-15


def test_oscillation_constant_and_linear():
    spec = GridSpec(1, 1.0, 16384)
    const = GridFunction(spec, np.full(spec.shape, 2.7))
    B = Ball((0.0,), 0.25)
    assert local_oscillation(const, B, 0) <= 1e-12
    fx = sample_function(spec, lambda p: p[0])
    for r in (0.5, 0.25):
        osc = local_oscillation(fx, Ball((0.0,), r), 0)
        assert osc == pytest.approx(r / np.sqrt(3), rel=1e-3)


def test_oscillation_beats_random_competitors():
    spec = GridSpec(1, 4.0, 2048)
    rng = np.random.default_rng(3)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    B = Ball((0.0,), 0.5)
    N = 1
    osc = local_oscillation(f, B, N)
    mask = B.mask(spec)
    x = spec.points()[0][mask]
    vol = int(mask.sum())
    for _ in range(200):
        c = rng.normal(size=N + 1)
        q = sum(ci * x**i for i, ci in enumerate(c))
        competitor = np.sqrt(np.sum((f.samples[mask] - q) ** 2) / vol)
        assert osc <= competitor + 1e-9


def test_oscillation_monotone_in_degree():
    spec = GridSpec(1, 4.0, 2048)
    rng = np.random.default_rng(4)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    B = Ball((0.0,), 0.6)
    oscs = [local_oscillation(f, B, N) for N in range(4)]
    assert all(b <= a + 1e-12 for a, b in zip(oscs, oscs[1:]))


def test_projection_needs_enough_points():
    spec = GridSpec(1, 4.0, 256)
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(NumericalError):
        poly_project(f, Ball((0.0,), 1.5 * spec.spacing), 4)


def test_psi_values():
    idx1 = HardyIndex(1.0, 1)
    assert psi(idx1, 0, 0.5) == pytest.approx(1.0 / math.log(3.0), rel=1e-12)
    idxh = HardyIndex(0.5, 1)
    assert psi(idxh, 0, 0.37) == pytest.approx(0.37)  # below the critical order
    assert psi(idxh, 1, 0.25) == pytest.approx(0.25 / math.log(5.0) ** 2, rel=1e-12)


def test_psi_limits():
    idx1 = HardyIndex(1.0, 1)
    idxh = HardyIndex(0.5, 1)
    ts = [10.0**-k for k in range(1, 9)]
    crit = [psi(idx1, 0, t) for t in ts]
    assert all(b < a for a, b in zip(crit, crit[1:])) and crit[-1] < 1e-1
    sub = [psi(idxh, 0, t) for t in ts]
    assert sub[-1] < 1e-7
    # critical branch is strictly below the power envelope
    assert all(psi(idxh, 1, t) / t < 0.25 for t in ts)


def test_psi_rejects_out_of_range_orders():
    idx23 = HardyIndex(2 / 3, 1)  # gamma = 1/2, not an integer
    with pytest.raises(ValueError):
        psi(idx23, 1, 0.5)
    with pytest.raises(ValueError):
        psi(HardyIndex(1.0, 1), 1, 0.5)
    with pytest.raises(ValueError):
        psi(HardyIndex(1.0, 1), 0, 1.5)


def test_dual_norm_polynomial_gives_zero():
    spec = GridSpec(1, 4.0, 1024)
    f = sample_function(spec, lambda p: 1.0 + 2.0 * p[0])
    lhs, rhs = dual_norm_check(f, Ball((0.0,), 0.5), 1, trials=10, seed=0)
    assert lhs <= 1e-9 and rhs <= 1e-9


def test_dual_norm_deterministic_candidate():
    spec = GridSpec(1, 4.0, 1024)
    rng = np.random.default_rng(5)
    for seed in range(10):
        f = GridFunction(spec, np.random.default_rng(seed).normal(size=spec.shape))
        lhs, rhs = dual_norm_check(f, Ball((0.0,), 0.5), 1, trials=0)
        assert abs(lhs - rhs) <= 1e-9
        lhs2, rhs2 = dual_norm_check(f, Ball((0.0,), 0.5), 1, trials=20, seed=seed)
        assert lhs2 <= rhs2 + 1e-9


def test_dual_norm_monte_carlo_lower_bound():
    spec = GridSpec(1, 4.0, 1024)
    B = Ball((0.0,), 0.5)
    rng = np.random.default_rng(11)
    noise = random_smooth_field(spec, B.radius / 2.0, rng)
    noise[~B.mask(spec)] = 0.0
    f = GridFunction(spec, noise)
    lhs, rhs = dual_norm_check(f, B, 1, trials=500, seed=99, include_deterministic=False)
    assert lhs / rhs >= 0.5


def test_moment_scale_covariance():
    spec = GridSpec(1, 8.0, 4096)

    def profile(p, s=1.0):
        return s**-1 * np.clip(1.0 - (p[0] / (3 * s)) ** 2, 0.0, None) ** 3

    base = sample_function(spec, profile)
    s = 2.0
    scaled = sample_function(spec, lambda p: profile(p, s))
    for alpha in ((0,), (2,)):
        lhs = moment(scaled, (0.0,), alpha)
        rhs = s ** alpha[0] * moment(base, (0.0,), alpha)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_match_moments_with_bump():
    from hardylab.atoms import edge_cutoff

    spec = GridSpec(1, 4.0, 2048)
    B = Ball((0.0,), 0.5)
    bump = edge_cutoff(spec, B)
    targets = np.array([0.7, -0.2])
    q = match_moments_with_bump(spec, B, 1, bump, targets)
    assert moment(q, (0.0,), 0) == pytest.approx(0.7, abs=1e-12)
    assert moment(q, (0.0,), 1) == pytest.approx(-0.2, abs=1e-12)
    assert np.all(q.samples[~B.mask(spec)] == 0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_weighted_projection_kills_weighted_moments(dim, degree):
    # int_B w (f - Q) (y - x0)^b = 0 for |b| <= degree, relative to ||w f|| r^|b|
    from hardylab.atoms import edge_cutoff

    spec = GridSpec(dim, 4.0, 1024 if dim == 1 else 64)
    B = Ball((0.3, -0.2)[:dim], 1.1)
    w = edge_cutoff(spec, B)
    rng = np.random.default_rng(10 * dim + degree)
    f = GridFunction(spec, random_smooth_field(spec, 0.3, rng))
    q = poly_project(f, B, degree, weight=w)
    resid = w * (f - q)
    scale = lp_norm(w * f, 2.0)
    for b in multiindices(dim, degree):
        assert abs(moment(resid, B.center, b)) <= 1e-12 * scale * B.radius ** sum(b)


def test_projection_rejects_ill_conditioned_gram():
    spec = GridSpec(2, 4.0, 128)
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(NumericalError, match="ill-conditioned"):
        poly_project(f, Ball((0.0, 0.0), 5 * spec.spacing), 9)


def reference_dual_norm_check(f, ball, degree, trials, seed=0, include_deterministic=True):
    """One full-grid candidate and one projection per trial: the loop that
    dual_norm_check batches."""
    spec = f.spec
    mask = ball.mask(spec)
    h = spec.cell_volume
    proj = poly_project(f, ball, degree)
    resid = f.samples.copy()
    resid[~mask] = 0
    resid[mask] -= proj.samples[mask]
    rhs = float(np.sqrt(np.sum(np.abs(resid[mask]) ** 2) * h))
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(trials):
        noise = random_smooth_field(spec, ball.radius / 2.0, rng)
        noise[~mask] = 0.0
        candidates.append(noise)
    if include_deterministic and rhs > 0:
        candidates.append(resid.copy())
    lhs = 0.0
    for cand in candidates:
        p = poly_project(GridFunction(spec, cand), ball, degree)
        v = cand[mask] - p.samples[mask]
        nrm = np.sqrt(np.sum(np.abs(v) ** 2) * h)
        if nrm < 1e-14:
            continue
        lhs = max(lhs, float(np.abs(np.sum(f.samples[mask] * np.conj(v)) * h) / nrm))
    return lhs, rhs


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("include_deterministic", [True, False])
def test_dual_norm_matches_per_trial_reference(dim, is_complex, include_deterministic):
    spec = GridSpec(dim, 2.0, 256 if dim == 1 else 64)
    rng = np.random.default_rng(12)
    data = rng.normal(size=spec.shape)
    if is_complex:
        data = data + 1j * rng.normal(size=spec.shape)
    f = GridFunction(spec, data)
    B = Ball((0.1, -0.2)[:dim], 0.6)
    got = dual_norm_check(f, B, 2, trials=7, seed=3, include_deterministic=include_deterministic)
    want = reference_dual_norm_check(f, B, 2, trials=7, seed=3,
                                     include_deterministic=include_deterministic)
    assert got[0] > 0
    assert got == pytest.approx(want, rel=1e-12)


def test_ball_basis_rejects_indefinite_gram():
    spec = GridSpec(1, 2.0, 256)
    B = Ball((0.0,), 0.5)
    w = GridFunction(spec, -np.ones(spec.shape))
    cols = BallBasis(spec, B, 2).cols
    G = -cols.T @ cols * spec.cell_volume
    assert np.linalg.cond(G) < 1e3  # well conditioned, negative definite
    with pytest.raises(NumericalError, match="not positive definite"):
        BallBasis(spec, B, 2, w)


def scipy_cholesky_solve(G, b):
    """Reference solve: SciPy's LAPACK Cholesky (cho_factor/cho_solve), real
    and imaginary parts solved separately."""
    factor = scipy_linalg.cho_factor(G)
    if np.iscomplexobj(b):
        return scipy_linalg.cho_solve(factor, b.real) + 1j * scipy_linalg.cho_solve(factor, b.imag)
    return scipy_linalg.cho_solve(factor, b)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("is_complex", [False, True])
def test_ball_basis_solve_matches_scipy_cholesky(dim, is_complex):
    """solve and residual agree with SciPy's cho_factor/cho_solve to 1e-12
    relative at every degree the 1e12 condition limit admits. Both solves are
    backward stable, so their forward errors grow in proportion to cond(G):
    past cond(G) = 1e8 the tolerance grows with it (their distance stays
    below about 1e-20 * cond(G) on these balls)."""
    spec = GridSpec(dim, 2.0, 512 if dim == 1 else 64)
    B = Ball((0.1, -0.2)[:dim], 0.7)
    rng = np.random.default_rng(5)
    degree = 0
    while True:
        try:
            basis = BallBasis(spec, B, degree)
        except NumericalError as e:
            assert "ill-conditioned" in str(e)
            break
        values = rng.normal(size=(basis.npts, 4))
        if is_complex:
            values = values + 1j * rng.normal(size=values.shape)
        G = basis.cols.T @ basis.cols * basis.h
        tol = 1e-12 * max(1.0, np.linalg.cond(G) / 1e8)
        b = basis.cols.T @ values * basis.h
        want = scipy_cholesky_solve(G, b)
        got = basis.solve(b)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
        assert np.linalg.norm(basis.solve(b[:, 0]) - want[:, 0]) <= tol * np.linalg.norm(want[:, 0])
        want_resid = values - basis.cols @ want
        got_resid = basis.residual(values)
        assert np.linalg.norm(got_resid - want_resid) <= tol * np.linalg.norm(want_resid)
        degree += 1
    assert degree >= (12 if dim == 2 else 16)
