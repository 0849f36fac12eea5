import numpy as np
import pytest

from hardylab.atoms import (
    AtomSpec,
    PreMoleculeSpec,
    edge_cutoff,
    make_atom,
    min_premolecule_constant,
    moment_bound_check,
    validate_atom,
    validate_premolecule,
)
from hardylab.atoms import _weighted_tail_norm
from hardylab.errors import NumericalError
from hardylab.grid import Ball, GridFunction, GridSpec, lp_norm, sample_function, sq_distance
from hardylab.maximal import MollifierSpec, ScaleGrid
from hardylab.moments import HardyIndex, moment, monomial
from oracles import hp_norm, pseudo_decompose, stacked_points

IDX1 = HardyIndex(1.0, 1)
IDX23 = HardyIndex(2 / 3, 1)
IDXH = HardyIndex(0.5, 1)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 4.0, 2048)


@pytest.mark.parametrize("idx,s", [(IDX1, 2.0), (IDX1, np.inf), (IDX23, 2.0), (IDXH, 2.0)])
def test_atoms_validate_across_seeds(grid, idx, s):
    spec_a = AtomSpec(idx, s, Ball((0.0,), 0.25), "local")
    for seed in range(15):
        a = make_atom(spec_a, seed, grid)
        rep = validate_atom(a, spec_a, tol=1e-8)
        assert rep.passed, rep.to_text()


@pytest.mark.parametrize("dim", [1, 2])
def test_moment_and_tail_norm_take_no_meshgrid_bitwise(dim):
    # moment and the weighted tail norm build their monomial and distances
    # on the open grid; each equals its expression on the full meshgrid bit
    # for bit, for real and complex f
    spec = GridSpec(dim, 4.0, 2048 if dim == 1 else 64)
    rng = np.random.default_rng(40 + dim)
    ball = Ball((0.3, -0.7)[:dim], 1.1)
    inner = Ball((0.0,) * dim, 3.0).mask(spec)
    pts = stacked_points(spec)
    for f in (GridFunction(spec, rng.normal(size=spec.shape) * inner),
              GridFunction(spec, (rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)) * inner)):
        for alpha in [(0,) * dim, (1,) * dim, (3, 0)[:dim], (0, 2)[-dim:]]:
            old = (f.samples * monomial(pts, ball.center, alpha)).sum() * spec.cell_volume
            assert np.array_equal(moment(f, ball.center, alpha), old)
        d2, outside = sq_distance(pts, ball.center), ~ball.mask(spec)
        for s_, lam in ((2.0, 3.0), (1.0, 1.5)):
            vals = np.abs(f.samples[outside]) ** s_ * d2[outside] ** (lam / 2.0)
            old = float((vals.sum() * spec.cell_volume) ** (1.0 / s_))
            assert np.array_equal(_weighted_tail_norm(f, ball, s_, lam), old)


def test_atom_size_bound_is_equality(grid):
    spec_a = AtomSpec(IDX1, 2.0, Ball((0.0,), 0.25), "local")
    a = make_atom(spec_a, 0, grid)
    assert lp_norm(a, 2.0) == pytest.approx(spec_a.size_bound, rel=1e-12)


def test_large_ball_local_atoms_skip_cancellation(grid):
    spec_a = AtomSpec(IDX1, 2.0, Ball((0.0,), 1.5), "local")
    a = make_atom(spec_a, 3, grid)
    assert validate_atom(a, spec_a).passed
    assert abs(moment(a, (0.0,), (0,))) > 1e-3  # generically nonzero


def test_global_atoms_cancel_even_on_large_balls(grid):
    spec_a = AtomSpec(IDX1, 2.0, Ball((0.0,), 1.5), "global")
    a = make_atom(spec_a, 3, grid)
    assert abs(moment(a, (0.0,), (0,))) <= 1e-12


def test_validate_atom_fails_oversized(grid):
    spec_a = AtomSpec(IDX1, 2.0, Ball((0.0,), 0.25), "local")
    a = make_atom(spec_a, 1, grid)
    rep = validate_atom(1.1 * a, spec_a, tol=1e-8)
    assert not rep.size_ok and not rep.passed
    assert rep.support_ok and rep.moments_ok


def test_validate_atom_fails_unprojected_mean(grid):
    spec_a = AtomSpec(IDX1, 2.0, Ball((0.0,), 0.5), "local")
    a = make_atom(spec_a, 2, grid)
    bump = edge_cutoff(grid, spec_a.ball)
    dirty = GridFunction(grid, a.samples + 0.05 * bump.samples)
    dirty = (spec_a.size_bound / lp_norm(dirty, 2.0)) * dirty
    rep = validate_atom(dirty, spec_a, tol=1e-8)
    assert not rep.moments_ok and not rep.passed


def test_atom_scale_consistency(grid):
    # norms on B(0, r) and B(0, 2r) differ exactly by the size-bound ratio
    r = 0.25
    a1 = make_atom(AtomSpec(IDX1, 2.0, Ball((0.0,), r), "local"), 5, grid)
    a2 = make_atom(AtomSpec(IDX1, 2.0, Ball((0.0,), 2 * r), "local"), 5, grid)
    expected = (2 * r) ** (1 * (0.5 - 1.0)) / r ** (1 * (0.5 - 1.0))
    assert lp_norm(a2, 2.0) / lp_norm(a1, 2.0) == pytest.approx(expected, rel=1e-12)


def test_atom_needs_resolvable_ball(grid):
    with pytest.raises(NumericalError, match="too small"):
        make_atom(AtomSpec(IDXH, 2.0, Ball((0.0,), 2.5 * grid.spacing), "local"), 0, grid)


def test_premolecule_spec_validates_lambda():
    with pytest.raises(ValueError, match="lambda"):
        PreMoleculeSpec(IDX1, 2.0, 1.0, 1.0, Ball((0.0,), 1.0))  # needs > n(s/p-1) = 1


def test_atom_is_premolecule_with_zero_tail(grid):
    B = Ball((0.0,), 0.5)
    a = make_atom(AtomSpec(IDX1, 2.0, B, "local"), 0, grid)
    rep = validate_premolecule(a, PreMoleculeSpec(IDX1, 2.0, 1.5, 1.0, B))
    assert rep.m1_ratio <= 1.0 + 1e-9
    assert rep.m2_ratio == 0.0
    assert rep.m1_ratio == pytest.approx(1.0, rel=1e-12)  # built with equality


def test_decaying_profile_is_premolecule(grid):
    B = Ball((0.0,), 1.0)
    M = sample_function(grid, lambda p: (1 + np.abs(p[0])) ** -3.0)
    rep = validate_premolecule(M, PreMoleculeSpec(IDX1, 2.0, 1.5, 1.0, B))
    assert rep.m1_ratio <= 1.0 + 1e-9
    assert 0 < rep.m2_ratio < 1


def test_borderline_tail_grows_with_domain():
    # |x|^(-n/s - lambda/s) sits at the integrability border: the weighted
    # tail norm must keep growing as the domain expands
    idx, s, lam = IDX1, 2.0, 1.5
    expo = -(1.0 / s + lam / s)
    vals = []
    for L, m in ((4.0, 2048), (8.0, 4096), (16.0, 8192)):
        g = GridSpec(1, L, m)
        M = sample_function(g, lambda p: (1.0 + np.abs(p[0])) ** expo)
        rep = validate_premolecule(M, PreMoleculeSpec(idx, s, lam, 1.0, Ball((0.0,), 1.0)))
        vals.append(rep.m2_ratio)
    assert vals[0] < vals[1] < vals[2]


def test_min_premolecule_constant(grid):
    B = Ball((0.0,), 0.5)
    a = make_atom(AtomSpec(IDX1, 2.0, B, "local"), 7, grid)
    c = min_premolecule_constant(a, IDX1, 2.0, 1.5, B)
    assert c == pytest.approx(1.0, rel=1e-12)  # M2 contributes 0, M1 is tight
    assert min_premolecule_constant(3.0 * a, IDX1, 2.0, 1.5, B) == pytest.approx(3.0 * c, rel=1e-12)
    # pass/fail boundary sits at C = c: both ratios within 1 + 1e-9 above it,
    # the larger one past that below it
    above = validate_premolecule(a, PreMoleculeSpec(IDX1, 2.0, 1.5, c * (1 + 1e-9), B))
    assert max(above.m1_ratio, above.m2_ratio) <= 1.0 + 1e-9
    below = validate_premolecule(a, PreMoleculeSpec(IDX1, 2.0, 1.5, c * (1 - 1e-6), B))
    assert max(below.m1_ratio, below.m2_ratio) > 1.0 + 1e-9


def test_premolecule_lambda_monotone(grid):
    # faster-than-required decay: raising lambda never turns pass into fail
    B = Ball((0.0,), 0.5)
    M = sample_function(grid, lambda p: (1 + np.abs(p[0])) ** -4.0)
    for lam in (1.25, 1.5, 2.0):
        rep = validate_premolecule(M, PreMoleculeSpec(IDX1, 2.0, lam, 2.0, B))
        assert max(rep.m1_ratio, rep.m2_ratio) <= 1.0 + 1e-9


def test_moment_bound_check_atom_ratios_vanish(grid):
    B = Ball((0.0,), 0.25)
    a = make_atom(AtomSpec(IDX1, 2.0, B, "local"), 0, grid)
    rows = moment_bound_check(a, B, IDX1, hp_norm(a, IDX1))
    assert all(row.ratio <= 1e-10 for row in rows)


def test_moment_bound_check_indicator_bounded(grid):
    mol = MollifierSpec("gaussian", 1)
    scales = ScaleGrid.default(grid, 1.0)
    ratios = []
    for k in range(1, 7):
        r = 2.0**-k
        g = GridFunction(grid, Ball((0.0,), r).mask(grid).astype(float))
        (row,) = moment_bound_check(g, Ball((0.0,), r), IDX1, hp_norm(g, IDX1, mol, scales))
        assert row.critical and row.bound == pytest.approx(1 / np.log1p(1 / r))
        ratios.append(row.ratio)
    assert max(ratios) / min(ratios) <= 6.0


def test_moment_bound_check_subcritical_branch(grid):
    r = 0.25
    g = GridFunction(grid, Ball((0.0,), r).mask(grid).astype(float))
    (row,) = moment_bound_check(g, Ball((0.0,), r), IDX23, hp_norm(g, IDX23))
    assert not row.critical and row.bound == 1.0


def test_moment_bound_check_rejects_zero(grid):
    z = GridFunction(grid, np.zeros(grid.shape))
    with pytest.raises(NumericalError, match="zero input"):
        moment_bound_check(z, Ball((0.0,), 0.25), IDX1, hp_norm(z, IDX1))


def gaussian_family(grid, r):
    return sample_function(grid, lambda p: r**-1.0 * np.exp(-((p[0] / r) ** 2)))


def test_pseudo_decompose_reconstructs(grid):
    B = Ball((0.0,), 0.25)
    M = gaussian_family(grid, 0.25)
    dec = pseudo_decompose(M, B, IDX1, J=4)
    rec = dec.reconstruct()
    err = np.sqrt(np.sum((rec.samples - M.samples) ** 2) * grid.cell_volume)
    assert err == pytest.approx(dec.residual, abs=1e-12)
    assert err <= 1e-8
    assert np.all(dec.g.samples[~B.mask(grid)] == 0.0)
    for c, a, ball in dec.atoms:
        rep = validate_atom(a, AtomSpec(IDX1, 2.0, ball, "global"), tol=1e-8)
        assert rep.passed, rep.to_text()
        assert c > 0


def test_pseudo_decompose_moment_transfer(grid):
    # the cancelling part carries no moments: moments of the sum equal the
    # moments of the compactly supported part
    B = Ball((0.0,), 0.25)
    M = gaussian_family(grid, 0.25)
    dec = pseudo_decompose(M, B, IDX1, J=4)
    l2 = np.sqrt(np.sum(M.samples**2) * grid.cell_volume)
    total = moment(dec.reconstruct(), (0.0,), (0,))
    assert abs(total - moment(dec.g, (0.0,), (0,))) <= 1e-8 * l2


def test_pseudo_decompose_sum_cp_stable(grid):
    sums = []
    for k in range(2, 7):
        r = 2.0**-k
        dec = pseudo_decompose(gaussian_family(grid, r), Ball((0.0,), r), IDX1, J=10)
        sums.append(dec.sum_cp)
    assert max(sums) / min(sums) <= 6.0


def test_pseudo_decompose_rejects_heavy_tail(grid):
    M = sample_function(grid, lambda p: 1.0 / (1.0 + np.abs(p[0])))
    with pytest.raises(NumericalError, match="tail too heavy"):
        pseudo_decompose(M, Ball((0.0,), 0.25), IDX1, J=2)
