"""End-to-end checks in dimension 2 at reduced resolution."""

import numpy as np
import pytest

from hardylab.atoms import AtomSpec, make_atom, moment_bound_check, validate_atom
from hardylab.grid import Ball, GridFunction, GridSpec, lp_quasinorm, sample_function
from hardylab.maximal import MollifierSpec, ScaleGrid, small_maximal_table
from hardylab.moments import BallBasis, HardyIndex, local_oscillation
from hardylab.operators import cancellation_test, get_operator
from oracles import build_phi0, hp_norm, pseudo_decompose, small_maximal

IDX = HardyIndex(1.0, 2)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(2, 4.0, 256)


def test_projection_and_oscillation_2d(grid):
    f = sample_function(grid, lambda p: 1.0 + p[0] - 2 * p[1] + 0.5 * p[0] * p[1])
    B = Ball((0.2, -0.1), 0.8)
    assert local_oscillation(f, B, 2) < 1e-9  # degree-2 polynomial is reproduced
    assert len(BallBasis(grid, B, 2).basis) == 6


def test_atoms_2d(grid):
    spec_a = AtomSpec(IDX, 2.0, Ball((0.0, 0.0), 0.3), "local")
    atoms = [make_atom(spec_a, seed, grid) for seed in range(5)]
    assert all(validate_atom(a, spec_a, 1e-8).passed for a in atoms)
    maxima = small_maximal_table(atoms, MollifierSpec("gaussian", 2), ScaleGrid.default(grid, 1.0))
    hps = [lp_quasinorm(m, IDX.p) for m in maxima]
    assert max(hps) / min(hps) <= 20.0


def test_small_maximal_2d(grid):
    mol = MollifierSpec("gaussian", 2)
    scales = ScaleGrid.default(grid, 1.0)
    f = sample_function(grid, lambda p: np.exp(-4 * (p[0] ** 2 + p[1] ** 2)))
    sm = small_maximal(f, mol, scales)
    core = (grid.points() ** 2).sum(axis=0) < 1.0
    assert np.all(sm.samples[core] >= 0.85 * f.samples[core])


def test_moment_bound_2d(grid):
    B = Ball((0.0, 0.0), 0.25)
    g = GridFunction(grid, B.mask(grid).astype(float))
    (row,) = moment_bound_check(g, B, IDX, hp_norm(g, IDX))
    assert row.critical and 0 < row.ratio < 10


def test_cancellation_contrast_2d(grid):
    balls = [Ball((0.0, 0.0), 2.0**-k) for k in (2, 3, 4)]
    smooth = cancellation_test(get_operator("gaussian", grid), IDX, balls, [(0, 0)], grid)
    assert max(r.ratio for r in smooth) <= 1e-4
    rough = cancellation_test(get_operator("sign-mult", grid), IDX, balls, [(0, 0)], grid)
    ratios = [r.ratio for r in rough if r.alpha == (0, 0)]
    assert ratios[-1] > ratios[0]  # divergence sets in as r shrinks


def test_pseudo_decompose_2d(grid):
    r = 0.25
    M = sample_function(grid, lambda p: r**-2.0 * np.exp(-((p[0] ** 2 + p[1] ** 2) / r**2)))
    dec = pseudo_decompose(M, Ball((0.0, 0.0), r), IDX, J=3)
    rec = dec.reconstruct()
    err = np.sqrt(np.sum((rec.samples - M.samples) ** 2) * grid.cell_volume)
    assert err <= 1e-8
    assert all(validate_atom(a, AtomSpec(IDX, 2.0, b, "global"), 1e-8).passed
               for _, a, b in dec.atoms)


def test_probe_bump_2d():
    bump = build_phi0((0.6, 0.8), (0, 0), IDX)
    assert bump.integral > 1e-4
    for beta, measured, bound in bump.certification:
        assert measured <= bound
