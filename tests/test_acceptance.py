"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they complete.
"""

import time

import numpy as np
import pytest

from hardylab.atoms import (
    AtomSpec,
    make_atom,
    min_premolecule_constant,
    moment_bound_check,
    validate_atom,
)
from hardylab.config import ExperimentConfig
from hardylab.errors import NumericalError
from hardylab.experiments import run_experiment
from hardylab.grid import Ball, GridFunction, GridSpec, convolve, lp_quasinorm, sample_function
from hardylab.maximal import MollifierSpec, ScaleGrid, small_maximal_table
from hardylab.moments import HardyIndex, dual_norm_check, local_oscillation, multiindices, poly_project
from hardylab.operators import cancellation_test, get_operator
from oracles import kernel_holder_check, kernel_size_check, pseudo_decompose

IDX1 = HardyIndex(1.0, 1)
IDX23 = HardyIndex(2 / 3, 1)
IDXH = HardyIndex(0.5, 1)


def report(num, description, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"{status} criterion {num:2d}: {description} "
          f"[{detail}; {elapsed:.1f}s of {limit:.0f}s]")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.1f}s >= {limit}s"


def test_criterion_01_convolution_oracle():
    start = time.perf_counter()
    spec = GridSpec(1, 4.0, 256)
    m, h = spec.points_per_axis, spec.spacing
    worst = 0.0
    j = np.arange(m)
    for trial in range(20):
        rng = np.random.default_rng(trial)
        f = GridFunction(spec, rng.normal(size=spec.shape))
        g = GridFunction(spec, rng.normal(size=spec.shape))
        fast = convolve(f, g).samples
        direct = np.zeros(m)
        for i in range(m):
            k = i - j + m // 2
            ok = (k >= 0) & (k < m)
            direct[i] = h * np.sum(f.samples[ok] * g.samples[k[ok]])
        worst = max(worst, np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))
    elapsed = time.perf_counter() - start
    report(1, "FFT convolution vs direct summation (20 pairs, m=256)",
           worst <= 1e-10, f"max rel err {worst:.2e} <= 1e-10", elapsed, 5.0)


def test_criterion_02_moment_matching_projection():
    start = time.perf_counter()
    spec = GridSpec(1, 2.0, 4096)
    x = spec.points()[0]
    h = spec.cell_volume
    worst_moment = 0.0
    worst_excess = -np.inf
    rng = np.random.default_rng(2024)
    for trial in range(100):
        N = int(rng.integers(0, 3))
        r = float(rng.uniform(0.1, 0.6))
        c = float(rng.uniform(-1.0, 1.0))
        if abs(c) + r >= spec.half_width:
            c = np.sign(c) * (spec.half_width - r - 0.05)
        B = Ball((c,), r)
        f = GridFunction(spec, np.random.default_rng(trial).normal(size=spec.shape))
        pc = poly_project(f, B, N)
        mask = B.mask(spec)
        fvals = f.samples[mask]
        resid = fvals - pc.samples[mask]
        l2 = np.sqrt(np.sum(fvals**2) * h)
        for k in range(N + 1):
            mom = abs(np.sum(resid * (x[mask] - c) ** k) * h)
            worst_moment = max(worst_moment, mom / (l2 * r**k))
        # 200 random polynomial competitors, vectorized
        osc = np.sqrt(np.mean(resid**2))
        V = np.stack([((x[mask] - c) / r) ** k for k in range(N + 1)], axis=1)
        C = np.random.default_rng(10_000 + trial).normal(size=(N + 1, 200))
        comps = np.sqrt(np.mean((fvals[:, None] - V @ C) ** 2, axis=0))
        worst_excess = max(worst_excess, float(osc - comps.min()))
    elapsed = time.perf_counter() - start
    ok = worst_moment <= 1e-9 and worst_excess <= 1e-9
    report(2, "moment-matching projection + oscillation minimality (100 cases)",
           ok, f"moment {worst_moment:.1e} <= 1e-9, excess {worst_excess:.1e} <= 1e-9",
           elapsed, 30.0)


def test_criterion_03_duality_identity():
    start = time.perf_counter()
    spec = GridSpec(1, 2.0, 2048)
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        N = trial % 3
        r = 0.2 + 0.3 * (trial % 4) / 3.0
        f = GridFunction(spec, rng.normal(size=spec.shape))
        lhs, rhs = dual_norm_check(f, Ball((0.0,), r), N, trials=0)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    report(3, "dual-norm identity, deterministic candidate (50 cases)",
           worst <= 1e-9, f"max gap {worst:.2e} <= 1e-9", elapsed, 10.0)


def test_criterion_04_atom_suite():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 2048)
    mol = MollifierSpec("gaussian", 1)
    scales = ScaleGrid.default(grid, 1.0)
    classes = [
        (IDX1, 2.0, "local"),
        (IDX1, np.inf, "local"),
        (IDX23, 2.0, "local"),
        (IDXH, 2.0, "local"),
        (IDX1, 2.0, "global"),
    ]
    detail = []
    ok = True
    for idx, s, space in classes:
        spec_a = AtomSpec(idx, s, Ball((0.0,), 0.25), space)
        atoms = [make_atom(spec_a, seed, grid) for seed in range(100)]
        ok = ok and all(validate_atom(a, spec_a, tol=1e-8).passed for a in atoms)
        hps = [lp_quasinorm(m, idx.p) for m in small_maximal_table(atoms, mol, scales)]
        spread = max(hps) / min(hps)
        ok = ok and spread <= 20.0
        detail.append(f"(p={idx.p:.3g},s={s:g},{space}): spread {spread:.2f}")
    elapsed = time.perf_counter() - start
    report(4, "atom suite: 100 atoms/class validate, norm uniformity <= 20",
           ok, "; ".join(detail), elapsed, 120.0)


def test_criterion_05_moment_decay_trend():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 8192)
    mol = MollifierSpec("gaussian", 1)
    scales = ScaleGrid.default(grid, 1.0)
    spans = {}
    for idx in (IDX1, IDX23):
        ratios = []
        balls = [Ball((0.0,), 2.0**-k) for k in range(1, 9)]
        gs = [GridFunction(grid, ball.mask(grid).astype(float)) for ball in balls]
        for ball, g, mg in zip(balls, gs, small_maximal_table(gs, mol, scales)):
            (row,) = moment_bound_check(g, ball, idx, lp_quasinorm(mg, idx.p))
            ratios.append(row.ratio)
        spans[idx.p] = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - start
    ok = spans[1.0] <= 6.0 and spans[2 / 3] <= 6.0
    report(5, "moment decay of the indicator family over r = 2^-1..2^-8",
           ok, f"critical span {spans[1.0]:.2f} <= 6, subcritical span {spans[2/3]:.2f} <= 6",
           elapsed, 120.0)


def test_criterion_06_cancellation_smoothing():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 8192)
    T = get_operator("gaussian", grid)
    balls = [Ball((0.0,), 2.0**-k) for k in range(2, 7)]
    worst = 0.0
    for idx in (IDX1, IDXH):
        alphas = multiindices(1, idx.N_p)
        rows = cancellation_test(T, idx, balls, alphas, grid)
        worst = max(worst, max(r.ratio for r in rows))
    elapsed = time.perf_counter() - start
    report(6, "smoothing operator cancellation ratios (p in {1, 1/2}, r=2^-2..2^-6)",
           worst <= 1e-4, f"max ratio {worst:.2e} <= 1e-4", elapsed, 60.0)


def test_criterion_07_cancellation_stability():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 8192)
    T = get_operator("riesz", grid)
    balls = [Ball((0.0,), 2.0**-k) for k in (3, 4, 5)]  # single window regime
    rows = cancellation_test(T, IDX1, balls, [(0,)], grid)
    ratios = [r.ratio for r in rows if r.alpha == (0,)]
    span = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - start
    report(7, "smoothed Riesz cancellation ratio stability over the r-ladder",
           span <= 4.0, f"max/min {span:.2f} <= 4", elapsed, 60.0)


def test_criterion_08_cancellation_failure():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 8192)
    T = get_operator("sign-mult", grid)
    balls = [Ball((0.0,), 2.0**-2), Ball((0.0,), 2.0**-7)]
    rows = cancellation_test(T, IDX1, balls, [(0,)], grid)
    growth = rows[1].ratio / rows[0].ratio
    elapsed = time.perf_counter() - start
    report(8, "sign multiplier: cancellation ratio grows from r=2^-2 to 2^-7",
           growth >= 2.0, f"growth {growth:.2f} >= 2", elapsed, 60.0)


def test_criterion_09_grand_maximal_constant_regimes(tmp_path):
    start = time.perf_counter()
    cfg_path = tmp_path / "e2.cfg"
    cfg_path.write_text("""
[experiment]
scenario = E2-grand-maximal-constant
seed = 1
[grid]
dim = 1
m = 2048
L = 16
[scenario]
p_values = 1, 1/2
T_ladder = 1, 2, 4, 8
r_large = 1.0
r_small = 0.25
n_seeds = 6
""")
    cfg = ExperimentConfig.from_file(str(cfg_path), out_dir=str(tmp_path), quiet=True)
    rows = run_experiment(cfg).rows
    fits = {row[1]: row for row in rows if row[0] == "fit"}
    slope, r2_log = fits[1.0][7], fits[1.0][8]
    expo, r2_pow = fits[0.5][7], fits[0.5][8]
    variation = next(row[4] for row in rows if row[0] == "variation")
    ok = slope > 0 and r2_log >= 0.9 and 0.5 <= expo <= 1.5 and variation <= 0.15
    elapsed = time.perf_counter() - start
    report(9, "grand-maximal constant: log fit (p=1), power fit (p=1/2), small-r stability",
           ok, f"slope {slope:.3f}>0 R2 {r2_log:.3f}>=0.9; exponent {expo:.2f} in [0.5,1.5]; "
           f"variation {variation:.3f} <= 0.15", elapsed, 180.0)


def test_criterion_10_pseudo_decomposition():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 4096)
    sums = []
    worst_resid = 0.0
    atoms_ok = True
    for k in range(2, 7):
        r = 2.0**-k
        M = sample_function(grid, lambda p: r**-1.0 * np.exp(-((p[0] / r) ** 2)))
        dec = pseudo_decompose(M, Ball((0.0,), r), IDX1, J=10)
        rec = dec.reconstruct()
        err = float(np.sqrt(np.sum((rec.samples - M.samples) ** 2) * grid.cell_volume))
        worst_resid = max(worst_resid, err)
        for c, a, ball in dec.atoms:
            atoms_ok &= validate_atom(a, AtomSpec(IDX1, 2.0, ball, "global"), tol=1e-8).passed
        sums.append(dec.sum_cp)
        # the family really is a uniform pre-molecule family
        assert min_premolecule_constant(M, IDX1, 2.0, 2.0, Ball((0.0,), r)) < 1.2
    span = max(sums) / min(sums)
    ok = worst_resid <= 1e-8 and atoms_ok and span <= 6.0
    elapsed = time.perf_counter() - start
    report(10, "pseudo-decomposition: exact reconstruction, valid atoms, stable sums",
           ok, f"residual {worst_resid:.1e} <= 1e-8, coefficient span {span:.2f} <= 6",
           elapsed, 120.0)


def test_criterion_11_kernel_checkers():
    start = time.perf_counter()
    grid = GridSpec(1, 4.0, 4096)
    gauss = get_operator("gaussian", grid, width=0.5)
    finite = all(np.isfinite(kernel_size_check(gauss, mu, grid).fitted_C)
                 for mu in (0.5, 1.0, 2.0, 4.0))
    tp = kernel_size_check(get_operator("truncated-power", grid, mu=1.0), 1.0, grid)
    near_one = abs(tp.fitted_C - 1.0) <= 0.2
    ss = kernel_holder_check(get_operator("strongly-singular", grid), 1.0, 0.5, grid)
    cs = [kernel_holder_check(get_operator("jump-kernel", GridSpec(1, 4.0, m)),
                              1.0, 1.0, GridSpec(1, 4.0, m)).fitted_C
          for m in (2048, 4096)]
    jump_grows = cs[1] >= 2.0 * cs[0]
    ok = finite and near_one and np.isfinite(ss.fitted_C) and jump_grows
    elapsed = time.perf_counter() - start
    report(11, "kernel size and regularity checkers",
           ok, f"power-kernel C {tp.fitted_C:.3f} within 20% of 1; singular-phase C "
           f"{ss.fitted_C:.2f} finite; jump C growth {cs[1]/cs[0]:.2f}x >= 2",
           elapsed, 120.0)
