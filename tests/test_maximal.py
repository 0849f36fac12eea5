import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import hardylab.maximal as maximal
from hardylab import pool
from hardylab.atoms import AtomSpec, edge_cutoff, make_atom
from hardylab.errors import NumericalError
from hardylab.grid import (
    TILE_ROWS,
    Ball,
    GridFunction,
    GridSpec,
    dilate,
    integrate,
    lp_quasinorm,
    sample_function,
    sized_side,
    sq_distance,
)
from hardylab.maximal import (
    MollifierSpec,
    ScaleGrid,
    TestDictionary,
    build_test_dictionary,
    grand_maximal_table,
    small_maximal_table,
)
from hardylab.moments import HardyIndex, moment
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_phi0,
    cutoff_eta,
    grand_maximal,
    hp_norm,
    padded_small_maximal,
    phi_x_alpha,
    kernel_reach,
    random_smooth_field,
    serial_grand_maximal,
    small_maximal,
    support_box,
    verify_admissible,
    window_maximal,
    with_probes,
)

IDX1 = HardyIndex(1.0, 1)
IDXH = HardyIndex(0.5, 1)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 4.0, 2048)


@pytest.fixture(scope="module")
def scales(grid):
    return ScaleGrid.default(grid, 1.0)


def test_mollifier_integrals():
    for dim in (1, 2):
        spec = GridSpec(dim, 8.0 if dim == 1 else 4.0, 2048 if dim == 1 else 256)
        for shape in ("gaussian", "smooth-bump"):
            mol = MollifierSpec(shape, dim)
            val = integrate(sample_function(spec, mol))
            assert val == pytest.approx(1.0, abs=1e-4)
            assert abs(val) >= 0.5


def test_scale_grid_validation(grid):
    with pytest.raises(ValueError):
        ScaleGrid(tuple(np.linspace(0.1, 1.0, 8)))  # too few
    with pytest.raises(ValueError):
        ScaleGrid(tuple([0.5] * 20))  # not increasing
    sg = ScaleGrid.default(grid, 1.0)
    assert sg.scales[0] >= 2 * grid.spacing
    assert len(sg.scales) >= 16
    ratios = np.diff(np.log(sg.scales))
    assert np.max(ratios) <= np.log(2.0**0.25) + 1e-12


def test_small_maximal_mollification_floor(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    f = sample_function(grid, lambda p: np.exp(-4 * p[0] ** 2))
    sm = small_maximal(f, mol, scales)
    core = np.abs(grid.axis()) < 1.0
    integral = integrate(sample_function(grid, mol))
    assert np.all(sm.samples[core] >= 0.9 * abs(integral) * f.samples[core])


def test_small_maximal_homogeneity(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    rng = np.random.default_rng(0)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    a = small_maximal(f, mol, scales)
    b = small_maximal(-2.5 * f, mol, scales)
    scale = np.max(a.samples)
    assert np.max(np.abs(b.samples - 2.5 * a.samples)) <= 1e-13 * scale


def test_small_maximal_scale_refinement(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    f = sample_function(grid, lambda p: np.exp(-2 * p[0] ** 2) * (1 + 0.5 * np.sin(3 * p[0])))
    base = small_maximal(f, mol, scales)
    fine = small_maximal(f, mol, ScaleGrid(
        tuple(np.geomspace(scales.scales[0], scales.scales[-1], 2 * len(scales.scales)))))
    rel = (np.abs(fine.samples).sum() - np.abs(base.samples).sum()) / np.abs(base.samples).sum()
    assert 0 <= rel <= 0.02  # refinement only increases, and by little


def test_small_maximal_translation_covariance(grid, scales):
    # compactly supported mollifier and input, so the padded convolution never
    # feels the wrap seam and covariance is exact up to summation roundoff
    mol = MollifierSpec("smooth-bump", 1)
    f = sample_function(grid, lambda p: np.clip(1 - (p[0] / 0.5) ** 2, 0, None) ** 3)
    shift = 64  # whole cells
    gshift = GridFunction(grid, np.roll(f.samples, shift))
    a = small_maximal(f, mol, scales)
    b = small_maximal(gshift, mol, scales)
    assert np.max(np.abs(np.roll(a.samples, shift) - b.samples)) < 1e-13


def test_hp_norm_basics(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    zero = GridFunction(grid, np.zeros(grid.shape))
    assert hp_norm(zero, IDX1, mol, scales) == 0.0
    f = sample_function(grid, lambda p: np.exp(-4 * p[0] ** 2))
    assert hp_norm(3.0 * f, IDX1, mol, scales) == pytest.approx(
        3.0 * hp_norm(f, IDX1, mol, scales), rel=1e-12)


def test_hp_norm_uniform_over_atom_seeds(grid, scales):
    from hardylab.atoms import AtomSpec, make_atom

    mol = MollifierSpec("gaussian", 1)
    spec_a = AtomSpec(IDX1, np.inf, Ball((0.0,), 0.25), "local")
    atoms = [make_atom(spec_a, seed, grid) for seed in range(50)]
    vals = [lp_quasinorm(m, IDX1.p) for m in small_maximal_table(atoms, mol, scales)]
    assert max(vals) / min(vals) <= 20.0


def truncated_norm(f, mol, t_max):
    # the maximal norm with scales up to t_max instead of 1
    return lp_quasinorm(small_maximal(f, mol, ScaleGrid.default(f.spec, t_max)), IDX1.p)


def mean_cancels(f):
    # N_p = 0 at p = 1: the zeroth moment, against ||f||_2 (2L)^{1/2}
    L = f.spec.half_width
    return abs(moment(f, (0.0,), (0,))) <= 1e-8 * lp_quasinorm(f, 2.0) * (2 * L) ** 0.5


def test_global_norm_dominates_and_flags(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    f = sample_function(grid, lambda p: (np.abs(p[0]) < 0.25).astype(float))
    local = hp_norm(f, IDX1, mol, scales)
    v1, v2 = truncated_norm(f, mol, 1.0), truncated_norm(f, mol, 2.0)
    assert not mean_cancels(f)
    assert v1 >= local - 1e-12
    assert v2 > v1  # truncated value grows without cancellation


def test_global_norm_stable_for_cancelling_atoms(grid):
    from hardylab.atoms import AtomSpec, make_atom

    mol = MollifierSpec("gaussian", 1)
    a = make_atom(AtomSpec(IDX1, 2.0, Ball((0.0,), 0.25), "global"), 0, grid)
    v1, v2 = truncated_norm(a, mol, 1.0), truncated_norm(a, mol, 2.0)
    assert mean_cancels(a)
    assert abs(v2 - v1) <= 0.10 * v1


def test_cutoff_profile_shape():
    s = np.linspace(0, 3, 301)
    vals = cutoff_eta(s)
    assert np.all(vals[s <= 1.5] == 1.0)
    assert np.all(vals[s >= 2.0] == 0.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_phi0_alpha_zero():
    bump = build_phi0((1.0,), (0,), IDX1)
    assert bump.integral > 0
    assert not bump.fallback
    # equals C on |y| < 1 where the cutoff is identically 1
    y = np.linspace(-0.99, 0.99, 199)[None, :]
    assert np.max(np.abs(bump(y) - bump.c_alpha)) == 0.0


def test_phi0_derivative_certification_margins():
    bump = build_phi0((1.0,), (1,), IDXH)
    assert abs(bump.integral) >= 1e-4
    for beta, measured, bound in bump.certification:
        assert sum(beta) <= IDXH.N_p + 1
        assert 1.0 - measured / bound >= 0.05


def test_phi0_monomial_reproduction():
    bump = build_phi0((-1.0,), (1,), IDXH)
    y = np.linspace(-0.99, 0.99, 199)[None, :]
    assert np.max(np.abs(bump(y) - bump.c_alpha * y[0])) == 0.0


def test_phi0_degenerate_case_raises():
    # mixed monomial with a perpendicular direction: the radial cutoff kills
    # the moment and the constrained fallback cannot reach the integral floor
    with pytest.raises(NumericalError, match="degenerate phi0"):
        build_phi0((1.0, 0.0), (1, 1), HardyIndex(0.5, 2))


def test_phi_x_alpha_support_and_formula():
    for xv in (0.3, -0.2):
        probe = phi_x_alpha((xv,), (0,), IDX1)
        t = probe.scale
        assert t == pytest.approx(4 * abs(xv))
        # support inside B(x, 4|x|), sampled
        y = np.linspace(xv - 2 * t, xv + 2 * t, 2001)[None, :]
        vals = probe(y)
        outside = np.abs(y[0] - xv) > t * (1 + 1e-9)
        assert np.max(np.abs(vals[outside]), initial=0.0) == 0.0
        # monomial region: phi(y) = C y^a / ((2|x|)^|a| |x|^n) for |y| < |x|
        yy = np.linspace(-abs(xv) * 0.99, abs(xv) * 0.99, 101)[None, :]
        expected = probe.phi0.c_alpha / abs(xv)
        assert np.max(np.abs(probe(yy) - expected)) < 1e-14


def test_phi_x_alpha_admissible_for_random_sites():
    rng = np.random.default_rng(42)
    for idx, alpha in ((IDX1, (0,)), (IDXH, (1,))):
        for _ in range(10):
            xv = float(rng.uniform(0.05, 0.45)) * (1 if rng.random() < 0.5 else -1)
            probe = phi_x_alpha((xv,), alpha, idx)
            rep = verify_admissible(probe, k=idx.N_p + 1, t=probe.scale, x=(xv,))
            assert rep.passed, rep.to_text()


def test_verify_admissible_detects_violation(grid, scales):
    mol = MollifierSpec("smooth-bump", 1)
    t = 0.5
    amp = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales).amplitude  # k = 1

    def entry(pts):
        return amp * t**-1 * mol(tuple(x / t for x in pts))

    rep = verify_admissible(entry, k=1, t=t, x=(0.0,))
    assert rep.passed
    rep2 = verify_admissible(lambda pts: 2.0 * entry(pts), k=1, t=t, x=(0.0,))
    assert not rep2.passed

    # an entry normalized to saturate the sup bound fails it when doubled
    sup = 1.0 / float(mol(np.zeros((1, 1)))[0])

    def saturating(pts):
        return 0.99 * sup * t**-1 * mol(tuple(x / t for x in pts))

    rep3 = verify_admissible(saturating, k=0, t=t, x=(0.0,))
    assert rep3.passed
    rep4 = verify_admissible(lambda pts: 2.0 * saturating(pts), k=0, t=t, x=(0.0,))
    assert not rep4.rows[0].passed  # the order-zero bound breaks


def test_grand_maximal_matches_scaled_small_maximal(grid, scales):
    # on the padded full grid (order 2, the same amplitude) the grand
    # maximal function is the scaled small one of the padded oracle exactly,
    # and the library's window one within 64 eps of the max; order 1 takes
    # the window path, which its oracle pins
    mol = MollifierSpec("smooth-bump", 1)
    dct = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales)
    f = sample_function(grid, lambda p: np.exp(-2 * p[0] ** 2))
    sm = small_maximal(f, mol, scales)
    amp = dct.amplitude
    assert dct == TestDictionary(mol, scales, amp, 1)
    gm = grand_maximal(f, dataclasses.replace(dct, order=2))
    assert np.max(np.abs(gm.samples - amp * padded_small_maximal(f, mol, scales))) == 0.0
    assert np.max(np.abs(gm.samples - amp * sm.samples)) <= 64 * np.finfo(float).eps * np.max(gm.samples)
    assert np.array_equal(grand_maximal(f, dct).samples, window_maximal(f, mol, scales, amp))
    zero = GridFunction(grid, np.zeros(grid.shape))
    assert np.all(grand_maximal(zero, dct).samples == 0.0)


def union_ladder(*ladders):
    return ScaleGrid(tuple(sorted({t for sg in ladders for t in sg.scales})))


def test_grand_maximal_monotone_in_dictionary(grid, scales):
    # the T = 2 ladder joined to the T = 1 one: the same kernels and
    # convolutions plus more, so the max can only rise, exactly
    mol = MollifierSpec("smooth-bump", 1)
    small_dct = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales)
    big = build_test_dictionary(grid, IDX1, T=2.0, mollifier=mol,
                                scales=union_ladder(scales, ScaleGrid.default(grid, 2.0)))
    rng = np.random.default_rng(1)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    a = grand_maximal(f, small_dct)
    b = grand_maximal(f, big)
    assert np.all(b.samples >= a.samples)


@pytest.mark.parametrize("dim", [1, 2])
def test_small_maximal_monotone_under_scale_refinement(dim):
    # a ladder holding every base scale (the same floats) can only raise values
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    rng = np.random.default_rng(30 + dim)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    mol = MollifierSpec("gaussian", dim)
    base = ScaleGrid.default(spec, 1.0)
    mids = np.sqrt(np.multiply(base.scales[1:], base.scales[:-1]))
    fine = ScaleGrid(tuple(sorted({*base.scales, *mids, 1.5})))
    assert set(base.scales) < set(fine.scales)
    assert np.all(small_maximal(f, mol, fine).samples >= small_maximal(f, mol, base).samples)


@pytest.mark.parametrize("dim", [1, 2])
def test_grand_maximal_monotone_under_dictionary_superset(dim):
    # more copies, a larger T and moment probes on top of every base copy;
    # on the function cut to a ball the order-1 dictionaries take the
    # support path, where the larger T pastes on a larger box
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    idx = HardyIndex(1.0, dim)
    smooth = sample_function(spec, lambda p: np.exp(-4 * sq_distance(p)) * (1 + p[0]))
    cut = smooth * GridFunction(spec, Ball((0.1,) * dim, 0.5).mask(spec).astype(float))
    base = build_test_dictionary(spec, idx, T=1.0)
    sites = ((0.2, 0.1)[:dim], (0.3, 0.15)[:dim])
    big = build_test_dictionary(spec, idx, T=2.0, scales=union_ladder(
        base.scales, ScaleGrid.default(spec, 2.0)))
    for f in (smooth, cut):
        small_vals = grand_maximal(f, base).samples
        big_vals = with_probes(grand_maximal(f, big).samples, f, (0,) * dim, sites, idx, T=2.0)
        assert np.all(big_vals >= small_vals)
        assert np.any(big_vals > small_vals)


@st.composite
def nested_ladders(draw, fine):
    # two ladders of at least 16 scales each, the smaller inside the larger
    big = draw(st.lists(st.sampled_from(list(fine)), min_size=16, unique=True))
    small = draw(st.lists(st.sampled_from(big), min_size=16, max_size=len(big), unique=True))
    return ScaleGrid(tuple(sorted(small))), ScaleGrid(tuple(sorted(big)))


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_grand_maximal_monotone_under_nested_ladders(dim, data):
    # any two nested ladders of one fine ladder: the larger dictionary
    # reuses every kernel and convolution of the smaller, so >= is exact; on
    # a compact function also on the support path, where each scale takes
    # the same sub-grid in both and the larger cap pastes on a larger box
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    idx = HardyIndex(1.0, dim)
    small, big = data.draw(nested_ladders(np.geomspace(2.0 * spec.spacing, 2.0, 24)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = GridFunction(spec, rng.normal(size=spec.shape))
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(0, spec.points_per_axis - 8))
        cube = np.zeros(spec.shape)
        cube[(slice(lo, lo + 8),) * dim] = 1.0
        f = f * GridFunction(spec, cube)
    a = grand_maximal(f, build_test_dictionary(spec, idx, 2.0, scales=small)).samples
    b = grand_maximal(f, build_test_dictionary(spec, idx, 2.0, scales=big)).samples
    assert np.all(b >= a)


@st.composite
def compact_cases(draw, dim):
    # a real or complex function whose nonzero samples lie in a random box
    # of a small grid (zeros inside it too), and an order-1 dictionary with
    # a random cap T
    m = draw(st.sampled_from([64, 256] if dim == 1 else [16, 32, 64]))
    spec = GridSpec(dim, 2.0, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=spec.shape) * (rng.random(spec.shape) < 0.8)
    if draw(st.booleans()):
        x = x + 1j * rng.normal(size=spec.shape)
    box = []
    for _ in range(dim):
        width = draw(st.integers(1, m))
        lo = draw(st.integers(0, m - width))
        box.append(slice(lo, lo + width))
    x[tuple(b.start for b in box)] = 1.0  # not all zero
    samples = np.zeros_like(x)
    samples[tuple(box)] = x[tuple(box)]
    f = GridFunction(spec, samples)
    T = draw(st.sampled_from([0.6, 1.0, 1.5]))
    return f, build_test_dictionary(spec, HardyIndex(1.0, dim), T)


def near_support(f, dictionary):
    # the box of f's nonzero samples widened by ceil(t_max/h) samples, which
    # holds supp f + B(0, T) on the grid
    reach = int(np.ceil(dictionary.scales.scales[-1] / f.spec.spacing))
    near = np.zeros(f.spec.shape, dtype=bool)
    near[tuple(slice(max(lo - reach, 0), hi + reach) for lo, hi in support_box(f))] = True
    return near


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_support_path_matches_full_grid(dim, data):
    # per scale: on the first k scales of a fine ladder, real or complex f
    # gives exactly 0 more than ceil(t_k/h) samples from its box, t_k the
    # largest of them, where the full padded path holds round-off of at most
    # the tolerance, and within 64 eps of the max of the full path elsewhere
    # (a tolerance fixed from float64 eps beforehand); bit for bit the
    # window oracle's
    f, dct = data.draw(compact_cases(dim))
    assert dct.order == 1
    fine = np.geomspace(2 * f.spec.spacing, dct.scales.scales[-1], 40)
    dct = dataclasses.replace(dct, scales=ScaleGrid(tuple(fine[:data.draw(st.integers(16, 40))])))
    got = grand_maximal(f, dct).samples
    full = serial_grand_maximal(f, dct)
    assert np.array_equal(got, serial_cell(f, dct))
    near = near_support(f, dct)
    tol = 64 * np.finfo(float).eps * np.max(full)
    assert np.max(np.abs(got - full)[near]) <= tol
    assert np.all(got[~near] == 0.0)
    assert np.max(full[~near], initial=0.0) <= tol


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_full_grid_path_keeps_its_bits(dim, data):
    # an order >= 2 dictionary on a compact function takes the full padded
    # path; an order-1 one takes the window path even on a function whose
    # support fills the grid, there on a window wider than the grid
    f, dct = data.draw(compact_cases(dim))
    spec = f.spec
    higher = build_test_dictionary(spec, HardyIndex(0.5, dim), dct.scales.scales[-1])
    assert higher.order > 1
    assert np.array_equal(grand_maximal(f, higher).samples, serial_grand_maximal(f, higher))
    filled = GridFunction(spec, f.samples + np.random.default_rng(dim).normal(size=spec.shape))
    assert fills_grid(filled)
    assert np.array_equal(grand_maximal(filled, dct).samples, serial_cell(filled, dct))


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_function_takes_no_transform_on_support_path(monkeypatch, dim):
    # an all-zero function gives zeros on both paths; on the support path it
    # takes no spectrum and builds no kernel
    spec = GridSpec(dim, 2.0, 64)
    zero = GridFunction(spec, np.zeros(spec.shape))
    order1, higher = (build_test_dictionary(spec, HardyIndex(p, dim), 1.0) for p in (1.0, 0.5))
    built = count_kernel_builds(monkeypatch)
    spectra = []
    for name in ("padded_spectrum", "window_spectrum"):
        def counting(f, *args, transform=getattr(maximal, name), **kwargs):
            spectra.append(f)
            return transform(f, *args, **kwargs)
        monkeypatch.setattr(maximal, name, counting)
    assert not grand_maximal(zero, order1).samples.any()
    assert not built and not spectra
    assert not any(cell.samples.any() for cell in grand_maximal_table([zero], [order1, higher])[0])
    assert built == Counter(dict.fromkeys(((higher.mollifier, t) for t in higher.scales.scales), 1))


def test_grand_maximal_sublinear(grid, scales):
    mol = MollifierSpec("smooth-bump", 1)
    dct = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales)
    rng = np.random.default_rng(2)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    g = GridFunction(grid, rng.normal(size=grid.shape))
    lhs = grand_maximal(GridFunction(grid, f.samples + g.samples), dct)
    rhs = grand_maximal(f, dct).samples + grand_maximal(g, dct).samples
    assert np.all(lhs.samples <= rhs + 1e-12)


def test_grand_maximal_probe_lower_bound(grid):
    # with the explicit probes on top of a dictionary of the T = 2 family, the
    # grand maximal function at the probe sites dominates the rescaled moment
    # exactly: on the full ladder, and on small copies only, where the probes
    # alone carry the bound off the support
    r = 0.25
    g = sample_function(grid, lambda p: (np.abs(p[0]) < r).astype(float))
    sites = ((0.2,), (0.3,), (0.45,))
    m0 = moment(g, (0.0,), (0,))
    for t_max in (2.0, 0.05):
        dct = build_test_dictionary(grid, IDX1, T=2.0, scales=ScaleGrid.default(grid, t_max))
        copies = grand_maximal(g, dct).samples
        gm = with_probes(copies, g, (0,), sites, IDX1, T=2.0)
        for (xv,) in sites:
            probe = phi_x_alpha((xv,), (0,), IDX1)
            claimed = probe.phi0.c_alpha * abs(xv) ** -1 * abs(m0)
            i = int(round((xv + grid.half_width) / grid.spacing))
            assert gm[i] >= claimed - 1e-12
    assert np.any(gm > copies)  # on the small copies, the probes raise the value


def test_dictionary_requires_compact_mollifier():
    # every way to a Gaussian dictionary raises, in dims 1 and 2: the
    # builder, the constructor, and dataclasses.replace of a certified one
    for dim in (1, 2):
        spec = GridSpec(dim, 4.0, 64 if dim == 1 else 32)
        gaussian = MollifierSpec("gaussian", dim)
        sc = ScaleGrid.default(spec, 1.0)
        idx = HardyIndex(1.0, dim)
        with pytest.raises(ValueError, match="compact"):
            build_test_dictionary(spec, idx, T=1.0, mollifier=gaussian, scales=sc)
        dct = build_test_dictionary(spec, idx, T=1.0, scales=sc)
        with pytest.raises(ValueError, match="compact"):
            TestDictionary(gaussian, sc, dct.amplitude, dct.order)
        with pytest.raises(ValueError, match="compact"):
            dataclasses.replace(dct, mollifier=gaussian)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("is_complex", [False, True])
def test_small_maximal_matches_serial_loop_bitwise(dim, is_complex):
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    rng = np.random.default_rng(20 + dim)
    x = rng.normal(size=spec.shape)
    f = GridFunction(spec, x + 1j * rng.normal(size=spec.shape) if is_complex else x)
    mol = MollifierSpec("gaussian", dim)
    sc = ScaleGrid.default(spec, 1.0)
    assert np.array_equal(small_maximal(f, mol, sc).samples, window_maximal(f, mol, sc))


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_small_maximal_matches_reference_fold_bitwise(dim, data):
    # each |f * phi_t| scaled by h^dim before its modulus, as the window
    # oracle's full-window irfftn does; h^dim = (3/m)^dim is not a power of
    # two, so the order shows. The smooth bump is cut at K = ceil(t/h), on
    # the side its span 2K + 1 needs
    m = data.draw(st.sampled_from([8, 16, 64, 256] if dim == 1 else [8, 16, 64]))
    spec = GridSpec(dim, 1.5, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=spec.shape)
    f = GridFunction(spec, x + 1j * rng.normal(size=spec.shape) if data.draw(st.booleans()) else x)
    mol = MollifierSpec(data.draw(st.sampled_from(["gaussian", "smooth-bump"])), dim)
    sc = ScaleGrid.default(spec, 1.0)
    ref = window_maximal(f, mol, sc)
    assert np.array_equal(small_maximal(f, mol, sc).samples.view(np.uint64), ref.view(np.uint64))


@st.composite
def boxed_fields(draw, dim):
    # one to three real or complex fields on one small grid, each with its
    # nonzero samples filling a random box: off-centre, touching an edge or
    # filling an axis
    m = draw(st.sampled_from([16, 64, 256] if dim == 1 else [16, 32, 64]))
    spec = GridSpec(dim, 2.0, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = []
    for _ in range(draw(st.integers(1, 3))):
        x = rng.normal(size=spec.shape)
        if draw(st.booleans()):
            x = x + 1j * rng.normal(size=spec.shape)
        box = []
        for _ in range(dim):
            width = draw(st.integers(1, m))
            lo = draw(st.sampled_from([0, m - width, draw(st.integers(0, m - width))]))
            box.append(slice(lo, lo + width))
        samples = np.zeros_like(x)
        samples[tuple(box)] = x[tuple(box)]
        fs.append(GridFunction(spec, samples))
    return fs


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_window_fold_matches_padded_oracle(dim, data):
    # the real window fold of one to three boxed fields, real or complex
    # (Re f and Im f combined by hypot), with either mollifier: within 64
    # eps of the max of the complex padded oracle, a tolerance fixed from
    # float64 eps beforehand; exactly 0 beyond the kernel's reach from f's
    # box (the m offsets of the Gaussian, ceil(t_max/h) of the bump); and
    # each row bit for bit its one-row call and the window oracle
    fs = data.draw(boxed_fields(dim))
    spec = fs[0].spec
    mol = MollifierSpec(data.draw(st.sampled_from(["gaussian", "smooth-bump"])), dim)
    sc = ScaleGrid.default(spec, 1.0)
    before, after = kernel_reach(mol, sc.scales[-1], spec)
    for f, got in zip(fs, small_maximal_table(fs, mol, sc)):
        got = got.samples
        assert np.array_equal(got, small_maximal(f, mol, sc).samples)
        assert np.array_equal(got, window_maximal(f, mol, sc))
        box = support_box(f)
        old = padded_small_maximal(GridFunction(spec, f.samples.astype(complex)), mol, sc)
        assert np.max(np.abs(got - old)) <= 64 * np.finfo(float).eps * np.max(old)
        reach = np.zeros(spec.shape, dtype=bool)
        reach[tuple(slice(max(lo - before, 0), hi + after) for lo, hi in box)] = True
        assert not got[~reach].any()


def test_mixed_box_call_matches_one_row_calls_bitwise():
    # 1D fields of box sides 1023 and 7 share a window side and a sub-stack
    # but are cut to different parts of the grid; a one-sample field at the
    # edge takes a smaller side in the same call. Each row equals its
    # one-row call and the window oracle
    spec = GridSpec(1, 4.0, 8192)
    rng = np.random.default_rng(71)
    fs = []
    for lo, width in ((3000, 1023), (4100, 7), (0, 1)):
        x = np.zeros(spec.shape)
        x[lo:lo + width] = rng.normal(size=width)
        x[lo] = x[lo + width - 1] = 1.0
        fs.append(GridFunction(spec, x))
    assert [sized_side(support_box(f), 8192) for f in fs] == [9216, 9216, 8192]
    mol = MollifierSpec("gaussian", 1)
    sc = ScaleGrid.default(spec, 1.0)
    table = small_maximal_table(fs, mol, sc)
    for f, row in zip(fs, table):
        assert np.array_equal(row.samples, small_maximal(f, mol, sc).samples)
        assert np.array_equal(row.samples, window_maximal(f, mol, sc))


@pytest.mark.parametrize("dim", [1, 2])
def test_small_maximal_layers_agree(dim):
    # the real window layer, on real samples and on the same samples cast to
    # complex (Re f and Im f = 0, combined by hypot), against the complex
    # padded oracle on E1's profiles (indicator, bump, random on balls of
    # radius 1/2 and 1/16): pointwise within 64 eps of the oracle's max, a
    # tolerance fixed from float64 eps beforehand, and E1's h^p norms at
    # p = 1 and 2/3 within 1e-12 relative
    spec = GridSpec(dim, 4.0, 2048 if dim == 1 else 128)
    mol = MollifierSpec("gaussian", dim)
    sc = ScaleGrid.default(spec, 1.0)
    rng = np.random.default_rng(30 + dim)
    fs = []
    for r in (0.5, 1 / 16):
        ball = Ball((0.0,) * dim, r)
        fs += [GridFunction(spec, ball.mask(spec).astype(float)),
               edge_cutoff(spec, ball, width_frac=0.6),
               edge_cutoff(spec, ball) * GridFunction(spec, random_smooth_field(spec, r / 3, rng))]
    real = small_maximal_table(fs, mol, sc)
    cplx = small_maximal_table([GridFunction(spec, f.samples.astype(complex)) for f in fs], mol, sc)
    eps = np.finfo(float).eps
    for f, a, b in zip(fs, real, cplx):
        oracle = GridFunction(spec, padded_small_maximal(GridFunction(spec, f.samples.astype(complex)), mol, sc))
        assert f.is_real and np.array_equal(a.samples, window_maximal(f, mol, sc))
        for got in (a, b):
            assert np.max(np.abs(got.samples - oracle.samples)) <= 64 * eps * np.max(oracle.samples)
            for p in (1.0, 2 / 3):
                assert lp_quasinorm(got, p) == pytest.approx(lp_quasinorm(oracle, p), rel=1e-12, abs=0)


def e1_fields(spec, radii, seed):
    # E1's profiles on balls of these radii: indicator, bump, random
    rng = np.random.default_rng(seed)
    fs = []
    for r in radii:
        ball = Ball((0.0,) * spec.dim, r)
        fs += [GridFunction(spec, ball.mask(spec).astype(float)), edge_cutoff(spec, ball, width_frac=0.6),
               edge_cutoff(spec, ball) * GridFunction(spec, random_smooth_field(spec, r / 3, rng))]
    return fs


def window_fold_bound(spec, rows, tops, met, kernel_samples, kernel_temps, chunks):
    # the real window fold's traced peak from its design, term by term, for
    # functions of these rows (real planes) whose largest sides are tops, a
    # call that meets the window sides met, kernels of kernel_samples
    # samples whose build allocates kernel_temps bytes of temporaries, and
    # that many chunks:
    # - the half spectra held per function, one row per real plane at its
    #   side (a function's old ones go before its new ones are built);
    # - per chunk one scratch: at each side met the stack that fits in
    #   FOLD_STACK_BYTES (at least the most rows of one function), per row
    #   its product and what irfft writes, the window in 1D and a band of
    #   TILE_ROWS window rows in 2D, the two parts sized to their largest;
    # - per chunk one kernel build: its samples, then either its
    #   temporaries or its half spectrum with the band that rfft reads
    #   (held while it meets the functions of its side)
    dim = spec.dim

    def half(n):
        return 16 * n ** (dim - 1) * (n // 2 + 1)

    def band(n):
        return 8 * n * (1 if dim == 1 else min(TILE_ROWS, n))

    stack = {n: max(max(rows), min(sum(rows), maximal.FOLD_STACK_BYTES // (half(n) + band(n)))) for n in met}
    spectra = sum(r * half(n) for r, n in zip(rows, tops))
    scratch = max(stack[n] * half(n) for n in stack) + max(stack[n] * band(n) for n in stack)
    kernel = 8 * kernel_samples + max(kernel_temps, max(half(n) + band(n) for n in stack))
    return spectra + chunks * (scratch + kernel)


def test_small_maximal_memory_by_design():
    # traced peak of one cold call at 2D m = 256, from the design, on a
    # random field that fills the grid (window side 2m) and on E1's twelve
    # 2D fields (radii 1/2 to 1/16, side 288): window_fold_bound with the
    # Gaussian's m^2 samples and dilate's temporaries (the radii and one work
    # array: 2 grid-sized floats, with no meshgrid), one chunk per worker,
    # plus the functions' maxima and 64 KiB for Python objects. For E1's
    # fields the 2m real layer's half spectra alone did not fit
    spec = GridSpec(2, 4.0, 256)
    m = spec.points_per_axis
    mol = MollifierSpec("gaussian", 2)
    sc = ScaleGrid.default(spec, 1.0)
    chunks = min(pool.WORKERS, len(sc.scales))
    full = [GridFunction(spec, np.random.default_rng(5).normal(size=spec.shape))]
    fields = e1_fields(spec, (1 / 2, 1 / 4, 1 / 8, 1 / 16), 5)
    for fs, n in ((full, 2 * m), (fields, 288)):
        assert {sized_side(support_box(f), spec.points_per_axis) for f in fs} == {n}
        expected = small_maximal_table(fs, mol, sc)  # starts the pool's workers
        assert all(np.array_equal(a.samples, window_maximal(f, mol, sc)) for f, a in zip(fs, expected))
        fold = window_fold_bound(spec, [1] * len(fs), [n] * len(fs), {n}, m * m, 2 * 8 * m * m, chunks)
        bound = len(fs) * 8 * m * m + fold + 2**16
        tracemalloc.start()
        try:
            out = small_maximal_table(fs, mol, sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a.samples, b.samples) for a, b in zip(out, expected))
        assert peak <= bound, (peak, bound)
    assert len(fields) * 16 * 2 * m * (m + 1) > bound


def test_small_maximal_table_memory_by_design_1d():
    # traced peak of one cold call on 24 real fields that fill the grid at
    # 1D m = 8192 (window side 2m), from the design: window_fold_bound with
    # the Gaussian's m samples and dilate's temporaries (2 dim + 1
    # grid-sized floats), one chunk per worker, plus the maxima and 64 KiB
    # for Python objects. An unbounded stack does not fit
    spec = GridSpec(1, 4.0, 8192)
    m, dim, n = spec.points_per_axis, spec.dim, 24
    mol = MollifierSpec("gaussian", 1)
    sc = ScaleGrid.default(spec, 1.0)
    rng = np.random.default_rng(6)
    fs = [GridFunction(spec, rng.normal(size=spec.shape)) for _ in range(n)]
    expected = small_maximal_table(fs, mol, sc)  # starts the pool's workers
    chunks = min(pool.WORKERS, len(sc.scales))
    fold = window_fold_bound(spec, [1] * n, [2 * m] * n, {2 * m}, m, (2 * dim + 1) * 8 * m, chunks)
    bound = n * 8 * m + fold + 2**16

    def traced_peak():
        tracemalloc.start()
        try:
            out = small_maximal_table(fs, mol, sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a.samples, b.samples) for a, b in zip(out, expected))
        return peak

    peak = traced_peak()
    assert peak <= bound, (peak, bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maximal, "FOLD_STACK_BYTES", 2**40)
        unbounded = traced_peak()
    assert unbounded > bound, (unbounded, bound)


def test_grand_maximal_support_path_memory_by_design():
    # traced peak of one cold call of an E2-like 2D order-1 table (m = 256,
    # L = 16, atoms on balls of radius 1 and 1/2, T = 1, 2, 4), from the
    # design: the full-size maxima of every function and ladder, then either
    # one cell's finiteness mask at the end, each cell its ladder's maxima
    # scaled in place, or the serial window fold (one chunk): each function's
    # half spectra at its side for T = 4, every side the call meets, and one
    # kernel sampled on its box of side 2 ceil(T/h) + 1 with dilate_box's
    # temporaries, at most 8 arrays on that box; and 64 KiB for Python
    # objects. The full-grid fold of the same functions, a (2m)^2 spectrum
    # each, does not fit
    spec = GridSpec(2, 16.0, 256)
    m, dim = spec.points_per_axis, spec.dim
    fs = [make_atom(AtomSpec(HardyIndex(1.0, dim), np.inf, Ball((0.0, 0.0), r), "local"), seed, spec)
          for r in (1.0, 0.5) for seed in (1, 2)]
    dicts = [build_test_dictionary(spec, HardyIndex(1.0, dim), T) for T in (1.0, 2.0, 4.0)]
    n, sets = len(fs), len(dicts)
    reach = math.ceil(4.0 / spec.spacing)
    boxes = [support_box(f) for f in fs]
    sides = {sized_side(box, 2 * math.ceil(t / spec.spacing) + 1) for d in dicts for t in d.scales.scales
             for box in boxes}
    top = [sized_side(box, 2 * reach + 1) for box in boxes]
    assert max(top) == max(sides) < m
    fold = window_fold_bound(spec, [1] * n, top, sides, (2 * reach + 1) ** 2, 8 * 8 * (2 * reach + 1) ** 2, 1)
    maxima = n * sets * 8 * m * m
    bound = maxima + max(m * m, fold) + 2**16

    def traced_peak(dictionaries):
        expected = grand_maximal_table(fs, dictionaries)  # starts the pool's workers
        tracemalloc.start()
        try:
            out = grand_maximal_table(fs, dictionaries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a.samples, b.samples) for x, y in zip(out, expected) for a, b in zip(x, y))
        return peak

    peak = traced_peak(dicts)
    assert peak <= bound, (peak, bound)
    full = traced_peak([dataclasses.replace(d, order=2) for d in dicts])
    assert full > bound, (full, bound)


def test_fold_transforms_a_sub_stack_per_call(monkeypatch):
    # five real and then four complex 1D functions through the Gaussian,
    # with a stack bound of two rows: a sub-stack holds whole functions, so
    # against each kernel irfft runs on sub-stacks of 2, 2 and 1 real rows
    # and then on each complex function's two rows
    spec = GridSpec(1, 4.0, 512)
    mol = MollifierSpec("gaussian", 1)
    sc = ScaleGrid.default(spec, 1.0)
    rng = np.random.default_rng(70)
    fs = [GridFunction(spec, rng.normal(size=spec.shape) * (1j if i >= 5 else 1)) for i in range(9)]
    expected = [small_maximal(f, mol, sc).samples for f in fs]
    n = 2 * spec.points_per_axis
    assert {sized_side(support_box(f), spec.points_per_axis) for f in fs} == {n}
    monkeypatch.setattr(maximal, "FOLD_STACK_BYTES", 2 * (16 * (n // 2 + 1) + 8 * n))
    calls = []

    def counting(a, *args, inverse=np.fft.irfft, **kwargs):
        calls.append(len(a))
        return inverse(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    got = small_maximal_table(fs, mol, sc)
    monkeypatch.undo()
    assert all(np.array_equal(a.samples, b) for a, b in zip(got, expected))
    assert sorted(calls) == sorted([2, 2, 1, 2, 2, 2, 2] * len(sc.scales))


def test_grand_maximal_matches_serial_loop_bitwise(grid):
    # small copies only, so that the probes raise the max at some sites; an
    # order-1 dictionary on a compact f takes the support path
    dct = build_test_dictionary(grid, IDX1, T=2.0, scales=ScaleGrid.default(grid, 0.05))
    x = grid.axis()
    f = GridFunction(grid, (np.abs(x) < 0.25) * np.exp(1j * x))
    without = grand_maximal(f, dct).samples
    assert np.array_equal(without, serial_cell(f, dct))
    probes = ((0,), ((0.2,), (-0.3,), (0.45,)), IDX1, 2.0)
    out = with_probes(without, f, *probes)
    assert np.any(out != without)
    assert np.array_equal(out, window_maximal(f, dct.mollifier, dct.scales, dct.amplitude, [probes]))


def serial_cell(f, dictionary):
    # the serial oracle of the path grand_maximal_table takes for the pair
    if dictionary.order == 1:
        return window_maximal(f, dictionary.mollifier, dictionary.scales, dictionary.amplitude)
    return serial_grand_maximal(f, dictionary)


def fills_grid(f):
    # a support box of the whole grid
    return support_box(f) == [(0, f.spec.points_per_axis)] * f.spec.dim


def table_case(dim, kind):
    # functions: noise and a compact bump, both real, both complex, or
    # complex noise and the real bump ("mixed"); dictionaries: two k (so two
    # amplitudes) on one ladder, an overlapping ladder, a disjoint ladder, and
    # the union of the first and the disjoint one; small maximal functions:
    # the Gaussian on the first ladder and the bump on the union
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    rng = np.random.default_rng(40 + dim)
    x = rng.normal(size=spec.shape)
    noise = x if kind == "real" else x + 1j * rng.normal(size=spec.shape)
    bump = sample_function(spec, lambda p: np.clip(1 - sq_distance(p), 0, None) ** 2)
    if kind == "complex":
        bump = bump * (1 - 2j)
    fs = [GridFunction(spec, noise), bump]
    idx1, idxh = HardyIndex(1.0, dim), HardyIndex(0.5, dim)
    assert idx1.N_p != idxh.N_p
    base = ScaleGrid.default(spec, 1.0)
    wide = ScaleGrid.default(spec, 2.0)
    apart = ScaleGrid(tuple(np.geomspace(1.1, 1.9, 16)))
    assert set(base.scales) & set(wide.scales) and not set(apart.scales) & set(base.scales + wide.scales)
    dicts = [build_test_dictionary(spec, idx1, 1.0, scales=base),
             build_test_dictionary(spec, idxh, 1.0, scales=base),
             build_test_dictionary(spec, idx1, 2.0, scales=wide),
             build_test_dictionary(spec, idxh, 2.0, scales=apart)]
    dicts.append(build_test_dictionary(spec, idx1, 2.0, scales=union_ladder(base, apart)))
    assert dicts[0].amplitude != dicts[1].amplitude
    ladders = [(MollifierSpec("gaussian", dim), base), (dicts[-1].mollifier, dicts[-1].scales)]
    return fs, dicts, ladders


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("is_complex", [False, True])
def test_grand_maximal_table_matches_pairs_bitwise(dim, is_complex):
    fs, dicts, ladders = table_case(dim, "mixed" if is_complex else "real")
    table = grand_maximal_table(fs, dicts)
    assert len(table) == len(fs) and all(len(row) == len(dicts) for row in table)
    for f, row in zip(fs, table):
        for dct, cell in zip(dicts, row):
            assert np.array_equal(cell.samples, grand_maximal(f, dct).samples)
            assert np.array_equal(cell.samples, serial_cell(f, dct))
            if dct.order > 1:
                assert np.array_equal(cell.samples, serial_grand_maximal(f, dct))
    for mol, sc in ladders:
        small = small_maximal_table(fs, mol, sc)
        assert len(small) == len(fs)
        for f, cell in zip(fs, small):
            assert np.array_equal(cell.samples, small_maximal(f, mol, sc).samples)
            assert np.array_equal(cell.samples, window_maximal(f, mol, sc))


def count_kernel_builds(monkeypatch):
    # (mollifier, t) -> kernels sampled by the maximal functions (by dilate
    # on the grid, by dilate_box on the support path), and (mollifier, t, n)
    # -> the window spectra of side n made from them
    built = Counter()
    dilate, dilate_box, window_spectrum = maximal.dilate, maximal.dilate_box, maximal.window_spectrum
    sampled = {}  # id of a kernel's samples -> the samples, kept alive, and its (mollifier, t)

    def counting(phi, t, spec):
        built[phi, t] += 1
        g = dilate(phi, t, spec)
        sampled[id(g.samples)] = g.samples, (phi, t)
        return g

    def boxing(phi, t, spec, reach):
        built[phi, t] += 1
        box, first = dilate_box(phi, t, spec, reach)
        sampled[id(box)] = box, (phi, t)
        return box, first

    def windowing(g, first, n, **kwargs):
        if id(g) in sampled:  # a kernel's, not a function's
            built[(*sampled[id(g)][1], n)] += 1
        return window_spectrum(g, first, n, **kwargs)

    monkeypatch.setattr(maximal, "dilate", counting)
    monkeypatch.setattr(maximal, "dilate_box", boxing)
    monkeypatch.setattr(maximal, "window_spectrum", windowing)
    return built


def expected_small_builds(mol, sc, groups):
    # the count_kernel_builds of one small_maximal_table call whose
    # functions run in these groups: per group one kernel per scale, and one
    # window spectrum per scale and window side of its nonzero functions
    built = Counter()
    for group in groups:
        boxes = [box for box in map(support_box, group) if box is not None]
        for t in sc.scales if boxes else ():
            span = sum(kernel_reach(mol, t, group[0].spec)) + 1
            built[mol, t] += 1
            built.update((mol, t, n) for n in {sized_side(box, span) for box in boxes})
    return built


def expected_builds(fs, dicts, per_function=False):
    # the count_kernel_builds of one grand_maximal_table call, where with
    # per_function every function is a group of its own: on the full grid one
    # kernel per scale and group; on the window path one kernel per scale
    # and group with a nonzero function, and one window per scale and window
    # side that a nonzero function of the group takes
    built = Counter()
    for mol, t in {(d.mollifier, t) for d in dicts if d.order > 1 for t in d.scales.scales}:
        built[mol, t] += len(fs) if per_function else 1
    boxes = [box for box in map(support_box, fs) if box is not None]
    for mol, t in {(d.mollifier, t) for d in dicts if d.order == 1 for t in d.scales.scales}:
        reach = math.ceil(t / fs[0].spec.spacing)
        for group in [[box] for box in boxes] if per_function else [boxes] if boxes else []:
            built[mol, t] += 1
            built.update((mol, t, n) for n in {sized_side(box, 2 * reach + 1) for box in group})
    return built


@pytest.mark.parametrize("dim", [1, 2])
def test_grand_maximal_table_builds_each_kernel_once(monkeypatch, dim):
    # once per scale on either path, and one window per scale and side on
    # the support path: the compact bump meets the small scales on a
    # smaller side than the noise
    fs, dicts, ladders = table_case(dim, "real")
    built = count_kernel_builds(monkeypatch)
    grand_maximal_table(fs, dicts)
    assert built == expected_builds(fs, dicts)
    assert max(Counter(key[:2] for key in built if len(key) == 3).values()) == 2
    for mol, sc in ladders:
        built.clear()
        small_maximal_table(fs, mol, sc)
        assert built == expected_small_builds(mol, sc, [fs])


@pytest.mark.parametrize("dim", [1, 2])
def test_grand_maximal_table_in_groups_bitwise(monkeypatch, dim):
    # real, complex and mixed real/complex calls against the one-row calls
    # and the serial oracles: with sub-stacks of one function (a 1-byte stack
    # bound), of the whole group (2**40 bytes), and with a budget below one
    # function's spectra, where every function is a group of its own on
    # either path and each kernel is built once per function
    built = count_kernel_builds(monkeypatch)
    for kind in ("real", "complex", "mixed"):
        fs, dicts, ladders = table_case(dim, kind)
        fs.append(GridFunction(fs[0].spec, fs[0].samples * 0.5 + fs[1].samples))
        grand = [[serial_cell(f, d) for d in dicts] for f in fs]
        small = [[window_maximal(f, mol, sc) for f in fs] for mol, sc in ladders]
        for f, want in zip(fs, grand):
            assert all(np.array_equal(w, grand_maximal(f, d).samples) for w, d in zip(want, dicts))
        for (mol, sc), want in zip(ladders, small):
            assert all(np.array_equal(w, small_maximal(f, mol, sc).samples) for w, f in zip(want, fs))
        for stack_bytes, spectra_bytes in ((1, None), (2**40, None), (None, 1)):
            with monkeypatch.context() as patch:
                if stack_bytes is not None:
                    patch.setattr(maximal, "FOLD_STACK_BYTES", stack_bytes)
                if spectra_bytes is not None:
                    patch.setattr(maximal, "FOLD_SPECTRA_BYTES", spectra_bytes)
                built.clear()
                table = grand_maximal_table(fs, dicts)
                assert built == expected_builds(fs, dicts, per_function=spectra_bytes == 1)
                for want, row in zip(grand, table):
                    assert all(np.array_equal(w, cell.samples) for w, cell in zip(want, row))
                for (mol, sc), want in zip(ladders, small):
                    # one fold in the window layer, also for a mixed call
                    built.clear()
                    got = small_maximal_table(fs, mol, sc)
                    groups = [[f] for f in fs] if spectra_bytes == 1 else [fs]
                    assert built == expected_small_builds(mol, sc, groups)
                    assert all(np.array_equal(w, cell.samples) for w, cell in zip(want, got))


@pytest.mark.parametrize("is_complex", [False, True])
def test_fold_groups_are_sized_from_the_spectra_built(monkeypatch, is_complex):
    # a budget that holds the per-chunk kernel spectrum and stacked scratch
    # plus exactly two functions' spectra gives groups of two functions
    # (each kernel built twice for four functions); one byte less, groups of
    # one. A function's spectra are the half spectra of its window side, one
    # per real plane (two for a complex f), not 16 (2m)^dim bytes. The
    # scratch is stacked for every row, the sub-stack that fits in
    # FOLD_STACK_BYTES: per row its product and a band of TILE_ROWS window
    # rows for irfft
    spec = GridSpec(2, 1.0, 16)
    mol = MollifierSpec("gaussian", 2)
    sc = ScaleGrid.default(spec, 1.0)
    rng = np.random.default_rng(50)
    fs = [GridFunction(spec, rng.normal(size=spec.shape) * (1j if is_complex else 1)) for _ in range(4)]
    n, planes = 32, 2 if is_complex else 1
    assert {sized_side(support_box(f), spec.points_per_axis) for f in fs} == {n}
    half = 16 * n * (n // 2 + 1)
    spectrum = planes * half
    assert len(fs) * (spectrum + planes * min(TILE_ROWS, n) * n * 8) <= maximal.FOLD_STACK_BYTES
    per_chunk = half + len(fs) * (spectrum + planes * min(TILE_ROWS, n) * n * 8)
    chunks = min(pool.WORKERS, len(sc.scales))
    whole = small_maximal_table(fs, mol, sc)
    built = count_kernel_builds(monkeypatch)
    for spare, size in ((0, 2), (-1, 1)):
        monkeypatch.setattr(maximal, "FOLD_SPECTRA_BYTES", chunks * per_chunk + 2 * spectrum + spare)
        built.clear()
        grouped = small_maximal_table(fs, mol, sc)
        assert built == expected_small_builds(mol, sc, [fs[i:i + size] for i in range(0, len(fs), size)])
        assert all(np.array_equal(x.samples, y.samples) for x, y in zip(whole, grouped))


def test_maximal_tables_empty_and_mismatched_grids():
    mol = MollifierSpec("smooth-bump", 1)
    spec, other = GridSpec(1, 4.0, 64), GridSpec(1, 4.0, 128)
    sc = ScaleGrid.default(spec, 1.0)
    dct = build_test_dictionary(spec, IDX1, 1.0, mollifier=mol, scales=sc)
    assert small_maximal_table([], mol, sc) == []
    assert grand_maximal_table([], [dct]) == []
    fs = [GridFunction(spec, np.ones(spec.shape)), GridFunction(other, np.ones(other.shape))]
    with pytest.raises(ValueError, match="grid mismatch"):
        small_maximal_table(fs, mol, sc)
    with pytest.raises(ValueError, match="grid mismatch"):
        grand_maximal_table(fs, [dct])


def test_grand_maximal_table_more_workers_than_cpus(monkeypatch):
    # eight chunks fold into one shared set of maxima under a tiny switch
    # interval: a lost update would break the bitwise match
    fs, dicts, _ = table_case(2, "real")
    expected = [[serial_cell(f, d) for d in dicts] for f in fs]
    executor = ThreadPoolExecutor(8)
    monkeypatch.setattr(pool, "WORKERS", 8)
    monkeypatch.setattr(pool, "POOL", executor)
    tables = []
    caller = threading.Thread(target=lambda: tables.append(grand_maximal_table(fs, dicts)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
        executor.shutdown(wait=False, cancel_futures=True)
    assert not caller.is_alive()
    (table,) = tables
    for want, row in zip(expected, table):
        assert all(np.array_equal(w, cell.samples) for w, cell in zip(want, row))


def test_concurrent_callers_share_pool():
    # more calling threads than CPUs and a tiny switch interval: every result
    # must still equal the serial one
    spec = GridSpec(2, 4.0, 32)
    mol = MollifierSpec("gaussian", 2)
    sc = ScaleGrid.default(spec, 1.0)
    rng = np.random.default_rng(11)
    fs = [GridFunction(spec, rng.normal(size=spec.shape)) for _ in range(6)]
    expected = [small_maximal(f, mol, sc).samples for f in fs]
    results = [None] * len(fs)

    def work(i):
        for _ in range(3):
            results[i] = small_maximal(fs[i], mol, sc).samples

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(r, e) for r, e in zip(results, expected))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_small_maximal_runs_in_forked_child():
    # the pool's threads do not survive fork; the child must get a fresh pool
    spec = GridSpec(1, 4.0, 256)
    mol = MollifierSpec("gaussian", 1)
    sc = ScaleGrid.default(spec, 1.0)
    f = GridFunction(spec, np.exp(-spec.axis() ** 2))
    expected = small_maximal(f, mol, sc).samples  # starts the parent's workers
    pid = os.fork()
    if pid == 0:
        ok = np.array_equal(small_maximal(f, mol, sc).samples, expected)
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("small_maximal hung in a forked child")
    assert os.waitstatus_to_exitcode(status) == 0


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that records the name of every task submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = []

    def submit(self, fn, /, *args, **kwargs):
        self.tasks.append(fn.__name__)
        return super().submit(fn, *args, **kwargs)


@pytest.mark.parametrize("dim", [1, 2])
def test_fold_pools_only_kernels_that_span_the_grid(monkeypatch, dim):
    # a run of scales goes to pool.POOL only when its kernels span the grid's
    # m offsets: an order-1 grand_maximal_table call (the bump within
    # K = ceil(t/h) < m/2 of the origin) submits nothing, a Gaussian
    # small_maximal_table call maps one chunk per worker over it; both bit
    # for bit their serial window oracles
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    fs, dicts, ladders = table_case(dim, "mixed")
    order1 = [d for d in dicts if d.order == 1]
    mol, sc = ladders[0]
    assert sum(kernel_reach(order1[-1].mollifier, order1[-1].scales.scales[-1], spec)) + 1 < spec.points_per_axis
    recorder = RecordingPool(2)
    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(pool, "POOL", recorder)
    try:
        grand = grand_maximal_table(fs, order1)
        assert recorder.tasks == []
        small = small_maximal_table(fs, mol, sc)
        assert recorder.tasks == ["_window_chunk"] * 2
    finally:
        recorder.shutdown()
    for f, row, cell in zip(fs, grand, small):
        assert all(np.array_equal(c.samples, serial_cell(f, d)) for c, d in zip(row, order1))
        assert np.array_equal(cell.samples, window_maximal(f, mol, sc))


@pytest.mark.parametrize("dim", [1, 2])
def test_gaussian_fold_takes_sides_and_cuts_once_per_call(monkeypatch, dim):
    # every Gaussian kernel spans the grid's m offsets, so the fold's work
    # outside the transforms is per call, not per scale: each function's
    # side is taken once, and each chunk takes each function's cut once
    fs, _, ladders = table_case(dim, "mixed")
    mol, sc = ladders[0]
    seen = []
    for name in ("sized_side", "window_cut"):
        def counted(*args, real=getattr(maximal, name), name=name):
            seen.append(name)
            return real(*args)
        monkeypatch.setattr(maximal, name, counted)
    recorder = RecordingPool(2)
    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(pool, "POOL", recorder)
    try:
        small = small_maximal_table(fs, mol, sc)
    finally:
        recorder.shutdown()
    assert len(sc.scales) > 2 and recorder.tasks == ["_window_chunk"] * 2
    assert Counter(seen) == {"sized_side": len(fs), "window_cut": 2 * len(fs)}
    for f, cell in zip(fs, small):
        assert np.array_equal(cell.samples, window_maximal(f, mol, sc))
