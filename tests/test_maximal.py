import os
import signal
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

import hardylab.maximal as maximal
from hardylab.errors import NumericalError
from hardylab.grid import Ball, GridFunction, GridSpec, dilate, integrate, padded_spectrum, sample_function
from hardylab.grid import _lp_impl
from hardylab.maximal import (
    MollifierCopyEntry,
    MollifierSpec,
    MomentProbeEntry,
    ScaleGrid,
    TestDictionary,
    build_phi0,
    build_test_dictionary,
    cutoff_eta,
    grand_maximal,
    hp_norm,
    hp_norm_global,
    phi_x_alpha,
    small_maximal,
    verify_admissible,
)
from hardylab.moments import HardyIndex, moment

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
            assert abs(mol.integral) >= 0.5


def test_scale_grid_validation(grid):
    with pytest.raises(ValueError):
        ScaleGrid(tuple(np.linspace(0.1, 1.0, 8)))  # too few
    with pytest.raises(ValueError):
        ScaleGrid(tuple([0.5] * 20))  # not increasing
    sg = ScaleGrid.default(grid, 1.0)
    assert sg.t_min >= 2 * grid.spacing
    assert len(sg.scales) >= 16
    ratios = np.diff(np.log(sg.scales))
    assert np.max(ratios) <= np.log(2.0**0.25) + 1e-12


def test_small_maximal_mollification_floor(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    f = sample_function(grid, lambda p: np.exp(-4 * p[0] ** 2))
    sm = small_maximal(f, mol, scales)
    core = np.abs(grid.axis()) < 1.0
    assert np.all(sm.samples[core] >= 0.9 * abs(mol.integral) * f.samples[core])


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
        tuple(np.geomspace(scales.t_min, scales.t_max, 2 * len(scales.scales)))))
    rel = (integrate(fine.abs()) - integrate(base.abs())) / integrate(base.abs())
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
    vals = [hp_norm(make_atom(spec_a, seed, grid), IDX1, mol, scales)
            for seed in range(50)]
    assert max(vals) / min(vals) <= 20.0


def test_global_norm_dominates_and_flags(grid, scales):
    mol = MollifierSpec("gaussian", 1)
    f = sample_function(grid, lambda p: (np.abs(p[0]) < 0.25).astype(float))
    local = hp_norm(f, IDX1, mol, scales)
    v1, fl1 = hp_norm_global(f, IDX1, mol, t_max=1.0)
    v2, fl2 = hp_norm_global(f, IDX1, mol, t_max=2.0)
    assert fl1 and fl2  # no cancellation
    assert v1 >= local - 1e-12
    assert v2 > v1  # truncated value grows without cancellation


def test_global_norm_stable_for_cancelling_atoms(grid):
    from hardylab.atoms import AtomSpec, make_atom

    mol = MollifierSpec("gaussian", 1)
    a = make_atom(AtomSpec(IDX1, 2.0, Ball((0.0,), 0.25), "global"), 0, grid)
    v1, fl1 = hp_norm_global(a, IDX1, mol, t_max=1.0)
    v2, fl2 = hp_norm_global(a, IDX1, mol, t_max=2.0)
    assert not fl1 and not fl2
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


def test_verify_admissible_detects_violation():
    mol = MollifierSpec("smooth-bump", 1)
    t = 0.5
    from hardylab.maximal import _mollifier_amplitude

    amp = _mollifier_amplitude(mol, 1)

    def entry(pts):
        return amp * t**-1 * mol(pts / t)

    rep = verify_admissible(entry, k=1, t=t, x=(0.0,))
    assert rep.passed
    rep2 = verify_admissible(lambda pts: 2.0 * entry(pts), k=1, t=t, x=(0.0,))
    assert not rep2.passed

    # an entry normalized to saturate the sup bound fails it when doubled
    sup = 1.0 / float(mol(np.zeros((1, 1)))[0])

    def saturating(pts):
        return 0.99 * sup * t**-1 * mol(pts / t)

    rep3 = verify_admissible(saturating, k=0, t=t, x=(0.0,))
    assert rep3.passed
    rep4 = verify_admissible(lambda pts: 2.0 * saturating(pts), k=0, t=t, x=(0.0,))
    assert not rep4.rows[0].passed  # the order-zero bound breaks


def test_grand_maximal_matches_scaled_small_maximal(grid, scales):
    mol = MollifierSpec("smooth-bump", 1)
    dct = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales)
    f = sample_function(grid, lambda p: np.exp(-2 * p[0] ** 2))
    gm = grand_maximal(f, dct)
    sm = small_maximal(f, mol, scales)
    amp = dct.entries[0].amplitude
    assert np.max(np.abs(gm.samples - amp * sm.samples)) == 0.0
    zero = GridFunction(grid, np.zeros(grid.shape))
    assert np.all(grand_maximal(zero, dct).samples == 0.0)


def test_grand_maximal_monotone_in_dictionary(grid, scales):
    mol = MollifierSpec("smooth-bump", 1)
    small_dct = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales)
    big = TestDictionary(small_dct.k, 2.0, IDX1, list(small_dct.entries))
    extra = build_test_dictionary(grid, IDX1, T=2.0, mollifier=mol,
                                  scales=ScaleGrid.default(grid, 2.0))
    big.entries.extend(extra.entries)
    rng = np.random.default_rng(1)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    a = grand_maximal(f, small_dct)
    b = grand_maximal(f, big)
    assert np.all(b.samples >= a.samples - 1e-15)


def test_grand_maximal_sublinear(grid, scales):
    mol = MollifierSpec("smooth-bump", 1)
    dct = build_test_dictionary(grid, IDX1, T=1.0, mollifier=mol, scales=scales)
    rng = np.random.default_rng(2)
    f = GridFunction(grid, rng.normal(size=grid.shape))
    g = GridFunction(grid, rng.normal(size=grid.shape))
    lhs = grand_maximal(f + g, dct)
    rhs = grand_maximal(f, dct) + grand_maximal(g, dct)
    assert np.all(lhs.samples <= rhs.samples + 1e-12)


def test_grand_maximal_probe_lower_bound(grid):
    # with the explicit probes in the dictionary, the grand maximal function
    # at the probe sites dominates the rescaled moment exactly
    r = 0.25
    g = sample_function(grid, lambda p: (np.abs(p[0]) < r).astype(float))
    sites = ((0.2,), (0.3,), (0.45,))
    dct = build_test_dictionary(grid, IDX1, T=2.0, probe_alphas=((0,),),
                                probe_sites=sites)
    gm = grand_maximal(g, dct)
    m0 = moment(g, (0.0,), (0,))
    for (xv,) in sites:
        probe = phi_x_alpha((xv,), (0,), IDX1)
        claimed = probe.phi0.c_alpha * abs(xv) ** -1 * abs(m0)
        i = int(round((xv + grid.half_width) / grid.spacing))
        assert gm.samples[i] >= claimed - 1e-12


def test_dictionary_manifest(grid, scales):
    dct = build_test_dictionary(grid, IDX1, T=1.0, scales=scales,
                                probe_alphas=((0,),), probe_sites=((0.25,),))
    text = dct.manifest()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# test dictionary")
    assert sum("mollifier-copy" in ln for ln in lines) == len(scales.scales)
    assert sum("moment-probe" in ln for ln in lines) == 1


def test_dictionary_requires_compact_mollifier(grid, scales):
    with pytest.raises(ValueError, match="compact"):
        build_test_dictionary(grid, IDX1, T=1.0,
                              mollifier=MollifierSpec("gaussian", 1), scales=scales)


def roll_window(Ff, Fg, spec):
    # the earlier padded convolution: full inverse FFT, roll, window copy
    m = spec.points_per_axis
    emb = tuple(slice(m // 2, m // 2 + m) for _ in range(spec.dim))
    raw = np.roll(np.fft.ifftn(Ff * Fg) * spec.cell_volume, m, axis=tuple(range(spec.dim)))
    return raw[emb].copy()


def serial_grand_maximal(f, dictionary):
    # one convolution per entry in dictionary order, probes interleaved
    spec = f.spec
    out = np.zeros(spec.shape)
    Ff = padded_spectrum(f)
    for entry in dictionary.entries:
        if isinstance(entry, MollifierCopyEntry):
            Fk = padded_spectrum(dilate(entry.mollifier, entry.scale, spec))
            np.maximum(out, entry.amplitude * np.abs(roll_window(Ff, Fk, spec)), out=out)
            continue
        for site in entry.sites:
            probe = phi_x_alpha(site, entry.alpha, dictionary.idx)
            if probe.scale >= dictionary.T or not probe.support.fits_in(spec):
                continue
            pairing = abs(np.sum(f.samples * probe(spec.points())) * spec.cell_volume)
            i = tuple(int(round((c + spec.half_width) / spec.spacing)) % spec.points_per_axis
                      for c in site)
            out[i] = max(out[i], pairing)
    return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("is_complex", [False, True])
def test_small_maximal_matches_serial_loop_bitwise(dim, is_complex):
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    rng = np.random.default_rng(20 + dim)
    x = rng.normal(size=spec.shape)
    f = GridFunction(spec, x + 1j * rng.normal(size=spec.shape) if is_complex else x)
    mol = MollifierSpec("gaussian", dim)
    sc = ScaleGrid.default(spec, 1.0)
    ref = np.zeros(spec.shape)
    Ff = padded_spectrum(f)
    for t in sc.scales:
        Fk = padded_spectrum(dilate(mol, t, spec))
        np.maximum(ref, np.abs(roll_window(Ff, Fk, spec)), out=ref)
    assert np.array_equal(small_maximal(f, mol, sc).samples, ref)


def test_grand_maximal_matches_serial_loop_bitwise(grid):
    # small copies only, so that the probes raise the max at some sites
    dct = build_test_dictionary(grid, IDX1, T=2.0, scales=ScaleGrid.default(grid, 0.05))
    x = grid.axis()
    f = GridFunction(grid, (np.abs(x) < 0.25) * np.exp(1j * x))
    without = grand_maximal(f, dct).samples
    dct.entries.insert(len(dct.entries) // 2, MomentProbeEntry((0,), ((0.2,), (-0.3,), (0.45,))))
    out = grand_maximal(f, dct).samples
    assert np.any(out != without)
    assert np.array_equal(out, serial_grand_maximal(f, dct))


def test_kernel_cache_bounded_in_bytes(monkeypatch):
    spec = GridSpec(2, 4.0, 16)  # one padded spectrum is 32 * 32 * 16 bytes
    mol = MollifierSpec("smooth-bump", 2)
    nbytes = 32 * 32 * 16
    monkeypatch.setattr(maximal, "_kernel_cache", OrderedDict())
    monkeypatch.setattr(maximal, "KERNEL_CACHE_BYTES", 3 * nbytes)
    ts = [1.0 + 0.25 * i for i in range(8)]
    first = {}
    for t in ts:
        first[t] = maximal._mollifier_kernel_fft(mol, spec, t).copy()
        cached = sum(a.nbytes for a in maximal._kernel_cache.values())
        assert 0 < cached <= maximal.KERNEL_CACHE_BYTES
    assert [k[2] for k in maximal._kernel_cache] == ts[-3:]
    again = maximal._mollifier_kernel_fft(mol, spec, ts[0])  # evicted: recomputed
    assert np.array_equal(again, first[ts[0]])
    assert [k[2] for k in maximal._kernel_cache] == ts[-2:] + ts[:1]
    monkeypatch.setattr(maximal, "KERNEL_CACHE_BYTES", nbytes - 1)
    big = maximal._mollifier_kernel_fft(mol, spec, 3.0)  # larger than the cap
    assert np.array_equal(big, padded_spectrum(dilate(mol, 3.0, spec)))
    assert all(k[2] != 3.0 for k in maximal._kernel_cache)


def test_concurrent_callers_share_pool_and_cache(monkeypatch):
    # more calling threads than CPUs, a tiny switch interval and a cache that
    # holds three spectra: every result must still equal the serial one
    spec = GridSpec(2, 4.0, 32)
    mol = MollifierSpec("gaussian", 2)
    sc = ScaleGrid.default(spec, 1.0)
    monkeypatch.setattr(maximal, "_kernel_cache", OrderedDict())
    monkeypatch.setattr(maximal, "KERNEL_CACHE_BYTES", 3 * 64 * 64 * 16)
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
    assert sum(a.nbytes for a in maximal._kernel_cache.values()) <= maximal.KERNEL_CACHE_BYTES


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
