import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hardylab.atoms import AtomSpec, make_atom
from hardylab.errors import NumericalError
from hardylab.grid import Ball, GridFunction, GridSpec, convolve, sample_function, sized_side
from hardylab.maximal import quintic_step
from hardylab.moments import HardyIndex, local_oscillation, monomial_field
from hardylab.operators import (
    WINDOW_SENSITIVITY_LIMIT,
    KernelOp,
    MultiplierOp,
    OperatorSpec,
    builtin_operators,
    cancellation_test,
    get_operator,
    kernel_holder_check,
    kernel_size_check,
    smooth_window,
    tstar_monomial,
)
from oracles import (
    CompositionOp,
    inner,
    materialize,
    reference_cancellation_test,
    reference_tstar_monomial,
    support_box,
    window_convolution,
)

IDX1 = HardyIndex(1.0, 1)
IDXH = HardyIndex(0.5, 1)


@pytest.fixture(scope="module")
def small():
    return GridSpec(1, 4.0, 64)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 4.0, 4096)


def compact_kernel(spec):
    # exactly supported in |u| < 1, so reflection has no seam ambiguity
    return KernelOp(sample_function(
        spec, lambda p: np.clip(1 - p[0] ** 2, 0, None) ** 3 * (1 + 0.4 * p[0])),
        name="ck")


def all_variants(spec):
    ops = {
        "identity": get_operator("identity", spec),
        "gaussian": get_operator("gaussian", spec, width=1.0),
        "riesz": get_operator("riesz", spec),
        "bessel-phase": get_operator("bessel-phase", spec),
        "strongly-singular": get_operator("strongly-singular", spec),
        "sign-mult": get_operator("sign-mult", spec),
        "modulation": get_operator("modulation", spec),
        "kernel": compact_kernel(spec),
        "matrix": materialize(get_operator("riesz", spec), spec),
    }
    ops["composition"] = CompositionOp([ops["gaussian"], ops["riesz"]], name="comp")
    return ops


def test_apply_identity(small):
    rng = np.random.default_rng(0)
    f = GridFunction(small, rng.normal(size=small.shape))
    out = get_operator("identity", small).apply(f)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-12


def test_apply_gaussian_dual_route():
    spec = GridSpec(1, 8.0, 2048)
    T = get_operator("gaussian", spec, width=1.0)  # symbol exp(-|xi|^2/4)
    f = sample_function(spec, lambda p: np.exp(-p[0] ** 2 / 2))
    via_symbol = T.apply(f)
    kernel = sample_function(spec, lambda p: np.pi**-0.5 * np.exp(-p[0] ** 2))
    via_kernel = KernelOp(kernel).apply(f)
    assert np.max(np.abs(via_symbol.samples - via_kernel.samples)) < 1e-6


def test_matrix_materialization_reproduces_apply(small):
    rng = np.random.default_rng(1)
    f = GridFunction(small, rng.normal(size=small.shape))
    for name, T in all_variants(small).items():
        M = materialize(T, small)
        err = np.max(np.abs(M.apply(f).samples - T.apply(f).samples))
        assert err < 1e-9, name


def test_adjoint_pairing_identity(small):
    rng = np.random.default_rng(2)
    f = GridFunction(small, rng.normal(size=small.shape))
    g = GridFunction(small, rng.normal(size=small.shape))
    for name, T in all_variants(small).items():
        lhs = inner(T.apply(f), g)
        rhs = inner(f, T.adjoint().apply(g))
        assert abs(lhs - rhs) < 1e-10, name


def test_gaussian_smoothing_self_adjoint(small):
    rng = np.random.default_rng(3)
    f = GridFunction(small, rng.normal(size=small.shape))
    T = get_operator("gaussian", small, width=1.0)
    assert np.max(np.abs(T.apply(f).samples - T.adjoint().apply(f).samples)) < 1e-12


def test_adjoint_matches_materialized_conjugate_transpose(small):
    T = MultiplierOp(lambda xi: 1j * xi[0] / np.sqrt(1 + xi[0] ** 2), name="i-riesz")
    M = materialize(T, small)
    rng = np.random.default_rng(4)
    g = GridFunction(small, rng.normal(size=small.shape))
    direct = T.adjoint().apply(g)
    via_matrix = M.adjoint().apply(g)
    assert np.max(np.abs(direct.samples - via_matrix.samples)) < 1e-9


def test_adjoint_involution(small):
    rng = np.random.default_rng(5)
    f = GridFunction(small, rng.normal(size=small.shape))
    for name in ("riesz", "bessel-phase"):
        T = get_operator(name, small)
        TT = T.adjoint().adjoint()
        scale = np.max(np.abs(T.apply(f).samples)) + 1e-30
        assert np.max(np.abs(TT.apply(f).samples - T.apply(f).samples)) <= 1e-12 * scale
    M = materialize(get_operator("riesz", small), small)
    assert np.max(np.abs(M.adjoint().adjoint().matrix - M.matrix)) == 0.0


def test_composition_adjoint_reverses(small):
    rng = np.random.default_rng(6)
    f = GridFunction(small, rng.normal(size=small.shape))
    g = GridFunction(small, rng.normal(size=small.shape))
    comp = CompositionOp([get_operator("gaussian", small, width=1.0), compact_kernel(small)])
    assert abs(inner(comp.apply(f), g) - inner(f, comp.adjoint().apply(g))) < 1e-10


def test_tstar_identity_is_window(grid):
    T = get_operator("identity", grid)
    ts = tstar_monomial(T, (0.0,), (0,), W=1.0, spec=grid)
    w = smooth_window(grid, (0.0,), 1.0)
    assert np.max(np.abs(ts.field.samples - w.samples)) < 1e-12
    core = np.abs(grid.axis()) < 1.0
    assert np.allclose(ts.field.samples[core], 1.0)
    assert ts.sensitivity < 1e-12


def test_tstar_gaussian_reproduces_polynomials(grid):
    T = get_operator("gaussian", grid)  # narrow smoothing
    for alpha in ((0,), (1,)):
        ts = tstar_monomial(T, (0.0,), alpha, W=1.0, spec=grid)
        osc = local_oscillation(ts.field, Ball((0.0,), 0.1), sum(alpha))
        assert osc < 1e-6


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", sorted(builtin_operators()))
def test_tstar_certified_or_refused(dim, name):
    # every catalog operator: a sensitivity within the limit, or NumericalError
    spec = GridSpec(dim, 4.0, 256 if dim == 1 else 64)
    T = get_operator(name, spec)
    try:
        ts = tstar_monomial(T, (0.0,) * dim, (0,) * dim, W=1.0, spec=spec)
    except NumericalError:
        return
    assert ts.sensitivity <= WINDOW_SENSITIVITY_LIMIT


def test_tstar_matches_matrix_route(small):
    T = get_operator("riesz", small)
    W = 1.0
    ts = tstar_monomial(T, (0.0,), (0,), W=W, spec=small)
    M = materialize(T, small)
    wmono = smooth_window(small, (0.0,), W) * monomial_field(small, (0.0,), (0,))
    via_matrix = M.adjoint().apply(wmono)
    ball = Ball((0.0,), W / 4).mask(small)
    assert np.max(np.abs(ts.field.samples[ball] - via_matrix.samples[ball])) < 1e-8


def test_tstar_rejects_heavy_tail(grid):
    def heavy(p):
        u = np.abs(p[0])
        with np.errstate(divide="ignore"):
            vals = np.where(u > 1e-12, 1.0 / np.maximum(u, 1e-12), 0.0)
        return vals * quintic_step(8.0 * u - 1.0)

    T = KernelOp(sample_function(grid, heavy), name="heavy")
    with pytest.raises(NumericalError, match="not stable"):
        tstar_monomial(T, (0.0,), (0,), W=1.0, spec=grid)


def test_tstar_validates_window(grid):
    T = get_operator("identity", grid)
    with pytest.raises(ValueError):
        tstar_monomial(T, (0.0,), (0,), W=3.0, spec=grid)  # W > L/2
    with pytest.raises(ValueError):
        tstar_monomial(T, (3.0,), (0,), W=1.0, spec=grid)  # 2W ball escapes


def test_pairing_consistency_with_atoms(grid):
    # <T*[w mono], a> = <mono, T a> for compactly supported atoms: the window
    # is 1 on the atom support and T a is concentrated there
    T = get_operator("gaussian", grid)
    B = Ball((0.0,), 0.25)
    a = make_atom(AtomSpec(IDX1, 2.0, B, "local"), 0, grid)
    ts = tstar_monomial(T, (0.0,), (0,), W=1.0, spec=grid)
    lhs = inner(ts.field, a)
    rhs = inner(monomial_field(grid, (0.0,), (0,)), T.apply(a))
    scale = np.sqrt(np.abs((T.apply(a) * T.apply(a)).samples).sum() * grid.cell_volume)
    assert abs(lhs - rhs) <= 1e-6 * max(scale, 1.0)


def test_cancellation_gaussian_ratios_tiny(grid):
    T = get_operator("gaussian", grid)
    balls = [Ball((0.0,), 2.0**-k) for k in range(2, 7)]
    rep = cancellation_test(T, IDX1, balls, [(0,)], grid)
    assert all(r.ratio <= 1e-4 for r in rep.rows)
    assert all(r.dual_gap <= 1e-9 for r in rep.rows)


def test_cancellation_riesz_ratios_stable(grid):
    T = get_operator("riesz", grid)
    balls = [Ball((0.0,), 2.0**-k) for k in (3, 4, 5)]
    rep = cancellation_test(T, IDX1, balls, [(0,)], grid)
    ratios = [r.ratio for r in rep.rows if r.alpha == (0,)]
    assert max(ratios) / min(ratios) <= 4.0


def test_cancellation_sign_ratios_grow(grid):
    T = get_operator("sign-mult", grid)
    balls = [Ball((0.0,), 2.0**-2), Ball((0.0,), 2.0**-7)]
    rep = cancellation_test(T, IDX1, balls, [(0,)], grid)
    r_big, r_small = rep.rows[0].ratio, rep.rows[1].ratio
    assert r_small / r_big >= 2.0


def test_cancellation_subadditive_in_operator(grid):
    s1 = lambda xi: -1j * xi[0] / np.sqrt(1 + xi[0] ** 2)
    s2 = lambda xi: np.exp(-np.sum(xi**2, axis=0) / 400.0)
    T1, T2 = MultiplierOp(s1, name="a"), MultiplierOp(s2, name="b")
    Tsum = MultiplierOp(lambda xi: s1(xi) + s2(xi), name="a+b")
    balls = [Ball((0.0,), 0.125)]
    o1 = cancellation_test(T1, IDX1, balls, [(0,)], grid).rows[0].oscillation
    o2 = cancellation_test(T2, IDX1, balls, [(0,)], grid).rows[0].oscillation
    osum = cancellation_test(Tsum, IDX1, balls, [(0,)], grid).rows[0].oscillation
    assert osum <= o1 + o2 + 1e-12


# the ladder grids: L = 8 leaves room for W = 2 windows around off-centre points
LADDER_GRIDS = {1: GridSpec(1, 8.0, 1024), 2: GridSpec(2, 8.0, 256)}
LADDER_CASES = {  # (Hardy index, alphas, radii from large to small)
    1: (HardyIndex(0.5, 1), [(0,), (1,)], [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5]),
    2: (HardyIndex(2.0 / 3.0, 2), [(0, 0), (1, 0), (0, 1)], [0.25, 0.125, 0.1]),
}


def ladder_balls(dim, kind):
    radii = LADDER_CASES[dim][2]
    off = (1.5, -0.75)[:dim]
    if kind == "descending":
        return [Ball((0.0,) * dim, r) for r in radii]
    if kind == "ascending":
        return [Ball((0.0,) * dim, r) for r in reversed(radii)]
    if kind == "off-centre":
        return [Ball(off, r) for r in radii]
    # the centre moves between balls, so fields cannot always be carried over
    return [Ball(off if i % 3 == 1 else (0.0,) * dim, r) for i, r in enumerate(radii)]


def ladder_operator(name, spec):
    if name == "kernel":
        w = 0.05
        norm = (2 * np.pi * w**2) ** (spec.dim / 2)
        return KernelOp(sample_function(
            spec, lambda p: np.exp(-np.sum(p**2, axis=0) / (2 * w**2)) / norm), name="gauss-kernel")
    return get_operator(name, spec)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("op", ["gaussian", "kernel", "sign-mult"])
@pytest.mark.parametrize("kind", ["descending", "ascending", "off-centre", "moving-centre"])
def test_cancellation_matches_per_row_reference(dim, op, kind):
    spec = LADDER_GRIDS[dim]
    idx, alphas, _ = LADDER_CASES[dim]
    balls = ladder_balls(dim, kind)
    T = ladder_operator(op, spec)
    rows = cancellation_test(T, idx, balls, alphas, spec).rows
    ref = reference_cancellation_test(T, idx, balls, alphas, spec)
    assert len(rows) == len(ref) == len(balls) * len(alphas)
    for got, want in zip(rows, ref):
        for name in ("ball", "alpha", "window_radius"):
            assert getattr(got, name) == getattr(want, name), name
        for name in ("oscillation", "psi_value", "ratio", "window_sensitivity", "dual_gap"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    ball, alpha = balls[0], alphas[-1]
    W = max(8.0 * ball.radius, 1.0)
    ts = tstar_monomial(T, ball.center, alpha, W, spec)
    field, sens = reference_tstar_monomial(T, ball.center, alpha, W, spec)
    assert np.array_equal(ts.field.samples, field.samples)
    assert ts.sensitivity == sens


class CountingOp(OperatorSpec):
    """Delegates to an operator, counting adjoint() calls and adjoint applications."""

    def __init__(self, inner, counts):
        self.inner, self.counts, self.name = inner, counts, "counting"

    def apply(self, f):
        return self.inner.apply(f)

    def adjoint(self):
        self.counts["adjoint"] += 1
        inner, counts = self.inner.adjoint(), self.counts

        class Adjoint(OperatorSpec):
            def apply(self, f):
                counts["adjoint.apply"] += 1
                return inner.apply(f)

        return Adjoint()


@pytest.mark.parametrize("kind", ["descending", "ascending"])
def test_cancellation_computes_each_field_once(kind):
    spec = LADDER_GRIDS[1]
    idx, alphas, radii = LADDER_CASES[1]
    evaluations = []

    def symbol(xi):
        evaluations.append(1)
        return np.exp(-(0.05**2) * np.sum(xi**2, axis=0) / 4.0)

    counts = Counter()
    T = CountingOp(MultiplierOp(symbol, name="g"), counts)
    cancellation_test(T, idx, ladder_balls(1, kind), alphas, spec)
    windows = {max(8.0 * r, 1.0) for r in radii}
    radii_used = windows | {W / 2.0 for W in windows}  # 2, 1 and 1/2
    assert len(evaluations) == 1
    assert counts == {"adjoint": 1, "adjoint.apply": len(alphas) * len(radii_used)}


def test_kernel_size_gaussian_finite(grid):
    T = get_operator("gaussian", grid, width=0.5)
    for mu in (1.0, 4.0):
        rep = kernel_size_check(T, mu, grid)
        assert np.isfinite(rep.fitted_C) and rep.fitted_C > 0
        assert rep.argmax_distance < 1.0  # dominated by the near region


def test_kernel_size_truncated_power(grid):
    T = get_operator("truncated-power", grid, mu=1.0)
    rep = kernel_size_check(T, 1.0, grid)
    assert abs(rep.fitted_C - 1.0) <= 0.2


def test_kernel_size_identity_flags(grid):
    rep = kernel_size_check(get_operator("identity", grid), 1.0, grid)
    assert rep.no_off_diagonal
    assert "no off-diagonal" in rep.to_text()


def test_kernel_checks_reject_pointwise(grid):
    with pytest.raises(NumericalError, match="not translation-invariant"):
        kernel_size_check(get_operator("sign-mult", grid), 1.0, grid)


def test_kernel_holder_smooth_and_singular(grid):
    rep = kernel_holder_check(get_operator("gaussian", grid, width=0.5), 1.0, 1.0, grid)
    assert np.isfinite(rep.fitted_C)
    rep2 = kernel_holder_check(get_operator("strongly-singular", grid), 1.0, 0.5, grid)
    assert np.isfinite(rep2.fitted_C) and rep2.n_triples > 50


def test_kernel_holder_jump_grows_under_refinement():
    cs = []
    for m in (2048, 4096):
        sp = GridSpec(1, 4.0, m)
        cs.append(kernel_holder_check(get_operator("jump-kernel", sp), 1.0, 1.0, sp).fitted_C)
    assert cs[1] >= 2.0 * cs[0]


def test_kernel_holder_requires_triples(grid):
    with pytest.raises(NumericalError, match="no admissible triples"):
        kernel_holder_check(get_operator("gaussian", grid), 1.0, 1.0, grid, sample_triples=[])


def test_catalog_metadata():
    cat = builtin_operators()
    assert len(cat) >= 9
    assert {"identity", "gaussian", "riesz", "bessel-phase", "order-zero",
            "strongly-singular", "sign-mult", "halfpower-mult", "modulation"} <= set(cat)
    patho = {n for n, e in cat.items() if e.pathological}
    assert {"sign-mult", "halfpower-mult", "modulation"} <= patho
    ss = cat["strongly-singular"]
    assert dict(ss.claimed)["sigma"] == 0.5
    with pytest.raises(KeyError):
        get_operator("no-such-operator", GridSpec(1, 4.0, 64))


def test_catalog_pathological_flagged_non_translation_invariant(grid):
    for name in ("sign-mult", "halfpower-mult", "modulation"):
        assert not get_operator(name, grid).translation_invariant
    for name in ("identity", "gaussian", "riesz", "bessel-phase", "order-zero",
                 "strongly-singular", "truncated-power"):
        assert get_operator(name, grid).translation_invariant


def test_catalog_non_pathological_size_checks(grid):
    cat = builtin_operators()
    for name, entry in cat.items():
        if entry.pathological:
            continue
        T = get_operator(name, grid)
        mu = dict(entry.claimed).get("mu", 1.0)
        rep = kernel_size_check(T, mu, grid)
        assert rep.no_off_diagonal or np.isfinite(rep.fitted_C), name


def test_kernel_op_transforms_its_kernel_once(monkeypatch):
    # real f and a real kernel take the real window layer: the kernel's
    # spectrum is taken once per window side (three fields that fill the
    # grid share 2m, a small box takes less), each f's once per application
    import hardylab.grid as grid_mod

    spec = GridSpec(2, 4.0, 64)
    T = ladder_operator("kernel", spec)
    rng = np.random.default_rng(9)
    fs = [GridFunction(spec, rng.normal(size=spec.shape)) for _ in range(3)]
    small = np.zeros(spec.shape)
    small[40:45, 3:9] = rng.normal(size=(5, 6))
    fs.append(GridFunction(spec, small))
    expected = [window_convolution(f.samples, support_box(f), T.kernel, 32, 31) for f in fs]
    assert all(np.array_equal(convolve(f, T.kernel).samples, e) for f, e in zip(fs, expected))
    sides = [sized_side(support_box(f), 64) for f in fs]
    assert sides == [128, 128, 128, 72]
    transforms = []
    window_spectrum = grid_mod.window_spectrum

    def counting(g, first, n, **kwargs):
        transforms.append((g is T.kernel.samples, n))
        return window_spectrum(g, first, n, **kwargs)

    monkeypatch.setattr(grid_mod, "window_spectrum", counting)
    got = [T.apply(f).samples for f in fs]
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    assert sorted(transforms) == sorted([(True, 128), (True, 72)] + [(False, n) for n in sides])


def test_multiplier_apply_memory_by_design():
    # traced peak of one warm application of the Gaussian multiplier at 2D
    # m = 512, from the design: the half spectrum rfftn transforms in place
    # and the real output irfft writes, with 64 KiB for Python objects; the
    # full-grid complex spectrum alone, 4 MiB, does not fit
    spec = GridSpec(2, 4.0, 512)
    m = spec.points_per_axis
    T = get_operator("gaussian", spec)
    f = GridFunction(spec, np.random.default_rng(3).normal(size=spec.shape))
    expected = T.apply(f)  # samples the symbol
    tracemalloc.start()
    try:
        out = T.apply(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.samples, expected.samples)
    bound = 16 * m * (m // 2 + 1) + 8 * m * m + 2**16
    assert peak <= bound, (peak, bound)
