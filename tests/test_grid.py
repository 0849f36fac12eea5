import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import experiments, pool
from hardylab.atoms import AtomSpec, edge_cutoff, make_atom
from hardylab.config import ExperimentConfig
from hardylab.errors import NumericalError
from hardylab.experiments import _profile_field, run_E5_duality
from hardylab.grid import (
    NOISE_BATCH_SAMPLES,
    Ball,
    GridFunction,
    GridSpec,
    abs_convolve_spectra,
    ball_smooth_fields,
    convolve,
    dilate,
    dilate_box,
    fourier_multiplier,
    sample_symbol,
    integrate,
    lp_norm,
    lp_quasinorm,
    padded_spectrum,
    sample_function,
    sized_side,
    spectral_scratch,
    sq_distance,
    window_spectrum,
)
from hardylab.maximal import MollifierSpec, quintic_step
from hardylab.moments import BallBasis, HardyIndex, monomial, multiindices, poly_project
from hardylab.operators import KernelOp, get_operator, smooth_window
from oracles import (
    random_smooth_field,
    reference_convolve_spectra,
    reference_fourier_multiplier,
    reference_padded_spectrum,
    side_by_search,
    stacked_points,
    support_box,
    window_convolution,
)


def gauss(p):
    return np.exp(-sq_distance(p))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 4.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 4.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 4.0, 4)
    with pytest.raises(ValueError):
        GridSpec(2, 4.0, 8192)  # 8192^2 > 2^24
    spec = GridSpec(1, 4.0, 1024)
    assert spec.spacing == pytest.approx(8.0 / 1024)


def test_samples_must_be_finite():
    spec = GridSpec(1, 1.0, 8)
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(spec, bad)


def test_integrate_indicator_within_one_cell():
    spec = GridSpec(1, 4.0, 1024)
    f = GridFunction(spec, Ball((0.0,), 1.0).mask(spec).astype(float))
    assert abs(integrate(f) - 2.0) <= spec.cell_volume + 1e-15


def test_integrate_gaussian():
    spec = GridSpec(1, 8.0, 2048)
    f = sample_function(spec, gauss)
    assert integrate(f) == pytest.approx(np.sqrt(np.pi), abs=1e-6)


def test_integrate_refinement_oracle():
    # same closed form on a twice-finer grid is the independent oracle
    rng = np.random.default_rng(0)
    coefs = rng.normal(size=4)

    def f(p):
        x = p[0]
        return np.exp(-x**2) * (coefs[0] + coefs[1] * np.sin(x) + coefs[2] * np.cos(2 * x)
                                + coefs[3] * x**2)

    coarse = integrate(sample_function(GridSpec(1, 6.0, 1024), f))
    fine = integrate(sample_function(GridSpec(1, 6.0, 2048), f))
    assert abs(coarse - fine) <= 1e-4 * abs(fine)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_integrate_linearity(a, b):
    spec = GridSpec(1, 2.0, 64)
    rng = np.random.default_rng(7)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    g = GridFunction(spec, rng.normal(size=spec.shape))
    lhs = integrate(GridFunction(spec, a * f.samples + b * g.samples))
    rhs = a * integrate(f) + b * integrate(g)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(a) + abs(b)))


def test_lp_norm_constant_on_ball():
    spec = GridSpec(1, 4.0, 8192)
    c = -2.3
    f = GridFunction(spec, np.full(spec.shape, c))
    val = lp_norm(f, 2.0, region=Ball((0.0,), 1.0))
    assert val == pytest.approx(abs(c) * np.sqrt(2.0), rel=1e-3)


def test_lp_norm_sup():
    spec = GridSpec(1, 4.0, 256)
    rng = np.random.default_rng(1)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    assert lp_norm(f, np.inf) == np.abs(f.samples).max()


def test_lp_norm_tail_vs_refinement_oracle():
    # the cut at the ball edge converges at O(h), so resolve it well
    B = Ball((0.0,), 2.0)
    vals = []
    for m in (4096, 8192):
        f = sample_function(GridSpec(1, 8.0, m), lambda p: np.exp(-(p[0] / 3.0) ** 2))
        vals.append(lp_norm(f * ~B.mask(f.spec), 2.0))
    assert abs(vals[0] - vals[1]) <= 1e-3 * vals[1]


def test_lp_norm_validates_exponent_and_region():
    spec = GridSpec(1, 4.0, 256)
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(NumericalError):
        lp_norm(f, 2.0, region=Ball((spec.spacing / 3,), 1e-6))


def test_lp_quasinorm_below_one():
    spec = GridSpec(1, 4.0, 256)
    f = sample_function(spec, lambda p: np.exp(-p[0] ** 2))
    B = Ball((0.0,), 1.0)
    assert lp_quasinorm(f, 0.5) == (np.sum(np.abs(f.samples) ** 0.5) * spec.spacing) ** 2.0
    assert lp_quasinorm(f, 2.0, region=B) == lp_norm(f, 2.0, region=B)


def test_convolve_delta_identity():
    spec = GridSpec(1, 4.0, 256)
    rng = np.random.default_rng(3)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    d = np.zeros(spec.shape)
    d[spec.points_per_axis // 2] = 1.0 / spec.cell_volume  # unit mass at x = 0
    assert np.max(np.abs(convolve(f, GridFunction(spec, d)).samples - f.samples)) < 1e-12


def test_convolve_box_box_hat():
    spec = GridSpec(1, 4.0, 512)
    box = GridFunction(spec, Ball((0.0,), 1.0).mask(spec).astype(float))
    hat = convolve(box, box)
    x = spec.axis()
    exact = np.clip(2.0 - np.abs(x), 0.0, None)
    assert np.max(np.abs(hat.samples - exact)) <= 2 * spec.spacing


def direct_convolution(f: GridFunction, g: GridFunction) -> np.ndarray:
    # O(m^2) double sum; index k = i - j + m/2 addresses g at offset (i-j)h
    m = f.spec.points_per_axis
    h = f.spec.spacing
    out = np.zeros(m, dtype=np.result_type(f.samples, g.samples))
    j = np.arange(m)
    for i in range(m):
        k = i - j + m // 2
        ok = (k >= 0) & (k < m)
        out[i] = h * np.sum(f.samples[ok] * g.samples[k[ok]])
    return out


def test_convolve_matches_direct_sum():
    spec = GridSpec(1, 4.0, 256)
    rng = np.random.default_rng(4)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    g = GridFunction(spec, rng.normal(size=spec.shape))
    ref = direct_convolution(f, g)
    err = np.max(np.abs(convolve(f, g).samples - ref)) / np.max(np.abs(ref))
    assert err < 1e-10


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_convolve_commutative_and_bilinear(seed):
    spec = GridSpec(1, 2.0, 64)
    rng = np.random.default_rng(seed)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    g = GridFunction(spec, rng.normal(size=spec.shape))
    k = GridFunction(spec, rng.normal(size=spec.shape))
    fg = convolve(f, g)
    scale = np.max(np.abs(fg.samples)) + 1e-30
    assert np.max(np.abs(fg.samples - convolve(g, f).samples)) <= 1e-12 * scale
    lin = convolve(GridFunction(spec, f.samples + 2.0 * k.samples), g)
    ref = fg.samples + 2.0 * convolve(k, g).samples
    assert np.max(np.abs(lin.samples - ref)) <= 1e-12 * (np.max(np.abs(ref)) + 1e-30)


def test_plancherel():
    spec = GridSpec(1, 4.0, 1024)
    rng = np.random.default_rng(5)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    spatial = lp_norm(f, 2.0)
    freq = np.sqrt(np.sum(np.abs(np.fft.fft(f.samples)) ** 2)
                   * spec.cell_volume / spec.points_per_axis)
    assert spatial == pytest.approx(freq, rel=1e-10)


def test_fourier_multiplier_identity_and_gaussian_route():
    spec = GridSpec(1, 8.0, 2048)
    f = sample_function(spec, lambda p: np.exp(-p[0]**2 / 2))
    same = fourier_multiplier(f, sample_symbol(spec, lambda xi: np.ones(spec.shape)))
    assert np.max(np.abs(same.samples - f.samples)) < 1e-12
    smoothed = fourier_multiplier(f, sample_symbol(spec, lambda xi: np.exp(-xi[0]**2 / 4.0)))
    kernel = sample_function(spec, lambda p: np.pi**-0.5 * np.exp(-p[0]**2))
    via_conv = convolve(f, kernel)
    assert np.max(np.abs(smoothed.samples - via_conv.samples)) < 1e-6
    assert smoothed.is_real


def test_fourier_multiplier_derivative_vs_finite_differences():
    spec = GridSpec(1, 8.0, 2048)
    f = sample_function(spec, lambda p: np.exp(-p[0]**2) * np.sin(3 * p[0]))
    d = fourier_multiplier(f, sample_symbol(spec, lambda xi: 1j * xi[0]))
    fd = np.gradient(f.samples, spec.spacing)
    core = np.abs(spec.axis()) < 4
    assert np.max(np.abs(d.samples[core] - fd[core])) <= 10 * spec.spacing**2
    assert d.is_real  # odd imaginary symbol is Hermitian


@pytest.mark.parametrize("m", [1024, 32768])
@pytest.mark.parametrize("is_complex", [False, True])
def test_fourier_multiplier_product_order_is_fixed(m, is_complex):
    # symbols with both parts nonzero, so the operand order of their product
    # with the spectrum shows in the last bits: order-zero's Hermitian half
    # times rfftn of a real input, and bessel-phase, which is not Hermitian,
    # times fftn of a complex one; spectra of 16 KiB and 512 KiB (half
    # spectra of 8 KiB and just over 256 KiB) lie either side of the 256 KiB
    # from which NumPy multiplies into a temporary in place
    spec = GridSpec(1, 8.0, m)
    S = sample_symbol(spec, get_operator("bessel-phase" if is_complex else "order-zero", spec).symbol)
    assert S.hermitian == (not is_complex)
    assert np.all(S.values.real != 0) and np.any(S.values.imag != 0)
    rng = np.random.default_rng(m + is_complex)
    x = rng.normal(size=spec.shape)
    if is_complex:
        x = x + 1j * rng.normal(size=spec.shape)
        want = np.fft.ifftn(np.multiply(S.values, np.fft.fftn(x)))
    else:
        want = np.fft.irfftn(np.multiply(S.values, np.fft.rfftn(x, axes=(0,))), spec.shape, axes=(0,))
    assert np.array_equal(bits(fourier_multiplier(GridFunction(spec, x), S).samples), bits(want))


MULTIPLIERS = ("identity", "gaussian", "riesz", "order-zero", "bessel-phase", "strongly-singular")


@pytest.mark.parametrize("dim", [1, 2])
def test_catalog_hermitian_symbols_keep_a_half_spectrum(dim):
    spec = GridSpec(dim, 4.0, 256 if dim == 1 else 64)
    m = spec.points_per_axis
    for name in MULTIPLIERS:
        S = sample_symbol(spec, get_operator(name, spec).symbol)
        assert S.hermitian == (name not in ("bessel-phase", "strongly-singular")), name
        half = spec.shape[:-1] + (m // 2 + 1,)
        assert S.values.shape == (half if S.hermitian else spec.shape), name
        if S.hermitian:
            assert S.values.dtype == (np.complex128 if name in ("riesz", "order-zero") else np.float64)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("is_complex", [False, True])
def test_fourier_multiplier_matches_full_grid_complex_path(dim, is_complex):
    # the real-FFT path of a Hermitian symbol, for real f, within 64 eps max
    # of the full-grid complex oracle, and a ValueError for complex f; any
    # other symbol runs that complex path itself, for real or complex f
    spec = GridSpec(dim, 4.0, 256 if dim == 1 else 64)
    rng = np.random.default_rng(dim + 2 * is_complex)
    x = rng.normal(size=spec.shape)
    f = GridFunction(spec, x + 1j * rng.normal(size=spec.shape) if is_complex else x)
    for name in MULTIPLIERS:
        for T in (get_operator(name, spec), get_operator(name, spec).adjoint()):
            S = sample_symbol(spec, T.symbol)
            if S.hermitian and is_complex:
                with pytest.raises(ValueError, match="Hermitian multiplier takes a real function"):
                    fourier_multiplier(f, S)
                continue
            got = fourier_multiplier(f, S).samples
            want = reference_fourier_multiplier(f, T.symbol, S.hermitian)
            assert got.dtype == want.dtype, name
            assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(np.abs(want)), name
            if not S.hermitian:
                assert np.array_equal(got, want), name


def test_fourier_multiplier_singular_symbol():
    # a real symbol, and a complex one with either part alone not finite
    spec = GridSpec(1, 4.0, 64)

    def bad(xi):
        with np.errstate(divide="ignore"):
            return 1.0 / xi[0]

    def parts(re, im):
        out = np.empty(re.shape, np.complex128)
        out.real, out.imag = re, im
        return out

    for symbol in (bad, lambda xi: parts(np.ones(spec.shape), bad(xi)),
                   lambda xi: parts(bad(xi), np.ones(spec.shape))):
        with pytest.raises(NumericalError, match="singular symbol"):
            sample_symbol(spec, symbol)


def test_dilate_closed_form():
    spec = GridSpec(1, 8.0, 2048)
    phi = MollifierSpec("gaussian", 1)  # pi^(-1/2) exp(-x^2)
    base = integrate(sample_function(spec, phi))
    for t in (0.25, 1.0, 2.0):
        ft = dilate(phi, t, spec)
        assert integrate(ft) == pytest.approx(base, abs=1e-6)
        assert np.max(np.abs(ft.samples)) == pytest.approx(np.pi**-0.5 / t, rel=1e-12)
    f1 = dilate(phi, 1.0, spec)
    assert np.array_equal(f1.samples, sample_function(spec, phi).samples)


def test_dilate_floor():
    spec = GridSpec(1, 4.0, 256)
    with pytest.raises(NumericalError, match="scale below grid resolution"):
        dilate(MollifierSpec("gaussian", 1), spec.spacing, spec)


@pytest.mark.parametrize("dim", [1, 2])
def test_dilate_samples_compact_mollifier_on_its_box(dim):
    # the bump is sampled on its box alone, and equals the full evaluation
    # bit for bit, signs of zero included, for t from 2h to L/2 (integer
    # multiples of h among them)
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    mol = MollifierSpec("smooth-bump", dim)
    h = spec.spacing
    for t in (*np.geomspace(2 * h, spec.half_width / 2, 12), 3 * h, 8 * h):
        full = t ** -dim * mol(stacked_points(spec) / t)
        assert np.array_equal(dilate(mol, t, spec).samples.view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2])
def test_dilate_samples_gaussian_without_meshgrid(dim):
    # the Gaussian is sampled at sq_distance of the scaled axes' open grid,
    # and equals its evaluation on the full meshgrid bit for bit
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    mol = MollifierSpec("gaussian", dim)
    h = spec.spacing
    for t in (*np.geomspace(2 * h, 1.0, 12), 3 * h, 8 * h):
        full = t ** -dim * mol(stacked_points(spec) / t)
        assert np.array_equal(dilate(mol, t, spec).samples.view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2])
def test_dilate_box_matches_dilate_bitwise(dim):
    # the bump's samples within K = ceil(t/h) of the origin, without a
    # full-grid array: the full meshgrid evaluation's bits on that box,
    # clipped to the grid, +0.0 off it, and the window index of its first
    # sample; dilate, which scatters that box, has the evaluation's bits
    spec = GridSpec(dim, 4.0, 512 if dim == 1 else 64)
    mol = MollifierSpec("smooth-bump", dim)
    m, h = spec.points_per_axis, spec.spacing
    for t in (*np.geomspace(2 * h, 1.5 * spec.half_width, 10), 3 * h, 8 * h):
        reach = int(np.ceil(t / h))
        box, first = dilate_box(mol, t, spec, reach)
        lo, hi = max(m // 2 - reach, 0), min(m // 2 + reach + 1, m)
        assert first == lo - m // 2 + reach
        full = t ** -dim * mol(stacked_points(spec) / t)
        assert np.array_equal(box.view(np.uint64), full[(slice(lo, hi),) * dim].view(np.uint64))
        outside = np.ones(spec.shape, dtype=bool)
        outside[(slice(lo, hi),) * dim] = False
        assert not full[outside].any()
        assert np.array_equal(dilate(mol, t, spec).samples.view(np.uint64), full.view(np.uint64))
    with pytest.raises(NumericalError):
        dilate_box(mol, h, spec, 1)


def test_two_dimensional_convolution_identity():
    spec = GridSpec(2, 4.0, 64)
    rng = np.random.default_rng(6)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    d = np.zeros(spec.shape)
    d[32, 32] = 1.0 / spec.cell_volume
    out = convolve(f, GridFunction(spec, d))
    assert np.max(np.abs(out.samples - f.samples)) < 1e-12


def roll_window_reference(Ff: np.ndarray, Fg: np.ndarray, spec: GridSpec, real: bool) -> np.ndarray:
    # the earlier formula: full inverse FFT, roll by half the padded period,
    # then copy the window
    m = spec.points_per_axis
    emb = tuple(slice(m // 2, m // 2 + m) for _ in range(spec.dim))
    raw = np.fft.ifftn(Ff * Fg) * spec.cell_volume
    raw = np.roll(raw, m, axis=tuple(range(spec.dim)))
    out = raw[emb]
    if real:
        out = out.real
    return out.copy()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("is_complex", [False, True])
def test_convolve_spectra_matches_roll_reference_bitwise(dim, m, is_complex):
    spec = GridSpec(dim, 2.0, m)
    rng = np.random.default_rng(10 * dim + m + is_complex)

    def draw():
        x = rng.normal(size=spec.shape)
        return GridFunction(spec, x + 1j * rng.normal(size=spec.shape) if is_complex else x)

    f, g = draw(), draw()
    Ff, Fg = padded_spectrum(f), padded_spectrum(g)
    Ff0, Fg0 = Ff.copy(), Fg.copy()
    ref = roll_window_reference(Ff, Fg, spec, real=False)
    scratch, out = spectral_scratch(spec, 1), np.empty((1,) + spec.shape)
    for _ in range(2):  # the scratch is reusable
        assert np.array_equal(abs_convolve_spectra(Ff[None], Fg, spec, scratch, out)[0], np.abs(ref))
    assert np.array_equal(Ff, Ff0) and np.array_equal(Fg, Fg0)
    if is_complex:  # convolve takes real functions only
        with pytest.raises(ValueError):
            convolve(f, g)
    else:
        assert np.array_equal(convolve(f, g).samples, real_layer_reference(f, g))


def real_layer_reference(f: GridFunction, g: GridFunction) -> np.ndarray:
    # the real window layer of convolve, written independently: a kernel of
    # the grid's m offsets
    box, half = support_box(f), f.spec.points_per_axis // 2
    return np.zeros(f.spec.shape) if box is None else window_convolution(f.samples, box, g, half, half - 1)


@pytest.mark.parametrize("dim", [1, 2])
def test_convolve_layers_agree(dim):
    # real f and g take the real window layer, which agrees with the complex
    # padded convolution (full fftn/ifftn) pointwise within 64 eps of its
    # max, a tolerance fixed from float64 eps beforehand; the same samples
    # cast to complex raise ValueError
    spec = GridSpec(dim, 4.0, 1024 if dim == 1 else 64)
    rng = np.random.default_rng(60 + dim)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    g = GridFunction(spec, rng.normal(size=spec.shape))
    real = convolve(f, g).samples
    fc = GridFunction(spec, f.samples.astype(complex))
    assert real.dtype == np.float64
    with pytest.raises(ValueError, match="real function"):
        convolve(fc, g)
    padded = reference_convolve_spectra(reference_padded_spectrum(fc), reference_padded_spectrum(g), spec)
    assert np.max(np.abs(real - padded)) <= 64 * np.finfo(float).eps * np.max(np.abs(padded))


@pytest.mark.parametrize("dim", [1, 2])
def test_convolve_never_reaches_padded_layer(monkeypatch, dim):
    # with the padded transforms replaced by raisers: KernelOp.apply gives
    # convolve's bits, for two functions whose different boxes take
    # different window sides, and keeps one kernel spectrum per side; a
    # complex f or kernel raises ValueError, and a real kernel's adjoint is
    # real
    import hardylab.grid as grid_mod

    def raiser(*args, **kwargs):
        raise AssertionError("convolve reached the padded layer")

    for name in ("padded_spectrum", "abs_convolve_spectra"):
        monkeypatch.setattr(grid_mod, name, raiser)
    spec = GridSpec(dim, 2.0, 64)
    rng = np.random.default_rng(70 + dim)
    g = GridFunction(spec, rng.normal(size=spec.shape))
    re = np.zeros(spec.shape)
    re[(slice(20, 26),) * dim] = rng.normal(size=(6,) * dim)
    f = GridFunction(spec, re + 1j * rng.normal(size=spec.shape))
    planes = [GridFunction(spec, re), GridFunction(spec, f.samples.imag)]
    T = KernelOp(g)
    for h in planes:
        for got in (T.apply(h), T.apply(h)):
            assert np.array_equal(bits(got.samples), bits(convolve(h, g).samples))
    sides = {sized_side(support_box(h), 64) for h in planes}
    assert len(sides) == 2 and sorted(T._spectra) == sorted(sides)
    assert T.adjoint().kernel.is_real
    gc = GridFunction(spec, g.samples + 1j * rng.normal(size=spec.shape))
    for h, k in ((planes[0], gc), (f, g), (f, gc)):
        with pytest.raises(ValueError):
            convolve(h, k)
        with pytest.raises(ValueError):
            KernelOp(k).apply(h)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def row_supported(draw, dim: int, m: int, is_complex: bool) -> GridFunction:
    # random samples on GridSpec(dim, 1.5, m) (h^dim is not a power of two,
    # so scaling by it rounds) whose nonzero rows along axis 0 are none, one,
    # several runs with gaps between them, or all
    spec = GridSpec(dim, 1.5, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=spec.shape)
    if is_complex:
        x = x + 1j * rng.normal(size=spec.shape)
    pattern = draw(st.sampled_from(["zero", "one row", "gaps", "full"]))
    keep = np.full(m, pattern == "full")
    if pattern == "one row":
        keep[rng.integers(m)] = True
    elif pattern == "gaps":
        keep = rng.random(m) < 0.5
        i = rng.integers(m - 2)
        keep[i:i + 3] = True, False, True
    x[~keep] = 0.0
    return GridFunction(spec, x)


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_padded_convolution_matches_fftn_bitwise(dim, data):
    # the pruned forward transform and the tiled inverse against full-size
    # fftn/ifftn, on the raw bits; m = 8 has fewer rows than one tile
    m = data.draw(st.sampled_from([8, 16, 64, 256]))
    f = data.draw(row_supported(dim, m, data.draw(st.booleans())))
    g = data.draw(row_supported(dim, m, data.draw(st.booleans())))
    spec = f.spec
    Ff, Fg = padded_spectrum(f), padded_spectrum(g)
    assert np.array_equal(bits(Ff), bits(reference_padded_spectrum(f)))
    assert np.array_equal(bits(Fg), bits(reference_padded_spectrum(g)))
    ref = reference_convolve_spectra(Ff, Fg, spec)
    scratch, out = spectral_scratch(spec, 1), np.empty((1,) + spec.shape)
    for _ in range(2):  # the scratch is reusable
        abs_convolve_spectra(Ff[None], Fg, spec, scratch, out)
        assert np.array_equal(bits(out[0]), bits(np.abs(ref)))
    if not (f.is_real and g.is_real):  # convolve takes real functions only
        with pytest.raises(ValueError):
            convolve(f, g)
        return
    assert np.array_equal(bits(convolve(f, g).samples), bits(real_layer_reference(f, g)))


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_real_padded_convolution_matches_rfftn_bitwise(dim, data):
    # the real window layer of convolve against full-size rfftn/irfftn of its
    # window, on the raw bits: f with no, one, gapped or all nonzero rows;
    # exactly 0 beyond the kernel's reach of f's box; against the 2m real
    # layer it replaced within 64 eps of the larger of its max and one term
    # h^dim max|f| max|g| (the scale of its round-off where the exact result
    # is 0), a tolerance fixed from float64 eps beforehand
    m = data.draw(st.sampled_from([8, 16, 64, 256]))
    f = data.draw(row_supported(dim, m, False))
    g = data.draw(row_supported(dim, m, False))
    spec = f.spec
    got = convolve(f, g).samples
    assert got.dtype == np.float64
    assert np.array_equal(bits(got), bits(real_layer_reference(f, g)))
    old = reference_convolve_spectra(reference_padded_spectrum(f, real=True),
                                     reference_padded_spectrum(g, real=True), spec)
    term = spec.cell_volume * np.max(np.abs(f.samples)) * np.max(np.abs(g.samples))
    assert np.max(np.abs(got - old)) <= 64 * np.finfo(float).eps * max(np.max(np.abs(old)), term)
    box = support_box(f)
    reach = np.zeros(spec.shape, dtype=bool)
    if box is not None:
        reach[tuple(slice(max(lo - m // 2, 0), hi + m // 2 - 1) for lo, hi in box)] = True
    assert not got[~reach].any()


def test_sized_side_is_the_least_factor_size():
    # c 2^i for c in 1, 3, 9, and at least b + span - 1: against the grid's m
    # offsets 288 for E1's 2D fields (b <= 31 at m = 256), 9216 for its 1D
    # ones, 2m for a function that fills the grid; against a compact kernel
    # of span 2K + 1 as small as its box needs, odd sides included
    for span in (1, 5, 8, 64, 255, 256, 1025, 8192):
        for b in {1, 2, 3, 7, 31, span // 2 - 1, span // 2, span // 2 + 1, span - 1, span} - {0, -1}:
            assert sized_side([(0, b)], span) == side_by_search(b + span - 1)
    assert [side_by_search(n) for n in (1, 5, 7, 9, 10, 13, 17, 19, 25)] == [1, 6, 8, 9, 12, 16, 18, 24, 32]
    assert sized_side([(112, 143), (120, 130)], 256) == 288
    assert sized_side([(3584, 4607)], 8192) == 9216
    assert sized_side([(0, 64), (3, 4)], 64) == 128
    assert sized_side([(40, 41)], 2 * 4 + 1) == 9


@pytest.mark.parametrize("dim", [1, 2])
def test_window_spectrum_is_rfftn_of_the_window(dim):
    # at the start of the window and off it, with fewer and more rows than
    # one tile; in 2D the rows without samples keep rfft's bits for a zero
    # row, -0.0 included
    rng = np.random.default_rng(12)
    for rows, first, n in ((6, 0, 27), (6, 5, 16), (70, 3, 96), (16, 0, 32)):
        g = rng.normal(size=(rows,) * dim)
        window = np.zeros((n,) * dim)
        window[(slice(first, first + rows),) * dim] = g
        out = np.empty((n,) * (dim - 1) + (n // 2 + 1,), dtype=complex)
        assert window_spectrum(g, first, n, out=out) is out
        assert np.array_equal(bits(out), bits(np.fft.rfftn(window)))
        assert np.array_equal(bits(window_spectrum(g, first, n)), bits(np.fft.rfftn(window)))


# ---------------------------------------------------------------------------
# ball geometry and noise on the ball's bounding slab, against the earlier
# full-grid formulas


def full_grid_sq_distance(spec, center):
    pts = stacked_points(spec)
    d2 = np.zeros(spec.shape)
    for i in range(spec.dim):
        d2 += (pts[i] - center[i]) ** 2
    return d2


def full_grid_mask(spec, ball):
    return full_grid_sq_distance(spec, ball.center) < ball.radius**2


def full_grid_cols(spec, ball, degree):
    pts = stacked_points(spec)[:, full_grid_mask(spec, ball)]
    cols = []
    for a in multiindices(spec.dim, degree):
        mono = np.ones(pts.shape[1:])
        for i, ai in enumerate(a):
            if ai:
                mono = mono * (pts[i] - ball.center[i]) ** ai
        cols.append(mono / ball.radius ** sum(a))
    return np.stack(cols, axis=1)


def full_grid_window(spec, center, W):
    return 1.0 - quintic_step(np.sqrt(full_grid_sq_distance(spec, center)) / W - 1.0)


@st.composite
def grid_and_ball(draw):
    """A grid and a ball that may hold no sample, reach past L, or have r > L;
    snapped balls are centred on a sample with r a whole number of cells, so
    samples lie exactly on the boundary."""
    spec = GridSpec(draw(st.sampled_from([1, 2])), draw(st.floats(0.5, 4.0)),
                    draw(st.sampled_from([8, 16, 64])))
    h, L, m = spec.spacing, spec.half_width, spec.points_per_axis
    if draw(st.booleans()):
        center = tuple(spec.axis()[draw(st.integers(0, m - 1))] for _ in range(spec.dim))
        radius = h * draw(st.integers(1, 2 * m))
    else:
        center = tuple(draw(st.floats(-1.5 * L, 1.5 * L)) for _ in range(spec.dim))
        radius = h * draw(st.floats(0.01, 2.0 * m))
    return spec, Ball(center, radius)


@given(gb=grid_and_ball())
@settings(max_examples=150, deadline=None)
def test_ball_mask_matches_full_grid(gb):
    spec, ball = gb
    slab = ball.box(spec)
    idx, inside = slab.idx, slab.inside
    mask = ball.mask(spec)
    assert np.array_equal(mask, full_grid_mask(spec, ball))
    assert inside.shape == tuple(len(i) for i in idx)
    assert inside.sum() == mask.sum() == slab.count
    x = np.random.default_rng(slab.count).standard_normal(spec.shape)
    if not mask.any():
        with pytest.raises(NumericalError, match="degenerate region"):
            slab.gather(x)
        return
    on_ball = slab.gather(x)
    assert on_ball.tobytes() == x[mask].tobytes()
    assert slab.scatter(on_ball).tobytes() == np.where(mask, x, 0).tobytes()


def full_grid_poly(spec, ball, basis, coeffs):
    """sum_a c_a ((y-x0)/r)^a at every grid point, summed monomial by
    monomial: the full-grid formula the projection on the ball must equal."""
    pts = stacked_points(spec)
    out = np.zeros(spec.shape, dtype=coeffs.dtype)
    for a, c in zip(basis, coeffs):
        out = out + c * monomial(pts, ball.center, a) / ball.radius ** sum(a)
    return out


@given(gb=grid_and_ball(), degree=st.integers(0, 3), weighted=st.booleans(),
       complex_=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_poly_project_matches_full_grid_formula(gb, degree, weighted, complex_, seed):
    spec, ball = gb
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape)
    if complex_:
        vals = vals + 1j * rng.standard_normal(spec.shape)
    f = GridFunction(spec, vals)
    w = GridFunction(spec, rng.uniform(0.5, 1.5, spec.shape)) if weighted else None
    try:
        basis = BallBasis(spec, ball, degree, w)
    except NumericalError:  # empty, too few points, or ill-conditioned
        with pytest.raises(NumericalError):
            poly_project(f, ball, degree, weight=w)
        return
    mask = full_grid_mask(spec, ball)
    want = full_grid_poly(spec, ball, basis.basis, basis.coeffs(f.samples[mask]))
    got = poly_project(f, ball, degree, weight=w).samples
    assert got.dtype == want.dtype
    assert got[mask].tobytes() == want[mask].tobytes()
    assert not got[~mask].any()


@given(gb=grid_and_ball(), degree=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_ball_basis_cols_match_full_grid(gb, degree):
    spec, ball = gb
    npts = int(full_grid_mask(spec, ball).sum())
    if npts < len(multiindices(spec.dim, degree)):
        with pytest.raises(NumericalError, match="degenerate region"):
            BallBasis(spec, ball, degree)
        return
    try:
        basis = BallBasis(spec, ball, degree)
    except NumericalError as exc:  # too few distinct rows for this degree
        assert "ill-conditioned" in str(exc) or "positive definite" in str(exc)
        return
    assert np.array_equal(basis.cols, full_grid_cols(spec, ball, degree))


@given(gb=grid_and_ball(), frac=st.floats(0.05, 2.0))
@settings(max_examples=100, deadline=None)
def test_smooth_window_matches_full_grid(gb, frac):
    spec, ball = gb
    W = frac * ball.radius
    assert np.array_equal(smooth_window(spec, ball.center, W).samples,
                          full_grid_window(spec, ball.center, W))


@pytest.mark.parametrize("dim", [1, 2])
def test_empty_ball_is_degenerate(dim):
    spec = GridSpec(dim, 2.0, 32)
    # centred between samples, far closer to none of them than half a cell
    ball = Ball((0.5 * spec.spacing,) * dim, 0.1 * spec.spacing)
    assert not ball.mask(spec).any()
    assert ball_smooth_fields(spec, ball, 1.0, 3, np.random.default_rng(0)).shape == (0, 3)
    with pytest.raises(NumericalError, match="degenerate region"):
        BallBasis(spec, ball, 0)
    with pytest.raises(NumericalError, match="degenerate region"):
        lp_norm(GridFunction(spec, np.ones(spec.shape)), 2, region=ball)


def per_trial_fields(spec, ball, ell, count, rng):
    mask = ball.mask(spec)
    out = np.empty((int(mask.sum()), count))
    for j in range(count):
        out[:, j] = random_smooth_field(spec, ell, rng)[mask]
    return out


BALL_CASES = {
    "centred": lambda L: (0.0, 0.3 * L),
    "off-centre": lambda L: (0.37 * L, 0.25 * L),
    "edge": lambda L: (-0.9 * L, 0.3 * L),  # clipped at -L; its rows wrap around
}


@pytest.mark.parametrize("dim,m", [(1, 1024), (2, 128)])
@pytest.mark.parametrize("case", sorted(BALL_CASES))
def test_ball_smooth_fields_match_per_trial_draws(dim, m, case, monkeypatch):
    spec = GridSpec(dim, 2.0, m)
    c, r = BALL_CASES[case](spec.half_width)
    ball = Ball((c, -0.5 * c)[:dim], r)
    monkeypatch.setattr(pool, "WORKERS", 2)  # each worker draws its share of the batch
    batch = NOISE_BATCH_SAMPLES // (2 * spec.num_samples)
    assert batch > 2
    for count in (0, 1, batch - 1, batch + 1):
        rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
        got = ball_smooth_fields(spec, ball, r / 2.0, count, rng)
        want = per_trial_fields(spec, ball, r / 2.0, count, ref_rng)
        assert got.shape == want.shape == (int(ball.mask(spec).sum()), count)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * np.max(np.abs(want), initial=0.0)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


E5_ON_BALL_CFG = """
[experiment]
scenario = E5-duality
seed = 3
[grid]
dim = {dim}
m = {m}
L = 2.0
[scenario]
n_instances = 2
trials = 0
mode = deterministic
r_values = 0.5, 0.3
"""


def assert_field_on_ball(got, want, ball):
    # exactly 0 off the ball, within 1e-13 of the reference's max on it
    mask = ball.mask(got.spec)
    assert np.all(got.samples[~mask] == 0.0)
    assert np.max(np.abs(got.samples[mask] - want[mask])) <= 1e-13 * np.max(np.abs(want[mask]))


@pytest.mark.parametrize("dim,m", [(1, 256), (2, 64)])
def test_random_fields_drawn_on_the_ball(dim, m, monkeypatch, tmp_path):
    # the atoms, E1's random profile and E5's instance fields take no
    # full-grid FFT: each equals the field of the full-grid oracle (for the
    # atom, the atom made from it), and each generator ends in the state of
    # the oracle's draws
    spec = GridSpec(dim, 2.0, m)
    ball = Ball((0.3, -0.2)[:dim], 0.5)
    idx = HardyIndex(0.5, dim)
    atom_spec = AtomSpec(idx, 2.0, ball, "global")
    w = edge_cutoff(spec, ball)
    ref_atom_rng, ref_profile_rng = np.random.default_rng(4), np.random.default_rng(5)
    u = GridFunction(spec, random_smooth_field(spec, ball.radius / 3.0, ref_atom_rng))
    raw = w * (u - poly_project(u, ball, idx.N_p, weight=w))
    ref_atom = (atom_spec.size_bound / lp_quasinorm(raw, 2.0)) * raw
    ref_profile = w * GridFunction(spec, random_smooth_field(spec, ball.radius / 3.0, ref_profile_rng))
    path = tmp_path / "e5.cfg"
    path.write_text(E5_ON_BALL_CFG.format(dim=dim, m=m))
    cfg = ExperimentConfig.from_file(path, out_dir=str(tmp_path))
    ref_e5_rngs = [np.random.default_rng([cfg.seed, 51, i]) for i in range(2)]
    ref_e5 = [random_smooth_field(spec, r / 2.0, rng) for r, rng in zip((0.5, 0.3), ref_e5_rngs)]

    def refuse(*args, **kwargs):
        raise AssertionError("full-grid FFT")

    made, make = {}, np.random.default_rng

    def recorded(seed):
        made[str(seed)] = rng = make(seed)
        return rng

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    monkeypatch.setattr(np.random, "default_rng", recorded)
    e5_fields = {}

    def record_field(f, ball, degree, trials, seed, include_deterministic):
        e5_fields[seed - cfg.seed] = f
        return 1.0, 1.0

    monkeypatch.setattr(experiments, "dual_norm_check", record_field)

    assert_field_on_ball(make_atom(atom_spec, 4, spec), ref_atom.samples, ball)
    assert made["4"].bit_generator.state == ref_atom_rng.bit_generator.state
    profile_rng = make(5)
    assert_field_on_ball(_profile_field("random", spec, ball, profile_rng, idx), ref_profile.samples, ball)
    assert profile_rng.bit_generator.state == ref_profile_rng.bit_generator.state
    run_E5_duality(cfg)
    for i, r in enumerate((0.5, 0.3)):
        assert_field_on_ball(e5_fields[i], ref_e5[i], Ball((0.0,) * dim, r))
        assert made[str([cfg.seed, 51, i])].bit_generator.state == ref_e5_rngs[i].bit_generator.state
