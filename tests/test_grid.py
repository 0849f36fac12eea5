import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.errors import NumericalError
from hardylab.grid import (
    Ball,
    GridFunction,
    GridSpec,
    convolve,
    convolve_spectra,
    dilate,
    fourier_multiplier,
    integrate,
    load_gridfunction,
    lp_norm,
    padded_spectrum,
    restrict,
    sample_function,
    save_gridfunction,
)


def gauss(p):
    return np.exp(-np.sum(p**2, axis=0))


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
    f = restrict(GridFunction(spec, np.ones(spec.shape)), Ball((0.0,), 1.0))
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
    lhs = integrate(a * f + b * g)
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
        vals.append(lp_norm(f, 2.0, region=B, complement=True))
    assert abs(vals[0] - vals[1]) <= 1e-3 * vals[1]


def test_lp_norm_validates_exponent_and_region():
    spec = GridSpec(1, 4.0, 256)
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(NumericalError):
        lp_norm(f, 2.0, region=Ball((spec.spacing / 3,), 1e-6))


def test_restrict_partition_and_idempotence():
    spec = GridSpec(1, 4.0, 512)
    rng = np.random.default_rng(2)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    B = Ball((0.5,), 1.2)
    inside = restrict(f, B, True)
    outside = restrict(f, B, False)
    assert np.array_equal(inside.samples + outside.samples, f.samples)
    again = restrict(inside, B, True)
    assert np.array_equal(again.samples, inside.samples)


def test_restrict_measures_ball():
    spec = GridSpec(1, 4.0, 2048)
    one = GridFunction(spec, np.ones(spec.shape))
    assert abs(integrate(restrict(one, Ball((0.0,), 1.0))) - 2.0) <= spec.cell_volume


def test_convolve_delta_identity():
    spec = GridSpec(1, 4.0, 256)
    rng = np.random.default_rng(3)
    f = GridFunction(spec, rng.normal(size=spec.shape))
    d = np.zeros(spec.shape)
    d[spec.points_per_axis // 2] = 1.0 / spec.cell_volume  # unit mass at x = 0
    assert np.max(np.abs(convolve(f, GridFunction(spec, d)).samples - f.samples)) < 1e-12


def test_convolve_box_box_hat():
    spec = GridSpec(1, 4.0, 512)
    box = restrict(GridFunction(spec, np.ones(spec.shape)), Ball((0.0,), 1.0))
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
    lin = convolve(f + 2.0 * k, g)
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
    same = fourier_multiplier(f, lambda xi: np.ones(xi.shape[1:]))
    assert np.max(np.abs(same.samples - f.samples)) < 1e-12
    smoothed = fourier_multiplier(f, lambda xi: np.exp(-xi[0]**2 / 4.0))
    kernel = sample_function(spec, lambda p: np.pi**-0.5 * np.exp(-p[0]**2))
    via_conv = convolve(f, kernel)
    assert np.max(np.abs(smoothed.samples - via_conv.samples)) < 1e-6
    assert smoothed.is_real


def test_fourier_multiplier_derivative_vs_finite_differences():
    spec = GridSpec(1, 8.0, 2048)
    f = sample_function(spec, lambda p: np.exp(-p[0]**2) * np.sin(3 * p[0]))
    d = fourier_multiplier(f, lambda xi: 1j * xi[0])
    fd = np.gradient(f.samples, spec.spacing)
    core = np.abs(spec.axis()) < 4
    assert np.max(np.abs(d.samples[core] - fd[core])) <= 10 * spec.spacing**2
    assert d.is_real  # odd imaginary symbol is Hermitian


def test_fourier_multiplier_singular_symbol():
    spec = GridSpec(1, 4.0, 64)
    f = GridFunction(spec, np.ones(spec.shape))

    def bad(xi):
        with np.errstate(divide="ignore"):
            return 1.0 / xi[0]

    with pytest.raises(NumericalError, match="singular symbol"):
        fourier_multiplier(f, bad)


def test_dilate_closed_form():
    spec = GridSpec(1, 8.0, 2048)
    phi = lambda p: np.pi**-0.5 * np.exp(-p[0]**2)
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
        dilate(lambda p: np.exp(-p[0]**2), spec.spacing, spec)


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
    assert np.array_equal(convolve_spectra(Ff, Fg, spec), ref)
    buf = np.empty(Ff.shape, dtype=np.complex128)
    for _ in range(2):  # the scratch buffer is reusable
        assert np.array_equal(convolve_spectra(Ff, Fg, spec, buf), ref)
    assert np.array_equal(Ff, Ff0) and np.array_equal(Fg, Fg0)
    assert np.array_equal(convolve(f, g).samples,
                          roll_window_reference(Ff, Fg, spec, real=not is_complex))


def test_serialization_roundtrip(tmp_path):
    spec = GridSpec(2, 2.0, 16)
    rng = np.random.default_rng(8)
    for data in (rng.normal(size=spec.shape),
                 rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)):
        f = GridFunction(spec, data)
        path = tmp_path / "f.gfn"
        save_gridfunction(f, path)
        g = load_gridfunction(path)
        assert g.spec == spec
        assert np.array_equal(g.samples, f.samples)
