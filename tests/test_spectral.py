import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translates import spectral
from translates.spectral import (
    GridSamples,
    SpectralError,
    SpectralFunction,
    _smooth_length,
    analyze,
    convolve,
    evaluate,
    freq_norm,
    lp_norm,
    partial_sum,
    random_real_spectral,
    synthesize,
)


def test_freq_norms():
    assert freq_norm((3, -4), 2) == pytest.approx(5.0)
    assert freq_norm((3, -4), 1) == pytest.approx(7.0)
    assert freq_norm((3, -4), math.inf) == 4.0


def test_evaluate_examples():
    const = SpectralFunction.single(0)
    assert evaluate(const, 2.1) == pytest.approx(1.0)
    cosx = SpectralFunction.from_coeffs({1: 0.5, -1: 0.5})
    assert evaluate(cosx, 0.0) == pytest.approx(1.0)
    assert evaluate(SpectralFunction.single(1), math.pi / 2) == pytest.approx(1j)


def test_evaluate_matches_direct_sum_2d():
    rng = np.random.default_rng(0)
    f = random_real_spectral(2, 4, rng)
    x = np.array([0.31, 2.7])
    direct = sum(v * np.exp(1j * (k[0] * x[0] + k[1] * x[1])) for k, v in f.items())
    assert evaluate(f, x) == pytest.approx(direct, abs=1e-12)


def test_convolve_examples():
    a = SpectralFunction.from_coeffs({3: 2.0})
    b = SpectralFunction.from_coeffs({3: 5.0})
    assert convolve(a, b).coeff(3) == pytest.approx(10.0)

    rng = np.random.default_rng(1)
    f = random_real_spectral(1, 6, rng)
    const = SpectralFunction.single(0)
    out = convolve(f, const)
    assert out.coeff(0) == pytest.approx(f.coeff(0))
    assert out.bandwidth == 0

    dirichlet = SpectralFunction(1, 8, np.ones(17, dtype=complex))
    g = random_real_spectral(1, 5, rng)
    rep = convolve(dirichlet, g)
    assert np.allclose(rep.padded(8).values, g.padded(8).values)


def test_convolve_dimension_mismatch():
    with pytest.raises(SpectralError):
        convolve(SpectralFunction.single(0), SpectralFunction.single((0, 0)))


def test_convolve_commutative_associative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f1 = random_real_spectral(1, rng.integers(1, 8), rng)
        f2 = random_real_spectral(1, rng.integers(1, 8), rng)
        f3 = random_real_spectral(1, rng.integers(1, 8), rng)
        ab = convolve(f1, f2)
        ba = convolve(f2, f1)

        def compare(x, y, rtol):
            xs, ys = sorted(x.items()), sorted(y.items())
            assert [k for k, _ in xs] == [k for k, _ in ys]
            xv = np.array([v for _, v in xs])
            yv = np.array([v for _, v in ys])
            assert np.allclose(xv, yv, rtol=rtol, atol=0.0)

        # FMA-fused complex products move the last ulp under reordering
        compare(ab, ba, rtol=5e-16)
        compare(convolve(ab, f3), convolve(f1, convolve(f2, f3)), rtol=1e-15)


def test_young_type_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f1 = random_real_spectral(1, rng.integers(1, 12), rng)
        f2 = random_real_spectral(1, rng.integers(1, 12), rng)
        lhs = lp_norm(convolve(f1, f2), 2.0)
        rhs = float(np.max(np.abs(f1.values))) * lp_norm(f2, 2.0)
        assert lhs <= rhs * (1 + 1e-12)


def test_lp_norm_examples():
    assert lp_norm(SpectralFunction.single(1), 2.0) == pytest.approx(1.0)
    assert lp_norm(SpectralFunction.from_coeffs({0: 3.0}), 4.0) == pytest.approx(3.0)
    cosx = SpectralFunction.from_coeffs({1: 0.5, -1: 0.5})
    # closed form: mean of cos^4 is 3/8; confirmed by a fine-grid estimate
    assert lp_norm(cosx, 4.0) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-12)
    assert lp_norm(cosx, 4.0, oversample=64) == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-12)


def _is_5_smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def test_smooth_length_is_smallest_5_smooth():
    for n in range(1, 5001):
        assert _smooth_length(n) == next(k for k in itertools.count(n) if _is_5_smooth(k))
    assert _smooth_length(65544) == 65610


def _grid_norm(f, p, N):
    """Oracle: the trapezoidal rule on the complex ``synthesize`` samples of the N-grid."""
    return float(np.mean(np.abs(synthesize(f, N).values) ** p) ** (1.0 / p))


def _nominal_grid_norm(f, p, oversample=8):
    """Oracle: the trapezoidal rule on the unrounded oversample*(2*bw+1) grid."""
    return _grid_norm(f, p, oversample * (2 * f.bandwidth + 1))


# 8*(2*4096+1) = 2^3*3*2731 and 8*(2*1028+1) = 2^3*11^2*17 are not 5-smooth.
@pytest.mark.parametrize("bw", [4096, 1028])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_lp_norm_matches_nominal_grid(bw, p):
    rng = np.random.default_rng(bw)
    noise = random_real_spectral(1, bw, rng)
    # lifted above zero, |f|^p is smooth and both grids converge to rounding
    lift = SpectralFunction.from_coeffs({0: 2.0 * float(np.sum(np.abs(noise.values)))})
    surface = random_real_spectral(2, 20, rng)
    lift_2d = SpectralFunction.from_coeffs({(0, 0): 2.0 * float(np.sum(np.abs(surface.values)))})
    for f in (
        noise + lift,
        surface + lift_2d,
        SpectralFunction.single(bw, 0.6 - 0.8j),
        SpectralFunction.single(-(bw // 3), 2j),
    ):
        assert lp_norm(f, p) == pytest.approx(_nominal_grid_norm(f, p), rel=1e-12)
    # Where f changes sign and p is not an even integer, |f|^p has kinks:
    # both grids then carry an algebraic quadrature error of the same order
    # (up to 3.5e-5 relative at p = 1.5 and 1.6e-6 at p = 3, measured
    # against a 128x grid), so they agree only to that order.
    tol = {1.5: 1e-4, 3.0: 1e-5, 4.0: 1e-12}[p]
    assert lp_norm(noise, p) == pytest.approx(_nominal_grid_norm(noise, p), rel=tol)


def _lp_norm_fresh_arrays(f, p, oversample=8):
    """Oracle: lp_norm's grid rule on arrays allocated for this call.

    An exactly Hermitian f is sampled by the real half-spectrum transform,
    any other f by ``synthesize``.
    """
    g = f.trimmed()
    N = _smooth_length(oversample * (2 * g.bandwidth + 1))
    if g.is_real_valued(tol=0.0):
        spec = np.zeros((N,) * g.dimension, dtype=complex)
        spectral.fold_into(g, spec)
        axes = tuple(range(g.dimension))
        vals = np.fft.irfftn(spec[..., : N // 2 + 1], s=spec.shape, axes=axes) * N**g.dimension
        return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))
    return _grid_norm(g, p, N)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_lp_norm_reused_grid_equals_fresh_arrays(p):
    rng = np.random.default_rng(int(10 * p))
    wide = random_real_spectral(1, 4096, rng)
    narrow = random_real_spectral(1, 40, rng)
    surface = random_real_spectral(2, 12, rng)
    # large and small grids alternate, and two functions of one bandwidth
    # follow each other, so a leftover spectrum or a stale shape would show
    for f in (
        wide, narrow, SpectralFunction.single(40, 0.3 - 2.0j), surface, narrow,
        SpectralFunction.single((12, -5), 1.5), surface, wide, surface,
        random_real_spectral(2, 2, rng), narrow,
    ):
        assert lp_norm(f, p) == _lp_norm_fresh_arrays(f, p)
        assert lp_norm(f, p, oversample=3) == _lp_norm_fresh_arrays(f, p, oversample=3)


def test_lp_norm_keeps_no_grid_above_the_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_KEEP_GRID", 2_000)
    rng = np.random.default_rng(33)
    small = random_real_spectral(1, 40, rng)  # 648 grid points
    wide = random_real_spectral(1, 200, rng)  # 3240 grid points
    surface = random_real_spectral(2, 3, rng)  # 60^2 grid points
    for f in (small, wide, small, surface, small, small, wide):
        assert lp_norm(f, 3.0) == _lp_norm_fresh_arrays(f, 3.0)
        assert (spectral._grid is not None) == (f is small)


@pytest.mark.parametrize("oversample", [8, 3])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_lp_norm_real_path_matches_complex_samples(fft_calls, oversample, p):
    rng = np.random.default_rng(int(100 * p) + oversample)
    for d, bw in ((1, 40), (2, 12)):
        f = random_real_spectral(d, bw, rng)
        N = _smooth_length(oversample * (2 * bw + 1))
        # oversample = 3 gives the odd lengths 243 and 75: the half spectrum
        # then has no Nyquist bin
        assert N % 2 == (oversample == 3)
        expected = _grid_norm(f, p, N)
        fft_calls.clear()
        assert lp_norm(f, p, oversample=oversample) == pytest.approx(expected, rel=1e-13)
        assert fft_calls == ["irfftn"]


def test_lp_norm_one_ulp_off_hermitian_takes_the_complex_path(fft_calls):
    f = random_real_spectral(1, 40, np.random.default_rng(8))
    vals = f.values.copy()
    vals[45] = complex(np.nextafter(vals[45].real, np.inf), vals[45].imag)
    near = SpectralFunction(1, 40, vals)
    assert f.is_real_valued(tol=0.0) and not near.is_real_valued(tol=0.0)
    expected = _lp_norm_fresh_arrays(near, 3.0)
    fft_calls.clear()
    assert lp_norm(near, 3.0) == expected
    assert lp_norm(f, 3.0) == pytest.approx(expected, rel=1e-13)
    assert fft_calls == ["ifftn", "irfftn"]


@pytest.mark.parametrize("d, bw", [(1, 40), (2, 6), (3, 2)])
def test_random_real_spectral_is_exactly_hermitian(d, bw):
    rng = np.random.default_rng(d)
    for normalize_p in (None, 3.0):
        v = random_real_spectral(d, bw, rng, normalize_p=normalize_p).values
        assert np.array_equal(v, np.conj(v[(slice(None, None, -1),) * d]))


def test_lp_norm_rejects_endpoints():
    f = SpectralFunction.single(1)
    for p in (1.0, 0.5, math.inf):
        with pytest.raises(SpectralError):
            lp_norm(f, p)
    with pytest.raises(SpectralError):
        lp_norm(f, 3.0, oversample=1)


def test_parseval_matches_quadrature():
    rng = np.random.default_rng(5)
    f = random_real_spectral(1, 128, rng)
    exact = lp_norm(f, 2.0)
    N = 4 * (2 * 128 + 1)
    vals = synthesize(f, N).values
    riemann = float(np.sqrt(np.mean(np.abs(vals) ** 2)))
    assert riemann == pytest.approx(exact, rel=1e-10)


def test_roundtrip_grid_transforms():
    rng = np.random.default_rng(9)
    for d, K in ((1, 16), (2, 5), (3, 2)):
        f = random_real_spectral(d, K, rng)
        back = analyze(synthesize(f, 2 * K + 2), K)
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12


def test_analyze_requires_nyquist():
    samples = synthesize(SpectralFunction.single(1), 8)
    with pytest.raises(SpectralError):
        analyze(samples, 4)


def test_partial_sum_examples():
    g = SpectralFunction.from_coeffs({1: 0.5, -1: 0.5})
    full = partial_sum(g, -5, 5)
    assert np.allclose(full.values, g.values)
    half = partial_sum(g, 0, 5)
    assert half.coeff(1) == pytest.approx(0.5)
    assert half.coeff(-1) == 0
    with pytest.raises(SpectralError):
        partial_sum(g, 3, 2)


def test_partial_sum_lp_bounded():
    # empirical probe of the multiplier bound with a fitted constant
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        g = random_real_spectral(1, 64, rng)
        ratio = lp_norm(partial_sum(g, 3, 17), 3.0, oversample=4) / lp_norm(
            g, 3.0, oversample=4
        )
        worst = max(worst, ratio)
    assert worst <= 4.0


def test_serialization_roundtrip_and_order():
    rng = np.random.default_rng(21)
    f = random_real_spectral(2, 3, rng)
    lines = f.to_lines()
    assert lines == sorted(lines, key=lambda s: tuple(int(t) for t in s.split()[:2]))
    back = SpectralFunction.from_lines(lines)
    assert back.dimension == 2
    assert np.max(np.abs((back - f).values)) == 0.0


def test_serialization_errors():
    with pytest.raises(SpectralError):
        SpectralFunction.from_lines(["1 2"])
    with pytest.raises(SpectralError):
        SpectralFunction.from_lines(["0 x 0.0 0.0"])
    with pytest.raises(SpectralError):
        SpectralFunction.from_lines([])
    empty = SpectralFunction.from_lines([], dimension=2)
    assert empty.dimension == 2 and empty.bandwidth == 0


def test_real_valued_flag():
    assert SpectralFunction.from_coeffs({1: 0.5, -1: 0.5}).is_real_valued()
    assert not SpectralFunction.from_coeffs({1: 0.5}).is_real_valued()
    rng = np.random.default_rng(2)
    assert random_real_spectral(2, 3, rng).is_real_valued()


def test_grid_samples_validation():
    with pytest.raises(SpectralError):
        GridSamples(1, 0, np.zeros(0, dtype=complex))
    with pytest.raises(SpectralError):
        GridSamples(2, 4, np.zeros((4, 5), dtype=complex))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_roundtrip_hypothesis(K, seed):
    rng = np.random.default_rng(seed)
    f = random_real_spectral(1, K, rng)
    back = analyze(synthesize(f, 2 * K + 2), K)
    assert np.max(np.abs(back.values - f.values)) < 1e-11 * max(1.0, np.max(np.abs(f.values)))
