import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translates import _alias, approximant
from translates._alias import (
    band_arrays,
    build_alias_profile,
    default_K_out,
    index_box,
    k_prime_array,
)
from translates.approximant import (
    ClassElement,
    ImagePlan,
    approximation_error,
    assemble_Qm,
    build_Hm,
    class_inner_product,
    default_K_gen,
    k_prime,
    kernel_section,
    quadrature_radius,
    spectral_image,
    vm_samples,
)
from translates.error_budget import epsilon_p2
from translates.sequences import (
    CoefficientSequence,
    CustomSequence,
    Exponential,
    Korobov,
    ProductSequence,
    TailRule,
    box_inv_tail,
    truncated,
)
from translates.spectral import SpectralFunction, evaluate_many, lp_norm, random_real_spectral

LAM2 = Korobov(2.0)


def unit_frequency(k):
    return SpectralFunction.single(k)


def test_k_prime_examples():
    assert k_prime(5, 2) == 0
    assert k_prime(7, 2) == 2
    assert k_prime(-4, 1) == -1


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=200))
@settings(max_examples=200, deadline=None)
def test_k_prime_characterization(k, m):
    kp = k_prime(k, m)
    assert -m <= kp <= m
    assert (k - kp) % (2 * m + 1) == 0


def test_build_Hm_examples():
    dirichlet = build_Hm(LAM2, LAM2, 3)
    assert np.allclose(dirichlet.values, 1.0)

    mixed = build_Hm(Korobov(1.0), Korobov(2.0), 2)
    assert [mixed.coeff(k).real for k in range(-2, 3)] == [2.0, 1.0, 1.0, 1.0, 2.0]

    exp_pair = build_Hm(Exponential(1.0), Exponential(1.0), 5)
    assert np.allclose(exp_pair.values, 1.0)


def test_vm_samples_examples():
    m = 3
    H = build_Hm(LAM2, LAM2, m)
    const = vm_samples(unit_frequency(0), H, m)
    assert np.allclose(const, 1.0)

    nodes = 2 * np.pi / (2 * m + 1) * np.arange(2 * m + 1)
    wave = vm_samples(unit_frequency(1), H, m)
    assert np.allclose(wave, np.exp(1j * nodes), atol=1e-13)


def test_vm_samples_direct_synthesis_oracle():
    rng = np.random.default_rng(4)
    g = random_real_spectral(1, 20, rng)
    m = 4
    H = build_Hm(LAM2, LAM2, m)
    got = vm_samples(g, H, m)
    nodes = 2 * np.pi / 9 * np.arange(9)
    direct = np.array(
        [
            sum(H.coeff(k) * g.coeff(k) * np.exp(1j * k * t) for k in range(-4, 5))
            for t in nodes
        ]
    )
    assert np.max(np.abs(got - direct)) <= 1e-11 * np.max(np.abs(direct))


def test_assemble_weights_examples():
    const = ClassElement(Korobov(2.0), unit_frequency(0))
    A = assemble_Qm(const, Korobov(2.0), 1, K_gen=10)
    assert np.allclose(A.weights, 1.0 / 3.0)

    wave = ClassElement(LAM2, unit_frequency(1))
    A2 = assemble_Qm(wave, LAM2, 2, K_gen=20)
    expect = np.exp(1j * 2 * np.pi / 5 * np.arange(5)) / 5.0
    assert np.max(np.abs(A2.weights - expect)) < 1e-14
    assert A2.n_translates == 5
    assert A2.delta == pytest.approx(2 * np.pi / 5)


def test_assemble_validates_K_gen():
    elem = ClassElement(LAM2, unit_frequency(1))
    with pytest.raises(ValueError):
        assemble_Qm(elem, LAM2, 5, K_gen=3)


def test_one_off_quadrature_takes_the_sweep_radius(monkeypatch):
    lam, m, bw = Korobov(1.0), 4, 8
    g = random_real_spectral(1, bw, np.random.default_rng(3), normalize_p=3.0)
    elem = ClassElement(lam, g, 3.0)
    radii, plan = [], approximant.ImagePlan

    def recording_plan(lam_, beta_, m_, K_out):
        radii.append(K_out)
        if K_out > 4096:  # default_K_out here is 2^21: a grid of gigabytes
            raise MemoryError(f"one-off plan at radius {K_out}")
        return plan(lam_, beta_, m_, K_out)

    monkeypatch.setattr(approximant, "ImagePlan", recording_plan)
    got = approximation_error(elem, lam, m, method="quadrature")
    assert default_K_out(lam, lam, m) == 2**21
    assert radii == [quadrature_radius(2**21, 3.0, m, bw)] == [4096]
    assert got == approximation_error(elem, lam, m, method="quadrature", K_out=4096)


def test_default_K_gen_policies():
    assert default_K_gen(Korobov(2.0), 4) == 1000
    assert default_K_gen(Korobov(2.0), 100) == 5000
    K = default_K_gen(Exponential(0.5), 4)
    assert Exponential(0.5).inv_tail(K, 1) < 1e-10
    assert default_K_gen(truncated(Korobov(2.0), 12), 4) == 12


def test_spectral_image_hand_expansion():
    elem = ClassElement(LAM2, unit_frequency(1))
    img = spectral_image(elem, LAM2, 1, K_out=40).function
    assert img.coeff(1) == pytest.approx(1.0)
    for k in range(-40, 41):
        expect = 0.0
        if k == 1:
            expect = 1.0
        elif abs(k) > 1 and (k - 1) % 3 == 0:
            expect = 1.0 / k**2
        assert img.coeff(k) == pytest.approx(expect, abs=1e-15), k


def test_spectral_image_exact_on_band_and_zero():
    rng = np.random.default_rng(8)
    g = random_real_spectral(1, 4, rng)
    elem = ClassElement(LAM2, g)
    bt = truncated(LAM2, 4)
    img = spectral_image(elem, bt, 4, K_out=60)
    diff = img.function - elem.target_spectral()
    assert np.max(np.abs(diff.values)) == 0.0
    assert img.tail_bound == 0.0

    zero = ClassElement(LAM2, SpectralFunction.zero(1, 3))
    img0 = spectral_image(zero, LAM2, 2, K_out=20).function
    assert np.all(img0.values == 0)


def test_evaluate_approximant_examples():
    elem = ClassElement(LAM2, unit_frequency(1))
    A = assemble_Qm(elem, LAM2, 2, K_gen=30)
    zeroed = assemble_Qm(ClassElement(LAM2, SpectralFunction.zero(1, 2)), LAM2, 2, K_gen=30)
    assert np.allclose(zeroed.evaluate(np.linspace(0, 6, 5)), 0.0)

    # single node with unit weight evaluates the truncated generator at 0
    from translates.approximant import TranslateApproximant

    weights = np.array([1.0, 0.0, 0.0], dtype=complex)
    single = TranslateApproximant(Korobov(2.0), 1, weights, K_gen=25)
    single_val = single.evaluate(np.array([0.0]))[0]
    ks = np.arange(-25, 26)
    phi0 = np.sum(Korobov(2.0).inv_values(ks))
    assert single_val == pytest.approx(phi0, rel=1e-12)
    assert A.evaluation_tail_bound() > 0


def test_cross_path_consistency():
    rng = np.random.default_rng(12)
    lam = Korobov(3.0)
    g = random_real_spectral(1, 8, rng)
    elem = ClassElement(lam, g)
    A = assemble_Qm(elem, lam, 8, K_gen=400)
    xs = rng.uniform(0, 2 * np.pi, 64)
    img = spectral_image(elem, lam, 8, K_out=400).function
    direct = A.evaluate(xs)
    synth = evaluate_many(img, xs)
    tol = 1e-8 + A.evaluation_tail_bound()
    assert np.max(np.abs(direct - synth)) <= tol
    # real element: reconstruction stays numerically real
    assert np.max(np.abs(direct.imag)) <= 1e-10


def test_cross_path_sweep_invariant():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = int(rng.integers(2, 17))
        bw = int(rng.integers(1, 33))
        r = float(rng.uniform(2.0, 3.5))
        lam = Korobov(r)
        g = random_real_spectral(1, bw, rng)
        elem = ClassElement(lam, g)
        K_gen = max(60 * m, 1200)
        A = assemble_Qm(elem, lam, m, K_gen=K_gen)
        img = spectral_image(elem, lam, m, K_out=K_gen).function
        xs = rng.uniform(0, 2 * np.pi, 16)
        tol = 1e-8 + A.evaluation_tail_bound()
        assert np.max(np.abs(A.evaluate(xs) - evaluate_many(img, xs))) <= tol


def test_linearity():
    rng = np.random.default_rng(23)
    lam = Korobov(2.0)
    m = 5
    g1 = random_real_spectral(1, 7, rng)
    g2 = random_real_spectral(1, 7, rng)
    a, b = rng.standard_normal(2)
    combo = ClassElement(lam, (a * g1) + (b * g2))
    img_combo = spectral_image(combo, lam, m, K_out=80).function
    img1 = spectral_image(ClassElement(lam, g1), lam, m, K_out=80).function
    img2 = spectral_image(ClassElement(lam, g2), lam, m, K_out=80).function
    lin = (a * img1) + (b * img2)
    scale = np.max(np.abs(lin.values))
    assert np.max(np.abs((img_combo - lin).values)) <= 1e-12 * scale

    w_combo = assemble_Qm(combo, lam, m, K_gen=60).weights
    w1 = assemble_Qm(ClassElement(lam, g1), lam, m, K_gen=60).weights
    w2 = assemble_Qm(ClassElement(lam, g2), lam, m, K_gen=60).weights
    assert np.max(np.abs(w_combo - (a * w1 + b * w2))) <= 1e-12 * np.max(np.abs(w_combo))


FROZEN_WAVE_ERROR = 0.26260468099432  # sum of k^-4 over k = 1 mod 3, |k| > 1


def test_error_series_oracle_two_routes():
    elem = ClassElement(LAM2, unit_frequency(1))
    # independent oracle: direct series summation to 1e6
    ks = np.arange(2.0, 1e6)
    keep = (ks % 3 == 1) | (ks % 3 == 2)  # k and |negative k| residues
    series = math.sqrt(float(np.sum(np.where(keep, ks**-4.0, 0.0))))
    assert series == pytest.approx(FROZEN_WAVE_ERROR, abs=1e-11)

    par = approximation_error(elem, LAM2, 1, 2.0, "parseval_oracle", K_out=10**6)
    quad = approximation_error(elem, LAM2, 1, 2.0, "quadrature", K_out=4096)
    assert par == pytest.approx(series, rel=1e-9)
    assert quad == pytest.approx(par, rel=1e-6)


def test_error_oracle_equivalence_shared_truncation():
    rng = np.random.default_rng(31)
    elem = ClassElement(LAM2, random_real_spectral(1, 12, rng))
    K = 2048
    par = approximation_error(elem, LAM2, 4, 2.0, "parseval_oracle", K_out=K)
    quad = approximation_error(elem, LAM2, 4, 2.0, "quadrature", K_out=K)
    assert abs(par - quad) <= 1e-8 * par


def test_error_exact_reproduction():
    rng = np.random.default_rng(41)
    g = random_real_spectral(1, 6, rng)
    err = approximation_error(ClassElement(LAM2, g), truncated(LAM2, 6), 6, 2.0,
                              "parseval_oracle", K_out=500)
    assert err == 0.0


def test_error_validation():
    elem = ClassElement(LAM2, unit_frequency(1))
    with pytest.raises(ValueError):
        approximation_error(elem, LAM2, 2, 3.0, "parseval_oracle")
    with pytest.raises(ValueError):
        approximation_error(elem, LAM2, 2, 1.0)
    with pytest.raises(ValueError):
        approximation_error(elem, LAM2, 2, 2.0, "bogus")


def test_error_monotone_with_budget_ratio():
    rng = np.random.default_rng(51)
    for r in (1.0, 2.0, 3.0):
        lam = Korobov(r)
        g = random_real_spectral(1, 8, rng)
        errs = []
        for m in (8, 16, 32, 64):
            prof = build_alias_profile(lam, lam, m, K_out=max(10**5, 64 * m))
            errs.append(prof.element_error(g))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        for a, b in zip(errs, errs[1:]):
            ratio = b / a
            assert 2.0**-r / 2 <= ratio <= 2.0**-r * 2


def test_profile_matches_direct_parseval():
    rng = np.random.default_rng(61)
    lam = Korobov(2.0)
    for bw, m in ((20, 4), (5, 8), (33, 16)):
        g = random_real_spectral(1, bw, rng)
        elem = ClassElement(lam, g)
        K = default_K_out(lam, lam, m)
        prof = build_alias_profile(lam, lam, m, K_out=K)
        direct = approximation_error(elem, lam, m, 2.0, "parseval_oracle", K_out=prof.K_out)
        assert prof.element_error(g) == pytest.approx(direct, rel=1e-12)


def _profile_one_array(lam, beta, m, K_out):
    """Oracle: each side's alias sums as one reduction over all T block rows."""
    n = 2 * m + 1
    T = max(1, -(-(K_out - m) // n))
    blocks, jp = (n * np.arange(1, T + 1))[:, None], np.arange(-m, m + 1)[None, :]
    pos = np.sum(np.abs(np.asarray(beta.inv_values(blocks + jp))) ** 2, axis=0)
    neg = np.sum(np.abs(np.asarray(beta.inv_values(-blocks + jp))) ** 2, axis=0)
    _, _, alpha = band_arrays(lam, beta, m)
    return np.abs(alpha) ** 2 * (pos + neg)


# complex and lopsided out to |k| = 40, past the first alias blocks of m <= 3
_ASYM = CustomSequence(
    {k: (1 + abs(k)) ** 1.5 * (1 + 0.1 * (k % 3) + 0.3j * (k > 0)) for k in range(-40, 41)},
    TailRule("power", rate=1.5),
)


class _Undeclared(CoefficientSequence):
    """Lopsided reciprocals (1 + |k|)^-1.5, doubled for k > 0, from a
    subclass that does not override ``symmetric``."""

    def _axis_inv_values(self, k):
        k = np.asarray(k, dtype=float)
        return np.where(k > 0, 2.0, 1.0) * (1.0 + np.abs(k)) ** -1.5

    def _axis_values(self, k):
        return 1.0 / self._axis_inv_values(k)

    def tail_rule(self):
        return TailRule("power", rate=1.5, scale=0.5)


@pytest.mark.parametrize(
    "lam, beta, m, K_out",
    [
        (Korobov(1.0), Korobov(1.0), 4, 4),  # T = 1
        (Korobov(1.0), Korobov(1.0), 4, 2**19),  # 17 blocks, the last one partial
        (Korobov(2.0), Korobov(1.0), 7, 100_003),  # lam != beta
        (Korobov(1.0), Exponential(0.01), 300, 3 * 10**5),  # wide band, few rows a block
        (_ASYM, _ASYM, 3, 70_000),  # asymmetric complex table: both sides evaluated
        (Korobov(1.0), _ASYM, 2, 12_345),
        (Korobov(1.0), _Undeclared(), 3, 20_000),  # symmetry not declared: both sides
    ],
)
def test_streamed_profile_equals_one_array_sum(lam, beta, m, K_out):
    prof = build_alias_profile(lam, beta, m, K_out=K_out)
    want = _profile_one_array(lam, beta, m, K_out)
    assert prof.sq_profile.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_streamed_profile_with_one_row_blocks(monkeypatch):
    # blocks smaller than a row: every row is its own block and the carry
    # row does all the adding
    from test_error_budget import _brute_block_sum

    monkeypatch.setattr(_alias, "_BLOCK", 5)
    for beta in (Korobov(1.5), _ASYM):
        prof = build_alias_profile(Korobov(1.0), beta, 3, K_out=2_000)
        want = _profile_one_array(Korobov(1.0), beta, 3, 2_000)
        assert prof.sq_profile.view(np.int64).tolist() == want.view(np.int64).tolist()
        # the p = 2 budget walks the same blocks
        rep = epsilon_p2(Korobov(1.0), beta, 3)
        gamma, tail = rep.components["gamma_sum_term"], rep.tail_bound
        lo, hi = _brute_block_sum(Korobov(1.0), beta, 3)
        assert gamma**2 <= hi and lo <= (gamma + tail) ** 2


def test_symmetric_profile_evaluates_one_side(monkeypatch):
    counted = []
    inv_values = Korobov.inv_values

    def counting(self, k):
        counted.append(np.asarray(k).copy())
        return inv_values(self, k)

    monkeypatch.setattr(Korobov, "inv_values", counting)
    m, K_out = 5, 10_000
    build_alias_profile(Korobov(1.0), Korobov(1.0), m, K_out=K_out)
    n = 2 * m + 1
    T = -(-(K_out - m) // n)
    alias = np.concatenate([k.ravel() for k in counted if k.ndim == 2])
    assert alias.size == T * n and np.all(alias > m)


def test_element_error_keeps_one_plan_per_bandwidth():
    rng = np.random.default_rng(62)
    lam, m = Korobov(2.0), 4
    prof = build_alias_profile(lam, lam, m, K_out=5_000)
    plans = []
    for bw in (20, 20, 9, 9, 20):
        g = random_real_spectral(1, bw, rng)
        err = prof.element_error(g)
        # a new profile builds the plan for this source alone
        assert err == build_alias_profile(lam, lam, m, K_out=5_000).element_error(g)
        plans.append(prof._plan._source[0])
    assert plans[0] is plans[1] and plans[2] is plans[3]
    assert [p.K_out for p in plans] == [20, 20, 9, 9, 20]


def test_class_element_norm_and_target():
    rng = np.random.default_rng(71)
    g = random_real_spectral(1, 5, rng, normalize_p=2.0)
    elem = ClassElement(LAM2, g, p=2.0)
    assert elem.class_norm() == pytest.approx(1.0, rel=1e-12)
    target = elem.target_spectral()
    for k in range(-5, 6):
        assert target.coeff(k) == pytest.approx(g.coeff(k) / max(abs(k), 1) ** 2)
    with pytest.raises(ValueError):
        ClassElement(LAM2, g, p=1.0)


def test_aliasing_identity_spot():
    rng = np.random.default_rng(81)
    for m in (1, 4, 8):
        n = 2 * m + 1
        ls = 2 * np.pi * np.arange(n) / n
        for _ in range(10):
            k = int(rng.integers(-50, 51))
            s = int(rng.integers(-m, m + 1))
            t = float(rng.uniform(0, 2 * np.pi))
            lhs = np.mean(np.exp(1j * k * (t - ls)) * np.exp(1j * s * (ls - t)))
            if (k - s) % n == 0:
                expect = np.exp(1j * (k - k_prime(k, m)) * t)
            else:
                expect = 0.0
            assert abs(lhs - expect) <= 1e-12


def test_reproducing_kernel_identity():
    rng = np.random.default_rng(91)
    lam = Korobov(1.5)
    f = random_real_spectral(1, 9, rng)
    for x in rng.uniform(0, 2 * np.pi, 5):
        section = kernel_section(lam, x, 9)
        ip = class_inner_product(f, section, lam)
        direct = complex(evaluate_many(f, np.array([x]))[0])
        assert abs(ip - direct) <= 1e-10 * max(1.0, abs(direct))


def test_kernel_section_is_generator_translate():
    # the kernel section equals the squared-sequence generator shifted to x
    lam = Korobov(2.0)
    x = 0.9
    section = kernel_section(lam, x, 6)
    ks = np.arange(-6, 7)
    expect = lam.inv_values(ks) ** 2 * np.exp(-1j * ks * x)
    assert np.allclose(section.values, expect, rtol=1e-14)


# ---------------------------------------------------------------------------
# ImagePlan against the coefficient-by-coefficient image


def _lookup(g, ks):
    """Coefficients of g at the indices ks (shape (N,) or (N, d)), zero outside its box."""
    ks = ks.reshape(-1, g.dimension)
    ok = np.all(np.abs(ks) <= g.radius, axis=1)
    out = np.zeros(len(ks), dtype=complex)
    out[ok] = g.values[tuple((ks[ok] + g.radius).T)]
    return out


def _direct(elem, beta, m, K):
    """Image values, tail bound and the two errors, one coefficient at a time.

    Off the band the image is gamma_k ghat(k') with gamma_k = alpha_{k'}
    beta_k^{-1}, evaluated at each k; on it lambda_k^{-1} ghat(k).
    """
    lam, g, d = elem.lam, elem.g, elem.dimension
    ks = np.arange(-K, K + 1) if d == 1 else index_box(K, d)
    kp = k_prime_array(ks, m)
    alpha = np.asarray(lam.inv_values(kp)) / np.asarray(beta.inv_values(kp))
    gamma = alpha * np.asarray(beta.inv_values(ks))
    vals = gamma * _lookup(g, kp)
    inner = np.max(np.abs(ks.reshape(-1, d)), axis=1) <= m
    vals[inner] = np.asarray(lam.inv_values(ks[inner])) * _lookup(g, ks[inner])
    band = np.arange(-m, m + 1) if d == 1 else index_box(m, d)
    alpha_max = float(np.max(np.abs(np.asarray(lam.inv_values(band)) / beta.inv_values(band))))
    tail = alpha_max * math.sqrt(box_inv_tail(beta, K, 2)) * float(np.max(np.abs(g.values)))
    img = SpectralFunction(d, K, vals.reshape((2 * K + 1,) * d))
    outer = ~inner
    diff = gamma[outer] * _lookup(g, kp[outer]) - np.asarray(
        lam.inv_values(ks[outer])
    ) * _lookup(g, ks[outer])
    quad = lp_norm(img - elem.target_spectral(), 2.0)
    return img.values, tail, float(np.linalg.norm(diff)), quad


def _regrouped(direct):
    """The p = 2 errors sum the direct coefficient differences regrouped by
    residue classes (``ImagePlan.error_sq``), so they may differ from
    ``_direct`` in the last bits."""
    return pytest.approx(direct, rel=1e-13)


CPLX = CustomSequence(
    {k: max(abs(k), 1) ** 2 * complex(np.exp(0.3j * k)) for k in range(-6, 7)},
    TailRule("power", rate=2.0),
)


@pytest.mark.parametrize(
    "lam, beta, m, K, bw",
    [
        (LAM2, LAM2, 3, 10, 25),  # source wider than K_out
        (LAM2, Korobov(3.0), 4, 4, 9),  # explicit K_out == m
        (LAM2, CPLX, 3, 40, 6),  # complex generator sequence
        (Korobov(2.0, 2), ProductSequence((CPLX, Korobov(2.0))), 2, 9, 4),  # complex factor, d = 2
        (Korobov(2.0, 2), Korobov(2.0, 2), 3, 3, 5),  # d = 2, K_out == m, wider source
    ],
)
def test_plan_matches_direct_image(lam, beta, m, K, bw):
    rng = np.random.default_rng(bw)
    d = lam.dimension
    for g in (random_real_spectral(d, bw, rng), SpectralFunction.single((m,) * d)):
        elem = ClassElement(lam, g)
        vals, tail, par, quad = _direct(elem, beta, m, K)
        img = spectral_image(elem, beta, m, K_out=K)
        assert np.array_equal(img.function.values, vals)
        assert img.tail_bound == tail
        assert approximation_error(elem, beta, m, 2.0, "parseval_oracle", K_out=K) == _regrouped(par)
        assert approximation_error(elem, beta, m, 2.0, "quadrature", K_out=K) == _regrouped(quad)
        plan = ImagePlan(lam, beta, m, K)  # a shared plan gives the same numbers
        assert np.array_equal(spectral_image(elem, beta, m, plan=plan).function.values, vals)
        assert approximation_error(elem, beta, m, 2.0, "parseval_oracle", plan=plan) == _regrouped(par)
        assert approximation_error(elem, beta, m, 2.0, "quadrature", K_out=K, plan=plan) == _regrouped(quad)
    if beta is CPLX or isinstance(beta, ProductSequence):
        assert np.max(np.abs(img.function.values.imag)) > 0.01


_FOLD_PAIRS = [
    (LAM2, LAM2, 3),
    (LAM2, Korobov(3.0), 4),  # lam != beta
    (Korobov(1.0), Exponential(0.5), 2),
    (LAM2, CPLX, 3),  # complex generator sequence
    (Korobov(2.0, 2), ProductSequence((CPLX, Korobov(2.0))), 2),  # d = 2 product pair
]


@given(
    pair=st.sampled_from(_FOLD_PAIRS),
    extra=st.integers(0, 10),
    bw=st.integers(0, 12),
    single=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_p2_errors_match_the_direct_sum(pair, extra, bw, single, seed):
    # both methods, on a shared plan and on a one-off plan, for random
    # sources and single frequencies, inside, on and past K_out = m + extra
    lam, beta, m = pair
    d, K, rng = lam.dimension, m + extra, np.random.default_rng(seed)
    if single:
        g = SpectralFunction.single(tuple(rng.integers(-bw, bw + 1, size=d)), dimension=d)
    else:
        g = random_real_spectral(d, bw, rng)
    elem = ClassElement(lam, g)
    _, _, par, quad = _direct(elem, beta, m, K)
    plan = ImagePlan(lam, beta, m, K)
    for kwargs in ({"plan": plan}, {"K_out": K}):
        assert approximation_error(elem, beta, m, 2.0, "parseval_oracle", **kwargs) == _regrouped(par)
        assert approximation_error(elem, beta, m, 2.0, "quadrature", **kwargs) == _regrouped(quad)
    if g.bandwidth > K:  # the target beyond K_out counts for the quadrature only
        assert quad > par


def _box_fold(lam, beta, m, K):
    """Per-residue sums of |gamma_k|^2 off the band, one bincount over the
    whole box |k|_inf <= K."""
    d, n = lam.dimension, 2 * m + 1
    ks = index_box(K, d)
    kp = k_prime_array(ks, m)
    gamma = np.asarray(lam.inv_values(kp)) / beta.inv_values(kp) * beta.inv_values(ks)
    outer = np.max(np.abs(ks.reshape(-1, d)), axis=1) > m
    index = np.ravel_multi_index(tuple((kp.reshape(-1, d) + m).T), (n,) * d)
    return np.bincount(index[outer], np.abs(gamma[outer]) ** 2, minlength=n**d).reshape((n,) * d)


_CUT_PAIRS = [
    (LAM2, Korobov(3.0)),  # lam != beta
    (LAM2, CPLX),  # complex generator sequence
    (Korobov(1.0), _ASYM),  # lopsided, complex: both sides walked
    (Korobov(2.0, 2), ProductSequence((CPLX, Korobov(2.0)))),  # d = 2, a complex factor
]


@given(
    pair=st.sampled_from(_CUT_PAIRS),
    m=st.integers(1, 4),
    blocks=st.integers(1, 4),
    cut=st.sampled_from(["m", "m + 1", "mid-block", "whole block"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cut_fold_matches_the_box_bincount(pair, m, blocks, cut, data):
    # the block walk cut at any radius K, as an image plan of a product pair
    # takes it, against one bincount over the box; the box is never built
    lam, beta = pair
    n = 2 * m + 1
    K = {
        "m": m,
        "m + 1": m + 1,
        "mid-block": n * blocks + data.draw(st.integers(-m, m - 1)),
        "whole block": n * blocks + m,
    }[cut]
    plan = ImagePlan(lam, beta, m, K)
    np.testing.assert_allclose(plan.fold, _box_fold(lam, beta, m, K), rtol=1e-13, atol=0)
    assert np.array_equal(plan.fold, _alias.alias_fold(lam, beta, m, K)[0])
    assert "gamma" not in vars(plan)


def test_plan_rejects_other_parameters():
    elem = ClassElement(LAM2, unit_frequency(1))
    plan = ImagePlan(LAM2, LAM2, 3, 30)
    for kwargs in ({"m": 4}, {"K_out": 31}, {"beta": Korobov(3.0)}):
        args = {"m": 3, "K_out": 30, "beta": LAM2, **kwargs}
        with pytest.raises(ValueError):
            spectral_image(elem, args["beta"], args["m"], K_out=args["K_out"], plan=plan)
    with pytest.raises(ValueError):
        ImagePlan(LAM2, LAM2, 3, 2)
