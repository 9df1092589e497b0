import numpy as np
import pytest

from translates._alias import (
    build_alias_profile,
    index_box,
    k_prime_array,
    md_single_frequency_errors_sq,
)
from translates.approximant import (
    ClassElement,
    ImagePlan,
    TranslateApproximant,
    approximation_error,
    assemble_Qm,
    build_Hm,
    spectral_image,
    vm_samples,
)
from translates.sequences import (
    CustomSequence,
    Exponential,
    Korobov,
    ProductSequence,
    SequenceError,
    TailRule,
    truncated,
)
from translates.spectral import SpectralFunction, convolve, evaluate_many, random_real_spectral

LAM2D = Korobov(2.0, dimension=2)


def test_k_prime_md_examples():
    assert tuple(k_prime_array((5, 7), 2)) == (0, 2)
    assert tuple(k_prime_array((0, 0), 3)) == (0, 0)
    assert tuple(k_prime_array((-4, 3), 1)) == (-1, 0)


def test_window_nodes_and_count():
    w = TranslateApproximant(LAM2D, 1, np.zeros((3, 3)), 1, dimension=2)
    assert w.n_translates == 9
    nodes = w.nodes()
    assert nodes.shape == (9, 2)
    # lexicographic enumeration: l = (0,0), (0,1), (0,2), (1,0), ...
    assert np.allclose(nodes[0], 0.0)
    assert np.allclose(nodes[1], [0.0, w.delta])
    assert np.allclose(nodes[3], [w.delta, 0.0])
    lam3 = Korobov(2.0, dimension=3)
    with pytest.raises(ValueError):
        assemble_Qm(ClassElement(lam3, SpectralFunction.single((0, 0, 0))), lam3, 2000)


def test_build_Hm_md_examples():
    same = build_Hm(LAM2D, LAM2D, 1)
    assert same.values.shape == (3, 3)
    assert np.allclose(same.values, 1.0)

    mixed = build_Hm(Korobov(1.0, dimension=2), Korobov(2.0, dimension=2), 1)
    assert mixed.coeff((1, 1)) == pytest.approx(1.0)  # (1*1)^2/(1*1)
    assert mixed.coeff((1, 0)) == pytest.approx(1.0)

    one_d = build_Hm(Korobov(2.0), Korobov(2.0), 3)
    assert one_d.dimension == 1 and np.allclose(one_d.values, 1.0)


def test_vm_samples_md_direct_synthesis_oracle():
    rng = np.random.default_rng(21)
    g = random_real_spectral(2, 5, rng)  # wider than the band, so products fold
    m = 2
    H = build_Hm(Korobov(1.0, dimension=2), LAM2D, m)
    got = vm_samples(g, H, m)
    assert got.shape == (5, 5)
    nodes = TranslateApproximant(LAM2D, m, got, m, dimension=2).nodes()
    direct = evaluate_many(convolve(H, g), nodes).reshape(5, 5)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_assemble_md_examples():
    const = ClassElement(LAM2D, SpectralFunction.single((0, 0)))
    A = assemble_Qm(const, LAM2D, 1, K_gen=6)
    assert A.weights.shape == (3, 3)
    assert np.allclose(A.weights, 1.0 / 9.0)

    wave = ClassElement(LAM2D, SpectralFunction.single((1, 1)))
    A2 = assemble_Qm(wave, LAM2D, 2, K_gen=8)
    d = 2 * np.pi / 5
    l = np.arange(5)
    expect = np.exp(1j * d * (l[:, None] + l[None, :])) / 25.0
    assert np.max(np.abs(A2.weights - expect)) < 1e-14
    assert A2.n_translates == 25


def test_node_count_law():
    rng = np.random.default_rng(5)
    for d, m in ((1, 3), (2, 2), (3, 1)):
        lam = Korobov(2.0, dimension=d)
        g = random_real_spectral(d, 1, rng)
        A = assemble_Qm(ClassElement(lam, g), lam, m, K_gen=max(4, m))
        assert A.weights.size == (2 * m + 1) ** d


def test_memory_guard():
    lam = Korobov(2.0, dimension=3)
    g = SpectralFunction.single((0, 0, 0))
    with pytest.raises(ValueError):
        assemble_Qm(ClassElement(lam, g), lam, 120, K_gen=200)


def test_coefficient_guard_bounds_the_box_not_the_radius():
    # at K_out = 4192 in d = 2 a box would hold 8385^2 coefficients, past the
    # guard; a p = 2 error reads the fold and the source's own box (radius 64)
    m, K_out = 32, 65 * 64 + 32
    g = random_real_spectral(2, 64, np.random.default_rng(1))
    prof = build_alias_profile(LAM2D, LAM2D, m, K_out=K_out)
    assert prof.K_out == K_out
    err = prof.element_error(g)
    assert err == pytest.approx(0.0136687564449298, rel=1e-13)
    assert approximation_error(ClassElement(LAM2D, g), LAM2D, m, 2.0, K_out=K_out) == err
    with pytest.raises(ValueError, match="coefficient guard"):
        spectral_image(ClassElement(LAM2D, g), LAM2D, m, K_out=K_out)
    with pytest.raises(ValueError, match="coefficient guard"):
        ImagePlan(LAM2D, LAM2D, m, K_out).coefficients(g)


def test_spectral_image_md_kernel_oracle():
    # brute-force check: image coefficients equal the translate-sum coefficients
    rng = np.random.default_rng(3)
    g = random_real_spectral(2, 4, rng)
    elem = ClassElement(LAM2D, g)
    m = 4
    A = assemble_Qm(elem, LAM2D, m, K_gen=11)
    img = spectral_image(elem, LAM2D, m, K_out=11).function
    phi = A.generator()
    nodes = A.nodes()
    ks = [(-11, 3), (-5, -5), (0, 0), (2, 2), (7, 1), (9, -9), (4, 0)]
    for k in ks:
        phase = np.exp(-1j * (nodes @ np.array(k)))
        brute = phi.coeff(k) * (A.weights.ravel() @ phase)
        assert abs(brute - img.coeff(k)) <= 1e-9


def test_md_error_examples():
    # box-band-limited g with box-polynomial beta reproduces exactly
    rng = np.random.default_rng(9)
    g = random_real_spectral(2, 2, rng)
    bt = ProductSequence((truncated(Korobov(2.0), 2), truncated(Korobov(2.0), 2)))
    err = approximation_error(ClassElement(LAM2D, g), bt, 2, 2.0,
                              "parseval_oracle", K_out=20)
    assert err == 0.0

    # dual oracle for the diagonal wave
    wave = ClassElement(LAM2D, SpectralFunction.single((1, 1)))
    got = approximation_error(wave, LAM2D, 1, 2.0, "parseval_oracle", K_out=64)
    quad = approximation_error(wave, LAM2D, 1, 2.0, "quadrature", K_out=64)
    # independent series: coefficients gamma_k at k = (1,1) mod 3, |k|_inf > 1
    total = 0.0
    for k1 in range(-64, 65):
        for k2 in range(-64, 65):
            if max(abs(k1), abs(k2)) <= 1 or (k1 - 1) % 3 or (k2 - 1) % 3:
                continue
            total += (max(abs(k1), 1) * max(abs(k2), 1)) ** -4.0
    series = np.sqrt(total)
    assert got == pytest.approx(series, rel=1e-10)
    assert quad == pytest.approx(got, rel=1e-6)


# lopsided and complex out to |k| = 40: a factor that is not symmetric
_ASYM = CustomSequence(
    {k: (1 + abs(k)) ** 1.5 * (1 + 0.1 * (k % 3) + 0.3j * (k > 0)) for k in range(-40, 41)},
    TailRule("power", rate=1.5),
)


def _brute_profile(lam, beta, m, T):
    """Oracle: the d = 2 alias sums over the blocks 0 < |t|_inf <= T, each
    term from the pair's own multivariate values."""
    n = 2 * m + 1
    band = index_box(m, 2)
    blocks = index_box(T, 2)
    blocks = blocks[np.any(blocks != 0, axis=1)]
    freqs = (band[:, None, :] + n * blocks[None, :, :]).reshape(-1, 2)
    terms = np.abs(np.asarray(beta.inv_values(freqs))).reshape(band.shape[0], -1) ** 2
    alpha = np.asarray(lam.inv_values(band)) / np.asarray(beta.inv_values(band))
    return (np.abs(alpha) ** 2 * np.sum(terms, axis=1)).reshape(n, n)


@pytest.mark.parametrize(
    "lam, beta, m, T",
    [
        (LAM2D, LAM2D, 2, 6),
        (LAM2D, LAM2D, 16, 4),  # small alias sums next to the t = 0 block
        (Korobov(0.75, dimension=2), Korobov(0.75, dimension=2), 3, 5),
        # lam != beta, with an asymmetric complex factor on either axis
        (
            ProductSequence((Korobov(2.0), Korobov(1.0))),
            ProductSequence((Korobov(1.5), _ASYM)),
            2,
            6,
        ),
        (
            ProductSequence((Korobov(1.0), Exponential(0.5))),
            ProductSequence((_ASYM, Korobov(2.0))),
            9,
            3,
        ),
    ],
)
def test_d2_profile_matches_brute_force(lam, beta, m, T):
    prof = build_alias_profile(lam, beta, m, K_out=(2 * m + 1) * T + m)
    assert prof.K_out == (2 * m + 1) * T + m
    want = _brute_profile(lam, beta, m, T)
    np.testing.assert_allclose(prof.sq_profile, want, rtol=1e-12, atol=0)
    assert np.array_equal(md_single_frequency_errors_sq(lam, beta, m, T=T), prof.sq_profile)


def test_d2_element_error_matches_the_plan():
    rng = np.random.default_rng(17)
    lam = ProductSequence((Korobov(2.0), Korobov(1.0)))
    beta = ProductSequence((Korobov(1.5), _ASYM))
    m = 3
    prof = build_alias_profile(lam, beta, m, K_out=40)
    plan = ImagePlan(lam, beta, m, prof.K_out)
    for bw in (2, 3, 9, 9):  # inside the band, on its edge, past it (twice: the kept plan)
        g = random_real_spectral(2, bw, rng)
        diff = spectral_image(ClassElement(lam, g), beta, m, plan=plan).function
        diff = (diff - ClassElement(lam, g).target_spectral()).padded(plan.K_out)
        want = float(np.linalg.norm(diff.values.ravel()[plan.outer]))  # the box norm
        assert prof.element_error(g) == pytest.approx(want, rel=1e-12)
    with pytest.raises(SequenceError):
        prof.element_error(random_real_spectral(1, 2, rng))


@pytest.mark.parametrize(
    "lam, beta",
    [
        (LAM2D, LAM2D),
        (Korobov(1.0, dimension=2), ProductSequence((Korobov(0.75), Exponential(0.5)))),
    ],
)
def test_d2_profile_is_mirror_symmetric(lam, beta):
    sq = build_alias_profile(lam, beta, 5, K_out=2_000).sq_profile
    for axis in (0, 1):
        assert np.flip(sq, axis).view(np.int64).tolist() == sq.view(np.int64).tolist()


def test_tensor_product_consistency():
    rng = np.random.default_rng(13)
    lam1, lam2 = Korobov(2.0), Korobov(1.5)
    lam = ProductSequence((lam1, lam2))
    g1 = random_real_spectral(1, 3, rng)
    g2 = random_real_spectral(1, 3, rng)
    tensor_vals = np.multiply.outer(g1.padded(3).values, g2.padded(3).values)
    g = SpectralFunction(2, 3, tensor_vals)
    m, K = 4, 24
    img = spectral_image(ClassElement(lam, g), lam, m, K_out=K).function
    i1 = spectral_image(ClassElement(lam1, g1), lam1, m, K_out=K).function
    i2 = spectral_image(ClassElement(lam2, g2), lam2, m, K_out=K).function
    expect = np.multiply.outer(i1.values, i2.values)
    scale = max(np.max(np.abs(expect)), 1e-30)
    assert np.max(np.abs(img.values - expect)) <= 1e-10 * scale

    A = assemble_Qm(ClassElement(lam, g), lam, m, K_gen=K)
    A1 = assemble_Qm(ClassElement(lam1, g1), lam1, m, K_gen=K)
    A2 = assemble_Qm(ClassElement(lam2, g2), lam2, m, K_gen=K)
    w_expect = np.multiply.outer(A1.weights, A2.weights)
    assert np.max(np.abs(A.weights - w_expect)) <= 1e-10 * np.max(np.abs(w_expect))


def test_md_cross_path_consistency():
    rng = np.random.default_rng(17)
    g = random_real_spectral(2, 2, rng)
    elem = ClassElement(LAM2D, g)
    A = assemble_Qm(elem, LAM2D, 2, K_gen=16)
    img = spectral_image(elem, LAM2D, 2, K_out=16).function
    xs = rng.uniform(0, 2 * np.pi, size=(12, 2))
    direct = A.evaluate(xs)
    synth = evaluate_many(img, xs)
    assert np.max(np.abs(direct - synth)) <= 1e-9 + A.evaluation_tail_bound()


def test_md_dimension_validation():
    g = SpectralFunction.single((0, 0))
    with pytest.raises(SequenceError):
        assemble_Qm(ClassElement(LAM2D, g), Korobov(2.0, dimension=3), 1)


def test_complex_product_factor_keeps_imaginary_part():
    # a complex custom factor must reach the filter polynomial unchanged
    from translates.sequences import CustomSequence, TailRule

    table = {k: max(abs(k), 1) ** 2 * complex(np.exp(0.3j * k)) for k in range(-6, 7)}
    axis = CustomSequence(table, TailRule("power", rate=2.0))
    beta = ProductSequence((axis, Korobov(2.0)))
    m = 2
    hm = build_Hm(LAM2D, beta, m)
    a1 = build_Hm(Korobov(2.0), axis, m).values
    a2 = build_Hm(Korobov(2.0), Korobov(2.0), m).values
    assert np.max(np.abs(a1.imag)) > 0.1
    np.testing.assert_allclose(hm.values, np.outer(a1, a2), rtol=1e-14, atol=0.0)
