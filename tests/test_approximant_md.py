import numpy as np
import pytest

from translates._alias import k_prime_array
from translates.approximant import (
    ClassElement,
    TranslateApproximant,
    approximation_error,
    assemble_Qm,
    build_Hm,
    spectral_image,
    vm_samples,
)
from translates.sequences import Korobov, ProductSequence, SequenceError, truncated
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


def test_md_reduction_bit_for_bit():
    rng = np.random.default_rng(11)
    lam = Korobov(2.0)
    g = random_real_spectral(1, 6, rng)
    elem = ClassElement(lam, g)
    a = approximation_error(elem, lam, 3, 2.0, "parseval_oracle", K_out=333)
    b = approximation_error(elem, lam, 3, 2.0, "parseval_oracle", K_out=333)
    assert a == b
    A1 = assemble_Qm(elem, lam, 3, K_gen=50)
    A2 = assemble_Qm(elem, lam, 3, K_gen=50)
    assert np.array_equal(A1.weights, A2.weights)
    i1 = spectral_image(elem, lam, 3, K_out=50).function
    i2 = spectral_image(elem, lam, 3, K_out=50).function
    assert np.array_equal(i1.values, i2.values)


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
