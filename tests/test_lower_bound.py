import math

import numpy as np
import pytest

from translates import lower_bound
from translates.lower_bound import (
    GrowthFunction,
    best_translate_fit,
    default_probe_generator,
    design_for_n,
    lattice_count,
    probe_Mn,
    sample_F_ns,
)
from translates.sequences import Constant, Korobov
from translates.spectral import SpectralFunction, lp_norm, synthesize


def test_lattice_count_examples():
    assert lattice_count(1, 2) == 5
    assert lattice_count(0, 3) == 1
    assert lattice_count(2, 2) == 13
    # exhaustive oracle for a larger case
    count = 0
    for k1 in range(-5, 6):
        for k2 in range(-5, 6):
            if k1 * k1 + k2 * k2 <= 25:
                count += 1
    assert lattice_count(5, 2) == count


def test_lattice_count_guard_and_validation():
    with pytest.raises(ValueError):
        lattice_count(-1, 2)
    with pytest.raises(ValueError):
        lattice_count(10**5, 3)


def test_lattice_growth_bounds():
    # c1 s^d <= count <= c2 s^d with fitted constants over the probe range
    for d in (1, 2, 3):
        ss = np.array([4, 8, 16, 32, 64])
        counts = np.array([lattice_count(int(s), d) for s in ss], dtype=float)
        ratios = counts / ss.astype(float) ** d
        c1, c2 = ratios.min(), ratios.max()
        assert 0 < c1 <= c2 < math.inf
        assert np.all(c1 * ss**d <= counts) and np.all(counts <= c2 * ss**d)


def test_design_for_n_example():
    lam = Korobov(1.0)
    des = design_for_n(10, 1, lam, c3=1.0)
    assert math.floor(10 * math.log(10)) == 23
    assert des.m == 24
    assert des.s == 11
    assert des.omega == pytest.approx(24**-0.5 / 11.0)
    assert lattice_count(des.s, 1) <= des.m < lattice_count(des.s + 1, 1)


def test_design_constant_sequence():
    des = design_for_n(12, 1, Constant(1.0))
    assert des.omega == pytest.approx(des.m**-0.5)


def test_design_d2_sandwich():
    des = design_for_n(100, 2, Korobov(1.0, dimension=2))
    assert lattice_count(des.s, 2) <= des.m < lattice_count(des.s + 1, 2)
    assert des.m == math.floor(100 * math.log(100)) + 1 == 461


def test_design_rejects_small_n():
    with pytest.raises(ValueError):
        design_for_n(9, 1, Korobov(1.0))


@pytest.mark.parametrize("c3", [-1.0, 0.0, math.nan, math.inf])
def test_design_rejects_bad_c3(c3):
    # c3 = -1 used to give m = -23 and a complex omega
    with pytest.raises(ValueError, match="c3"):
        design_for_n(10, 1, Korobov(1.0), c3=c3)


def test_sample_family_norms_and_determinism():
    lam = Korobov(1.0)
    des = design_for_n(10, 1, lam)
    members = sample_F_ns(des, lam, 50, seed=7)
    for f in members:
        ks = f.axis_indices()
        ghat = np.abs(lam.values(ks) * f.values)
        assert math.sqrt(float(np.sum(ghat**2))) <= 1.0 + 1e-12
        assert f.is_real_valued()
        vals = np.unique(np.abs(f.values[np.abs(ks) <= des.s]))
        assert np.allclose(vals, des.omega)
    again = sample_F_ns(des, lam, 50, seed=7)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(members, again))
    other = sample_F_ns(des, lam, 2, seed=8)
    assert not np.array_equal(members[0].values, other[0].values)


def test_all_plus_member_in_ball():
    # the all-signs-positive member is the scaled ball kernel
    lam = Korobov(1.0)
    des = design_for_n(10, 1, lam)
    ks = np.arange(-des.s, des.s + 1)
    f = SpectralFunction(1, des.s, np.full(2 * des.s + 1, des.omega, dtype=complex))
    ghat = np.abs(lam.values(ks)) * des.omega
    assert math.sqrt(float(np.sum(ghat**2))) <= 1.0


def test_best_fit_member_of_span():
    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 64)
    assert best_translate_fit(psi, psi, 1, restarts=2, seed=0) <= 1e-8
    assert best_translate_fit(psi, psi, 3, restarts=2, seed=0) <= 1e-8


def test_best_fit_orthogonal_case():
    wave = SpectralFunction.single(1)
    const = SpectralFunction.single(0)
    got = best_translate_fit(wave, const, 4, restarts=2, seed=1)
    assert got == pytest.approx(lp_norm(wave, 2.0), rel=1e-10)


def test_best_fit_determinism_and_restart_monotonicity():
    lam = Korobov(1.0)
    des = design_for_n(10, 1, lam)
    f = sample_F_ns(des, lam, 1, seed=5)[0]
    psi = default_probe_generator(lam, 128)
    a = best_translate_fit(f, psi, 8, restarts=20, seed=3)
    b = best_translate_fit(f, psi, 8, restarts=20, seed=3)
    assert abs(a - b) <= 1e-10

    vals = [best_translate_fit(f, psi, 8, restarts=r, seed=3) for r in (1, 2, 5, 10)]
    assert all(y <= x + 1e-15 for x, y in zip(vals, vals[1:]))


def test_best_fit_nonincreasing_in_nested_budgets():
    lam = Korobov(1.0)
    des = design_for_n(10, 1, lam)
    f = sample_F_ns(des, lam, 1, seed=9)[0]
    psi = default_probe_generator(lam, 128)
    # restart 0 is equispaced, so doubling budgets nest the node sets
    vals = [best_translate_fit(f, psi, n, restarts=1, seed=0) for n in (5, 10, 20)]
    assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))


def _translate_matrix(psi, nodes, N):
    """Grid values of psi(x - a_l), one column per node, via batched FFT."""
    ks = psi.axis_indices()
    phases = np.exp(-1j * np.outer(ks, nodes))
    spec = np.zeros((N, nodes.size), dtype=complex)
    np.add.at(spec, ks % N, psi.values[:, None] * phases)
    return np.fft.ifft(spec, axis=0) * N


def _grid_fit(f, psi, n, restarts, seed, oversample=8):
    """Oracle: the same node search, solved on an oversampled grid."""
    K = max(f.bandwidth, psi.bandwidth)
    N = oversample * (2 * K + 1)
    fv = synthesize(f, N).values
    b2 = np.concatenate([fv.real, fv.imag])
    rng = np.random.default_rng(list(seed) if isinstance(seed, tuple) else [seed])
    base = 2.0 * math.pi * np.arange(n) / n
    sigma = 2.0 * math.pi / (4.0 * n)
    best, regularized = math.inf, False
    for r in range(restarts):
        nodes = base if r == 0 else (base + rng.normal(0.0, sigma, size=n)) % (2 * math.pi)
        A = _translate_matrix(psi, nodes, N)
        A2 = np.concatenate([A.real, A.imag])
        G, rhs = A2.T @ A2, A2.T @ b2
        if np.linalg.cond(G) > 1e14:
            G = G + 1e-12 * N * np.eye(n)
            regularized = True
        w = np.linalg.solve(G, rhs)
        best = min(best, float(np.linalg.norm(b2 - A2 @ w) / math.sqrt(N)))
    return best, regularized


def _oracle_cases():
    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 512)
    for n in (10, 20, 40):
        for t, f in enumerate(sample_F_ns(design_for_n(n, 1, lam), lam, 2, seed=n)):
            yield f"family-n{n}-t{t}", f, psi, n, (n, t)
    yield "complex-vs-constant", SpectralFunction.single(1), SpectralFunction.single(0), 4, 1
    member = sample_F_ns(design_for_n(10, 1, lam), lam, 1, seed=4)[0]
    yield "f-wider-than-psi", member, default_probe_generator(lam, 4), 6, 2
    # n > 2 * psi.bandwidth + 1 translates span at most 5 dimensions: ridge path
    yield "rank-deficient", member, default_probe_generator(lam, 2), 8, 3
    # a jittered restart beats the equispaced one, so node placement is compared too
    psi = default_probe_generator(lam, 16)
    ks = psi.axis_indices()
    shifted = SpectralFunction(1, psi.radius, psi.values * np.exp(-0.3j * ks))
    yield "off-grid-translate", shifted, psi, 3, 5


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_best_fit_matches_grid_oracle(case):
    _, f, psi, n, seed = case
    got = best_translate_fit(f, psi, n, restarts=8, seed=seed, full_output=True)
    want = _grid_fit(f, psi, n, restarts=8, seed=seed)
    assert got[0] == pytest.approx(want[0], rel=1e-10)
    assert got[1] == want[1]
    if case[0] in ("complex-vs-constant", "rank-deficient"):
        assert got[1]


def test_best_fit_ridge_matches_grid_oracle():
    # Weak edge coefficients leave G with eigenvalues near the ridge, so the
    # ridge sets the residual.  Rounding in G (~eps * |G|) then moves it by
    # about 1e-3 relative; a ridge off by the grid size N moves it ~40-fold.
    psi = SpectralFunction(1, 2, np.array([1e-4, 1, 1, 1, 1e-4], dtype=complex))
    f = SpectralFunction(1, 2, np.array([1, 0.5, 1, 0.5, 1], dtype=complex))
    got = best_translate_fit(f, psi, 8, restarts=8, seed=3, full_output=True)
    want = _grid_fit(f, psi, 8, restarts=8, seed=3)
    assert got[1] and want[1]
    assert got[0] == pytest.approx(want[0], rel=0.05)


def test_system_mirrors_the_exp_of_every_row_bit_for_bit():
    K = 512
    rng = np.random.default_rng(0)
    psihat = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    two_pi = 2 * math.pi
    edges = [0.0, 1e-300, np.nextafter(two_pi, 0), two_pi - 1e-9, math.pi, 0.5 * math.pi]
    jittered = (two_pi * np.arange(40) / 40 + rng.normal(0.0, two_pi / 160, 40)) % two_pi
    for nodes in (np.array(edges), jittered):
        phases = np.exp(-1j * np.outer(np.arange(-K, K + 1), nodes))
        A = psihat[:, None] * phases
        want = np.concatenate([A.real, A.imag])
        A2, G, ill = lower_bound._system(psihat, nodes)
        assert np.array_equal(A2.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(G.view(np.uint64), (want.T @ want).view(np.uint64))
        assert ill == (np.linalg.cond(want.T @ want) > 1e14)


def test_kept_equispaced_system_changes_no_bit(monkeypatch):
    lam = Korobov(1.0)
    psi_a = default_probe_generator(lam, 128)
    psi_b = default_probe_generator(Korobov(2.0), 128)
    assert psi_a.bandwidth == psi_b.bandwidth
    calls = [(psi_a, 10), (psi_b, 10), (psi_a, 20), (psi_a, 10)]

    def fit(psi, n):
        # restarts = 1 returns restart 0's residual, which a wrong kept system would move
        f = sample_F_ns(design_for_n(n, 1, lam), lam, 1, seed=n)[0]
        return [best_translate_fit(f, psi, n, restarts=r, seed=(n, 1), full_output=True)
                for r in (1, 3)]

    monkeypatch.setattr(lower_bound, "_kept", None)
    interleaved = [fit(psi, n) for psi, n in calls]
    assert lower_bound._kept[0] == 10
    fresh = []
    for psi, n in calls:
        monkeypatch.setattr(lower_bound, "_kept", None)
        fresh.append(fit(psi, n))
    bits = lambda runs: [(np.float64(v).view(np.uint64), flag) for run in runs for v, flag in run]
    assert bits(interleaved) == bits(fresh)


def test_kept_system_flags_every_rank_deficient_trial(monkeypatch):
    # 8 translates of a bandwidth-2 generator span at most 5 dimensions, so
    # every restart 0 is ill-conditioned, also when its system is the kept one
    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 2)
    monkeypatch.setattr(lower_bound, "_kept", None)
    for t, f in enumerate(sample_F_ns(design_for_n(10, 1, lam), lam, 4, seed=4)):
        for restarts in (1, 3):
            value, flagged = best_translate_fit(f, psi, 8, restarts=restarts, seed=(3, t),
                                                full_output=True)
            assert flagged and math.isfinite(value)
    des = design_for_n(10, 1, lam)
    res = probe_Mn(des, lam, psi, trials=3, restarts=1, seed=3)
    assert res.flag == "heuristic,regularized"


def test_probe_statistic_and_envelopes():
    lam = Korobov(1.0)
    growth = GrowthFunction("power", a=1.0)
    des = design_for_n(10, 1, lam)
    psi = default_probe_generator(lam, 128)
    res = probe_Mn(des, lam, psi, trials=4, restarts=3, seed=2, growth=growth)
    assert res.statistic > 0
    assert res.flag.startswith("heuristic")
    assert res.envelope_high == pytest.approx(0.1)
    assert res.envelope_low == pytest.approx(1.0 / (10 * math.log(10)))
    assert len(res.per_trial) == 4
    assert res.statistic == max(res.per_trial)


def test_envelope_power2_formula():
    growth = GrowthFunction("power", a=2.0)
    n = 100
    assert 1.0 / growth(n) == pytest.approx(1e-4)
    assert 1.0 / growth(n * math.log(n)) == pytest.approx((n * math.log(n)) ** -2.0)


def test_growth_function_properties():
    for g in (GrowthFunction("power", a=1.5), GrowthFunction("log_power", a=1.0, b=2.0)):
        assert g.is_nondecreasing()
        assert math.isfinite(g.doubling_constant())
    assert GrowthFunction("power", a=1.0).doubling_constant() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        GrowthFunction("bogus")
    tab = GrowthFunction("table", table_x=(0.0, 1.0, 10.0), table_y=(1.0, 2.0, 30.0))
    assert tab(5.0) > 0
