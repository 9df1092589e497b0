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
    # psi_k != conj(psi_{-k}), with k > 0 weighted 3x and k < 0 0.2x, and a
    # complex f: a wrong fold of the weights or of the right-hand side shows here
    rng = np.random.default_rng(11)
    psi = default_probe_generator(lam, 64)
    ks = psi.axis_indices()
    lopsided = np.where(ks > 0, 3.0, 0.2) * np.exp(2j * math.pi * rng.random(ks.size))
    f = SpectralFunction(1, 40, rng.normal(size=81) + 1j * rng.normal(size=81))
    yield "non-hermitian", f, SpectralFunction(1, 64, psi.values * lopsided), 12, 6
    # psi_truncation = 0: K = 0 and a one-entry phase table
    yield "bandwidth-0", SpectralFunction.single(0, 0.7 + 0.2j), default_probe_generator(lam, 0), 2, 7
    yield "one-translate", member, default_probe_generator(lam, 512), 1, 8


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


def test_half_spectrum_system_matches_the_dense_full_spectrum():
    # a non-Hermitian psihat and a complex f, so neither half of the spectrum
    # mirrors the other, against [Re A; Im A] built from exp of every row
    K = 512
    rng = np.random.default_rng(0)
    psihat = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    fhat = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    b2 = np.concatenate([fhat.real, fhat.imag])
    half = lower_bound._half_spectrum(fhat, psihat)
    two_pi = 2 * math.pi
    edges = [0.0, 1e-300, np.nextafter(two_pi, 0), two_pi - 1e-9, math.pi, 0.5 * math.pi]
    jittered = (two_pi * np.arange(40) / 40 + rng.normal(0.0, two_pi / 160, 40)) % two_pi
    rel = lambda got, want: np.linalg.norm(got - want) / np.linalg.norm(want)
    for nodes in (np.array(edges), jittered):
        phases = np.exp(-1j * np.outer(np.arange(-K, K + 1), nodes))
        A = psihat[:, None] * phases
        A2 = np.concatenate([A.real, A.imag])
        # the table is off exp by the rounding of k a itself
        E = lower_bound._phases(nodes, K, lower_bound._work(psihat, nodes.size)[1])
        assert np.max(np.abs(E - phases[K:].T)) <= 4 * (K + 1) * two_pi * np.finfo(float).eps
        system = lower_bound._system(psihat, nodes)
        V, G, ill = system
        assert rel(G, A2.T @ A2) <= 1e-12
        assert rel(V @ half[2], A2.T @ b2) <= 1e-12
        residual, w, ridged = lower_bound._solve(system, half)
        assert ill == ridged == (np.linalg.cond(A2.T @ A2) > 1e14)
        # the fold against the full spectrum of the table's own phases; at the
        # ill-conditioned edges the ridge leaves |w| ~ 5e4, which scales the
        # table's rounding (~4e-13) into ~1e-10 against the exp of every row
        At = psihat[:, None] * np.concatenate([E[:, :0:-1].conj(), E], axis=1).T
        At2 = np.concatenate([At.real, At.imag])
        assert residual == pytest.approx(np.linalg.norm(b2 - At2 @ w), rel=1e-12)
        if not ill:
            assert residual == pytest.approx(np.linalg.norm(b2 - A2 @ w), rel=1e-12)
    assert not ill  # the jittered nodes took the exp comparison


def test_kept_equispaced_system_changes_no_bit():
    # one dict of systems shared by interleaved (psi, n) calls, as a probe row
    # shares it across its trials, against calls that build their own
    lam = Korobov(1.0)
    psi_a = default_probe_generator(lam, 128)
    psi_b = default_probe_generator(Korobov(2.0), 128)
    assert psi_a.bandwidth == psi_b.bandwidth
    calls = [(psi_a, 10), (psi_b, 10), (psi_a, 20), (psi_a, 10)]

    def fit(psi, n, systems=None):
        # restarts = 1 returns restart 0's residual, which a wrong kept system would move
        f = sample_F_ns(design_for_n(n, 1, lam), lam, 1, seed=n)[0]
        return [best_translate_fit(f, psi, n, restarts=r, seed=(n, 1), full_output=True, systems=systems)
                for r in (1, 3)]

    systems = {}
    interleaved = [fit(psi, n, systems) for psi, n in calls]
    assert sorted(n for n, _ in systems) == [10, 10, 20]  # one system per (n, psi), each kept
    fresh = [fit(psi, n) for psi, n in calls]
    bits = lambda runs: [(np.float64(v).view(np.uint64), flag) for run in runs for v, flag in run]
    assert bits(interleaved) == bits(fresh)


def test_kept_system_flags_every_rank_deficient_trial():
    # 8 translates of a bandwidth-2 generator span at most 5 dimensions, so
    # every restart 0 is ill-conditioned, also when its system is the kept one
    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 2)
    systems = {}
    for t, f in enumerate(sample_F_ns(design_for_n(10, 1, lam), lam, 4, seed=4)):
        for restarts in (1, 3):
            value, flagged = best_translate_fit(f, psi, 8, restarts=restarts, seed=(3, t),
                                                full_output=True, systems=systems)
            assert flagged and math.isfinite(value)
    assert len(systems) == 1
    des = design_for_n(10, 1, lam)
    res = probe_Mn(des, lam, psi, trials=3, restarts=1, seed=3)
    assert res.flag == "heuristic,regularized"


def test_probe_row_holds_its_system_for_its_trials_only(monkeypatch):
    # a probe row builds its equispaced system and its jitter work arrays once,
    # for its first trial, and hands them to the rest; the next row builds its
    # own, and none outlives its row
    import weakref

    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 64)
    built, tables, system = [], [], lower_bound._system

    def building(psihat, nodes, *work):
        out = system(psihat, nodes, *work)
        built.append(weakref.ref(out[1]))
        tables.extend((id(w[1]), weakref.ref(w[1])) for w in work)
        return out

    monkeypatch.setattr(lower_bound, "_system", building)
    results = [probe_Mn(design_for_n(n, 1, lam), lam, psi, trials=3, restarts=2, seed=1) for n in (10, 10)]
    assert len(built) == 2 * (1 + 3)  # per row: one kept equispaced system, one jittered a trial
    # each row's jittered systems go into the one phase table the row holds
    assert len(tables) == 2 * 3 and all(len({i for i, _ in tables[r:r + 3]}) == 1 for r in (0, 3))
    assert all(ref() is None for ref in built + [ref for _, ref in tables])
    monkeypatch.undo()
    assert results[0] == results[1] == probe_Mn(design_for_n(10, 1, lam), lam, psi, trials=3, restarts=2, seed=1)


def test_jittered_restarts_on_held_arrays_give_the_fresh_bits():
    # every jittered restart written into one set of work arrays solves to the
    # bits of a system built fresh, also where 8 translates of a bandwidth-2
    # generator are rank deficient and take the ridge
    lam = Korobov(1.0)
    bits = lambda out: (np.float64(out[0]).view(np.uint64), out[2])
    for bandwidth, n in ((128, 10), (512, 40), (2, 8)):
        psi = default_probe_generator(lam, bandwidth)
        family = sample_F_ns(design_for_n(max(n, 10), 1, lam), lam, 3, seed=n)
        K = max(psi.bandwidth, family[0].bandwidth)
        psihat = psi.padded(K).values
        work = lower_bound._work(psihat, n)
        ridged = set()
        for t, f in enumerate(family):
            half = lower_bound._half_spectrum(f.padded(K).values, psihat)
            for r, nodes in enumerate(lower_bound._restart_nodes(n, 5, (n, t))):
                held = lower_bound._solve(lower_bound._system(psihat, nodes, work), half)
                fresh = lower_bound._solve(lower_bound._system(psihat, nodes), half)
                assert bits(held) == bits(fresh), (bandwidth, n, t, r)
                ridged.add(fresh[2])
        assert ridged == ({True} if bandwidth == 2 else {False})


def test_warm_probe_row_takes_few_page_faults():
    # the row's jittered restarts write into the arrays it holds, so a warm
    # n = 40 row maps no phase table or scaled copy per restart (about 18,500
    # minor faults when each restart allocated its own, about 130 with held arrays)
    resource = pytest.importorskip("resource")
    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 512)
    design = design_for_n(40, 1, lam)
    probe_Mn(design, lam, psi, trials=20, restarts=8, seed=2026)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    probe_Mn(design, lam, psi, trials=20, restarts=8, seed=2026)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_probe_rows_in_threads_keep_their_own_arrays():
    # each row writes its restarts into the work arrays it holds, so rows of one
    # (n, psi) and different families, each run in two threads, give their
    # serial rows (arrays shared between rows would mix one row's restarts
    # into another's residuals)
    import sys
    import threading

    lam = Korobov(1.0)
    psi = default_probe_generator(lam, 128)
    design = design_for_n(20, 1, lam)
    row = lambda seed: probe_Mn(design, lam, psi, trials=3, restarts=4, seed=seed)
    seeds = (1, 2, 1, 2)
    want = [row(seed) for seed in seeds]
    got = [[] for _ in seeds]

    def probing(i):
        for _ in range(20):
            got[i].append(row(seeds[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probing, args=(i,)) for i in range(len(seeds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert want[0] != want[1]
    assert got == [[w] * 20 for w in want]


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
    for rule in ("bogus", "table"):
        with pytest.raises(ValueError, match="unknown growth rule"):
            GrowthFunction(rule)


def test_growth_parameters_must_be_finite_and_non_negative():
    # a = -1 made Psi decreasing and b = nan made it NaN, against "nondecreasing"
    for a, b in ((-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -0.5), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite and >= 0"):
            GrowthFunction("log_power", a=a, b=b)
    assert GrowthFunction("log_power", a=0.0, b=0.0).is_nondecreasing()
