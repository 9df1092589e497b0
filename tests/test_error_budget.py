import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translates.error_budget import (
    epsilon_general_p,
    epsilon_p2,
    epsilon_p2_md,
    gamma_k,
    predicted_rate,
)
from translates.sequences import (
    CoefficientSequence,
    Constant,
    CustomSequence,
    Exponential,
    ExponentMask,
    Korobov,
    MaskPower,
    MaskSpec,
    ProductSequence,
    TailRule,
    box_inv_tail,
    product_increment,
    truncated,
)

LAM1 = Korobov(1.0)
LAM2 = Korobov(2.0)


def test_gamma_examples():
    assert gamma_k(LAM2, LAM2, 1, 4) == pytest.approx(1.0 / 16.0)
    # inside the band gamma collapses to the reciprocal
    assert gamma_k(LAM2, LAM2, 3, 2) == pytest.approx(0.25)
    assert gamma_k(LAM1, LAM2, 2, 7) == pytest.approx(2.0 / 49.0)
    # multivariate, coordinatewise representative
    lam2d = Korobov(2.0, dimension=2)
    assert gamma_k(lam2d, lam2d, 1, (4, 0)) == pytest.approx(1.0 / 16.0)


def test_epsilon_p2_series_oracle():
    rep = epsilon_p2(LAM2, LAM2, 1, J_max=10**4)
    assert rep.components["sup_term"] == pytest.approx(0.25)
    js = np.arange(1.0, 2e6)
    oracle = math.sqrt(2.0 * float(np.sum((3.0 * js - 1.0) ** -4)))
    assert rep.components["gamma_sum_term"] == pytest.approx(oracle, rel=1e-9)
    assert rep.value == pytest.approx(max(0.25, oracle), rel=1e-9)
    assert rep.value >= rep.components["sup_term"]
    assert rep.value >= rep.components["gamma_sum_term"] * (1 - 1e-15)
    assert not rep.tail_dominated


def test_epsilon_p2_truncated_generator():
    bt = truncated(LAM2, 5)
    rep = epsilon_p2(LAM2, bt, 5)
    assert rep.components["gamma_sum_term"] == 0.0
    assert rep.value == pytest.approx(1.0 / 36.0)


def test_epsilon_p2_exponential_sup():
    rep = epsilon_p2(Exponential(1.0), Exponential(1.0), 3)
    assert rep.components["sup_term"] == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_epsilon_general_p_telescoping():
    rep = epsilon_general_p(LAM1, LAM1, 4)
    # both tails telescope to 1/(m+1) each
    assert rep.components["delta_lambda_term"] == pytest.approx(0.4, abs=1e-4)
    # the alias-edge series is harmonic, hence the report is tail-dominated
    assert math.isinf(rep.tail_bound)
    assert rep.tail_dominated


def test_epsilon_general_p_constant_lambda_leaves_no_tail():
    # every |lam^{-1}| past K_max is 1/v: the lam differences end there
    rep = epsilon_general_p(Constant(2.0), Exponential(0.5), 4)
    assert rep.components["delta_lambda_term"] == 0.0
    assert rep.tail_bound < 1e-12 * rep.value and not rep.tail_dominated
    # a constant rule past a table that reaches beyond K_max: the table's
    # last values still vary, so each side is charged its last value
    lam = CustomSequence({k: 1.0 + abs(k) for k in range(-40, 41)}, TailRule("constant", scale=41.0))
    assert epsilon_general_p(lam, Exponential(0.5), 2, K_max=20).tail_bound >= 2 / 22
    assert epsilon_general_p(lam, Exponential(0.5), 2, K_max=60).tail_bound < 1e-12


def test_epsilon_general_p_delta_gamma_enumeration():
    # monotone pair: compare the module's difference tail against a direct
    # enumeration built from the gamma_k operation
    m, K = 3, 3000
    rep = epsilon_general_p(LAM2, LAM2, m, K_max=K)
    fwd = sum(
        abs(gamma_k(LAM2, LAM2, m, k) - gamma_k(LAM2, LAM2, m, k + 1))
        for k in range(m + 1, K + 1)
    )
    assert rep.components["delta_gamma_term"] == pytest.approx(2.0 * fwd, rel=1e-12)


def test_epsilon_general_p_exponential_ratio():
    s = 0.5
    seq = Exponential(s)
    vals = [epsilon_general_p(seq, seq, m).value for m in (10, 11, 12, 13)]
    for a, b in zip(vals, vals[1:]):
        assert b / a == pytest.approx(math.exp(-s), rel=0.05)


def test_epsilon_telescoping_invariant():
    # one-sided difference sum for a monotone reciprocal equals inv(m+1)
    for seq, m in ((LAM2, 6), (Exponential(0.5), 5)):
        rep = epsilon_general_p(seq, seq, m, K_max=10**5)
        one_sided = rep.components["delta_lambda_term"] / 2.0
        target = float(seq.inv_values(np.array(m + 1)))
        assert one_sided == pytest.approx(target, rel=1e-4)


def test_epsilon_md_reduction_and_product():
    r1 = epsilon_p2(LAM2, LAM2, 2)
    rmd = epsilon_p2_md(LAM2, LAM2, 2)
    assert rmd.value == r1.value
    assert epsilon_p2_md is epsilon_p2 and rmd.variant == "p2_univariate"

    lam2d = Korobov(2.0, dimension=2)
    J = 40
    rep = epsilon_p2_md(lam2d, lam2d, 1, J_max=J)
    # direct enumeration oracle over blocks |j|_inf <= J
    total = 0.0
    band = [(k1, k2) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)]
    for j1 in range(-J, J + 1):
        for j2 in range(-J, J + 1):
            if j1 == 0 and j2 == 0:
                continue
            worst = max(
                abs(gamma_k(lam2d, lam2d, 1, (k1 + 3 * j1, k2 + 3 * j2)))
                for k1, k2 in band
            )
            total += worst**2
    # the budget sums every block; blocks beyond the box |j|_inf <= J add
    # F^2 - F_J^2 = (F - F_J)(F + F_J), where F = sum_t G_t^2 is the axis
    # series (G_0 = 1, G_t = (3|t| - 1)^{-2}) taken to 2e6 blocks
    ts = np.arange(1.0, 2e6)
    terms = 2.0 * (3.0 * ts - 1.0) ** -4
    F_J = 1.0 + math.fsum(terms[:J])
    beyond = math.fsum(terms[J:])
    total += beyond * (2.0 * F_J + beyond)
    assert rep.components["gamma_sum_term"] == pytest.approx(math.sqrt(total), rel=1e-12)
    assert rep.components["sup_term"] == pytest.approx(0.25)


def test_epsilon_md_box_polynomial():
    bt = ProductSequence((truncated(Korobov(2.0), 2), truncated(Korobov(2.0), 2)))
    lam2d = Korobov(2.0, dimension=2)
    rep = epsilon_p2_md(lam2d, bt, 2)
    assert rep.components["gamma_sum_term"] == 0.0
    assert rep.value == pytest.approx(box_inv_tail(lam2d, 2, math.inf))


def test_epsilon_monotone_in_m():
    families = [
        Korobov(1.0),
        Korobov(2.0),
        Exponential(0.5),
        Exponential(1.0),
        MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0)),
        ExponentMask(0.5, MaskSpec()),
    ]
    ms = [2, 4, 8, 16, 32, 64]
    for seq in families:
        vals = [epsilon_p2(seq, seq, m).value for m in ms]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:])), seq
        gen = [epsilon_general_p(seq, seq, m).value for m in ms]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(gen, gen[1:])), seq


def test_inv_sup_outside_box():
    assert box_inv_tail(LAM2, 4, math.inf) == pytest.approx(1.0 / 25.0)
    lam2d = Korobov(2.0, dimension=2)
    # attained on an axis: (m+1, 0) has reciprocal (m+1)^{-2}
    assert box_inv_tail(lam2d, 4, math.inf) == pytest.approx(1.0 / 25.0)
    assert box_inv_tail(Constant(2.0, dimension=2), 4, math.inf) == pytest.approx(0.5)


def test_predicted_rate_gates():
    pw = predicted_rate(LAM2, LAM2, 2.0)
    assert pw.applies and pw.form == "power" and pw.exponent == 2.0
    assert pw.value_at(4) == pytest.approx(1.0 / 16.0)

    ex = predicted_rate(Exponential(0.5), Exponential(0.5), 3.0)
    assert ex.applies and ex.form == "exponential"
    assert ex.value_at(10) == pytest.approx(math.exp(-5.0))

    gate = predicted_rate(Korobov(0.4), Korobov(0.4), 2.0)
    assert not gate.applies
    assert gate.label == "no-theorem-applies"

    mask = MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0))
    mk = predicted_rate(mask, mask, 3.0)
    assert mk.applies and mk.form == "power" and mk.exponent == 1.5

    mixed = predicted_rate(mask, ExponentMask(0.5, MaskSpec()), 2.5)
    assert mixed.applies and mixed.form == "power"

    shallow = MaskPower(0.8, MaskSpec())
    assert not predicted_rate(shallow, shallow, 2.0).applies


def test_predicted_rate_series_and_md():
    # distinct nondecreasing pair falls back to the block series form
    lam, beta = Korobov(2.0), Korobov(3.0)
    pred = predicted_rate(lam, beta, 2.0)
    assert pred.applies and pred.form == "series_l2"
    # value ~ sqrt(2 zeta(4)) m^{-2}
    assert pred.value_at(8) == pytest.approx(math.sqrt(2.0 * (math.pi**4 / 90)) / 64, rel=1e-4)

    lam2d = Korobov(2.0, dimension=2)
    md = predicted_rate(lam2d, lam2d, 2.0)
    assert md.applies and md.form == "sup_box"
    assert md.value_at(4) == pytest.approx(1.0 / 25.0)
    assert not predicted_rate(lam2d, lam2d, 3.0).applies


@pytest.mark.parametrize("degree", [20, 50])
def test_general_p_gate_fails_truncated_pairs_without_warnings(degree):
    # past the truncation the doubling-ratio probes meet 0 / 0 (degree 20) and
    # inf - inf (degree 50): each fails the gate, with no RuntimeWarning, which
    # this suite turns into an error
    seq = truncated(Korobov(1.5), degree)
    pred = predicted_rate(seq, seq, 3.0)
    assert not pred.applies and pred.reason == "no general-p gate matched"


def test_general_p_gate_takes_the_declared_symmetry():
    # the doubling-ratio gate needs both sequences ``symmetric``, the answer
    # ``two_sided`` trusts, so a subclass that does not declare it fails
    table = {k: 1.0 + k * k for k in range(-8, 9)}
    seq = CustomSequence(table, TailRule("power", rate=2.0))
    assert predicted_rate(seq, seq, 3.0).form == "series_l1"
    lopsided = CustomSequence({**table, 8: 66.0}, TailRule("power", rate=2.0))
    assert not predicted_rate(lopsided, lopsided, 3.0).applies

    class Undeclared(CoefficientSequence):  # seq's values, its symmetry not declared
        def _axis_values(self, k):
            return seq._axis_values(k)

        def _axis_inv_values(self, k):
            return seq._axis_inv_values(k)

        def tail_rule(self):
            return seq.tail_rule()

    other = Undeclared()
    assert not predicted_rate(other, other, 3.0).applies


def test_predicted_rate_korobov_general_p():
    pred = predicted_rate(LAM1, LAM1, 3.0)
    assert pred.applies and pred.form == "power" and pred.exponent == 1.0


def test_epsilon_reports_carry_variant():
    assert epsilon_p2(LAM2, LAM2, 2).variant == "p2_univariate"
    assert epsilon_general_p(LAM2, LAM2, 2).variant == "general_p"
    lam2d = Korobov(2.0, dimension=2)
    assert epsilon_p2_md(lam2d, lam2d, 1).variant == "p2_multivariate"


def test_complex_custom_budget_paths():
    from translates.sequences import CustomSequence, TailRule
    from translates._alias import build_alias_profile
    from translates.approximant import ClassElement, approximation_error
    from translates.spectral import random_real_spectral

    # phase varies with |k| so the aliased ratio is genuinely complex
    table = {
        k: max(abs(k), 1) ** 2 * complex(np.exp(0.2j * (abs(k) % 3)))
        for k in range(-40, 41)
    }
    beta = CustomSequence(table, TailRule("power", rate=2.0))
    lam = Korobov(2.0)
    m = 1
    got = gamma_k(lam, beta, m, 5)
    kp = -1  # alias representative of 5 for m = 1
    expect = (table[kp] / 1.0) * (1.0 / table[5])  # alpha_{k'} beta_5^{-1}
    assert isinstance(got, complex) and got.imag != 0
    assert got == pytest.approx(expect)

    rng = np.random.default_rng(2)
    src = random_real_spectral(1, 6, rng)
    elem = ClassElement(lam, src)
    prof = build_alias_profile(lam, beta, 2, K_out=2000)
    direct = approximation_error(elem, beta, 2, K_out=prof.K_out)
    assert prof.element_error(src) == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# The closed-form bracket of the p = 2 block sum against brute force

N_BRUTE = 2_000_000


def _integral_sq(rule, n, start, offset):
    """int_start^inf U(n x + offset)^2 dx for the rule's reciprocal profile U."""
    x0 = n * start + offset
    if rule.kind == "finite":
        return 0.0
    q = 2.0 * rule.rate
    if rule.kind == "power":
        return x0 ** (1.0 - q) / (n * (q - 1.0)) / rule.scale**2
    return math.exp(-q * x0) / (q * n) / rule.scale**2


def _brute_block_sum(lam, beta, m):
    """[lo, hi] around sum_{t != 0} G_t^2: 2e6 blocks per side plus integral bounds."""
    n = 2 * m + 1
    jp = np.arange(-m, m + 1)
    a = np.abs(np.asarray(lam.inv_values(jp)) / np.asarray(beta.inv_values(jp)))
    parts = []
    chunk = 200_000
    for t0 in range(1, N_BRUTE + 1, chunk):
        ts = np.arange(t0, t0 + chunk)
        for sign in (1, -1):
            g = a * np.abs(np.asarray(beta.inv_values(sign * n * ts[:, None] + jp)))
            parts.append(math.fsum(g.max(axis=1) ** 2))
    total = math.fsum(parts)
    rule = beta.tail_rule()
    assert n * N_BRUTE - m > rule.radius
    # sum_{j > N} f(j) lies between the integrals of f from N + 1 and from N
    hi = 2.0 * float(np.max(a)) ** 2 * _integral_sq(rule, n, N_BRUTE, -m)
    lo = 0.0
    if rule.exact:
        lo = max(a[i] ** 2 * _integral_sq(rule, n, N_BRUTE + 1, k) for i, k in enumerate(jp))
        lo += max(a[i] ** 2 * _integral_sq(rule, n, N_BRUTE + 1, -k) for i, k in enumerate(jp))
    return total + lo, total + hi


def _heaviest_offset_leads(lam, beta, m, T):
    """Whether on each side the largest term of block T + 1 has the largest
    weight alpha_{k'}^2.  Under a power rule a lighter offset leads only
    while it is nearer, so in a near tie the lead moves at a later block."""
    n, jp = 2 * m + 1, np.arange(-m, m + 1)
    w = np.abs(np.asarray(lam.inv_values(jp)) / np.asarray(beta.inv_values(jp))) ** 2
    return all(
        w[np.argmax(w * np.abs(np.asarray(beta.inv_values(sign * n * (T + 1) + jp))) ** 2)] == w.max()
        for sign in (1, -1)
    )


def _custom_power(radius, rate, scale, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 2.0, radius + 1)
    table = {k: float(vals[abs(k)]) for k in range(-radius, radius + 1)}
    return CustomSequence(table, TailRule("power", rate=rate, scale=scale))


RATES = st.floats(min_value=0.5, max_value=3.0, exclude_min=True)
SLOPES = st.floats(min_value=0.05, max_value=3.0)
PAIRS = {
    "korobov": st.builds(lambda r: (Korobov(r), Korobov(r)), RATES),
    "exponential": st.builds(lambda s: (Exponential(s), Exponential(s)), SLOPES),
    "custom": st.builds(lambda r, rad, sc, seed: (Korobov(r), _custom_power(rad, r, sc, seed)),
                        RATES, st.integers(8, 20), st.floats(0.5, 2.0), st.integers(0, 99)),
    "korobov_pair": st.builds(lambda r1, r2: (Korobov(r1), Korobov(r2)), RATES, RATES),
    "mixed_pair": st.builds(lambda s, r: (Korobov(r), Exponential(s)), SLOPES, RATES),
    "mask": st.builds(lambda r, c: (MaskPower(r, MaskSpec("log_damped", c=c, bound_c=2.0)),) * 2,
                      st.floats(0.6, 3.0), st.floats(0.1, 0.9)),
    "truncated": st.builds(lambda r, extra: (Korobov(r), truncated(Korobov(r), 2 + extra)),
                           RATES, st.integers(0, 12)),
}


@pytest.mark.parametrize("kind", sorted(PAIRS))
@settings(max_examples=2, deadline=None)
@given(data=st.data(), m=st.integers(min_value=1, max_value=2))
def test_block_sum_bracket_contains_brute_force(kind, data, m):
    lam, beta = data.draw(PAIRS[kind])
    rep = epsilon_p2(lam, beta, m)
    gamma, tail = rep.components["gamma_sum_term"], rep.tail_bound
    lo, hi = _brute_block_sum(lam, beta, m)
    assert gamma**2 <= hi
    assert lo <= (gamma + tail) ** 2
    if kind in ("korobov", "exponential", "truncated", "mixed_pair") or (
        kind in ("korobov_pair", "custom") and _heaviest_offset_leads(lam, beta, m, 32)
    ):
        # an exact rule whose leading offset no later block changes: each
        # side beyond the first T is one series, and the bracket closes there
        assert rep.truncation_radius == 32
        assert tail <= 1e-13 * gamma or gamma == tail == 0.0
    if kind == "mask":
        # no lower bound beyond T: the width is the whole upper bound
        assert rep.truncation_radius > 32 and tail > 0


def test_block_sum_bracket_below_rule_radius():
    # J_max stops short of the custom table's end: nothing bounds the
    # unenumerated blocks inside the table, so the tail is infinite
    beta = _custom_power(400, 2.0, 1.0, 0)
    rep = epsilon_p2(Korobov(2.0), beta, 2, J_max=10)
    assert rep.truncation_radius == 10
    assert math.isinf(rep.tail_bound) and rep.tail_dominated
    full = epsilon_p2(Korobov(2.0), beta, 2)
    assert full.truncation_radius >= 81  # the first block past |k| = 400
    assert math.isfinite(full.tail_bound)
    assert full.components["gamma_sum_term"] >= rep.components["gamma_sum_term"]


def test_block_sum_bracket_small_J_max():
    # below 32 blocks the closed form starts where Euler-Maclaurin is crude;
    # the bracket must widen, not break, in one dimension and per axis in two
    js = np.arange(1.0, 2e6)
    oracle = 2.0 * math.fsum((3.0 * js - 1.0) ** -4)
    oracle_2d = oracle * (2.0 + oracle)  # (1 + oracle)^2 - 1, the t = 0 block is 1
    lam2d = Korobov(2.0, dimension=2)
    for J in (0, 1, 3, 32):
        for rep, want in (
            (epsilon_p2(LAM2, LAM2, 1, J_max=J), oracle),
            (epsilon_p2_md(lam2d, lam2d, 1, J_max=J), oracle_2d),
        ):
            gamma, tail = rep.components["gamma_sum_term"], rep.tail_bound
            assert rep.truncation_radius == J
            assert gamma**2 <= want <= (gamma + tail) ** 2


def test_block_sum_bracket_asymmetric_band():
    # alpha peaks at k' = -1, so beyond T the positive blocks follow
    # U(3j - 1) and the negative ones U(3j + 1): each side is bounded by
    # its own leading series, and the bracket closes at the first T
    table = {k: 1.0 for k in range(-8, 9)}
    table[-1] = 10.0
    beta = CustomSequence(table, TailRule("power", rate=1.0))
    rep = epsilon_p2(LAM1, beta, 1, J_max=40)
    gamma, tail = rep.components["gamma_sum_term"], rep.tail_bound
    lo, hi = _brute_block_sum(LAM1, beta, 1)
    assert rep.truncation_radius == 32 and tail <= 1e-13 * gamma
    assert gamma**2 <= hi
    assert lo <= (gamma + tail) ** 2


def _counting_inv_values(monkeypatch):
    """The index arrays every Korobov sequence is asked for, in order."""
    counted = []
    inv_values = Korobov.inv_values

    def counting(self, k):
        counted.append(np.asarray(k).copy())
        return inv_values(self, k)

    monkeypatch.setattr(Korobov, "inv_values", counting)
    return counted


def test_symmetric_budget_evaluates_one_side(monkeypatch):
    counted = _counting_inv_values(monkeypatch)
    m = 3
    epsilon_p2(LAM1, Korobov(1.5), m)
    assert min(int(k.min()) for k in counted) == -m  # the band, and no negative alias index


def test_general_p_evaluates_one_side(monkeypatch):
    counted = _counting_inv_values(monkeypatch)
    m, K_max = 3, 500
    epsilon_general_p(LAM1, LAM2, m, K_max=K_max)
    ks = np.arange(m + 1, K_max + 2)
    tails = [k for k in counted if k.shape == ks.shape]
    assert len(tails) == 2 and all(np.array_equal(k, ks) for k in tails)


def _general_p_two_sided(lam, beta, m, K_max):
    """(value, tail_bound, components) of the general-p budget with each side
    evaluated on its own indices: the form before the sides were mirrored."""
    from translates._alias import band_arrays, k_prime_array
    from translates.error_budget import _comb_l1_tail

    def diff_sum(vals):
        return float(np.sum(np.abs(np.diff(vals))))

    def monotone(vals):
        return bool(np.all(np.diff(vals[-32:]) <= 0))

    alpha = band_arrays(lam, beta, m)[2]
    alpha_max = float(np.max(np.abs(alpha)))
    n, ks = 2 * m + 1, np.arange(m + 1, K_max + 2)
    il = [np.abs(np.asarray(lam.inv_values(s * ks))) for s in (1, -1)]
    g = [
        np.abs(alpha[k_prime_array(s * ks, m) + m]) * np.abs(np.asarray(beta.inv_values(s * ks)))
        for s in (1, -1)
    ]
    dl = diff_sum(il[0]) + diff_sum(il[1])
    dg = diff_sum(g[0]) + diff_sum(g[1])
    dl_tail = dg_tail = 0.0
    for side in il:
        dl_tail += float(side[-1]) if monotone(side) else lam.inv_tail(K_max, 1)
    if lam.tail_rule().kind == "constant" and lam.tail_rule().radius <= K_max:
        dl_tail = 0.0  # no lam difference is left past K_max
    for side in g:
        dg_tail += float(side[-1]) if monotone(side) else alpha_max * beta.inv_tail(K_max, 1)
    T = max(1, (K_max - m) // n)
    alpha_m = float(np.abs(alpha[2 * m]))
    ga = alpha_m * float(np.sum(np.abs(np.asarray(beta.inv_values(np.arange(-T, T + 1) * n + m)))))
    rule = beta.tail_rule()
    ga_tail = alpha_m * (_comb_l1_tail(rule, n, m, T) + _comb_l1_tail(rule, n, -m, T))
    components = {"delta_lambda_term": dl, "delta_gamma_term": dg, "gamma_alias_term": ga}
    return max(dl, dg + ga), max(dl_tail, dg_tail + ga_tail), components


_LOPSIDED = CustomSequence(
    {k: (1 + abs(k)) ** 1.5 * (1 + 0.1 * (k % 3) + 0.5 * (k > 0)) for k in range(-40, 41)},
    TailRule("power", rate=1.5),
)
_PHASED = CustomSequence(
    {k: (1 + abs(k)) ** 1.5 * (1 + 0.1 * (k % 3) + 0.3j * (k > 0)) for k in range(-40, 41)},
    TailRule("power", rate=1.5),
)
_SYMMETRIC_TABLE = CustomSequence(
    {k: (1 + abs(k)) ** 2 * (1 + 0.2 * (abs(k) % 4)) for k in range(-30, 31)},
    TailRule("power", rate=2.0),
)
_CONSTANT = Constant(2.0)


@pytest.mark.parametrize(
    "lam, beta, m, K_max",
    [
        (LAM1, LAM2, 3, 2000),
        (MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0)),) * 2 + (4, 3000),
        (LAM1, _LOPSIDED, 2, 20),  # inside the table: no side telescopes
        (_LOPSIDED, _LOPSIDED, 2, 2500),
        (LAM2, _PHASED, 3, 30),
        (_PHASED, LAM1, 1, 4000),
        # beta is lam (alpha = 1: the gamma sides are lam's), symmetric or not
        (LAM1, LAM1, 3, 2000),
        (_SYMMETRIC_TABLE, _SYMMETRIC_TABLE, 2, 40),
        (_CONSTANT, _CONSTANT, 2, 30),
        (LAM1, LAM2, 1, 3000),  # |alpha| = 1 on the band, yet beta is not lam
        (Constant(2.0), Exponential(0.5), 4, 60),
        (LAM2, _SYMMETRIC_TABLE, 3, 25),  # both symmetric, |alpha| mirror-symmetric
        (_LOPSIDED, Exponential(0.5), 1, 1500),
    ],
)
def test_general_p_matches_two_sided_formulas(lam, beta, m, K_max):
    rep = epsilon_general_p(lam, beta, m, K_max=K_max)
    value, tail, components = _general_p_two_sided(lam, beta, m, rep.truncation_radius)
    assert (rep.value, rep.tail_bound, rep.components) == (value, tail, components)


def _per_axis_window_sup(seq, m, scan=256):
    """sup of |seq^{-1}| outside the box |k|_inf <= m from fixed per-axis
    windows: each axis is scanned on (m, max(radius, m + 1 + scan)] and on
    [-R, R], R = max(scan, radius), with its rule's bound past each window."""

    def beyond(ax):
        rule = ax.tail_rule()
        hi = max(rule.radius, m + 1 + scan)
        ks = np.arange(m + 1, hi + 1)
        vals = np.maximum(np.abs(ax.inv_values(ks)), np.abs(ax.inv_values(-ks)))
        return max(float(vals.max()), rule.inv_tail(hi, math.inf))

    def everywhere(ax):
        rule = ax.tail_rule()
        R = max(scan, rule.radius)
        vals = np.abs(ax.inv_values(np.arange(-R, R + 1)))
        return max(float(vals.max()), rule.inv_tail(R, math.inf))

    axes = seq.axis_factors()
    outs, alls = [beyond(ax) for ax in axes], [everywhere(ax) for ax in axes]
    return max(
        math.prod([outs[a]] + [alls[b] for b in range(len(axes)) if b != a])
        for a in range(len(axes))
    )


@pytest.mark.parametrize(
    "seq",
    [
        Korobov(1.5, dimension=2),
        Korobov(2.0, dimension=3),
        Exponential(0.5, dimension=2),
        Exponential(0.3, dimension=3),
        Constant(2.0, dimension=2),
        Constant(-0.5, dimension=3),
        ProductSequence((Korobov(2.0), truncated(Korobov(2.0), 4))),
        ProductSequence((truncated(Exponential(0.5), 6),) * 3),
        ProductSequence((_LOPSIDED, Exponential(0.5))),
        ProductSequence((_PHASED, truncated(Korobov(1.0), 3), Korobov(0.75))),
    ],
    ids=lambda seq: f"{seq.family}-d{seq.dimension}",
)
def test_box_sup_matches_per_axis_window_formula(seq):
    for K in (0, 1, 3, 8, 40, 300):
        assert box_inv_tail(seq, K, math.inf) == _per_axis_window_sup(seq, K), K


def test_product_increment_does_not_cancel():
    # prod(1 + t) - 1 for t = 1e-20 rounds to 0 when formed as a difference
    assert product_increment([1.0, 1.0], [1e-20, 1e-20]) == pytest.approx(2e-20, rel=1e-15)
    assert product_increment([2.0, 3.0, 5.0], [1.0, 0.5, 0.25]) == pytest.approx(
        3.0 * 3.5 * 5.25 - 30.0, rel=1e-15
    )
    lam2d = Korobov(2.0, dimension=2)
    for K in (50, 2000):
        tail = box_inv_tail(lam2d, K, 2)
        inside = 1.0 + 2.0 * math.fsum(np.arange(1.0, K + 1) ** -4)
        axis_tail = Korobov(2.0).inv_tail(K, 2)
        assert tail >= axis_tail * (2.0 * inside + axis_tail) > 0


def test_bounded_inv_ratio_rejects_growth():
    # beta^{-1} / lam^{-1} = k^2 is unbounded: the block-series gate must not fire
    pred = predicted_rate(Korobov(3.0), Korobov(1.0), 2.0)
    assert not pred.applies and "not bounded" in pred.reason
    # the decreasing ratio k^{-1} still passes
    assert predicted_rate(Korobov(2.0), Korobov(3.0), 2.0).form == "series_l2"


def test_bounded_inv_ratio_multivariate():
    pred = predicted_rate(Korobov(2.0, dimension=2), Korobov(3.0, dimension=2), 2.0)
    assert pred.applies and pred.form == "sup_box"
    grows = predicted_rate(Korobov(3.0, dimension=2), Korobov(1.0, dimension=2), 2.0)
    assert not grows.applies
