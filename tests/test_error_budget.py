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
    inv_sup_outside_box,
    predicted_rate,
)
from translates.sequences import (
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
    assert rmd.variant == "p2_multivariate"

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
    assert rep.value == pytest.approx(inv_sup_outside_box(lam2d, 2))


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
    assert inv_sup_outside_box(LAM2, 4) == pytest.approx(1.0 / 25.0)
    lam2d = Korobov(2.0, dimension=2)
    # attained on an axis: (m+1, 0) has reciprocal (m+1)^{-2}
    assert inv_sup_outside_box(lam2d, 4) == pytest.approx(1.0 / 25.0)
    assert inv_sup_outside_box(Constant(2.0, dimension=2), 4) == pytest.approx(0.5)


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
    direct = approximation_error(elem, beta, 2, 2.0, "parseval_oracle", K_out=prof.K_out)
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
    if kind in ("korobov", "exponential", "truncated"):
        # lam = beta with an exact rule: the bracket closes at the first T
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
    # U(3j - 1) and the negative ones U(3j + 1): each side needs its own
    # lower bound, and the bracket stays open (lo < hi) up to J_max
    table = {k: 1.0 for k in range(-8, 9)}
    table[-1] = 10.0
    beta = CustomSequence(table, TailRule("power", rate=1.0))
    rep = epsilon_p2(LAM1, beta, 1, J_max=40)
    gamma, tail = rep.components["gamma_sum_term"], rep.tail_bound
    lo, hi = _brute_block_sum(LAM1, beta, 1)
    assert rep.truncation_radius == 40 and tail > 0
    assert gamma**2 <= hi
    assert lo <= (gamma + tail) ** 2


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
        axis_tail = Korobov(2.0).inv_l2_tail_sq(K)
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
