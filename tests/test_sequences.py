import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translates.sequences import (
    Constant,
    CustomSequence,
    Exponential,
    ExponentMask,
    Korobov,
    MaskPower,
    MaskSpec,
    ProductSequence,
    SequenceError,
    TailRule,
    check_nondecreasing_type,
    eval_lambda,
    mask_sequence_value,
    truncated,
)


def test_korobov_values():
    k = Korobov(2.0)
    assert eval_lambda(k, 3) == 9.0
    assert eval_lambda(k, 0) == 1.0
    assert eval_lambda(k, -3) == 9.0


@pytest.mark.parametrize("r", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
def test_korobov_values_bitwise_equal_branch_formula(r):
    # theta_0 = 1 ** r is exactly 1, so the k = 0 branch of the earlier
    # np.where formulas is redundant
    k = np.arange(-10**5, 10**5 + 1)
    a = np.abs(k.astype(float))
    seq = Korobov(r)
    old_inv = np.where(a == 0, 1.0, np.maximum(a, 1.0) ** (-r))
    old_val = np.where(a == 0, 1.0, a**r)
    assert np.array_equal(seq._axis_inv_values(k).view(np.int64), old_inv.view(np.int64))
    assert np.array_equal(seq._axis_values(k).view(np.int64), old_val.view(np.int64))


def test_exponential_reciprocals_decay():
    # the generator coefficients (reciprocals) carry the e^{-s|k|} decay
    e = Exponential(0.5)
    assert float(e.inv_values(np.array(-2))) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert eval_lambda(e, -2) == pytest.approx(math.exp(1.0), rel=1e-15)
    ks = np.arange(1, 50)
    assert np.all(np.diff(e.inv_values(ks)) < 0)


def test_eval_lambda_dimension_mismatch():
    with pytest.raises(SequenceError):
        eval_lambda(Korobov(1.0), (1, 2))
    with pytest.raises(SequenceError):
        eval_lambda(Korobov(1.0, dimension=2), 3)


def test_eval_never_zero_builtins():
    ks = np.arange(-512, 513)
    for seq in (
        Korobov(1.5),
        Exponential(0.25),
        Constant(-2.0),
        MaskPower(2.0, MaskSpec("log_damped", c=0.5, bound_c=2.0)),
        ExponentMask(0.5, MaskSpec()),
    ):
        assert np.all(seq.values(ks) != 0)


def test_symmetry_bit_exact_up_to_512():
    ks = np.arange(1, 513)
    for seq in (
        Korobov(2.0),
        Exponential(1.0),
        Constant(3.0),
        MaskPower(1.5, MaskSpec("log_damped", c=1.0, bound_c=3.0)),
        ExponentMask(0.5, MaskSpec()),
    ):
        assert np.array_equal(seq.values(ks), seq.values(-ks))
        assert np.array_equal(seq.inv_values(ks), seq.inv_values(-ks))


def test_korobov_strictly_increasing():
    ks = np.arange(1, 200)
    vals = Korobov(0.7).values(ks)
    assert np.all(np.diff(vals) > 0)
    rep = check_nondecreasing_type(Korobov(0.7), 64)
    assert rep.holds and rep.constant == pytest.approx(1.0)


def test_nondecreasing_korobov_r1():
    rep = check_nondecreasing_type(Korobov(1.0), 10)
    assert rep.holds
    assert rep.constant == pytest.approx(1.0)


def test_nondecreasing_rejects_decaying_custom():
    table = {k: 1.0 / (1 + abs(k)) for k in range(-41, 42)}
    seq = CustomSequence(table, TailRule("power", rate=-1.0))
    rep = check_nondecreasing_type(seq, 10)
    assert not rep.holds
    assert rep.violation is not None


def test_nondecreasing_custom_table_constant_half():
    # theta: 1 at 0, 2 at |k|=1, 1 at |k|=2, 3 at |k|=3; worst pair gives 1/2
    table = {0: 1.0, 1: 2.0, -1: 2.0, 2: 1.0, -2: 1.0, 3: 3.0, -3: 3.0}
    seq = CustomSequence(table, TailRule("power", rate=1.0))
    rep = check_nondecreasing_type(seq, 3)
    assert rep.holds
    # independent exhaustive oracle over all pairs
    best = math.inf
    for k in range(-3, 4):
        for l in range(-3, 4):
            if abs(k) > abs(l):
                best = min(best, table[k] / table[l])
    assert best == 0.5
    assert rep.constant == pytest.approx(best)


def test_nondecreasing_probe_radius_validation():
    with pytest.raises(SequenceError):
        check_nondecreasing_type(Korobov(1.0), 1)


def test_mask_sequence_value_examples():
    one = MaskSpec()
    assert mask_sequence_value(one, 2.0, 3) == pytest.approx(1.0 / 16.0)
    assert mask_sequence_value(one, 2.0, 0) == 1.0
    damped = MaskSpec("log_damped", c=1.0, bound_c=3.0)
    # F(log 1) = F(0) and the power factor is (1+1)^{-1}
    assert mask_sequence_value(damped, 1.0, 1) == pytest.approx(0.5 * damped.F(0.0))


def test_mask_value_at_zero_continuity():
    # (1+|t|)^{-r} -> 1 as t -> 0, so the k=0 convention matches the limit
    one = MaskSpec()
    near = (1.0 + 1e-9) ** -2.0 * one.F(math.log(1e-9))
    assert mask_sequence_value(one, 2.0, 0) == pytest.approx(near, abs=1e-6)


def test_mask_bound_check():
    spec = MaskSpec("log_damped", c=0.5, bound_c=2.0)
    m0, m1, ok = spec.check_bounds()
    assert ok and m0 <= 2.0 and m1 <= 2.0
    tight = MaskSpec("log_damped", c=1.0, bound_c=0.1)
    assert not tight.check_bounds()[2]


def test_exponent_mask_requires_decreasing_envelope():
    with pytest.raises(SequenceError):
        ExponentMask(0.5, MaskSpec("log_damped", c=0.5, bound_c=2.0))
    ok = ExponentMask(0.5, MaskSpec("table", bound_c=1.0,
                                    table_x=(0.0, 10.0, 100.0), table_y=(1.0, 0.5, 0.1)))
    assert float(ok.inv_values(np.array(2))) == pytest.approx(
        math.exp(-1.0) * np.interp(2.0, [0, 10, 100], [1.0, 0.5, 0.1])
    )


def test_mask_power_reciprocal_difference_bound():
    seq = MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0))
    ks = np.arange(1, 10**4 + 1)
    inv = seq.inv_values(ks)
    diffs = np.abs(np.diff(inv))
    envelope = (1.0 + ks[:-1]) ** -2.5
    C = float(np.max(diffs / envelope))
    assert np.all(diffs <= (C + 1e-12) * envelope)
    assert C < 10.0


def test_product_matches_per_coordinate():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        factors = tuple(Korobov(1.0 + 0.5 * j) for j in range(d))
        prod = ProductSequence(factors)
        ks = rng.integers(-40, 41, size=(1000, d))
        expect = np.ones(len(ks))
        for j in range(d):
            expect *= factors[j].values(ks[:, j])
        assert np.allclose(prod.values(ks), expect, rtol=1e-15)


def test_korobov_product_dimension():
    k2 = Korobov(2.0, dimension=2)
    assert eval_lambda(k2, (3, 2)) == 9.0 * 4.0
    assert eval_lambda(k2, (0, 5)) == 25.0


def test_axis_factors():
    factors = (Korobov(1.0), Exponential(0.5))
    assert ProductSequence(factors).axis_factors() == factors
    assert Korobov(2.0, dimension=3).axis_factors() == (Korobov(2.0),) * 3
    assert Exponential(0.5, dimension=2).axis_factors() == (Exponential(0.5),) * 2
    assert Constant(3.0, dimension=2).axis_factors() == (Constant(3.0), Constant(1.0))
    mask = MaskPower(1.5)
    assert mask.axis_factors() == (mask,)  # a univariate sequence is its own factor
    ks = np.random.default_rng(2).integers(-20, 21, size=(200, 2))
    for seq in (Korobov(1.5, 2), Exponential(0.5, 2), Constant(3.0, 2), ProductSequence(factors)):
        parts = [f.values(ks[:, j]) for j, f in enumerate(seq.axis_factors())]
        assert np.array_equal(seq.values(ks), parts[0] * parts[1])


def test_custom_requires_contiguous_table():
    with pytest.raises(SequenceError):
        CustomSequence({0: 1.0, 2: 1.0, -2: 1.0}, TailRule("power", rate=1.0))
    with pytest.raises(SequenceError):
        CustomSequence({0: 0.0}, TailRule("power", rate=1.0))


def test_truncated_generator_table():
    t = truncated(Korobov(2.0), 3)
    assert eval_lambda(t, 2) == 4.0
    assert float(t.inv_values(np.array(5))) == 0.0
    assert math.isinf(eval_lambda(t, 5))
    assert t.tail_rule().kind == "finite"


def test_tail_bounds_dominate_brute_force():
    for seq in (Korobov(2.0), Exponential(0.5),
                MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0))):
        K = 50
        ks = np.arange(K + 1, K + 20001)
        inv = np.abs(seq.inv_values(ks))
        brute_l1 = 2 * float(np.sum(inv))
        brute_l2 = 2 * float(np.sum(inv**2))
        assert seq.inv_l1_tail(K) >= brute_l1
        assert seq.inv_l2_tail_sq(K) >= brute_l2
        assert seq.inv_sup_tail(K) >= float(inv[0])


def test_tail_bounds_at_radius_zero():
    for seq in (Korobov(2.0), Korobov(0.75), Exponential(0.5),
                MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0))):
        ks = np.arange(1, 200001)
        inv = np.abs(seq.inv_values(ks))
        l1, l2 = seq.inv_l1_tail(0), seq.inv_l2_tail_sq(0)
        assert math.isfinite(l2) and l2 >= 2 * float(np.sum(inv**2))
        assert math.isinf(l1) or l1 >= 2 * float(np.sum(inv))
    assert math.isfinite(Korobov(2.0).inv_l1_tail(0))


@st.composite
def _tail_families(draw):
    """A member of every family with a tail rule, and a radius K around its rule radius."""
    kind = draw(st.sampled_from(
        ["korobov", "exponential", "mask_power", "exponent_mask", "truncated", "custom"]
    ))
    rate = draw(st.floats(0.55, 4.0))
    if kind == "korobov":
        seq = Korobov(rate)
    elif kind == "exponential":
        seq = Exponential(rate)
    elif kind == "mask_power":
        c = draw(st.floats(0.05, 2.0))
        seq = MaskPower(rate, MaskSpec("log_damped", c=c, bound_c=1.0 + c))
    elif kind == "exponent_mask":
        ys = sorted(draw(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=5)), reverse=True)
        envelope = MaskSpec("table", table_x=tuple(range(len(ys))), table_y=tuple(ys))
        seq = ExponentMask(rate, envelope)
    elif kind == "truncated":
        seq = truncated(Korobov(rate), draw(st.integers(0, 40)))
    else:
        radius = draw(st.integers(0, 40))
        table = draw(st.lists(st.floats(0.05, 20.0), min_size=2 * radius + 1,
                              max_size=2 * radius + 1))
        tail = TailRule(draw(st.sampled_from(["power", "exponential"])), rate=rate,
                        scale=draw(st.floats(0.1, 10.0)))
        seq = CustomSequence(dict(zip(range(-radius, radius + 1), table)), tail)
    K = draw(st.integers(0, seq.tail_rule().radius + 60))
    return seq, K


@given(_tail_families())
@settings(max_examples=150, deadline=None)
def test_tail_bounds_dominate_brute_force_property(case):
    seq, K = case
    R = seq.tail_rule().radius
    ks = np.arange(K + 1, max(K, R) + 40001)
    inv = np.abs(seq.inv_values(np.concatenate([ks, -ks])))
    assert seq.inv_l1_tail(K) >= math.fsum(inv)
    assert seq.inv_l2_tail_sq(K) >= math.fsum(inv**2)
    assert seq.inv_sup_tail(K) >= float(inv.max())
    beyond = np.abs(ks) > R
    assert seq.tail_rule().inv_sup(K) >= float(np.max(inv[np.concatenate([beyond, beyond])]))


def test_tail_rule_divergence_flags():
    rule = Korobov(0.4).tail_rule()
    assert math.isinf(rule.inv_l1(10))
    assert math.isinf(rule.inv_l2_sq(10))
    assert Constant(2.0).inv_l1_tail(10) == math.inf


@given(st.integers(min_value=-500, max_value=500))
@settings(max_examples=60, deadline=None)
def test_symmetric_families_hypothesis(k):
    for seq in (Korobov(1.3), Exponential(0.7)):
        assert float(seq.values(k)) == float(seq.values(-k))


@given(st.floats(min_value=0.1, max_value=4.0), st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_korobov_inverse_consistency(r, k):
    seq = Korobov(r)
    assert float(seq.inv_values(k)) == pytest.approx(1.0 / float(seq.values(k)), rel=1e-12)


def test_custom_complex_values():
    table = {0: 1.0, 1: 1.0 + 1.0j, -1: 1.0 - 1.0j}
    seq = CustomSequence(table, TailRule("power", rate=2.0))
    assert eval_lambda(seq, 1) == 1.0 + 1.0j
    assert isinstance(eval_lambda(seq, 1), complex)
    assert float(np.abs(seq.inv_values(np.array(1)))) == pytest.approx(2**-0.5)
    # tail continuation stays real
    assert eval_lambda(seq, 5) == 25.0
    with pytest.raises(SequenceError):
        check_nondecreasing_type(seq, 2)
