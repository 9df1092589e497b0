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
    _scan_constant_1d,
    box_inv_tail,
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


@st.composite
def _scan_cases(draw):
    radius = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["table", "ties", "constant", "truncated"]))
    if kind == "constant":
        return Constant(draw(st.floats(0.1, 10.0))), radius
    if kind == "truncated":
        return truncated(Korobov(draw(st.floats(0.1, 3.0))), radius + draw(st.integers(0, 3))), radius
    # "ties" draws from four values, so equal ratios and equal maxima recur
    values = st.floats(0.05, 20.0) if kind == "table" else st.sampled_from([0.5, 1.0, 2.0, 3.0])
    R = radius + draw(st.integers(0, 3))
    table = draw(st.lists(values, min_size=2 * R + 1, max_size=2 * R + 1))
    return CustomSequence(dict(zip(range(-R, R + 1), table)), TailRule("power", rate=1.0)), radius


@given(_scan_cases())
@settings(max_examples=200, deadline=None)
def test_scan_constant_is_the_brute_force_least_ratio(case):
    # the constant is the least theta_k / theta_l over |l| < |k| <= radius, bit
    # for bit, and the witness pair attains it, on either side of 0
    seq, radius = case
    ks = range(-radius, radius + 1)
    theta = dict(zip(ks, seq.values(np.array(ks)).tolist()))
    brute = min(theta[k] / theta[l] for k in ks for l in ks if abs(l) < abs(k))
    c, (k, l) = _scan_constant_1d(seq, radius)
    assert c == brute
    assert abs(l) < abs(k) <= radius and theta[k] / theta[l] == brute
    assert check_nondecreasing_type(seq, radius).constant == brute


@pytest.mark.parametrize("make, key", [
    (lambda: Korobov(math.nan), "r"),
    (lambda: Korobov(math.inf), "r"),
    (lambda: Korobov(1.0, dimension=0), "dimension"),
    (lambda: Exponential(math.nan), "s"),
    (lambda: Exponential(0.5, dimension=-1), "dimension"),
    (lambda: MaskPower(math.nan), "r"),
    (lambda: ExponentMask(math.inf), "s"),
    (lambda: Constant(math.nan), "v"),
    (lambda: Constant(-math.inf), "v"),
    (lambda: Constant(0.0), "v"),
    (lambda: Constant(1.0, dimension=0), "dimension"),
    (lambda: MaskSpec(bound_c=math.nan), "bound_c"),
    (lambda: MaskSpec(bound_c=math.inf), "bound_c"),
    (lambda: MaskSpec(c=math.nan), "c"),
    (lambda: MaskSpec("log_damped", c=3.0), "c"),
    (lambda: MaskSpec("sine"), "profile"),
    (lambda: TailRule("power", rate=math.nan), "rate"),
    (lambda: TailRule("constant", scale=math.nan), "scale"),
    (lambda: TailRule("exponential", rate=1.0, scale=math.inf), "scale"),
])
def test_sequence_parameters_fail_at_construction(make, key):
    # a NaN or infinite parameter, or dimension 0, is an error naming the
    # parameter, not a sequence that fails later (or never) inside a sweep
    with pytest.raises(SequenceError, match=rf"^{key} must be|^log_damped amplitude|^unknown mask profile") as err:
        make()
    assert err.value.key == key


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("v", [2.0, -2.5, 0.3])
def test_constant_values_are_the_full_arrays(d, v):
    # Constant takes values and inv_values from its axis factors; they are
    # bit for bit the arrays filled with v and 1 / v
    seq, rng = Constant(v, dimension=d), np.random.default_rng(d)
    for ks in (rng.integers(-9, 10, size=(d,) if d > 1 else ()),
               rng.integers(-9, 10, size=(7, d) if d > 1 else (7,)),
               rng.integers(-9, 10, size=(3, 4, d) if d > 1 else (3, 4))):
        shape = np.shape(ks) if d == 1 else np.shape(ks)[:-1]
        for got, want in ((seq.values(ks), np.full(shape, v)), (seq.inv_values(ks), np.full(shape, 1.0 / v))):
            assert got.shape == shape and got.dtype == np.float64
            assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))


def test_custom_requires_contiguous_table():
    with pytest.raises(SequenceError):
        CustomSequence({0: 1.0, 2: 1.0, -2: 1.0}, TailRule("power", rate=1.0))
    with pytest.raises(SequenceError):
        CustomSequence({0: 0.0}, TailRule("power", rate=1.0))


def test_custom_and_mask_tables_must_be_finite():
    # a nan or inf entry was accepted, and a custom table read back nan
    for bad in (math.nan, math.inf, complex(1.0, math.nan)):
        with pytest.raises(SequenceError, match="must be finite") as info:
            CustomSequence({0: 1.0, 1: bad, -1: 0.5}, TailRule("power", rate=1.0))
        assert info.value.key == "table"
    for xs, ys in (((0.0, 1.0), (1.0, math.nan)), ((0.0, math.inf), (1.0, 2.0))):
        with pytest.raises(SequenceError, match="must be finite"):
            MaskSpec("table", table_x=xs, table_y=ys)
    # an overflowed value is a non-finite table entry too: a truncation's
    with pytest.raises(SequenceError, match="must be finite"):
        truncated(Exponential(1.0), 800)


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
        assert seq.inv_tail(K, 1) >= brute_l1
        assert seq.inv_tail(K, 2) >= brute_l2
        assert seq.inv_tail(K, math.inf) >= float(inv[0])


def test_tail_bounds_at_radius_zero():
    for seq in (Korobov(2.0), Korobov(0.75), Exponential(0.5),
                MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0))):
        ks = np.arange(1, 200001)
        inv = np.abs(seq.inv_values(ks))
        l1, l2 = seq.inv_tail(0, 1), seq.inv_tail(0, 2)
        assert math.isfinite(l2) and l2 >= 2 * float(np.sum(inv**2))
        assert math.isinf(l1) or l1 >= 2 * float(np.sum(inv))
    assert math.isfinite(Korobov(2.0).inv_tail(0, 1))


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
    rule = seq.tail_rule()
    ks = np.arange(K + 1, max(K, rule.radius) + 40001)
    inv = np.abs(seq.inv_values(np.concatenate([ks, -ks])))
    beyond = inv[np.tile(ks > rule.radius, 2)]  # what the rule alone bounds

    def brute(vals, power):
        return float(vals.max()) if power == math.inf else math.fsum(vals**power)

    for power in (1, 2, math.inf):
        assert seq.inv_tail(K, power) >= brute(inv, power), power
        assert rule.inv_tail(K, power) >= brute(beyond, power), power


def test_tail_bound_holds_where_the_tail_is_subnormal():
    # e^{-2 rate 96} is subnormal at rate 3.71484375: a relative pad alone left
    # this bound (1.38934001616e-311) below the brute sum (1.389340016161e-311);
    # at rate 3.9 it underflows to 0, and scale 0.1 lifts the sum to 1e-323
    for rate, scale in ((3.71484375, 5.0), (3.9, 0.1)):
        seq = CustomSequence({k: 1.0 for k in range(-35, 36)},
                             TailRule("exponential", rate=rate, scale=scale))
        ks = np.arange(96, 40096)
        inv = np.abs(seq.inv_values(np.concatenate([ks, -ks])))
        assert seq.inv_tail(95, 2) >= math.fsum(inv**2) > 0
    # far below 2^-1074 the bound keeps its rounding to 0, and exact zeros stay 0
    assert TailRule("exponential", rate=4.0, scale=0.1).inv_tail(300, 2) == 0.0
    assert truncated(Korobov(2.0), 5).inv_tail(5, 2) == 0.0
    assert TailRule("finite", radius=3).inv_tail(10, math.inf) == 0.0


@pytest.mark.parametrize("power", [1, 2, math.inf])
def test_box_tail_of_one_axis_is_the_sequence_tail(power):
    lopsided = CustomSequence(
        {k: (1 + abs(k)) ** (2.0 if k > 0 else 1.2) for k in range(-8, 9)},
        TailRule("power", rate=1.2, scale=0.7),
    )
    for seq in (Korobov(0.75), Korobov(2.0), Exponential(0.5), Constant(-2.0),
                MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0)),
                ExponentMask(0.5, MaskSpec()), truncated(Korobov(2.0), 5), lopsided,
                ProductSequence((Korobov(1.5),))):
        for K in (0, 1, 4, 30, 300):
            assert box_inv_tail(seq, K, power) == seq.inv_tail(K, power), (seq, K)


def test_tail_rule_divergence_flags():
    rule = Korobov(0.4).tail_rule()
    assert math.isinf(rule.inv_tail(10, 1))
    assert math.isinf(rule.inv_tail(10, 2))
    assert Constant(2.0).inv_tail(10, 1) == math.inf


_SYMMETRIC = (
    Korobov(1.3),
    Exponential(0.7),
    MaskPower(1.5, MaskSpec("log_damped", c=0.5, bound_c=2.0)),
    ExponentMask(0.5, MaskSpec()),
    Constant(-2.5),
    ProductSequence((Korobov(0.8),)),
    CustomSequence({0: 2.0 - 1.0j, 1: 1.0 + 3.0j, -1: 1.0 + 3.0j}, TailRule("power", rate=1.2)),
)


@given(st.integers(min_value=-500, max_value=500))
@settings(max_examples=60, deadline=None)
def test_symmetric_families_hypothesis(k):
    # The d = 1 alias profile takes the negative side of a symmetric beta to
    # be the positive side reversed, so the reciprocals must agree bit for bit.
    ks = np.array([k, 3 * k + 1, 40 * k - 7])
    for seq in _SYMMETRIC:
        assert seq.symmetric
        for method in (seq.values, seq.inv_values):
            here, mirrored = np.asarray(method(ks)), np.asarray(method(-ks))
            assert here.view(np.int64).tolist() == mirrored.view(np.int64).tolist()
    pair = ProductSequence((Korobov(1.3), Exponential(0.7)))
    kk = np.stack([ks, ks[::-1] + 2], axis=-1)
    assert pair.symmetric
    assert pair.inv_values(kk).view(np.int64).tolist() == (
        pair.inv_values(-kk).view(np.int64).tolist()
    )


def test_asymmetric_custom_sequence_reports_it():
    lopsided = CustomSequence({0: 1.0, 1: 2.0, -1: 0.5}, TailRule("power", rate=1.0))
    conjugate = CustomSequence({0: 1.0, 1: 1.0 + 1.0j, -1: 1.0 - 1.0j}, TailRule("power", rate=2.0))
    assert not lopsided.symmetric
    assert not conjugate.symmetric  # theta_{-k} = conj(theta_k) is not theta_{-k} = theta_k
    assert not ProductSequence((Korobov(1.0), lopsided)).symmetric


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
