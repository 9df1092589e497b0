"""Coefficient sequences defining periodic generator functions.

A coefficient sequence assigns a nonzero weight theta_k to every integer
frequency k in Z^d.  The reciprocals theta_k^{-1} are the Fourier
coefficients of the associated generator function, so what the rest of
the package cares about is reciprocal decay: every family evaluates its
reciprocals directly (never as 1/value, which may overflow) and carries
a tail rule from which truncation bounds are derived.

Built-in families (all real-valued and symmetric):

* ``Korobov(r)``        theta_k = |k|^r for k != 0, theta_0 = 1;
                        coordinate product for dimension > 1.
* ``Exponential(s)``    reciprocals e^{-s|k|}, i.e. theta_k = e^{s|k|};
                        product over coordinates for dimension > 1.
* ``MaskPower(r, osc)`` reciprocals (1+|k|)^{-r} F(log|k|) for a bounded
                        smooth profile F.
* ``ExponentMask(s, env)`` reciprocals e^{-s|k|} F(|k|) for a decreasing
                        envelope F.
* ``Constant(v)``       theta_k = v everywhere.
* ``ProductSequence``   coordinate product of univariate sequences.
* ``CustomSequence``    explicit table on |k| <= radius plus a tail rule
                        that both defines values beyond the table and
                        makes truncation bounds computable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "CoefficientSequence",
    "Korobov",
    "Exponential",
    "MaskPower",
    "ExponentMask",
    "Constant",
    "ProductSequence",
    "CustomSequence",
    "MaskSpec",
    "TailRule",
    "NondecreasingReport",
    "eval_lambda",
    "check_nondecreasing_type",
    "mask_sequence_value",
    "truncated",
]


class SequenceError(ValueError):
    """Invalid sequence construction or evaluation; ``key`` names the bad parameter, if any."""

    def __init__(self, message: str, key: Optional[str] = None):
        super().__init__(message)
        self.key = key


_POSITIVE = (lambda x: 0 < x < math.inf, "finite and > 0")
# what each sequence parameter must be, by name: (test, the rule in words)
_PARAMETERS = dict(
    r=_POSITIVE, s=_POSITIVE, bound_c=_POSITIVE,
    v=(lambda x: math.isfinite(x) and x != 0, "finite and nonzero"),
    dimension=(lambda x: x >= 1, ">= 1"),
    c=(math.isfinite, "finite"), rate=(math.isfinite, "finite"), scale=(math.isfinite, "finite"),
)


def _check_parameters(**values) -> None:
    """Raise a SequenceError, keyed by name, at the first value that breaks
    its parameter's rule in ``_PARAMETERS``."""
    for name, value in values.items():
        ok, need = _PARAMETERS[name]
        if not ok(value):
            raise SequenceError(f"{name} must be {need}, got {value!r}", name)


# ---------------------------------------------------------------------------
# Tail rules

_EPS = sys.float_info.epsilon
_TINY = math.ldexp(1.0, -1074)  # the least subnormal
_LOG_TINY = math.log(_TINY)
_SCAN = 256  # indices an exact sup scan covers past the radius


def _round_up(x: float, log_term: float = 0.0, factor: Optional[float] = None) -> float:
    """x raised past the few-ulp error of the arithmetic that produced it.

    Rounding the argument of exp or pow scales a term by up to
    e^{|log_term| eps}, so that error grows with |log_term|.  Where x is
    ``factor * e^{log_term}`` (``factor`` given), the exponential and the
    steps after it may be subnormal: each then carries an absolute error
    of up to one 2^-1074, the first one scaled by ``factor``, so x is also
    padded by ``4 (1 + factor) 2^-1074``.  A value below 2^-1074 / e keeps
    its rounding to 0, as every term of the sum it bounds rounds to 0 too.
    Where x and the exponential exceed about 1e-306 the pad is below half
    an ulp of x and leaves it unchanged.
    """
    up = x * (1.0 + (8.0 + abs(log_term)) * _EPS)
    if factor is None or log_term + math.log(factor) < _LOG_TINY - 1.0:
        return up
    return up + 4.0 * (1.0 + factor) * _TINY


@dataclass(frozen=True)
class TailRule:
    """Decay description of a sequence for |k| > radius.

    ``power``:       |theta_k| >= scale * |k|^rate   (rate > 0 grows)
    ``exponential``: |theta_k| >= scale * e^{rate |k|}
    ``finite``:      theta_k^{-1} = 0 beyond radius (truncated generator)
    ``constant``:    |theta_k| = scale beyond radius

    ``exact`` says the reciprocals equal the rule's profile beyond the
    radius instead of only being bounded by it (Korobov, Exponential, and
    CustomSequence, whose tail rule is its continuation), so sums of the
    profile bound the reciprocal sums from below as well as from above.
    """

    kind: str
    rate: float = 0.0
    scale: float = 1.0
    radius: int = 0
    exact: bool = False

    def __post_init__(self):
        if self.kind not in ("power", "exponential", "finite", "constant"):
            raise SequenceError(f"unknown tail kind {self.kind!r}")
        _check_parameters(rate=self.rate, scale=self.scale)
        if self.kind in ("power", "exponential") and self.scale <= 0:
            raise SequenceError("tail scale must be positive")

    def inv_tail(self, K: int, power: float) -> float:
        """Bound on the sum over |k| > K, both signs of k, of |theta_k^{-1}|^power
        (power 1 or 2), or on their sup at power = inf; rounded up, inf when
        the sum diverges."""
        K = max(K, self.radius)
        if self.kind == "finite":
            return 0.0
        if power == math.inf:
            if self.kind == "constant":
                return _round_up(1.0 / self.scale)
            if self.rate <= 0:
                return math.inf
            if self.kind == "power":
                log_term = -self.rate * math.log(K + 1)
                return _round_up((K + 1) ** (-self.rate) / self.scale, log_term, 1.0 / self.scale)
            log_term = -self.rate * (K + 1)
            return _round_up(math.exp(log_term) / self.scale, log_term, 1.0 / self.scale)
        q, scale = power * self.rate, self.scale**power
        if self.kind == "power" and q > 1:
            # integral bound beyond max(K, 1); at K = 0 the k = 1 term stands apart
            log_term = (1.0 - q) * math.log(max(K, 1))
            head = 1.0 if K == 0 else 0.0
            factor = 1.0 / (q - 1.0)
            total = head + max(K, 1) ** (1.0 - q) / (q - 1.0)
        elif self.kind == "exponential" and q > 0:
            log_term = -q * (K + 1)
            factor = 1.0 / -math.expm1(-q)
            total = math.exp(log_term) / -math.expm1(-q)
        else:
            return math.inf
        return _round_up(2.0 * total / scale, log_term, 2.0 * factor / scale)

    def radius_for(self, target: float, power: float, cap: int = 10**7) -> int:
        """Smallest K >= max(radius, 1), up to cap, with inv_tail(K, power) <= target, else cap."""
        lo = max(self.radius, 1)
        if self.inv_tail(cap, power) > target:
            return cap
        hi = lo
        while self.inv_tail(hi, power) > target:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self.inv_tail(mid, power) <= target:
                hi = mid
            else:
                lo = mid + 1
        return lo


# ---------------------------------------------------------------------------
# Mask profiles


@dataclass(frozen=True)
class MaskSpec:
    """Bounded smooth profile F with |F(t)|, |F'(t)| <= bound_c for t > 1.

    Masks are nominally twice continuously differentiable, but only the
    value and first-derivative bounds enter any estimate, so only those
    are checked (by sampling; see ``check_bounds``).

    Profiles:
      ``one``         F(t) = 1.
      ``log_damped``  F(t) = 1 + c sin(t)/(1+|t|), oscillation amplitude
                      c in (0, 1) so F stays positive.
      ``table``       linear interpolation of (table_x, table_y) with
                      constant extension outside the table range.
    """

    profile: str = "one"
    c: float = 0.0
    bound_c: float = 1.0
    table_x: Optional[tuple] = None
    table_y: Optional[tuple] = None

    def __post_init__(self):
        if self.profile not in ("one", "log_damped", "table"):
            raise SequenceError(f"unknown mask profile {self.profile!r}", "profile")
        _check_parameters(c=self.c, bound_c=self.bound_c)
        # sup |sin t|/(1+|t|) ~ 0.4247, so positivity needs c < 2.35
        if self.profile == "log_damped" and not 0 < self.c < 2.35:
            raise SequenceError("log_damped amplitude must lie in (0, 2.35)", "c")
        if self.profile == "table":
            if not self.table_x or not self.table_y:
                raise SequenceError("table profile needs table_x and table_y")
            if len(self.table_x) != len(self.table_y):
                raise SequenceError("table_x and table_y lengths differ")
            if not (np.all(np.isfinite(self.table_x)) and all(0 < y < math.inf for y in self.table_y)):
                raise SequenceError("table profile points must be finite and its values positive")

    def F(self, t):
        t = np.asarray(t, dtype=float)
        if self.profile == "one":
            return np.ones_like(t)
        if self.profile == "log_damped":
            return 1.0 + self.c * np.sin(t) / (1.0 + np.abs(t))
        return np.interp(t, self.table_x, self.table_y)

    @property
    def left_limit(self) -> float:
        """Profile value used when the mask argument degenerates (k = 0)."""
        return float(self.table_y[0]) if self.profile == "table" else 1.0

    def is_decreasing(self) -> bool:
        v = self.F(np.linspace(0.0, 50.0, 2001))
        return bool(np.all(np.diff(v) <= 1e-12))

    def check_bounds(self):
        """Sample |F| and |F'| at 4001 points of [1, 50]; returns (max|F|, max|F'|, ok)."""
        t = np.linspace(1.0, 50.0, 4001)
        v = self.F(t)
        h = t[1] - t[0]
        dv = np.gradient(v, h)
        m0 = float(np.max(np.abs(v)))
        m1 = float(np.max(np.abs(dv)))
        tol = 1e-6 + 10 * h  # finite differences are inexact near kinks
        return m0, m1, m0 <= self.bound_c + tol and m1 <= self.bound_c + tol


def mask_sequence_value(spec: MaskSpec, r: float, k: int) -> float:
    """Mask value (1+|k|)^{-r} F(log|k|); at k = 0 the profile's limit."""
    return float(MaskPower(r, spec).inv_values(k))


# ---------------------------------------------------------------------------
# Sequence families


class CoefficientSequence:
    """Rule k -> theta_k over Z^d with theta_k never zero.

    ``values`` may overflow to inf for rapidly growing families; all
    internal consumers use ``inv_values`` which stays bounded.
    """

    dimension: int = 1
    family: str = "base"

    def _axis_values(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _axis_inv_values(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values(self, k) -> np.ndarray:
        return self._over_axes(k, "_axis_values")

    def inv_values(self, k) -> np.ndarray:
        return self._over_axes(k, "_axis_inv_values")

    def _over_axes(self, k, method: str) -> np.ndarray:
        """The univariate ``method`` at k, multiplied over the axis factors."""
        k = self._check_indices(k)
        if self.dimension == 1:
            return getattr(self, method)(k)
        out = np.ones(k.shape[:-1])
        for j, factor in enumerate(self.axis_factors()):
            out = out * getattr(factor, method)(k[..., j])
        return out

    def axis_factors(self) -> Optional[tuple]:
        """Univariate factors with theta_k = prod_j theta^(j)_{k_j}, or None.

        A univariate sequence is its own single factor; a multivariate one
        that is not a product over axes returns None and must override
        ``values`` and ``inv_values``.
        """
        return (self,) if self.dimension == 1 else None

    def _check_indices(self, k) -> np.ndarray:
        k = np.asarray(k)
        if not np.issubdtype(k.dtype, np.integer):
            if np.any(k != np.round(k)):
                raise SequenceError("frequency indices must be integers")
            k = np.round(k).astype(np.int64)
        if self.dimension == 1:
            return k
        if k.ndim == 0 or k.shape[-1] != self.dimension:
            raise SequenceError(
                f"expected indices with last axis {self.dimension}, got shape {k.shape}"
            )
        return k

    def tail_rule(self) -> TailRule:
        raise NotImplementedError

    @property
    def symmetric(self) -> bool:
        """True only if theta_{-k} = theta_k for every k, bit for bit.

        ``two_sided`` relies on it: for a symmetric sequence it takes
        ``inv_values(-k)`` to be ``inv_values(k)`` and evaluates one side
        only.  A subclass that does not say otherwise is not trusted to be
        symmetric; the families that see k only through |k| override this.
        """
        return False

    def inv_tail(self, K: int, power: float) -> float:
        """``TailRule.inv_tail`` of this univariate sequence, rounded up.

        Entries inside the rule radius are taken exactly (a sum by fsum), and
        the sup also scans ``_SCAN`` indices past K; the rule bounds the rest.
        """
        if self.dimension != 1:
            raise SequenceError("inv_tail is univariate; use box_inv_tail")
        rule = self.tail_rule()
        top = max(rule.radius, K + 1 + _SCAN) if power == math.inf else rule.radius
        if K >= top:
            return rule.inv_tail(K, power)
        pos, neg = two_sided(self, np.arange(K + 1, top + 1))
        if power == math.inf:
            return max(float(pos.max()), float(neg.max()), rule.inv_tail(top, power))
        head = [*(pos**power).tolist(), *(neg**power).tolist()]
        return _round_up(math.fsum(head + [rule.inv_tail(top, power)]))


@dataclass(frozen=True)
class Korobov(CoefficientSequence):
    """theta_k = |k|^r (k != 0) with theta_0 = 1, coordinatewise product."""

    r: float
    dimension: int = 1
    family: str = field(default="korobov", init=False)

    def __post_init__(self):
        _check_parameters(r=self.r, dimension=self.dimension)

    def _axis_values(self, k):
        # theta_0 = 1 ** r = 1 exactly, so k = 0 needs no branch
        return np.maximum(np.abs(np.asarray(k, dtype=float)), 1.0) ** self.r

    def _axis_inv_values(self, k):
        return np.maximum(np.abs(np.asarray(k, dtype=float)), 1.0) ** (-self.r)

    def axis_factors(self):
        return (Korobov(self.r),) * self.dimension

    symmetric = True

    def tail_rule(self):
        return TailRule("power", rate=self.r, scale=1.0, radius=0, exact=True)


@dataclass(frozen=True)
class Exponential(CoefficientSequence):
    """Reciprocals e^{-s|k|}: theta_k = e^{s|k|}, product over coordinates.

    The growing orientation is forced by the error theory: the sup and
    difference tails of the reciprocal sequence must be finite.
    """

    s: float
    dimension: int = 1
    family: str = field(default="exponential", init=False)

    def __post_init__(self):
        _check_parameters(s=self.s, dimension=self.dimension)

    def _axis_values(self, k):
        a = np.abs(np.asarray(k, dtype=float))
        with np.errstate(over="ignore"):  # theta may overflow to inf
            return np.exp(self.s * a)

    def _axis_inv_values(self, k):
        a = np.abs(np.asarray(k, dtype=float))
        return np.exp(-self.s * a)

    def axis_factors(self):
        return (Exponential(self.s),) * self.dimension

    symmetric = True

    def tail_rule(self):
        return TailRule("exponential", rate=self.s, scale=1.0, radius=0, exact=True)


@dataclass(frozen=True)
class MaskPower(CoefficientSequence):
    """Reciprocals (1+|k|)^{-r} F(log|k|) for a bounded oscillation F."""

    r: float
    oscillation: MaskSpec = field(default_factory=MaskSpec)
    family: str = field(default="mask_power", init=False)
    dimension: int = field(default=1, init=False)

    def __post_init__(self):
        _check_parameters(r=self.r)

    def _mask(self, k):
        a = np.abs(np.asarray(k, dtype=float))
        with np.errstate(divide="ignore"):
            t = np.where(a == 0, 0.0, np.log(np.maximum(a, 1e-300)))
        f = self.oscillation.F(t)
        out = (1.0 + a) ** (-self.r) * f
        return np.where(a == 0, self.oscillation.left_limit, out)

    def _axis_values(self, k):
        return 1.0 / self._mask(k)

    def _axis_inv_values(self, k):
        return self._mask(k)

    symmetric = True

    def tail_rule(self):
        # |F| <= bound_c gives reciprocal bound bound_c * |k|^{-r}
        return TailRule("power", rate=self.r, scale=1.0 / self.oscillation.bound_c, radius=0)


@dataclass(frozen=True)
class ExponentMask(CoefficientSequence):
    """Reciprocals e^{-s|k|} F(|k|) for a decreasing envelope F >= 0."""

    s: float
    envelope: MaskSpec = field(default_factory=MaskSpec)
    family: str = field(default="exponent_mask", init=False)
    dimension: int = field(default=1, init=False)

    def __post_init__(self):
        _check_parameters(s=self.s)
        if not self.envelope.is_decreasing():
            raise SequenceError("exponent-type envelope must be decreasing on [0, inf)", "profile")

    def _axis_values(self, k):
        a = np.abs(np.asarray(k, dtype=float))
        with np.errstate(over="ignore"):  # theta may overflow to inf
            return np.exp(self.s * a) / self.envelope.F(a)

    def _axis_inv_values(self, k):
        a = np.abs(np.asarray(k, dtype=float))
        return np.exp(-self.s * a) * self.envelope.F(a)

    symmetric = True

    def tail_rule(self):
        f0 = float(self.envelope.F(0.0))
        return TailRule("exponential", rate=self.s, scale=1.0 / f0, radius=0)


@dataclass(frozen=True)
class Constant(CoefficientSequence):
    """theta_k = v everywhere (v != 0)."""

    v: float
    dimension: int = 1
    family: str = field(default="constant", init=False)

    def __post_init__(self):
        _check_parameters(v=self.v, dimension=self.dimension)

    # perfbench/tracing.py patches the class's own inv_values entry
    inv_values = CoefficientSequence.inv_values

    def _axis_values(self, k):
        return np.full(np.shape(np.asarray(k, dtype=float)), float(self.v))

    def _axis_inv_values(self, k):
        return np.full(np.shape(np.asarray(k, dtype=float)), 1.0 / self.v)

    def axis_factors(self):
        # theta is v on all of Z^d, so only the first axis carries the value
        return (Constant(self.v),) + (Constant(1.0),) * (self.dimension - 1)

    symmetric = True

    def tail_rule(self):
        return TailRule("constant", scale=abs(self.v), radius=0)


@dataclass(frozen=True)
class ProductSequence(CoefficientSequence):
    """Coordinate product of univariate sequences."""

    factors: tuple
    family: str = field(default="product", init=False)

    def __post_init__(self):
        if len(self.factors) < 1:
            raise SequenceError("product needs at least one factor")
        for f in self.factors:
            if f.dimension != 1:
                raise SequenceError("product factors must be univariate")
        object.__setattr__(self, "dimension", len(self.factors))

    def axis_factors(self):
        return tuple(self.factors)

    def _axis_values(self, k):  # pragma: no cover - dimension 1 product
        return self.factors[0]._axis_values(k)

    def _axis_inv_values(self, k):  # pragma: no cover
        return self.factors[0]._axis_inv_values(k)

    def tail_rule(self):
        if self.dimension == 1:
            return self.factors[0].tail_rule()
        raise SequenceError("tail_rule is univariate; use per-axis factors")

    @property
    def symmetric(self):
        return all(f.symmetric for f in self.factors)


@dataclass(frozen=True)
class CustomSequence(CoefficientSequence):
    """Explicit table on |k| <= radius with a mandatory tail rule.

    The tail rule defines values beyond the table: power gives
    theta_k = scale |k|^rate, exponential gives scale e^{rate |k|} and
    ``finite`` pins theta_k^{-1} = 0 (an inf value: the generator is a
    trigonometric polynomial supported on the table range).
    """

    table: dict
    tail: TailRule
    family: str = field(default="custom", init=False)
    dimension: int = field(default=1, init=False)

    def __post_init__(self):
        if not self.table:
            raise SequenceError("custom table must be nonempty")
        radius = max(abs(int(k)) for k in self.table)
        for k in range(-radius, radius + 1):
            if k not in self.table:
                raise SequenceError(f"custom table missing index {k}")
            if self.table[k] == 0 or not np.isfinite(self.table[k]):
                raise SequenceError(f"custom table values must be finite and nonzero, got {self.table[k]!r} at {k}", "table")
        object.__setattr__(self, "tail", replace(self.tail, radius=radius, exact=True))
        entries = [self.table[k] for k in range(-radius, radius + 1)]
        dtype = complex if any(isinstance(v, complex) and v.imag != 0 for v in entries) else float
        dense = np.array(entries, dtype=dtype)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_radius", radius)
        object.__setattr__(self, "_symmetric", bool(np.array_equal(dense, dense[::-1])))

    def _tail_values(self, a: np.ndarray) -> np.ndarray:
        if self.tail.kind == "power":
            return self.tail.scale * a ** self.tail.rate
        if self.tail.kind == "exponential":
            return self.tail.scale * np.exp(self.tail.rate * a)
        if self.tail.kind == "constant":
            return np.full_like(a, self.tail.scale)
        return np.full_like(a, np.inf)  # finite: generator vanishes beyond table

    def _axis_values(self, k):
        k = np.asarray(k, dtype=np.int64)
        a = np.abs(k).astype(float)
        inside = np.abs(k) <= self._radius
        idx = np.clip(k + self._radius, 0, 2 * self._radius)
        with np.errstate(over="ignore"):
            tail = self._tail_values(np.maximum(a, 1.0))
        return np.where(inside, self._dense[idx], tail)

    def _axis_inv_values(self, k):
        with np.errstate(over="ignore", divide="ignore"):  # a finite tail's inf gives 0
            return 1.0 / self._axis_values(k)

    def tail_rule(self):
        return self.tail

    @property
    def symmetric(self):
        return self._symmetric


def index_box(radius: int, d: int) -> np.ndarray:
    """All indices of the box [-radius, radius]^d in C order.

    For d = 1 the plain range of shape (n,), the index form univariate
    sequences take; otherwise shape (n^d, d).
    """
    ax = np.arange(-radius, radius + 1)
    if d == 1:
        return ax
    return np.stack(np.meshgrid(*[ax] * d, indexing="ij"), axis=-1).reshape(-1, d)


def two_sided(seq: CoefficientSequence, k) -> tuple:
    """(|seq^{-1}(k)|, |seq^{-1}(-k)|) of a univariate sequence; a ``symmetric``
    one returns the same array twice (``neg is pos``) and never evaluates -k."""
    pos = np.abs(np.asarray(seq.inv_values(k)))
    return pos, pos if seq.symmetric else np.abs(np.asarray(seq.inv_values(-np.asarray(k))))


def product_increment(base, extra):
    """prod_j (base_j + extra_j) - prod_j base_j, without cancellation.

    Telescoped as sum_j extra_j prod_{i<j} (base_i + extra_i) prod_{i>j} base_i:
    for nonnegative entries every term is nonnegative, so the result keeps
    its relative accuracy however small ``extra`` is next to ``base``.  The
    entries may be floats or arrays that broadcast together; the result is
    then the broadcast array, entry by entry the same sum.
    """
    total = 0.0
    for j in range(len(base)):
        term = extra[j]
        for i in range(j):
            term = term * (base[i] + extra[i])
        for i in range(j + 1, len(base)):
            term = term * base[i]
        total = total + term
    return total


def box_inv_tail(seq: CoefficientSequence, K: int, power: float) -> float:
    """``inv_tail`` outside the box |k|_inf <= K, in any d.

    A product sequence factors per axis into the sums (or sups) inside
    [-K, K] and the univariate tails; d = 1 is the one-axis case.  Outside
    the box one axis at least is outside [-K, K], so the sup is
    max_a out_a prod_{b != a} max(in_b, out_b).  A multivariate sequence
    without product structure has no tail rule: its sup is scanned over a
    shell ``_SCAN`` wide and its sums are inf.
    """
    axes = seq.axis_factors()
    if axes is None:
        if power != math.inf:
            return math.inf
        box = index_box(K + _SCAN, seq.dimension)
        return float(np.max(np.abs(seq.inv_values(box[np.max(np.abs(box), axis=1) > K]))))
    outside = [ax.inv_tail(K, power) for ax in axes]
    if len(axes) == 1:
        return outside[0]
    inside = [np.abs(np.asarray(ax.inv_values(np.arange(-K, K + 1)))) for ax in axes]
    if power == math.inf:
        alls = [max(float(v.max()), out) for v, out in zip(inside, outside)]
        return max(
            math.prod([outside[a]] + [alls[b] for b in range(len(axes)) if b != a])
            for a in range(len(axes))
        )
    sums = [float(np.sum(v**power)) for v in inside]
    # round outward past the summation error of the inside sums
    return product_increment(sums, outside) * (1.0 + 64 * _EPS)


def truncated(seq: CoefficientSequence, degree: int) -> CoefficientSequence:
    """Degree-capped copy of a univariate sequence.

    Values agree with ``seq`` on |k| <= degree and the reciprocals vanish
    beyond, so the generator becomes a trigonometric polynomial.
    """
    if seq.dimension != 1:
        raise SequenceError("truncated() takes a univariate sequence; build products per axis")
    if degree < 0:
        raise SequenceError("truncation degree must be >= 0", "degree")
    ks = np.arange(-degree, degree + 1)
    table = {int(k): float(seq.values(k)) for k in ks}
    return CustomSequence(table=table, tail=TailRule("finite", radius=degree))


# ---------------------------------------------------------------------------
# Spec operations


def eval_lambda(seq: CoefficientSequence, k):
    """Evaluate theta_k for a single frequency index.

    Raises on dimension mismatch; the result is never zero (it may be
    inf for truncated generator tables).  Built-in families are real;
    custom tables may be complex-valued.
    """
    arr = np.asarray(k)
    if seq.dimension == 1:
        if arr.ndim not in (0, 1) or (arr.ndim == 1 and arr.size != 1):
            raise SequenceError(f"expected a scalar index, got shape {arr.shape}")
        v = seq.values(int(np.ravel(arr)[0]))
    else:
        if arr.ndim != 1 or arr.size != seq.dimension:
            raise SequenceError(
                f"expected an index of dimension {seq.dimension}, got shape {arr.shape}"
            )
        v = seq.values(arr.astype(np.int64))
    return complex(v) if np.iscomplexobj(v) else float(v)


@dataclass(frozen=True)
class NondecreasingReport:
    holds: bool
    constant: Optional[float]
    violation: Optional[tuple]
    probe_radius: int

    def __bool__(self):
        return self.holds


def _scan_constant_1d(seq, radius):
    """Largest c with theta_k >= c theta_l over |l| < |k| <= radius, and a
    pair (k, l) with theta_k / theta_l = c."""
    ks = np.arange(-radius, radius + 1)
    vals = seq.values(ks)
    if np.iscomplexobj(vals):
        raise SequenceError("nondecreasing-type probes need real-valued sequences")
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        bad = int(ks[np.argmin(np.where(np.isfinite(vals), vals, -np.inf))])
        return None, (bad, 0)
    pos, neg = vals[radius:], vals[radius::-1]  # theta_a and theta_-a at a = |k|
    hi = np.maximum(pos, neg)
    ratio = np.minimum(pos, neg)[1:] / np.maximum.accumulate(hi)[:-1]
    a = int(np.argmin(ratio)) + 1  # the first least ratio, and the first |l| at the max below it
    b = int(np.argmax(hi[:a]))
    return ratio[a - 1], (a if pos[a] <= neg[a] else -a, b if pos[b] >= neg[b] else -b)


def _scan_constant_md(seq, radius):
    d = seq.dimension
    if (2 * radius + 1) ** (2 * d) > 4 * 10**8:
        raise SequenceError("probe radius too large for exhaustive multivariate scan")
    grid = index_box(radius, d)
    vals = seq.values(grid)
    if np.iscomplexobj(vals):
        raise SequenceError("nondecreasing-type probes need real-valued sequences")
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        bad = grid[np.argmin(np.where(np.isfinite(vals), vals, -np.inf))]
        return None, (tuple(bad), (0,) * d)
    a = np.abs(grid)
    # mask[i, j]: |k_i| >= |l_j| componentwise
    mask = np.all(a[:, None, :] >= a[None, :, :], axis=-1)
    ratio = vals[:, None] / vals[None, :]
    ratio = np.where(mask, ratio, np.inf)
    idx = np.unravel_index(np.argmin(ratio), ratio.shape)
    return float(ratio[idx]), (tuple(grid[idx[0]]), tuple(grid[idx[1]]))


_SHRINK_FACTOR = 0.9  # how far a probe's certificate may fall from half its radius to all of it


def check_nondecreasing_type(seq: CoefficientSequence, probe_radius: int) -> NondecreasingReport:
    """Finite-range certificate for theta_k >= c theta_l over |k| > |l|.

    Exhausts all index pairs within the probe radius (componentwise
    |k_j| >= |l_j| in several dimensions) and reports the largest
    constant witnessed.  Because any finite range of a positive sequence
    admits some c > 0, failure is diagnosed by decay: the certificate at
    the full radius must not have shrunk below ``_SHRINK_FACTOR`` times
    the certificate at half the radius.  This is a probe, not a proof.
    """
    if probe_radius < 2:
        raise SequenceError("probe_radius must be >= 2")
    scan = _scan_constant_1d if seq.dimension == 1 else _scan_constant_md
    c_half, _ = scan(seq, max(2, probe_radius // 2))
    c_full, pair = scan(seq, probe_radius)
    if c_full is None or c_half is None:
        return NondecreasingReport(False, None, pair, probe_radius)
    holds = bool(c_full >= _SHRINK_FACTOR * c_half and c_full > 1e-12)
    return NondecreasingReport(holds, float(c_full), None if holds else pair, probe_radius)
