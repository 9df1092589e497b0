"""Theoretical error budgets for the translate operator.

Two budgets are computed, matching the error theorems: the p = 2 budget
on the d-torus (sup of the reciprocal tail vs the l2 sum of blockwise
alias maxima, whose block sum factors per axis for product sequences;
d = 1 is the one-axis case) and the univariate general-p budget
(difference tails plus the aliased block-edge sum).  Every report
carries the radius it enumerated and a bound on what that leaves out; a
report whose tail is not negligible is flagged rather than silently
trusted.

The p = 2 block sums are not truncated: the first T blocks are summed
exactly and the rest is bracketed in closed form from the generator's
tail rule (Euler-Maclaurin for power tails, a geometric series for
exponential ones), both ends rounded outward.  The budget takes the
lower end; ``tail_bound`` is the gap to the upper end.  ``J_max`` caps T.

Two index-range conventions are pinned here: the block sum runs over
all nonzero block indices (both signs), and the sup of the reciprocal
tail is taken over the strict exterior |k|_inf > m in every dimension,
matching the univariate convention.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._alias import band_arrays, index_box, k_prime_array
from .sequences import (
    CoefficientSequence,
    Exponential,
    ExponentMask,
    Korobov,
    MaskPower,
    SequenceError,
    TailRule,
    check_nondecreasing_type,
    product_increment,
)

__all__ = [
    "EpsilonReport",
    "RatePrediction",
    "gamma_k",
    "epsilon_p2",
    "epsilon_general_p",
    "predicted_rate",
    "inv_sup_outside_box",
]


@dataclass(frozen=True)
class EpsilonReport:
    """A theoretical error budget value with truncation diagnostics."""

    value: float
    truncation_radius: int
    tail_bound: float
    variant: str  # p2_univariate | general_p | p2_multivariate
    components: dict
    tail_dominated: bool = False

    def __float__(self):
        return self.value


def gamma_k(lam: CoefficientSequence, beta: CoefficientSequence, m: int, k):
    """Aliased coefficient ratio alpha_{k'} beta_k^{-1}.

    Real for the built-in families, complex for complex custom tables.
    """
    if lam.dimension != beta.dimension:
        raise SequenceError("sequence dimensions differ")
    d = lam.dimension
    arr = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if arr.size != d:
        raise SequenceError(f"index {k!r} does not have dimension {d}")
    kp = k_prime_array(arr, m)
    if d == 1:
        kp, arr = kp[0], arr[0]
    inv_l = np.asarray(lam.inv_values(kp))[()]
    inv_b = np.asarray(beta.inv_values(kp))[()]
    if inv_b == 0:
        raise SequenceError("generator sequence vanishes inside the reproduced band")
    out = (inv_l / inv_b) * np.asarray(beta.inv_values(arr))[()]
    return complex(out) if np.iscomplexobj(out) else float(out)


# ---------------------------------------------------------------------------
# Alias block sums.  Block t of the grid holds the frequencies n t + k',
# |k'| <= m, n = 2m + 1; the p = 2 budgets need sum_{t != 0} G_t^2 with
# G_t = max_{k'} a_{k'} |beta^{-1}(n t + k')| and a = |alpha| on the band.

_EPS = sys.float_info.epsilon
_BLOCK_REL = 1e-10  # stop enumerating once the bracket width is this small
_SUM_ULPS = 16  # rounding of a computed term a |beta^{-1}|, squared, and of fsum


def _profile_sq_series(rule: TailRule, n: int, offsets: np.ndarray, T: int):
    """Bracket (lo, hi) of sum_{j > T} U(n j + b)^2 for each offset b.

    U is the rule's reciprocal profile beyond its radius, x^{-rate} / scale
    (power) or e^{-rate x} / scale (exponential).  A power series is the
    Hurwitz zeta value n^{-q} zeta(q, x), q = 2 rate, x = T + 1 + b / n,
    summed by Euler-Maclaurin with three Bernoulli terms; x^{-q} is
    completely monotone, so the remainder is at most the first omitted
    term (DLMF 2.10(i), 25.11(iii)).  An exponential series is geometric.
    Both ends are rounded outward; divergent and constant tails give
    (0, inf), and ``finite`` gives (0, 0).
    """
    x0 = n * (T + 1) + np.asarray(offsets, dtype=float)  # first frequency of each series
    if rule.kind == "finite":
        return np.zeros_like(x0), np.zeros_like(x0)
    if rule.kind == "power" and rule.rate > 0.5:
        q = 2.0 * rule.rate
        x = x0 / n
        rising = np.cumprod(q + np.arange(7.0))  # (q)_1 .. (q)_7
        series = (
            x / (q - 1.0)
            + 0.5
            + rising[0] / (12.0 * x)
            - rising[2] / (720.0 * x**3)
            + rising[4] / (30240.0 * x**5)
        )
        omitted = rising[6] / (1209600.0 * x**7)
        log_term = q * np.log(x0)
        head = x0**-q / rule.scale**2
        # the omitted term outgrows the sum when x is small (J_max < 32)
        lo, hi = np.maximum(head * (series - omitted), 0.0), head * (series + omitted)
    elif rule.kind == "exponential" and rule.rate > 0:
        q = 2.0 * rule.rate
        log_term = q * x0
        lo = hi = np.exp(-log_term) / -math.expm1(-q * n) / rule.scale**2
    else:
        return np.zeros_like(x0), np.full_like(x0, math.inf)
    rel = (_SUM_ULPS + np.abs(log_term)) * _EPS
    return lo * (1.0 - rel), hi * (1.0 + rel)


def _block_sum_bracket(alpha: np.ndarray, beta: CoefficientSequence, m: int, J_max: int):
    """(S, width, T) with sum_{t != 0} G_t^2 in [S, S + width].

    ``alpha`` holds |alpha_{k'}| on the band and ``beta`` is univariate.
    Blocks |t| <= T are summed exactly.  T starts at the first block past
    the rule's radius (at least 32, at most J_max) and doubles, summing
    only the new blocks, until width <= 1e-10 S or T = J_max.  Blocks
    |t| > T are bracketed from the rule profile U, per side:
    hi = a_max^2 sum U(n j - m)^2 and, where the rule is exact,
    lo = max_{k'} a_{k'}^2 sum U(n j +- k')^2 (else lo = 0).
    """
    rule = beta.tail_rule()
    n = 2 * m + 1
    jp = np.arange(-m, m + 1)
    a_sq = alpha**2
    first = (rule.radius + m) // n + 1  # first block with every |k| > radius
    T = min(max(32, first), J_max)
    parts = []
    done = 0
    chunk = max(1, 2_000_000 // n)
    while True:
        for t0 in range(done + 1, T + 1, chunk):
            ts = np.arange(t0, min(T, t0 + chunk - 1) + 1)
            for sign in (1, -1):
                ks = sign * (n * ts)[:, None] + jp[None, :]
                g = alpha[None, :] * np.abs(np.asarray(beta.inv_values(ks)))
                parts.append(math.fsum(g.max(axis=1) ** 2))
        done = T
        exact = math.fsum(parts)
        if T + 1 >= first:
            lo_b, hi_b = _profile_sq_series(rule, n, jp, T)  # offsets b = k'
            hi = 2.0 * float(np.max(a_sq)) * float(hi_b[0])  # b = -m bounds both sides
            # the negative side's series start at n j - k', i.e. offsets reversed
            lo = float(np.max(a_sq * lo_b) + np.max(a_sq * lo_b[::-1])) if rule.exact else 0.0
        else:
            lo, hi = 0.0, math.inf
        S = (exact + lo) * (1.0 - _SUM_ULPS * _EPS)
        width = (exact + hi) * (1.0 + _SUM_ULPS * _EPS) - S
        if width <= _BLOCK_REL * S or T >= J_max:
            return S, width, T
        T = min(2 * T, J_max)


def _sqrt_gap(S: float, width: float) -> float:
    """sqrt(S + width) - sqrt(S) without cancellation, rounded up."""
    if not math.isfinite(width):
        return math.inf
    if S + width == 0:
        return 0.0
    return width / (math.sqrt(S + width) + math.sqrt(S)) * (1.0 + 4 * _EPS)


def _comb_l1_tail(rule: TailRule, step: int, offset: int, T: int) -> float:
    """Bound on sum_{t > T} |inv(step t + offset)|."""
    a = step * (T + 1) + offset
    return rule.inv_sup(a - 1) + rule.inv_l1(a - 1) / (2 * step)


def _default_J(rule: TailRule) -> int:
    if rule.kind == "exponential":
        return 10**3
    if rule.kind == "finite":
        return 10**3
    return 10**5


def _diff_sum(vals: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(vals))))


def _is_tail_monotone(vals: np.ndarray, window: int = 32) -> bool:
    tail = vals[-window:]
    return bool(np.all(np.diff(tail) <= 0))


def epsilon_general_p(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    K_max: Optional[int] = None,
) -> EpsilonReport:
    """General-p budget: difference tails plus the aliased block edges.

    The two bracketed quantities are max-ed: the sum of reciprocal
    differences over both tails, and the sum of gamma differences plus
    the gamma values on the block right-edges m + t(2m+1), t in Z.
    Negative tails traverse the reflected sequence.
    """
    if lam.dimension != 1 or beta.dimension != 1:
        raise SequenceError("epsilon_general_p is univariate")
    inv_lam_band, inv_beta_band, alpha = band_arrays(lam, beta, m)
    alpha_max = float(np.max(np.abs(alpha)))
    rule_l = lam.tail_rule()
    rule_b = beta.tail_rule()
    if K_max is None:
        kinds = {rule_l.kind, rule_b.kind}
        if kinds <= {"exponential", "finite"}:
            K_max = max(
                 rule_l.radius_for_l1(1e-30, cap=10**5) if rule_l.kind == "exponential" else rule_l.radius,
                 rule_b.radius_for_l1(1e-30, cap=10**5) if rule_b.kind == "exponential" else rule_b.radius,
                 m + 10 * (2 * m + 1),
            )
        else:
            K_max = 10**5
    K_max = max(K_max, m + 2 * (2 * m + 1))
    n = 2 * m + 1

    ks = np.arange(m + 1, K_max + 2)
    il_pos = np.abs(np.asarray(lam.inv_values(ks)))
    il_neg = np.abs(np.asarray(lam.inv_values(-ks)))
    delta_lambda = _diff_sum(il_pos) + _diff_sum(il_neg)
    dl_tail = 0.0
    for side in (il_pos, il_neg):
        if _is_tail_monotone(side):
            dl_tail += float(side[-1])  # telescoping remainder
        else:
            dl_tail += lam.inv_l1_tail(K_max)

    kp = k_prime_array(ks, m)
    g_pos = np.abs(alpha[kp + m]) * np.abs(np.asarray(beta.inv_values(ks)))
    kpn = k_prime_array(-ks, m)
    g_neg = np.abs(alpha[kpn + m]) * np.abs(np.asarray(beta.inv_values(-ks)))
    delta_gamma = _diff_sum(g_pos) + _diff_sum(g_neg)
    dg_tail = 0.0
    for side in (g_pos, g_neg):
        if _is_tail_monotone(side):
            dg_tail += float(side[-1])
        else:
            dg_tail += alpha_max * beta.inv_l1_tail(K_max)

    T = max(1, (K_max - m) // n)
    ts = np.arange(-T, T + 1)
    edges = ts * n + m
    alpha_m = float(np.abs(alpha[2 * m]))  # residue of every edge is m
    gamma_alias = alpha_m * float(np.sum(np.abs(np.asarray(beta.inv_values(edges)))))
    ga_tail = alpha_m * (
        _comb_l1_tail(rule_b, n, m, T) + _comb_l1_tail(rule_b, n, -m, T)
    )

    second = delta_gamma + gamma_alias
    value = max(delta_lambda, second)
    tail_bound = max(dl_tail, dg_tail + ga_tail)
    flagged = not (math.isfinite(value) and tail_bound < 0.01 * value) if value > 0 else False
    return EpsilonReport(
        value=value,
        truncation_radius=int(K_max),
        tail_bound=tail_bound,
        variant="general_p",
        components={
            "delta_lambda_term": delta_lambda,
            "delta_gamma_term": delta_gamma,
            "gamma_alias_term": gamma_alias,
        },
        tail_dominated=flagged,
    )


# ---------------------------------------------------------------------------
# The p = 2 budget in any dimension


def _axis_inv_sup_all(ax: CoefficientSequence, scan: int = 256) -> float:
    rule = ax.tail_rule()
    R = max(scan, rule.radius)
    ks = np.arange(-R, R + 1)
    return max(float(np.max(np.abs(ax.inv_values(ks)))), rule.inv_sup(R))


def inv_sup_outside_box(seq: CoefficientSequence, m: int, scan: int = 256) -> float:
    """sup of |seq^{-1}| outside the box |k|_inf <= m."""
    axes = seq.axis_factors()
    if axes is None:
        # no product structure: scan a finite shell, no rule tail available
        box = index_box(m + scan, seq.dimension)
        outer = np.max(np.abs(box), axis=1) > m
        return float(np.max(np.abs(seq.inv_values(box[outer]))))
    # outside the box one axis at least is outside [-m, m]
    outs = [ax.inv_sup_tail(m, scan=scan) for ax in axes]
    if len(axes) == 1:
        return outs[0]
    alls = [_axis_inv_sup_all(ax, scan=scan) for ax in axes]
    return max(
        math.prod([outs[a]] + [alls[b] for b in range(len(axes)) if b != a])
        for a in range(len(axes))
    )


def epsilon_p2(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    J_max: Optional[int] = None,
) -> EpsilonReport:
    """p = 2 budget on the d-torus: max of the reciprocal sup outside the
    box |k|_inf <= m and the l2 sum of the alias block maxima over t != 0.

    For product sequences the blockwise maxima factor per axis: with
    F_j = sum_{t in Z} G_{j,t}^2 and g_j = G_{j,0}^2 the block sum is
    prod F_j - prod g_j.  Each axis brackets its t != 0 part with
    ``_block_sum_bracket``: the first T blocks per side are enumerated
    (J_max caps T; default 1e5 for power tails, 1e3 otherwise) and the
    rest is bracketed in closed form from the generator's tail rule.  Both
    products are telescoped by ``product_increment`` so nothing cancels;
    d = 1 is the one-axis case, whose bracket is the axis's own.  ``value``
    uses the lower end of the bracket, ``tail_bound`` is what the upper
    end adds to the square root, and ``truncation_radius`` is the largest
    T.  For Korobov and Exponential generators paired with themselves the
    bracket is a few ulp wide.  Other sequences are enumerated directly
    over a box of blocks under the memory guard, with an infinite tail.
    """
    d = lam.dimension
    if beta.dimension != d:
        raise SequenceError("sequence dimensions differ")
    sup_term = inv_sup_outside_box(lam, m)
    n = 2 * m + 1
    factors = (lam.axis_factors(), beta.axis_factors())
    if None not in factors:
        base, lows, widths = [], [], []
        trunc = 0
        for axl, axb in zip(*factors):
            _, inv_b, alpha = band_arrays(axl, axb, m)
            alpha = np.abs(alpha)
            J = J_max if J_max is not None else _default_J(axb.tail_rule())
            S, width, T = _block_sum_bracket(alpha, axb, m, J)
            base.append(float(np.max(alpha * np.abs(inv_b))) ** 2)  # t = 0 block
            lows.append(S)
            widths.append(width)
            trunc = max(trunc, T)
        # only a product of axes needs this rounding; one axis keeps its own bracket
        rel = (_SUM_ULPS + 4 * d) * _EPS if d > 1 else 0.0
        gamma_sq = product_increment(base, lows) * (1.0 - rel)
        if all(math.isfinite(w) for w in widths):
            width_sq = product_increment([b + s for b, s in zip(base, lows)], widths)
            width_sq = width_sq * (1.0 + rel) + 3.0 * rel * gamma_sq
        else:
            width_sq = math.inf
    else:
        # direct enumeration under the guard, rule-free tail
        J = J_max if J_max is not None else 32
        while (2 * J + 1) ** d * n**d > 4 * 10**7 and J > 1:
            J //= 2
        box_j = index_box(J, d)
        box_j = box_j[np.max(np.abs(box_j), axis=1) > 0]
        box_k = index_box(m, d)
        alpha = np.abs(band_arrays(lam, beta, m)[2]).ravel()
        gamma_sq = 0.0
        for jv in box_j:
            freqs = box_k + n * jv[None, :]
            g = alpha * np.abs(np.asarray(beta.inv_values(freqs)))
            gamma_sq += float(np.max(g) ** 2)
        width_sq = math.inf
        trunc = J
    gamma_sum = math.sqrt(gamma_sq)
    value = max(sup_term, gamma_sum)
    tail_bound = _sqrt_gap(gamma_sq, width_sq)
    flagged = not (math.isfinite(value) and tail_bound < 0.01 * value) if value > 0 else False
    return EpsilonReport(
        value=value,
        truncation_radius=int(trunc),
        tail_bound=tail_bound,
        variant="p2_univariate" if d == 1 else "p2_multivariate",
        components={"sup_term": sup_term, "gamma_sum_term": gamma_sum},
        tail_dominated=flagged,
    )


# ``perfbench/tracing.py`` binds this name; it goes with the benchmark's next change.
epsilon_p2_md = epsilon_p2


# ---------------------------------------------------------------------------
# Closed-form rate predictions


@dataclass(frozen=True)
class RatePrediction:
    """Theoretical decay law matched to the sequence pair, if any."""

    applies: bool
    form: str  # power | exponential | series_l2 | series_l1 | sup_box | none
    exponent: Optional[float]
    reason: str
    lam: Optional[CoefficientSequence] = field(default=None, repr=False)

    @property
    def label(self) -> str:
        if not self.applies:
            return "no-theorem-applies"
        if self.form == "power":
            return f"m^-{self.exponent:g}"
        if self.form == "exponential":
            return f"exp(-{self.exponent:g} m)"
        return self.form

    def value_at(self, m: int) -> float:
        if not self.applies:
            return math.nan
        if self.form == "power":
            return float(m) ** (-self.exponent)
        if self.form == "exponential":
            return math.exp(-self.exponent * m)
        if self.form == "series_l2":
            return math.sqrt(2.0 * _series_sum(self.lam, m, power=2))
        if self.form == "series_l1":
            return _series_sum(self.lam, m, power=1)
        if self.form == "sup_box":
            return inv_sup_outside_box(self.lam, m)
        return math.nan


def _series_sum(lam: CoefficientSequence, m: int, power: int, N: int = 10**5) -> float:
    """sum_{k >= 1} |lam_{mk}|^{-power}, truncated with a rule tail."""
    rule = lam.tail_rule()
    tail_fn = rule.inv_l1 if power == 1 else rule.inv_l2_sq
    if not math.isfinite(tail_fn(max(m, rule.radius, 1))):
        return math.inf
    ks = m * np.arange(1, N + 1)
    vals = np.abs(np.asarray(lam.inv_values(ks))) ** power
    total = float(np.sum(vals))
    return total + tail_fn(m * N) / (2 * m)


@dataclass(frozen=True)
class _PowerRatio(CoefficientSequence):
    """theta_k / max(|k|_2, 1)^rho, a sequence that ``check_nondecreasing_type`` scans."""

    seq: CoefficientSequence
    rho: float
    family: str = field(default="power-ratio", init=False)

    @property
    def dimension(self) -> int:
        return self.seq.dimension

    def values(self, k):
        k = np.asarray(k, dtype=np.int64)
        if self.dimension == 1:
            nrm = np.abs(k).astype(float)
        else:
            nrm = np.sqrt(np.sum(k.astype(float) ** 2, axis=-1))
        return np.asarray(self.seq.values(k)) / np.maximum(nrm, 1.0) ** self.rho


def _ratio_power_probe(seq: CoefficientSequence, rho: float, radius: int) -> bool:
    """Probe {theta_k / |k|_2^rho} for nondecreasing type."""
    return check_nondecreasing_type(_PowerRatio(seq, rho), radius).holds


def _bounded_inv_ratio(beta, lam, radius) -> bool:
    """|beta_k^{-1}| <= c |lam_k^{-1}| witnessed on the probe box |k|_inf <= radius.

    The ratio must be finite and must not grow: its max over the outer
    half of the box stays within 1/0.9 of its max over the inner half,
    the shrink factor of ``check_nondecreasing_type``.
    """
    d = lam.dimension
    ks = index_box(radius, d)
    if d == 1 and lam.tail_rule().inv_sup(radius) == 0:
        return False  # lam^{-1} vanishes beyond the probe range
    ib = np.abs(np.asarray(beta.inv_values(ks)))
    il = np.abs(np.asarray(lam.inv_values(ks)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(il > 0, ib / il, np.inf)
    if not np.all(np.isfinite(ratio)):
        return False
    size = np.abs(ks) if d == 1 else np.max(np.abs(ks), axis=1)
    inner = float(np.max(ratio[size <= radius // 2]))
    outer = float(np.max(ratio[size > radius // 2]))
    return 0.9 * outer <= inner


def _log_ratio_doubling(lam, beta, upto: int = 40) -> bool:
    """{log(beta_k/lam_k) / 2^k} nondecreasing on the probe range."""
    ks = np.arange(1, upto + 1)
    with np.errstate(divide="ignore", over="ignore"):
        alpha = np.asarray(lam.inv_values(ks)) / np.asarray(beta.inv_values(ks))
    if np.any(alpha <= 0) or np.any(~np.isfinite(alpha)):
        return False
    seq = np.log(alpha) / 2.0**ks
    return bool(np.all(np.diff(seq) >= -1e-12))


def _nondecreasing_positive(seq, upto: int = 64) -> bool:
    ks = np.arange(1, upto + 1)
    vals = np.asarray(seq.values(ks))
    return bool(np.all(vals > 0) and np.all(np.diff(vals) >= -1e-12))


def _symmetric_on_probe(seq, radius: int = 64) -> bool:
    ks = np.arange(1, radius + 1)
    return bool(np.allclose(seq.values(ks), seq.values(-ks), rtol=1e-12, atol=0.0))


def predicted_rate(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    p: float,
) -> RatePrediction:
    """Match (lam, beta, p) against the rate theorems' hypotheses.

    Hypotheses are certified by finite probes (radius 64 in one
    dimension), so a positive answer is probe-certified, never proved.
    Returns a no-theorem prediction when every gate fails.
    """
    d = lam.dimension
    if beta.dimension != d:
        raise SequenceError("sequence dimensions differ")
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    none = lambda why: RatePrediction(False, "none", None, why)

    if d == 1:
        same = lam == beta
        if same and isinstance(lam, Korobov):
            if lam.r > 0.5 and _ratio_power_probe(lam, lam.r, 64):
                return RatePrediction(True, "power", lam.r, "power-law pair (probe-certified)")
            return none("power-law pair needs exponent r > 1/2")
        if same and isinstance(lam, Exponential):
            return RatePrediction(True, "exponential", lam.s, "exponential pair")
        if same and isinstance(lam, MaskPower):
            if lam.r > 1 and lam.oscillation.check_bounds()[2]:
                return RatePrediction(True, "power", lam.r, "mask pair of type r > 1")
            return none("mask pair needs type r > 1 with certified profile bounds")
        if isinstance(lam, MaskPower) and isinstance(beta, ExponentMask):
            if lam.r > 1 and lam.oscillation.check_bounds()[2]:
                return RatePrediction(
                    True, "power", lam.r, "mask plus exponent-type generator"
                )
            return none("mask/exponent pair needs mask type r > 1")
        if p == 2.0:
            if not (
                check_nondecreasing_type(lam, 64).holds
                and check_nondecreasing_type(beta, 64).holds
            ):
                return none("nondecreasing-type probes failed")
            if not _bounded_inv_ratio(beta, lam, 64):
                return none("|beta^-1| / |lam^-1| is not bounded on the probe")
            pred = RatePrediction(
                True, "series_l2", None, "nondecreasing-type pair (probe-certified)", lam
            )
            if math.isfinite(pred.value_at(1)):
                return pred
            return none("block series diverges for this sequence")
        if (
            _symmetric_on_probe(lam)
            and _symmetric_on_probe(beta)
            and _log_ratio_doubling(lam, beta)
            and _nondecreasing_positive(lam)
        ):
            pred = RatePrediction(
                True, "series_l1", None, "doubling-ratio pair (probe-certified)", lam
            )
            if math.isfinite(pred.value_at(1)):
                return pred
            return none("reciprocal series diverges for this sequence")
        return none("no general-p gate matched")

    if p != 2.0:
        return none("multivariate rate theory covers p = 2 only")
    probe_radius = 6 if d == 2 else 4
    lo = d / 2.0 + 0.25
    for rho in np.arange(lo, 4.0 * d + 0.01, 0.25):
        if _ratio_power_probe(lam, float(rho), probe_radius):
            if lam == beta or _bounded_inv_ratio(beta, lam, 16):
                return RatePrediction(
                    True,
                    "sup_box",
                    float(rho),
                    f"box-sup rate (probe-certified at rho={rho:g})",
                    lam,
                )
    return none("no multivariate gate matched")
