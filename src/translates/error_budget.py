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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._alias import _EPS, _HEAD, _SUM_ULPS, _profile_sq_series, alias_blocks, band_arrays, index_box, k_prime_array
from .sequences import (
    CoefficientSequence,
    Exponential,
    ExponentMask,
    Korobov,
    MaskPower,
    _SHRINK_FACTOR,
    SequenceError,
    TailRule,
    box_inv_tail,
    check_nondecreasing_type,
    product_increment,
    two_sided,
)

__all__ = [
    "EpsilonReport",
    "RatePrediction",
    "gamma_k",
    "epsilon_p2",
    "epsilon_general_p",
    "reciprocal_walk",
    "predicted_rate",
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

_BLOCK_REL = 1e-10  # stop enumerating once the bracket width is this small
_MONOTONE_WINDOW = 32  # trailing values a side must not increase over to telescope


def _block_sum_bracket(alpha: np.ndarray, beta: CoefficientSequence, m: int, J_max: int):
    """(S, width, T) with sum_{t != 0} G_t^2 in [S, S + width].

    ``alpha`` holds |alpha_{k'}| on the band and ``beta`` is univariate.
    Blocks |t| <= T are summed exactly from ``alias_blocks``.  T starts at
    the first block past the rule's radius (at least ``_HEAD``, at most J_max)
    and doubles, summing only the new blocks, until width <= 1e-10 S or
    T = J_max.  Beyond T a side's block j holds U(n j + b), U the rule profile,
    at the offsets b = k' (positive side) or -k' (negative), weighted
    w_b = alpha_{k'}^2, and ``_profile_sq_series`` brackets sum U(n j + b)^2.
    Per side lo = max_b w_b sum U(n j + b)^2 where the rule is exact, else 0.
    hi = w_b* sum U(n j + b*)^2 for the largest term b* of block T + 1 when
    b* leads every later block: the rule is exact and exponential (the term
    ratios do not depend on j) or a power with w_b <= w_b* for all b > b*.
    Otherwise hi = max_b w_b sum U(n j - m)^2.  The terms are ranked relative
    to b = -m, so a near tie misranks by an ulp or so, inside the rounding.
    """
    rule = beta.tail_rule()
    n = 2 * m + 1
    a_sq = alpha**2
    first = (rule.radius + m) // n + 1  # first block with every |k| > radius
    T = min(max(_HEAD, first), J_max)
    parts = []
    done = 0
    while True:
        for pos, neg in alias_blocks(beta, m, done + 1, T):  # neg's columns run from k' = m down
            parts.append(math.fsum((alpha * pos).max(axis=1) ** 2))
            parts.append(math.fsum((alpha[::-1] * neg).max(axis=1) ** 2))
        done = T
        exact = math.fsum(parts)
        if T + 1 >= first:
            lo_b, hi_b = _profile_sq_series(rule, n, np.arange(-m, m + 1), T)  # b ascending
            i, power = np.arange(n), rule.kind == "power"  # i = b + m, from the nearest offset
            decay = 2.0 * rule.rate * (np.log1p(i / (n * (T + 1) - m)) if power else i)
            lo = hi = 0.0
            for w in (a_sq, a_sq[::-1]):  # the offsets' weights on each side
                with np.errstate(divide="ignore"):  # a zero weight ranks last
                    lead = int(np.argmax(np.log(w) - decay))
                leads = rule.kind == "exponential" or power and np.all(w[lead + 1 :] <= w[lead])
                lo += float(np.max(w * lo_b)) if rule.exact else 0.0
                hi += float(w[lead] * hi_b[lead] if rule.exact and leads else np.max(w) * hi_b[0])
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
    return rule.inv_tail(a - 1, math.inf) + rule.inv_tail(a - 1, 1) / (2 * step)


def _default_J(rule: TailRule) -> int:
    return 10**3 if rule.kind in ("exponential", "finite") else 10**5


def _variation(ends, steps, far_tail: float) -> tuple:
    """(sum of |differences| along the two sides, bound on what lies beyond) from
    each side's last ``_MONOTONE_WINDOW`` values and |differences|: a side whose
    last values do not increase telescopes to its last value, any other side is
    bounded by ``far_tail``.  A second side whose steps ``are`` the first's is not
    reduced again: its share doubles the first's, bit for bit, as x + x is exact."""

    def share(end, diffs):
        tail = float(end[-1]) if np.all(np.diff(end) <= 0) else far_tail
        return float(np.sum(diffs)), tail

    total, tail = share(ends[0], steps[0])
    total2, tail2 = (total, tail) if steps[1] is steps[0] else share(ends[1], steps[1])
    return total + total2, tail + tail2


def _general_p_radius(lam: CoefficientSequence, beta: CoefficientSequence, m: int, K_max: Optional[int]) -> int:
    """The radius ``epsilon_general_p`` sums to: K_max, else from the tail rules
    (10^5 unless both are exponential or finite), and at least m + 2 (2m + 1)."""
    rules = (lam.tail_rule(), beta.tail_rule())
    if K_max is None and all(rule.kind in ("exponential", "finite") for rule in rules):
        K_max = max([r.radius_for(1e-30, 1, cap=10**5) if r.kind == "exponential" else r.radius for r in rules] + [m + 10 * (2 * m + 1)])
    return max(10**5 if K_max is None else K_max, m + 2 * (2 * m + 1))


def reciprocal_walk(lam: CoefficientSequence, beta: CoefficientSequence, ms, K_max: Optional[int] = None) -> dict:
    """{(m, K): (steps, ends, beta's sides)}, what ``epsilon_general_p`` takes for
    each m of ``ms`` at its ``_general_p_radius`` K from one walk of ``two_sided``
    over k = min(ms) + 1 .. max K + 1, which a sweep takes before its first row.
    On k = m + 1 .. K + 1: views of lam's sides' |differences| (one view twice for
    a symmetric lam), copies of their last ``_MONOTONE_WINDOW`` values, and views
    of beta's sides (None where every m's gamma is lam's own)."""
    pairs, start = {(m, _general_p_radius(lam, beta, m, K_max)) for m in ms}, min(ms) + 1
    ks = np.arange(start, max(K for _, K in pairs) + 2)
    sides = two_sided(lam, ks)
    own = beta is lam and all(np.all(np.abs(band_arrays(lam, beta, m)[2]) == 1.0) for m in ms)
    beta_sides = None if own else sides if beta is lam else two_sided(beta, ks)
    steps = [np.abs(np.diff(side)) for side in sides[: 1 if sides[1] is sides[0] else 2]]
    walk = {}
    for m, K in pairs:
        lo, hi = m + 1 - start, K + 2 - start
        cut = [side[lo : hi - 1] for side in steps]
        ends = [side[max(lo, hi - _MONOTONE_WINDOW) : hi].copy() for side in sides]
        walk[m, K] = (cut[0], cut[-1]), ends, beta_sides and [side[lo:hi] for side in beta_sides]
    return walk


def epsilon_general_p(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    K_max: Optional[int] = None,
    *,
    walk: Optional[dict] = None,
) -> EpsilonReport:
    """General-p budget: difference tails plus the aliased block edges.

    The two bracketed quantities are max-ed: the sum of reciprocal
    differences over both tails, and the sum of gamma differences plus
    the gamma values on the block right-edges m + t(2m+1), t in Z.
    Negative tails traverse the reflected sequence.  The reciprocals along
    k = m + 1 .. K_max + 1 and lam's |differences| are the pair's share of
    ``walk`` (``reciprocal_walk``, which a sweep builds once for all its
    rows); a call without one is the walk of its one pair.  Each distinct
    array is reduced once: a symmetric sequence's two sides are one array,
    whose share counts twice; with ``beta is lam`` every |alpha| is 1 and
    the gamma sides are lam's own.  Along k = m + 1, m + 2, ... (residues
    -m, -m + 1, ...) the band factor is |alpha| repeated with period 2m + 1.
    """
    if lam.dimension != 1 or beta.dimension != 1:
        raise SequenceError("epsilon_general_p is univariate")
    inv_lam_band, inv_beta_band, alpha = band_arrays(lam, beta, m)
    alpha_max = float(np.max(np.abs(alpha)))
    rule_l, rule_b = lam.tail_rule(), beta.tail_rule()
    K_max = _general_p_radius(lam, beta, m, K_max)
    steps, ends, beta_sides = (reciprocal_walk(lam, beta, [m], K_max) if walk is None else walk)[m, K_max]
    n = 2 * m + 1

    delta_lambda, dl_tail = _variation(ends, steps, lam.inv_tail(K_max, 1))
    a = np.abs(alpha)
    if beta is lam and np.all(a == 1.0):  # gamma is lam^{-1}, bit for bit
        delta_gamma, dg_tail = delta_lambda, dl_tail
    else:
        pos, neg = beta_sides  # the residue of -k is -k': neg takes a reversed
        g_pos = np.resize(a, pos.size)  # k starts at m + 1, residue -m: a repeats from its start
        g_pos *= pos
        gammas = (g_pos, np.resize(a[::-1], pos.size) * neg)
        ends = [g[-_MONOTONE_WINDOW:] for g in gammas]
        delta_gamma, dg_tail = _variation(ends, [np.abs(np.diff(g)) for g in gammas], alpha_max * beta.inv_tail(K_max, 1))
    if rule_l.kind == "constant" and rule_l.radius <= K_max:
        dl_tail = 0.0  # |lam^{-1}| is 1 / scale past K_max: no variation is left

    T = max(1, (K_max - m) // n)
    ts = np.arange(-T, T + 1)
    edges = ts * n + m
    alpha_m = float(np.abs(alpha[2 * m]))  # residue of every edge is m
    gamma_alias = alpha_m * float(np.sum(np.abs(np.asarray(beta.inv_values(edges)))))
    ga_tail = alpha_m * (_comb_l1_tail(rule_b, n, m, T) + _comb_l1_tail(rule_b, n, -m, T))

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
    T.  A pair whose beta has an exact tail rule (Korobov, Exponential, a
    custom table), equal to lambda or not, closes to a few ulp at the first
    T; a near tie between offsets closes at a later T.  Other sequences are
    enumerated directly over a box of blocks under the memory guard, with
    an infinite tail.
    """
    d = lam.dimension
    if beta.dimension != d:
        raise SequenceError("sequence dimensions differ")
    sup_term = box_inv_tail(lam, m, math.inf)
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
            return box_inv_tail(self.lam, m, math.inf)
        return math.nan


def _series_sum(lam: CoefficientSequence, m: int, power: int) -> float:
    """sum_{k >= 1} |lam_{mk}|^{-power}: 10^5 terms and a rule tail."""
    rule = lam.tail_rule()
    if not math.isfinite(rule.inv_tail(max(m, rule.radius, 1), power)):
        return math.inf
    ks = m * np.arange(1, 10**5 + 1)
    vals = np.abs(np.asarray(lam.inv_values(ks))) ** power
    total = float(np.sum(vals))
    return total + rule.inv_tail(int(ks[-1]), power) / (2 * m)


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
    half of the box stays within 1/``_SHRINK_FACTOR`` of its max over the
    inner half, as a certificate of ``check_nondecreasing_type`` does.
    """
    d = lam.dimension
    ks = index_box(radius, d)
    if d == 1 and lam.tail_rule().inv_tail(radius, math.inf) == 0:
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
    return _SHRINK_FACTOR * outer <= inner


def _log_ratio_doubling(lam, beta) -> bool:
    """{log(beta_k/lam_k) / 2^k} nondecreasing on the probe range 1 <= k <= 40."""
    ks = np.arange(1, 41)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a truncated pair's 0/0 fails below
        alpha = np.asarray(lam.inv_values(ks)) / np.asarray(beta.inv_values(ks))
    if np.any(alpha <= 0) or np.any(~np.isfinite(alpha)):
        return False
    seq = np.log(alpha) / 2.0**ks
    return bool(np.all(np.diff(seq) >= -1e-12))


def _nondecreasing_positive(seq) -> bool:
    vals = np.asarray(seq.values(np.arange(1, 65)))
    with np.errstate(invalid="ignore"):  # inf - inf past a truncation is nan, which fails
        return bool(np.all(vals > 0) and np.all(np.diff(vals) >= -1e-12))


def predicted_rate(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    p: float,
) -> RatePrediction:
    """Match (lam, beta, p) against the rate theorems' hypotheses.

    Hypotheses are certified by finite probes (radius 64 in one
    dimension), so a positive answer is probe-certified, never proved;
    symmetry is the one the sequences declare (``symmetric``).
    Returns a no-theorem prediction when every gate fails, and when a
    nondecreasing-type probe would meet complex values.
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
            if any(np.iscomplexobj(s.values(0)) for s in (lam, beta)):  # the probes order values
                return none("nondecreasing-type probes need real values; the pair has complex ones")
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
            lam.symmetric
            and beta.symmetric
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
    if np.iscomplexobj(lam.values((0,) * d)):
        return none("nondecreasing-type probes need real values; lam has complex ones")
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
