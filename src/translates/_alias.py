"""Shared aliasing machinery for the translate operator.

Sampling a function at the 2m+1 uniform nodes folds every frequency k
onto its representative k' in [-m, m] with k = k' (mod 2m+1).  Both the
operator's spectral image and the theoretical error budgets are sums
over these residue classes and share the residue map and band arrays
built here.  ``alias_folds`` folds one walk over m < k <= K onto every (m, K)
asked for, the profile's and the image plans' fold; a sweep holds the
``fold_map`` of its one walk for as long as it runs.  Where the tail rule is
exact and summable the walk stops after the first rows of the block grid and
the tail rule's series (Hurwitz zeta, or geometric) gives the rest up to K, so
the radius K sets the truncation, not the cost.  ``alias_blocks`` walks
the rows t of the block grid, k' + (2m+1) t, k' in [-m, m], for the p = 2
budget's block sums, which the same series brackets past its last walked
row; the p != 2 budget enumerates ``two_sided`` itself.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .sequences import CoefficientSequence, SequenceError, TailRule, index_box, product_increment, two_sided

log = logging.getLogger("translates")


def k_prime_array(k, m: int):
    """Alias representative in [-m, m]^d, coordinatewise, vectorized."""
    k = np.asarray(k)
    return (k + m) % (2 * m + 1) - m


def band_arrays(lam: CoefficientSequence, beta: CoefficientSequence, m: int):
    """(inv_lam, inv_beta, alpha) on the band [-m, m]^d, each of shape (2m+1,)^d.

    alpha_k = beta_k / lambda_k; the arrays are complex if either sequence
    is.  Requires the generator sequence to have nonzero reciprocals on the
    band.
    """
    d = lam.dimension
    jp = index_box(m, d)
    shape = (2 * m + 1,) * d
    inv_lam = np.asarray(lam.inv_values(jp)).reshape(shape)
    inv_beta = np.asarray(beta.inv_values(jp)).reshape(shape)
    dtype = np.result_type(inv_lam, inv_beta, float)
    inv_lam, inv_beta = inv_lam.astype(dtype), inv_beta.astype(dtype)
    if np.any(inv_beta == 0):
        raise SequenceError("generator sequence vanishes inside the reproduced band")
    return inv_lam, inv_beta, inv_lam / inv_beta


def default_K_out(lam: CoefficientSequence, beta: CoefficientSequence, m: int) -> int:
    """Truncation radius whose alias tail is negligible at the error scale.

    For d = 1 it picks K so that the per-residue-class l2 tail of |gamma|
    beyond K is below 1e-3 times the budget's sup term, at least
    max(64, 8m) and at most 2^21; the remaining tail is still reported by
    the callers that truncate.  For an exact, summable tail rule K sets only
    where the alias sums stop, not their cost (``alias_folds``); the cap
    keeps the walk of other rules and the quadrature affordable.  For
    d >= 2, where the box has (2K+1)^d points, K is max(4m, 32).
    """
    if lam.dimension > 1:
        return max(4 * m, 32)
    inv_lam, _, alpha = band_arrays(lam, beta, m)
    scale = lam.inv_tail(m, math.inf)
    if not math.isfinite(scale) or scale <= 0:
        scale = float(np.max(np.abs(inv_lam)))
    alpha_max = float(np.max(np.abs(alpha)))
    target_sq = (1e-3 * scale / max(alpha_max, 1e-300)) ** 2 * (2 * m + 1)
    K = beta.tail_rule().radius_for(target_sq, 2, cap=2**21)
    return int(max(64, 8 * m, min(K, 2**21)))


@dataclass
class AliasProfile:
    """Per-residue alias sums for a fixed (lambda, beta, m) triple in any dimension d.

    ``sq_profile`` has shape (2m+1,)^d; its entry at the residue k' in
    [-m, m]^d is the sum over the nonzero blocks t of
    |gamma_{k' + (2m+1)t}|^2, truncated at |k|_inf <= K_out; ``tail_sq``
    bounds the discarded part of each class.  ``alias_fold`` describes how
    the sums are formed; K_out sets where they stop, and under an exact,
    summable tail rule not what they cost.  ``element_error`` hands them to
    its image plan as its fold, when it builds it: the exact p = 2 error of
    ``approximation_error`` at K_out in O(bandwidth^d) per source after the
    one-off pass over the alias blocks, with the source-box terms of ``box``.
    """

    lam: CoefficientSequence
    beta: CoefficientSequence
    m: int
    K_out: int
    sq_profile: np.ndarray
    tail_sq: float

    def element_error(self, g) -> float:
        """p = 2 error of the source g, its image cut at K_out
        (``ImagePlan.error_sq``); a source wider than K_out adds its target
        beyond K_out.  Its source-box term is the one a plan sharing ``box``
        kept, if that plan took the same source's error just before."""
        if g.dimension != self.lam.dimension:  # a d = 1 source would broadcast against the fold
            raise SequenceError("source and profile dimensions differ")
        return math.sqrt(max(self._plan.error_sq(g), 0.0))

    @property
    def box(self):
        """The ``approximant.SourceBox`` of ``element_error``, for a plan to share."""
        return self._plan.box

    @functools.cached_property
    def _plan(self):
        """The image plan at K_out, with ``sq_profile`` as its fold."""
        from .approximant import ImagePlan  # the operator module builds on this one

        return ImagePlan(self.lam, self.beta, self.m, self.K_out, fold=self.sq_profile)


def alias_fold(lam: CoefficientSequence, beta: CoefficientSequence, m: int, K: int) -> tuple:
    """(fold, tail_sq) of a product pair (lam, beta) at m in the box
    |k|_inf <= K: per residue k', the sum of |gamma_k|^2 over the off-band
    positions of its class, and a bound on the rest of each class.

    The sums factor over the axes j of ``axis_factors()``.  With D_j =
    |beta_j^{-1}|^2 and A_j = |alpha_j|^2 on the band, and E_j the column
    sums of |beta_j^{-1}|^2 over the rows 0 < |t| <= T = ceil((K - m) / (2m+1))
    of the block grid less the columns of row T past K, the fold is
    prod_j A_j (prod_j (D_j + E_j) - prod_j D_j), which ``product_increment``
    forms without cancelling; for d = 1 it is |alpha|^2 (positive + negative).
    Each column sum misses at most the l2 tail of beta_j beyond K, so
    ``tail_sq`` is prod_j max A_j times ``product_increment`` of the largest
    column sums max(D_j + E_j) and those tails.  Where beta_j's tail rule is
    exact and summable and T > h + 1, the rows past the first h (``_walk_cuts``)
    come from the rule's series, so E_j costs O(h (2m+1)) whatever K is.  It
    is ``alias_folds`` of the one pair: its own walk.
    """
    return alias_folds(lam, beta, [(m, K)])[0]


def alias_folds(lam: CoefficientSequence, beta: CoefficientSequence, pairs) -> list:
    """``alias_fold`` of each (m, K) of ``pairs``, from one walk per axis.

    ``two_sided`` evaluates beta_j once over k = min m + 1..max cut, in blocks
    of ``_BLOCK`` squared once.  A pair's cut is K, or n h + m when its rows
    past the head h come from the rule's series (``_walk_cuts``), so K sets
    only the truncation, not the cost.  Per side, each pair copies its slice
    k = m+1..cut, zero past it, behind its carry row (its column sums so far);
    ``np.sum(axis=0)`` adds each column in the order carry, t = 1, ...: bit
    for bit one reduction over the walked rows (for 2m+1 > 1 columns), in
    memory that grows with neither K nor the pair count.  E_j adds the
    negative side (k' = m down) reversed, then the series part of both sides:
    the rows up to the last whole one W from ``_profile_sq_series``, and the
    terms of a partial row W + 1 up to K from the profile itself.
    """
    factors = (lam.axis_factors(), beta.axis_factors())
    if lam.dimension != beta.dimension or None in factors:
        raise SequenceError("the alias fold needs two product sequences of one dimension")
    d, ns = lam.dimension, [2 * m + 1 for m, _ in pairs]
    scratch, parts = np.empty(_BLOCK + 3 * max(ns)), [[] for _ in pairs]
    for j, (axl, axb) in enumerate(zip(*factors)):
        rule, (heads, cuts) = axb.tail_rule(), _walk_cuts(axb, pairs)
        state = [np.zeros((1 if axb.symmetric else 2, 2 * n)) for n in ns]  # carry row, waiting values
        for k0 in range(min(m for m, _ in pairs) + 1, max(cuts) + 1, _BLOCK):
            k1 = min(max(cuts), k0 + _BLOCK - 1)
            blocks = [np.square(side) for side in two_sided(axb, np.arange(k0, k1 + 1))[: len(state[0])]]
            for (m, _), K, n, sides in zip(pairs, cuts, ns, state):
                lo, hi = max(k0, m + 1), min(k1, K)
                if lo <= hi:
                    w = (lo - m - 1) % n  # the values of k = m+1..lo-1 past the last whole row
                    size = n + w + hi - lo + 1
                    end = n * (-(-size // n) if hi == K else size // n)  # row T: zero past K
                    for st, block in zip(sides, blocks):
                        scratch[: n + w], scratch[n + w : size] = st[: n + w], block[lo - k0 : hi - k0 + 1]
                        scratch[size:end] = 0
                        st[n : n + size - end] = scratch[end:size]
                        st[:n] = np.sum(scratch[:end].reshape(-1, n), axis=0)
        axis = (None,) * j + (slice(None),) + (None,) * (d - 1 - j)  # broadcast along axis j
        for (m, K), n, h, st, part in zip(pairs, ns, heads, state, parts):  # A_j, D_j, E_j, max A_j, max(D_j+E_j), tail
            _, inv_b, alpha = band_arrays(axl, axb, m)
            d_j, e_j = np.abs(inv_b) ** 2, st[0, :n] + st[-1, n - 1 :: -1]
            if h is not None:  # rows h+1..W from the series, row W+1 to K term by term, both sides alike
                b, (W, cut) = np.arange(-m, m + 1), divmod(K - m, n)
                rest = _profile_sq_series(rule, n, b, h, W)
                rest[:cut] += _profile_sq(rule, n * (W + 1) + b[:cut])  # the cut columns of row W + 1
                e_j = e_j + (rest + rest[::-1])
            part.append(((np.abs(alpha) ** 2)[axis], d_j[axis], e_j[axis], float(np.max(np.abs(alpha))) ** 2,
                         float(np.max(d_j + e_j)), axb.inv_tail(K, 2)))
    out = [(math.prod(A) * product_increment(D, E), math.prod(a) * product_increment(c, t))
           for A, D, E, a, c, t in (zip(*part) for part in parts)]
    for fold, _ in out:
        fold.setflags(write=False)  # a sweep's rows share its folds between their profiles and plans
    return out


_HEAD = 32  # whole rows of the block grid summed term by term before a rule's series


def _walk_cuts(axb: CoefficientSequence, pairs) -> tuple:
    """(heads, cuts) of the pairs (m, K) on the axis axb: the whole rows h per
    side that a pair's walk sums before the rule's series takes the rest, and
    the radius n h + m it walks to.  h = max(``_HEAD``, the first row past the
    rule's radius), where the rule is exact, its series converges (a power of
    rate > 1/2, or an exponential) and the fold has more than h + 1 rows;
    otherwise h is None and the walk runs to K."""
    rule = axb.tail_rule()
    summable = rule.exact and (rule.kind == "power" and rule.rate > 0.5 or rule.kind == "exponential" and rule.rate > 0)
    heads = []
    for m, K in pairs:
        n = 2 * m + 1
        h = max(_HEAD, (rule.radius + m) // n + 1)
        heads.append(h if summable and K - m > n * (h + 1) else None)
    return heads, [K if h is None else (2 * m + 1) * h + m for (m, K), h in zip(pairs, heads)]


_EPS = sys.float_info.epsilon
_SUM_ULPS = 16  # rounding of a computed term a |beta^{-1}|, squared, and of fsum


def _profile_sq(rule: TailRule, x):
    """U(x)^2 for the rule's reciprocal profile U beyond its radius:
    x^{-rate} / scale (power) or e^{-rate x} / scale (exponential)."""
    q = 2.0 * rule.rate
    return (x**-q if rule.kind == "power" else np.exp(-q * x)) / rule.scale**2


def _profile_sq_series(rule: TailRule, n: int, offsets, T: int, W=None):
    """Bracket (lo, hi) of sum_{j > T} U(n j + b)^2 for each offset b, U as in
    ``_profile_sq``; with W, for a convergent series, the sum over T < j <= W.

    A power series is the Hurwitz zeta value n^{-q} zeta(q, x), q = 2 rate,
    x = T + 1 + b / n, summed by Euler-Maclaurin with three Bernoulli terms;
    x^{-q} is completely monotone, so the remainder is at most the first
    omitted term (DLMF 2.10(i), 25.11(iii)).  An exponential series is
    geometric.  Both ends are rounded outward; divergent and constant tails
    give (0, inf), and ``finite`` gives (0, 0).  The sum to W is the series
    less the same series past W, the integral's part taken in one piece
    (``expm1``), so that the two do not cancel however slowly U decays.
    """
    x0 = n * (T + 1) + np.asarray(offsets, dtype=float)  # first frequency of each series
    if rule.kind == "finite":
        return np.zeros_like(x0), np.zeros_like(x0)
    if rule.kind == "power" and rule.rate > 0.5:
        q = 2.0 * rule.rate
        x = x0 / n
        if W is not None:  # the integral from x0 to x0 + n (W - T) in one piece, then the other terms at both ends
            c1 = q * (q + 1.0) * (q + 2.0) / 720.0
            c2 = c1 * (q + 3.0) * (q + 4.0) / 42.0

            def ends(y):  # U(y)^2 times the terms after the integral, in w = n / y
                w = n / y
                return _profile_sq(rule, y) * (0.5 + w * (q / 12.0 - w * w * (c1 - w * w * c2)))

            integral = _profile_sq(rule, x0) * x * np.expm1((1.0 - q) * np.log1p(n * (W - T) / x0)) / (1.0 - q)
            return integral + (ends(x0) - ends(x0 + n * (W - T)))
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
        head = _profile_sq(rule, x0)
        # the omitted term outgrows the sum when x is small (J_max < 32)
        lo, hi = np.maximum(head * (series - omitted), 0.0), head * (series + omitted)
    elif rule.kind == "exponential" and rule.rate > 0:
        q = 2.0 * rule.rate
        log_term = q * x0
        lo = hi = np.exp(-log_term) / -math.expm1(-q * n) / rule.scale**2
        if W is not None:
            return lo * -math.expm1(-q * n * (W - T))
    else:
        return np.zeros_like(x0), np.full_like(x0, math.inf)
    rel = (_SUM_ULPS + np.abs(log_term)) * _EPS
    return lo * (1.0 - rel), hi * (1.0 + rel)


def fold_map(lam: CoefficientSequence, beta: CoefficientSequence, pairs) -> dict:
    """{(m, K): ``alias_fold``} of the pairs, from one ``alias_folds`` walk: what
    a sweep hands its rows.  Logs at DEBUG level how many took rows from the
    series and how many indices the walk evaluated."""
    t0 = time.perf_counter()
    folds = dict(zip(pairs, alias_folds(lam, beta, pairs)))
    if log.isEnabledFor(logging.DEBUG):
        seconds, series, indices = time.perf_counter() - t0, set(), 0
        for axb in beta.axis_factors():
            heads, cuts = _walk_cuts(axb, pairs)
            series |= {pair for pair, h in zip(pairs, heads) if h is not None}
            indices += (max(cuts) - min(m for m, _ in pairs)) * (1 if axb.symmetric else 2)
        log.debug("one alias walk for %d folds (%d past the head from the series) evaluated %d indices in %.3f s",
                  len(pairs), len(series), indices, seconds)
    return folds


def whole_blocks(m: int, K: int) -> int:
    """The radius (2m+1) T + m of the T = ceil((K - m) / (2m+1)) >= 1 whole blocks covering K."""
    return (2 * m + 1) * max(1, -(-(K - m) // (2 * m + 1))) + m


def build_alias_profile(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    K_out: int | None = None,
    *,
    folds: dict | None = None,
) -> AliasProfile:
    """The alias profile of a product pair (lam, beta) at m: the ``alias_fold``
    of the ``whole_blocks`` over K_out, its own ``K_out``.  Without ``K_out``
    it takes ``default_K_out``.  ``folds`` is a sweep's ``fold_map`` of this
    pair: a fold found there is the one the call would walk itself, bit for
    bit, and a radius not found there is walked as without it.
    """
    K = whole_blocks(m, default_K_out(lam, beta, m) if K_out is None else K_out)
    return AliasProfile(lam, beta, m, K, *((folds or {}).get((m, K)) or alias_fold(lam, beta, m, K)))


_BLOCK = 1 << 15  # alias indices per streamed block: 256 KiB of float64


def alias_blocks(beta: CoefficientSequence, m: int, t_first: int, t_last: int):
    """``two_sided(beta, (2m+1) t + k')`` for the rows t_first..t_last of the
    block grid, k' = -m..m along a row, in blocks of about ``_BLOCK`` indices.

    The residue of -k is -k', so the negative side's columns run from m down.
    """
    n = 2 * m + 1
    jp = np.arange(-m, m + 1)
    rows = max(1, _BLOCK // n)
    for t0 in range(t_first, t_last + 1, rows):
        ts = np.arange(t0, min(t_last, t0 + rows - 1) + 1)
        yield two_sided(beta, (n * ts)[:, None] + jp[None, :])


def centre(R: int, r: int, d: int) -> tuple:
    """Slices of the sub-box of radius r <= R in a box of radius R."""
    return (slice(R - r, R + r + 1),) * d


def box_values(g, r: int) -> np.ndarray:
    """Coefficients of g on the box |k|_inf <= r, shape (2r+1,)^d: cut
    from g's own box, zero where g has none."""
    R, d = g.radius, g.dimension
    c = min(r, R)
    out = np.zeros((2 * r + 1,) * d, dtype=complex)
    out[centre(r, c, d)] = g.values[centre(R, c, d)]
    return out


def md_single_frequency_errors_sq(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    T: int = 64,
) -> np.ndarray:
    """Squared p = 2 error of every pure-frequency source e_{k0}, |k0|_inf <= m.

    The ``sq_profile`` of ``build_alias_profile`` summed over the alias
    blocks |t|_inf <= T; the profile's ``tail_sq`` bounds the rest and is
    logged at DEBUG level.
    """
    profile = build_alias_profile(lam, beta, m, K_out=(2 * m + 1) * T + m)
    log.debug(
        "m=%d: single-frequency probes stop at %d alias blocks and drop <= %.3e "
        "from each squared error",
        m, T, profile.tail_sq,
    )
    return profile.sq_profile
