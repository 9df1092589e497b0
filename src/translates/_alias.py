"""Shared aliasing machinery for the translate operator.

Sampling a function at the 2m+1 uniform nodes folds every frequency k
onto its representative k' in [-m, m] with k = k' (mod 2m+1).  Both the
operator's spectral image and the theoretical error budgets are sums
over these residue classes and share the residue map and band arrays
built here.  ``alias_folds`` folds one walk over m < k <= K onto every (m, K)
asked for, the profile's and the image plans' fold; ``alias_blocks`` walks
the rows t of the block grid, k' + (2m+1) t, k' in [-m, m], for the p = 2
budget's block sums; the p != 2 budget enumerates ``two_sided`` itself.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .sequences import CoefficientSequence, SequenceError, index_box, product_increment, two_sided

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
    max(64, 8m) and at most 2^21, which keeps slowly decaying sequences
    affordable; the remaining tail is still reported by the callers that
    truncate.  For d >= 2, where the box has (2K+1)^d points, K is
    max(4m, 32).
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
    bounds the discarded part of each class.  ``alias_fold``
    describes how the sums are formed.  ``element_error`` takes them as the
    fold of a box-free image plan, the exact p = 2 error of
    ``approximation_error`` at K_out in O(bandwidth^d) per source after the
    one-off pass over the alias blocks.
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
        beyond K_out."""
        if g.dimension != self.lam.dimension:  # a d = 1 source would broadcast against the fold
            raise SequenceError("source and profile dimensions differ")
        return math.sqrt(max(self._plan.error_sq(g), 0.0))

    @functools.cached_property
    def _plan(self):
        """The image plan at K_out, with ``sq_profile`` as its fold."""
        from .approximant import ImagePlan  # the operator module builds on this one

        plan = ImagePlan(self.lam, self.beta, self.m, self.K_out)
        plan.fold = self.sq_profile
        return plan


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
    column sums max(D_j + E_j) and those tails.  It is ``alias_folds`` of the
    one pair, or the same bits that a sweep's walk kept (``_keep_folds``).
    """
    kept_lam, kept_beta, kept = _kept  # read once: a sweep in another thread may replace it
    hit = kept.get((m, K)) if kept_lam is lam and kept_beta is beta else None
    return hit or alias_folds(lam, beta, [(m, K)])[0]


def alias_folds(lam: CoefficientSequence, beta: CoefficientSequence, pairs) -> list:
    """``alias_fold`` of each (m, K) of ``pairs``, from one walk per axis.

    ``two_sided`` evaluates beta_j once over k = min m + 1..max K, in blocks of
    ``_BLOCK`` squared once.  Per side, each pair copies its slice k = m+1..K,
    zero past K, behind its carry row (its column sums so far); ``np.sum(axis=0)``
    adds each column in the order carry, t = 1, ..., T: bit for bit one
    reduction over all T rows (for 2m+1 > 1 columns), in memory that grows with
    neither K nor the pair count.  E_j adds the negative side (k' = m down) reversed.
    """
    factors = (lam.axis_factors(), beta.axis_factors())
    if lam.dimension != beta.dimension or None in factors:
        raise SequenceError("the alias fold needs two product sequences of one dimension")
    d, ns, K_max = lam.dimension, [2 * m + 1 for m, _ in pairs], max(K for _, K in pairs)
    scratch, parts = np.empty(_BLOCK + 3 * max(ns)), [[] for _ in pairs]
    for j, (axl, axb) in enumerate(zip(*factors)):
        state = [np.zeros((1 if axb.symmetric else 2, 2 * n)) for n in ns]  # carry row, waiting values
        for k0 in range(min(m for m, _ in pairs) + 1, K_max + 1, _BLOCK):
            k1 = min(K_max, k0 + _BLOCK - 1)
            blocks = [np.square(side) for side in two_sided(axb, np.arange(k0, k1 + 1))[: len(state[0])]]
            for (m, K), n, sides in zip(pairs, ns, state):
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
        for (m, K), n, st, part in zip(pairs, ns, state, parts):  # A_j, D_j, E_j, max A_j, max(D_j+E_j), tail
            _, inv_b, alpha = band_arrays(axl, axb, m)
            d_j, e_j = np.abs(inv_b) ** 2, st[0, :n] + st[-1, n - 1 :: -1]
            part.append(((np.abs(alpha) ** 2)[axis], d_j[axis], e_j[axis], float(np.max(np.abs(alpha))) ** 2,
                         float(np.max(d_j + e_j)), axb.inv_tail(K, 2)))
    out = [(math.prod(A) * product_increment(D, E), math.prod(a) * product_increment(c, t))
           for A, D, E, a, c, t in (zip(*part) for part in parts)]
    for fold, _ in out:
        fold.flags.writeable = False  # a fold that a sweep keeps is shared by all who ask for it
    return out


_kept = (None, None, {})  # (lam, beta, {(m, K): (fold, tail_sq)}) of the last sweep config's walk


def _keep_folds(lam: CoefficientSequence, beta: CoefficientSequence, pairs) -> None:
    """Keep the ``alias_folds`` of ``pairs`` for ``alias_fold``."""
    global _kept
    _kept = (lam, beta, dict(zip(pairs, alias_folds(lam, beta, pairs))))


def whole_blocks(m: int, K: int) -> int:
    """The radius (2m+1) T + m of the T = ceil((K - m) / (2m+1)) >= 1 whole blocks covering K."""
    return (2 * m + 1) * max(1, -(-(K - m) // (2 * m + 1))) + m


def build_alias_profile(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    K_out: int | None = None,
) -> AliasProfile:
    """The alias profile of a product pair (lam, beta) at m: the ``alias_fold``
    (a sweep's kept one, if its walk covered it) of the ``whole_blocks`` over
    K_out, its own ``K_out``.  Without ``K_out`` it takes ``default_K_out``.
    """
    K = whole_blocks(m, default_K_out(lam, beta, m) if K_out is None else K_out)
    return AliasProfile(lam, beta, m, K, *alias_fold(lam, beta, m, K))


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
