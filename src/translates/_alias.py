"""Shared aliasing machinery for the translate operator.

Sampling a function at the 2m+1 uniform nodes folds every frequency k
onto its representative k' in [-m, m] with k = k' (mod 2m+1).  Both the
operator's spectral image and the theoretical error budgets are sums
over these residue classes and share the residue map and band arrays
built here.  The alias profile sums the rows t of a block grid, k' +
(2m+1) t for all k' in [-m, m]; ``error_budget._block_sum_bracket``
walks a grid of its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import CoefficientSequence, SequenceError, index_box, product_increment

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
    scale = lam.inv_sup_tail(m)
    if not math.isfinite(scale) or scale <= 0:
        scale = float(np.max(np.abs(inv_lam)))
    alpha_max = float(np.max(np.abs(alpha)))
    target_sq = (1e-3 * scale / max(alpha_max, 1e-300)) ** 2 * (2 * m + 1)
    K = beta.tail_rule().radius_for_l2(target_sq, cap=2**21)
    return int(max(64, 8 * m, min(K, 2**21)))


@dataclass
class AliasProfile:
    """Per-residue alias sums for a fixed (lambda, beta, m) triple in any dimension d.

    ``sq_profile`` has shape (2m+1,)^d; its entry at the residue k' in
    [-m, m]^d is the sum over the nonzero blocks t of
    |gamma_{k' + (2m+1)t}|^2, truncated at |k|_inf <= K_out; ``tail_sq``
    bounds the discarded part of each class.  ``build_alias_profile``
    describes how the sums are formed.  The exact p = 2 error of the
    operator on an element with source coefficients ghat is

        err^2 = sum_{k'} |ghat(k')|^2 sq_profile(k')
              + sum_{m < |k|_inf <= bw} ( |lam_k^{-1} ghat(k)|^2
                              - 2 Re[gamma_k ghat(k') conj(lam_k^{-1} ghat(k))] )

    which ``element_error`` evaluates in O(bandwidth^d) after the one-off
    grid pass, regrouping the direct coefficient sum without changing it.
    The image plan and lam^{-1} on m < |k|_inf <= bw depend on the bandwidth
    only, so the profile keeps them for the last bandwidth it was asked
    about and every source of that bandwidth reuses them.
    """

    lam: CoefficientSequence
    beta: CoefficientSequence
    m: int
    K_out: int
    sq_profile: np.ndarray
    tail_sq: float
    _outer: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def element_error(self, g) -> float:
        """p = 2 error for a source g with bandwidth <= K_out."""
        m, bw = self.m, g.bandwidth
        if g.dimension != self.lam.dimension:
            raise SequenceError("source and profile dimensions differ")
        if bw > self.K_out:
            raise ValueError("source bandwidth exceeds the profile truncation")
        total = float(np.sum(np.abs(box_values(g, m)) ** 2 * self.sq_profile))
        if bw > m:
            plan, inv_lam = self._outer_terms(bw)
            bterm = inv_lam * box_values(g, bw).ravel()[plan.outer]
            cross = plan.coefficients(g).ravel()[plan.outer] * np.conj(bterm)
            total += float(np.sum(np.abs(bterm) ** 2) - 2.0 * np.sum(cross.real))
        return math.sqrt(max(total, 0.0))

    def _outer_terms(self, bw: int):
        """The image plan on |k|_inf <= bw and lam^{-1} on m < |k|_inf <= bw;
        kept for the last bandwidth asked for."""
        from .approximant import ImagePlan  # the operator module builds on this one

        if self._outer is None or self._outer[0].K_out != bw:
            plan = ImagePlan(self.lam, self.beta, self.m, bw)
            ks = index_box(bw, plan.dimension)[plan.outer]
            self._outer = (plan, np.asarray(self.lam.inv_values(ks)))
        return self._outer


def build_alias_profile(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    K_out: int | None = None,
) -> AliasProfile:
    """The alias profile of a product pair (lam, beta) at m, enumerated to
    T = ceil((K_out - m) / (2m+1)) blocks per side and axis, so the
    profile's own ``K_out`` is (2m+1) T + m.

    The alias sums factor over the axes j of ``axis_factors()``.  Let E_j
    be the column sums of |beta_j^{-1}|^2 over the blocks 0 < |t| <= T,
    and D_j = |beta_j^{-1}|^2 and A_j = |alpha_j|^2 on the band.  Over the
    nonzero blocks of the box |t|_inf <= T the profile is

        prod_j A_j (prod_j (D_j + E_j) - prod_j D_j),

    which ``product_increment(D, E)`` forms on the (2m+1)^d box without
    cancelling.  For d = 1 it is |alpha|^2 (positive + negative).  Past T
    each column sum misses at most the l2 tail of beta_j beyond
    (2m+1) T + m, so ``tail_sq`` is prod_j max A_j times
    ``product_increment`` of the largest column sums max(D_j + E_j) and
    those tails.

    Each side's column sums come from ``_alias_column_sums``, which streams
    the blocks through a buffer of about ``_BLOCK`` indices and adds every
    column row by row in the order t = 1, 2, ..., T, so memory does not grow
    with K_out.  For a ``symmetric`` factor beta_j the negative side is the
    positive side reversed, bit for bit, and is not evaluated.  Without
    ``K_out`` the profile takes ``default_K_out`` of the pair, in any d.
    """
    factors = (lam.axis_factors(), beta.axis_factors())
    if lam.dimension != beta.dimension or None in factors:
        raise SequenceError("the alias profile needs two product sequences of one dimension")
    if K_out is None:
        K_out = default_K_out(lam, beta, m)
    d, n = lam.dimension, 2 * m + 1
    T = max(1, -(-(K_out - m) // n))  # ceil
    A, D, E, a_max, c_max, tails = [], [], [], [], [], []
    for j, (axl, axb) in enumerate(zip(*factors)):
        _, inv_b, alpha = band_arrays(axl, axb, m)
        pos = _alias_column_sums(axb, m, T, 1)
        neg = pos[::-1] if axb.symmetric else _alias_column_sums(axb, m, T, -1)
        d_j, e_j = np.abs(inv_b) ** 2, pos + neg
        axis = (None,) * j + (slice(None),) + (None,) * (d - 1 - j)  # broadcast along axis j
        A.append((np.abs(alpha) ** 2)[axis])
        D.append(d_j[axis])
        E.append(e_j[axis])
        a_max.append(float(np.max(np.abs(alpha))) ** 2)
        c_max.append(float(np.max(d_j + e_j)))
        tails.append(axb.inv_l2_tail_sq(n * T + m))
    sq = math.prod(A) * product_increment(D, E)
    tail_sq = math.prod(a_max) * product_increment(c_max, tails)
    return AliasProfile(lam, beta, m, n * T + m, sq, tail_sq)


_BLOCK = 1 << 15  # alias indices per streamed block: 256 KiB of float64


def _alias_column_sums(beta: CoefficientSequence, m: int, T: int, sign: int) -> np.ndarray:
    """sum_{t=1}^{T} |beta^{-1}(sign (2m+1) t + k')|^2 for each residue k' in [-m, m].

    The rows t are evaluated in blocks of about ``_BLOCK`` indices.  Row 0
    of the buffer carries the running column sum into the next block, so
    ``np.sum(axis=0)``, which adds the rows of a C-ordered array one after
    another, adds each column in the order t = 1, 2, ..., T: the same sum,
    bit for bit, as one reduction over all T rows (for 2m+1 > 1 columns).
    """
    n = 2 * m + 1
    jp = np.arange(-m, m + 1)
    rows = max(1, _BLOCK // n)
    buf = np.zeros((min(rows, T) + 1, n))
    for t0 in range(1, T + 1, rows):
        ts = np.arange(t0, min(T, t0 + rows - 1) + 1)
        block = buf[: ts.size + 1]
        ks = (sign * n * ts)[:, None] + jp[None, :]
        np.abs(np.asarray(beta.inv_values(ks)), out=block[1:])
        np.square(block[1:], out=block[1:])
        buf[0] = np.sum(block, axis=0)
    return buf[0].copy()


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
