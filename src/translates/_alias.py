"""Shared aliasing machinery for the translate operator.

Sampling a function at the 2m+1 uniform nodes folds every frequency k
onto its representative k' in [-m, m] with k = k' (mod 2m+1).  Both the
operator's spectral image and the theoretical error budgets are sums
over these residue classes, so they share the block grid built here:
row t of the grid holds the frequencies k' + (2m+1) t for all residues
k' in [-m, m].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import CoefficientSequence, SequenceError, product_increment


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


def default_K_out(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    *,
    rel: float = 1e-3,
    floor: int = 64,
    cap: int = 2**21,
) -> int:
    """Truncation radius whose alias tail is negligible at the error scale.

    Picks K so that the per-residue-class l2 tail of |gamma| beyond K is
    below ``rel`` times the budget's sup term.  The cap keeps slowly
    decaying sequences affordable; the remaining tail is still reported
    by the callers that truncate.
    """
    inv_lam, inv_beta, alpha = band_arrays(lam, beta, m)
    scale = lam.inv_sup_tail(m)
    if not math.isfinite(scale) or scale <= 0:
        scale = float(np.max(np.abs(inv_lam)))
    alpha_max = float(np.max(np.abs(alpha)))
    target_sq = (rel * scale / max(alpha_max, 1e-300)) ** 2 * (2 * m + 1)
    K = beta.tail_rule().radius_for_l2(target_sq, cap=cap)
    return int(max(floor, 8 * m, min(K, cap)))


@dataclass
class AliasProfile:
    """Per-residue alias sums for a fixed (lambda, beta, m) triple.

    ``sq_profile[i]`` is sum over t != 0 of |gamma_{k' + (2m+1)t}|^2 for
    the residue k' = i - m, truncated at |k| <= K_out; ``tail_sq`` bounds
    the discarded part of each class.  The exact p = 2 error of the
    operator on an element with source coefficients ghat is

        err^2 = sum_{k'} |ghat(k')|^2 sq_profile(k')
              + sum_{m < |k| <= bw} ( |lam_k^{-1} ghat(k)|^2
                              - 2 Re[gamma_k ghat(k') conj(lam_k^{-1} ghat(k))] )

    which ``element_error`` evaluates in O(bandwidth) after the one-off
    grid pass, regrouping the direct coefficient sum without changing it.
    """

    lam: CoefficientSequence
    beta: CoefficientSequence
    m: int
    K_out: int
    sq_profile: np.ndarray
    tail_sq: float

    @property
    def worst_single_frequency(self) -> float:
        """Max over |k0| <= m of the error for the pure source e_{k0}."""
        return float(np.sqrt(np.max(self.sq_profile)))

    def single_frequency_errors(self) -> np.ndarray:
        return np.sqrt(self.sq_profile)

    def element_error(self, g) -> float:
        """p = 2 error for a source g with bandwidth <= K_out."""
        from .approximant import ImagePlan  # the operator module builds on this one

        m = self.m
        bw = g.bandwidth
        if bw > self.K_out:
            raise ValueError("source bandwidth exceeds the profile truncation")
        jp = np.arange(-m, m + 1)
        gband = coeff_lookup_1d(g, jp)
        total = float(np.sum(np.abs(gband) ** 2 * self.sq_profile))
        if bw > m:
            plan = ImagePlan(self.lam, self.beta, m, bw)
            ks = np.arange(-bw, bw + 1)[plan.outer]
            bterm = np.asarray(self.lam.inv_values(ks)) * coeff_lookup_1d(g, ks)
            cross = plan.coefficients(g)[plan.outer] * np.conj(bterm)
            total += float(np.sum(np.abs(bterm) ** 2) - 2.0 * np.sum(cross.real))
        return math.sqrt(max(total, 0.0))


def build_alias_profile(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    K_out: int | None = None,
) -> AliasProfile:
    if K_out is None:
        K_out = default_K_out(lam, beta, m)
    _, _, alpha = band_arrays(lam, beta, m)
    n = 2 * m + 1
    T = max(1, -(-(K_out - m) // n))  # ceil
    jp = np.arange(-m, m + 1)
    acc = np.zeros(n)
    block = max(1, 4_000_000 // n)
    for t0 in range(1, T + 1, block):
        ts = np.arange(t0, min(T, t0 + block - 1) + 1)
        pos = (n * ts)[:, None] + jp[None, :]
        neg = -(n * ts)[:, None] + jp[None, :]
        acc += np.sum(np.abs(np.asarray(beta.inv_values(pos))) ** 2, axis=0)
        acc += np.sum(np.abs(np.asarray(beta.inv_values(neg))) ** 2, axis=0)
    sq = np.abs(alpha) ** 2 * acc
    alpha_max = float(np.max(np.abs(alpha)))
    tail_sq = alpha_max**2 * beta.inv_l2_tail_sq(n * T + m)
    return AliasProfile(lam, beta, m, n * T + m, sq, tail_sq)


def coeff_lookup_1d(g, ks: np.ndarray) -> np.ndarray:
    """Coefficients of g at arbitrary frequencies, zero outside its box."""
    ks = np.asarray(ks)
    out = np.zeros(ks.shape, dtype=complex)
    ok = np.abs(ks) <= g.radius
    out[ok] = g.values[ks[ok] + g.radius]
    return out


def index_box(radius: int, d: int) -> np.ndarray:
    """All indices of the box [-radius, radius]^d in C order.

    For d = 1 the plain range of shape (n,), the index form univariate
    sequences take; otherwise shape (n^d, d).
    """
    ax = np.arange(-radius, radius + 1)
    if d == 1:
        return ax
    return np.stack(np.meshgrid(*[ax] * d, indexing="ij"), axis=-1).reshape(-1, d)


def _md_axis_sums(lam, beta, m: int, T: int):
    """Per axis j of a product pair: the column sums C_j of |beta_j^{-1}|^2
    over the blocks |t| <= T, and D_j = |beta_j^{-1}|^2, A_j = |alpha_j|^2
    on the band; also the beta factors."""
    n = 2 * m + 1
    jp = np.arange(-m, m + 1)
    ts = np.arange(-T, T + 1)
    C, D, A, axes = [], [], [], []
    for axl, axb in zip(lam.axis_factors(), beta.axis_factors()):
        inv_l = np.asarray(axl.inv_values(jp))
        inv_b = np.asarray(axb.inv_values(jp))
        if np.any(inv_b == 0):
            raise SequenceError("generator sequence vanishes inside the reproduced band")
        offs = jp[None, :] + (n * ts)[:, None]
        C.append(np.sum(np.abs(np.asarray(axb.inv_values(offs))) ** 2, axis=0))
        D.append(np.abs(inv_b) ** 2)
        A.append(np.abs(inv_l / inv_b) ** 2)
        axes.append(axb)
    return C, D, A, axes


def md_single_frequency_errors_sq(
    lam: CoefficientSequence,
    beta: CoefficientSequence,
    m: int,
    T: int = 64,
) -> np.ndarray:
    """Squared p = 2 error of every pure-frequency source e_{k0}, |k0|_inf <= m.

    Requires sequences with ``axis_factors``: the alias sums factor per
    axis, so the (2m+1)^d values cost d univariate passes.  The sums stop
    at T alias blocks per side; ``md_single_frequency_tail_sq`` bounds the
    rest.
    """
    C, D, A, _ = _md_axis_sums(lam, beta, m, T)
    d = lam.dimension
    shape = (2 * m + 1,) * d
    prod_c = np.ones(shape)
    prod_d = np.ones(shape)
    prod_a = np.ones(shape)
    for j in range(d):
        sl = [None] * d
        sl[j] = slice(None)
        prod_c = prod_c * C[j][tuple(sl)]
        prod_d = prod_d * D[j][tuple(sl)]
        prod_a = prod_a * A[j][tuple(sl)]
    return prod_a * (prod_c - prod_d)


def md_single_frequency_tail_sq(lam, beta, m: int, T: int = 64) -> float:
    """Bound on what ``md_single_frequency_errors_sq`` drops from each value.

    Past T blocks, axis j misses at most the l2 tail of its beta factor
    beyond (2m+1) T + m from each column sum.  The product of the column
    sums then grows by at most ``product_increment`` of the largest column
    sums and those tails, scaled by the largest |alpha|^2 product.
    """
    C, _, A, axes = _md_axis_sums(lam, beta, m, T)
    extra = [ax.inv_l2_tail_sq((2 * m + 1) * T + m) for ax in axes]
    a_max = math.prod(float(np.max(a)) for a in A)
    return a_max * product_increment([float(np.max(c)) for c in C], extra)
