"""Tensor-grid version of the translate operator on the d-torus.

Everything mirrors the univariate module with the box window
|k|_inf <= m, (2m+1)^d nodes in lexicographic order, and coordinatewise
alias representatives.  All d = 1 paths delegate to the univariate
implementations so the reduction is exact.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import approximant as uni
from ._alias import coeff_lookup_md, k_prime_array, md_index_box
from .approximant import ClassElement, SpectralImage, TranslateApproximant
from .sequences import CoefficientSequence, SequenceError, box_inv_tail
from .spectral import SpectralFunction, lp_norm

__all__ = [
    "MultiIndexWindow",
    "k_prime_md",
    "build_Hm_md",
    "assemble_Qm_md",
    "spectral_image_md",
    "approximation_error_md",
]

_NODE_GUARD = 10**7


class MultiIndexWindow:
    """Node window {0..2m}^d enumerated lexicographically."""

    def __init__(self, m: int, dimension: int):
        if m < 1 or dimension < 1:
            raise ValueError("m and dimension must be >= 1")
        self.m = m
        self.dimension = dimension
        if self.node_count > _NODE_GUARD:
            raise ValueError(f"(2m+1)^d = {self.node_count} exceeds the node guard")

    @property
    def node_count(self) -> int:
        return (2 * self.m + 1) ** self.dimension

    @property
    def delta(self) -> float:
        return 2.0 * math.pi / (2 * self.m + 1)

    def nodes(self) -> np.ndarray:
        ls = np.stack(
            np.meshgrid(*([np.arange(2 * self.m + 1)] * self.dimension), indexing="ij"),
            axis=-1,
        ).reshape(-1, self.dimension)
        return self.delta * ls


def k_prime_md(k, m: int):
    """Coordinatewise alias representative with |k'|_inf <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    arr = k_prime_array(np.asarray(k, dtype=np.int64), m)
    return tuple(int(v) for v in np.atleast_1d(arr))


def _band_box(lam, beta, m, d):
    """(inv_lam, inv_beta, alpha) arrays of shape (2m+1,)^d, complex if either is."""
    box = md_index_box(m, d)
    shape = (2 * m + 1,) * d
    inv_lam = np.asarray(lam.inv_values(box)).reshape(shape)
    inv_beta = np.asarray(beta.inv_values(box)).reshape(shape)
    dtype = np.result_type(inv_lam, inv_beta, float)
    inv_lam, inv_beta = inv_lam.astype(dtype), inv_beta.astype(dtype)
    if np.any(inv_beta == 0):
        raise SequenceError("generator sequence vanishes inside the reproduced band")
    return inv_lam, inv_beta, inv_lam / inv_beta


def build_Hm_md(
    lam: CoefficientSequence, beta: CoefficientSequence, m: int
) -> SpectralFunction:
    """Filter polynomial on the full box |k|_inf <= m."""
    if lam.dimension != beta.dimension:
        raise SequenceError("sequence dimensions differ")
    d = lam.dimension
    if d == 1:
        return uni.build_Hm(lam, beta, m)
    _, _, alpha = _band_box(lam, beta, m, d)
    return SpectralFunction(d, m, alpha.astype(complex), copy=False)


def _default_K_gen_md(beta: CoefficientSequence, m: int, d: int) -> int:
    K = uni.default_K_gen(beta, m) if d == 1 else max(50 * m, 1000)
    # keep the generator box inside the coefficient guard
    while (2 * K + 1) ** d > _NODE_GUARD and K > m:
        K = max(m, K // 2)
    return K


def assemble_Qm_md(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    K_gen: Optional[int] = None,
) -> TranslateApproximant:
    """(2m+1)^d translate weights via a d-dimensional aliased transform."""
    d = elem.dimension
    if d == 1:
        return uni.assemble_Qm(elem, beta, m, K_gen=K_gen)
    if beta.dimension != d:
        raise SequenceError("sequence and element dimensions differ")
    window = MultiIndexWindow(m, d)  # validates the node guard
    if K_gen is None:
        K_gen = _default_K_gen_md(beta, m, d)
    if K_gen < m:
        raise ValueError("K_gen must be >= m")
    n = 2 * m + 1
    _, _, alpha = _band_box(elem.lam, beta, m, d)
    r = min(m, elem.g.radius)
    lo = m - r
    sl = (slice(lo, lo + 2 * r + 1),) * d
    glo = elem.g.radius - r
    gsl = (slice(glo, glo + 2 * r + 1),) * d
    prods = alpha[sl] * elem.g.values[gsl]
    spec = np.zeros((n,) * d, dtype=complex)
    ax = np.arange(-r, r + 1) % n
    np.add.at(spec, np.ix_(*([ax] * d)), prods)
    weights = np.fft.ifftn(spec)
    return TranslateApproximant(beta, m, weights, K_gen, dimension=d)


def spectral_image_md(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    K_out: Optional[int] = None,
) -> SpectralImage:
    """Exact approximant coefficients on the box |k|_inf <= K_out."""
    d = elem.dimension
    if d == 1:
        return uni.spectral_image(elem, beta, m, K_out=K_out)
    if K_out is None:
        K_out = max(4 * m, 32, elem.g.bandwidth)
    if K_out < m:
        raise ValueError("K_out must be >= m")
    if (2 * K_out + 1) ** d > _NODE_GUARD:
        raise ValueError("K_out box exceeds the coefficient guard")
    ks = md_index_box(K_out, d)
    kp = k_prime_array(ks, m)
    _, _, alpha = _band_box(elem.lam, beta, m, d)
    alpha_at_kp = alpha[tuple((kp + m)[:, j] for j in range(d))]
    gamma = alpha_at_kp * np.asarray(beta.inv_values(ks))
    vals = gamma * coeff_lookup_md(elem.g, kp)
    inner = np.max(np.abs(ks), axis=1) <= m
    vals[inner] = np.asarray(elem.lam.inv_values(ks[inner])) * coeff_lookup_md(
        elem.g, ks[inner]
    )
    shape = (2 * K_out + 1,) * d
    gmax = float(np.max(np.abs(elem.g.values))) if elem.g.values.size else 0.0
    tail = float(np.max(np.abs(alpha))) * math.sqrt(box_inv_tail(beta, K_out, 2)) * gmax
    func = SpectralFunction(d, K_out, vals.reshape(shape), copy=False)
    return SpectralImage(func, K_out, tail)


def approximation_error_md(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    p: Optional[float] = None,
    method: str = "parseval_oracle",
    K_out: Optional[int] = None,
    oversample: int = 8,
) -> float:
    """Approximation error with box truncation |k|_inf <= K_out per axis."""
    d = elem.dimension
    if d == 1:
        return uni.approximation_error(
            elem, beta, m, p=p, method=method, K_out=K_out, oversample=oversample
        )
    if p is None:
        p = elem.p
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if K_out is None:
        K_out = max(4 * m, 32, elem.g.bandwidth)
    if method == "parseval_oracle":
        if p != 2.0:
            raise ValueError("parseval_oracle applies to p = 2 only")
        ks = md_index_box(K_out, d)
        outer = np.max(np.abs(ks), axis=1) > m
        ks = ks[outer]
        kp = k_prime_array(ks, m)
        _, _, alpha = _band_box(elem.lam, beta, m, d)
        alpha_at_kp = alpha[tuple((kp + m)[:, j] for j in range(d))]
        gamma = alpha_at_kp * np.asarray(beta.inv_values(ks))
        diff = gamma * coeff_lookup_md(elem.g, kp) - np.asarray(
            elem.lam.inv_values(ks)
        ) * coeff_lookup_md(elem.g, ks)
        return float(np.linalg.norm(diff))
    if method == "quadrature":
        img = spectral_image_md(elem, beta, m, K_out=K_out).function
        diff = img - elem.target_spectral()
        return lp_norm(diff, p, oversample=oversample)
    raise ValueError(f"unknown method {method!r}")
