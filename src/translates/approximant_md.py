"""Tensor-grid version of the translate operator on the d-torus.

Everything mirrors the univariate module with the box window
|k|_inf <= m, (2m+1)^d nodes in lexicographic order, and coordinatewise
alias representatives.  All d = 1 paths delegate to the univariate
implementations so the reduction is exact.  The spectral image and the
error routes share the d-generic ``ImagePlan`` of the univariate module.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import approximant as uni
from ._alias import band_arrays, k_prime_array
from .approximant import NODE_GUARD, ClassElement, ImagePlan, SpectralImage, TranslateApproximant
from .sequences import CoefficientSequence, SequenceError
from .spectral import SpectralFunction

__all__ = [
    "MultiIndexWindow",
    "k_prime_md",
    "build_Hm_md",
    "assemble_Qm_md",
    "spectral_image_md",
    "approximation_error_md",
]


class MultiIndexWindow:
    """Node window {0..2m}^d enumerated lexicographically."""

    def __init__(self, m: int, dimension: int):
        if m < 1 or dimension < 1:
            raise ValueError("m and dimension must be >= 1")
        self.m = m
        self.dimension = dimension
        if self.node_count > NODE_GUARD:
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


def build_Hm_md(
    lam: CoefficientSequence, beta: CoefficientSequence, m: int
) -> SpectralFunction:
    """Filter polynomial on the full box |k|_inf <= m."""
    if lam.dimension != beta.dimension:
        raise SequenceError("sequence dimensions differ")
    d = lam.dimension
    if d == 1:
        return uni.build_Hm(lam, beta, m)
    _, _, alpha = band_arrays(lam, beta, m)
    return SpectralFunction(d, m, alpha.astype(complex), copy=False)


def _default_K_gen_md(beta: CoefficientSequence, m: int, d: int) -> int:
    K = uni.default_K_gen(beta, m) if d == 1 else max(50 * m, 1000)
    # keep the generator box inside the coefficient guard
    while (2 * K + 1) ** d > NODE_GUARD and K > m:
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
    _, _, alpha = band_arrays(elem.lam, beta, m)
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
    *,
    plan: Optional[ImagePlan] = None,
) -> SpectralImage:
    """Exact approximant coefficients on the box |k|_inf <= K_out."""
    if elem.dimension == 1:
        return uni.spectral_image(elem, beta, m, K_out=K_out, plan=plan)
    return uni._plan_for(elem, beta, m, K_out, plan).image(elem.g)


def approximation_error_md(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    p: Optional[float] = None,
    method: str = "parseval_oracle",
    K_out: Optional[int] = None,
    oversample: int = 8,
    *,
    plan: Optional[ImagePlan] = None,
) -> float:
    """Approximation error with box truncation |k|_inf <= K_out per axis."""
    if elem.dimension == 1:
        return uni.approximation_error(
            elem, beta, m, p=p, method=method, K_out=K_out, oversample=oversample, plan=plan
        )
    return uni._error(elem, beta, m, p, method, K_out, oversample, plan, spectral_image_md)
