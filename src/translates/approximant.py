"""Univariate approximation by translates of a single generator.

The pipeline: a filter polynomial with coefficients alpha_k =
beta_k / lambda_k on |k| <= m is convolved with the source g, sampled at
the 2m+1 uniform nodes, and the samples (divided by 2m+1) become the
weights of translates of the beta-generator.  The result reproduces the
target coefficients exactly on |k| <= m and aliases the band alpha ghat
onto higher frequencies, which is what the error budgets measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from ._alias import (
    band_arrays,
    coeff_lookup_1d,
    default_K_out,
    k_prime_array,
    md_index_box,
)
from .sequences import CoefficientSequence, SequenceError, box_inv_tail
from .spectral import SpectralFunction, evaluate_many, lp_norm

__all__ = [
    "ClassElement",
    "TranslateApproximant",
    "SpectralImage",
    "k_prime",
    "build_Hm",
    "vm_samples",
    "assemble_Qm",
    "spectral_image",
    "evaluate_approximant",
    "approximation_error",
    "default_K_gen",
    "kernel_section",
    "class_inner_product",
]


def k_prime(k: int, m: int) -> int:
    """The alias representative of k in [-m, m] modulo 2m+1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return int((int(k) + m) % (2 * m + 1) - m)


@dataclass(frozen=True)
class ClassElement:
    """Element f = (generator of lam) * g of the convolution class.

    f is never materialized on its own: its coefficients are the derived
    values lambda_k^{-1} ghat(k) on the support of g, and its class norm
    is the L_p norm of g.
    """

    lam: CoefficientSequence
    g: SpectralFunction
    p: float = 2.0

    def __post_init__(self):
        if self.lam.dimension != self.g.dimension:
            raise SequenceError("sequence and source dimensions differ")
        if not 1.0 < self.p < math.inf:
            raise ValueError("class exponent p must lie in (1, inf)")

    @property
    def dimension(self) -> int:
        return self.g.dimension

    def class_norm(self, oversample: int = 8) -> float:
        return lp_norm(self.g, self.p, oversample=oversample)

    def target_spectral(self) -> SpectralFunction:
        """Coefficients of f on the support box of g."""
        d = self.dimension
        if d == 1:
            inv = np.asarray(self.lam.inv_values(self.g.axis_indices()))
            vals = inv * self.g.values
        else:
            box = md_index_box(self.g.radius, d)
            inv = np.asarray(self.lam.inv_values(box)).reshape(self.g.values.shape)
            vals = inv * self.g.values
        return SpectralFunction(d, self.g.radius, vals, copy=False)

    def evaluate(self, x) -> complex:
        return spectral.evaluate(self.target_spectral(), x)


def default_K_gen(beta: CoefficientSequence, m: int, tol: float = 1e-10) -> int:
    """Generator truncation radius for physical-space evaluation.

    Power-decay reciprocals use max(50 m, 1000); exponential ones the
    radius making the l1 tail drop below tol; truncated generators the
    table radius itself.
    """
    rule = beta.tail_rule()
    if rule.kind == "finite":
        return max(rule.radius, m)
    if rule.kind == "exponential":
        return max(m, rule.radius_for_l1(tol, cap=10**6))
    return max(50 * m, 1000)


@dataclass(frozen=True)
class TranslateApproximant:
    """Weighted combination of translates of a truncated generator.

    Node l sits at delta * l with delta = 2 pi / (2m+1); weights have
    shape (2m+1,)^d in lexicographic node order.
    """

    beta: CoefficientSequence
    m: int
    weights: np.ndarray
    K_gen: int
    dimension: int = 1

    def __post_init__(self):
        n = 2 * self.m + 1
        if self.weights.shape != (n,) * self.dimension:
            raise ValueError(f"weights shape {self.weights.shape} != {(n,) * self.dimension}")
        if self.K_gen < self.m:
            raise ValueError("generator truncation must at least cover the reproduced band")

    @property
    def delta(self) -> float:
        return 2.0 * math.pi / (2 * self.m + 1)

    @property
    def n_translates(self) -> int:
        return (2 * self.m + 1) ** self.dimension

    def nodes(self) -> np.ndarray:
        """Node positions, shape (n_translates, d), lexicographic in l."""
        ls = np.stack(
            np.meshgrid(*([np.arange(2 * self.m + 1)] * self.dimension), indexing="ij"),
            axis=-1,
        ).reshape(-1, self.dimension)
        return self.delta * ls

    def generator(self) -> SpectralFunction:
        """The truncated generator as a band-limited function."""
        d = self.dimension
        if d == 1:
            ks = np.arange(-self.K_gen, self.K_gen + 1)
            vals = np.asarray(self.beta.inv_values(ks), dtype=complex)
        else:
            box = md_index_box(self.K_gen, d)
            vals = np.asarray(self.beta.inv_values(box), dtype=complex).reshape(
                (2 * self.K_gen + 1,) * d
            )
        return SpectralFunction(d, self.K_gen, vals, copy=False)

    def generator_tail_l1(self) -> float:
        """l1 bound on the discarded generator coefficients."""
        return box_inv_tail(self.beta, self.K_gen, 1)

    def evaluation_tail_bound(self) -> float:
        """Worst-case pointwise effect of the generator truncation."""
        return float(np.sum(np.abs(self.weights))) * self.generator_tail_l1()

    def evaluate(self, xs) -> np.ndarray:
        """Physical-space synthesis: sum_l c_l phi(x - node_l)."""
        xs = np.asarray(xs, dtype=float)
        if self.dimension == 1:
            pts = xs.reshape(-1, 1)
        else:
            pts = np.atleast_2d(xs)
        phi = self.generator()
        nodes = self.nodes()
        diffs = pts[:, None, :] - nodes[None, :, :]
        vals = evaluate_many(phi, diffs.reshape(-1, self.dimension))
        vals = vals.reshape(pts.shape[0], nodes.shape[0])
        out = vals @ self.weights.ravel()
        return out.reshape(np.shape(xs)[:1] if self.dimension == 1 else np.shape(xs)[:-1])


def build_Hm(
    lam: CoefficientSequence, beta: CoefficientSequence, m: int
) -> SpectralFunction:
    """Filter polynomial with coefficients beta_k / lambda_k on |k| <= m."""
    if lam.dimension != 1 or beta.dimension != 1:
        raise SequenceError("build_Hm is univariate")
    _, _, alpha = band_arrays(lam, beta, m)
    return SpectralFunction(1, m, alpha.astype(complex), copy=False)


def vm_samples(g: SpectralFunction, Hm: SpectralFunction, m: int) -> np.ndarray:
    """Samples of (Hm * g) at the nodes delta * l, l = 0..2m.

    The coefficient products are folded onto residues mod 2m+1 and a
    length-(2m+1) inverse transform produces all node values at once.
    """
    if g.dimension != 1 or Hm.dimension != 1:
        raise SequenceError("vm_samples is univariate")
    n = 2 * m + 1
    r = min(g.radius, Hm.radius)
    ks = np.arange(-r, r + 1)
    prods = coeff_lookup_1d(Hm, ks) * coeff_lookup_1d(g, ks)
    spec = np.zeros(n, dtype=complex)
    np.add.at(spec, ks % n, prods)
    return np.fft.ifft(spec) * n


def assemble_Qm(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    K_gen: Optional[int] = None,
) -> TranslateApproximant:
    """Build the 2m+1 translate weights for a class element."""
    if elem.dimension != 1:
        raise SequenceError("assemble_Qm is univariate; see approximant_md")
    if K_gen is None:
        K_gen = default_K_gen(beta, m)
    if K_gen < m:
        raise ValueError("K_gen must be >= m")
    Hm = build_Hm(elem.lam, beta, m)
    weights = vm_samples(elem.g, Hm, m) / (2 * m + 1)
    return TranslateApproximant(beta, m, weights, K_gen, dimension=1)


def evaluate_approximant(A: TranslateApproximant, xs) -> np.ndarray:
    return A.evaluate(xs)


@dataclass(frozen=True)
class SpectralImage:
    """Exact coefficients of the approximant on |k| <= K_out."""

    function: SpectralFunction
    K_out: int
    tail_bound: float  # l2 bound on the discarded coefficients


def spectral_image(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    K_out: Optional[int] = None,
) -> SpectralImage:
    """Fourier coefficients of the approximant, computed without sampling.

    Inside the band the target coefficients are reproduced exactly; for
    |k| > m the coefficient is gamma_k ghat(k') with
    gamma_k = alpha_{k'} beta_k^{-1}.
    """
    if elem.dimension != 1:
        raise SequenceError("spectral_image is univariate; see approximant_md")
    if K_out is None:
        K_out = max(default_K_out(elem.lam, beta, m), elem.g.bandwidth)
    if K_out < m:
        raise ValueError("K_out must be >= m")
    lam = elem.lam
    ks = np.arange(-K_out, K_out + 1)
    kp = k_prime_array(ks, m)
    inv_lam_band, inv_beta_band, alpha = band_arrays(lam, beta, m)
    gamma = alpha[kp + m] * np.asarray(beta.inv_values(ks))
    vals = gamma * coeff_lookup_1d(elem.g, kp)
    inner = np.abs(ks) <= m
    vals[inner] = inv_lam_band * coeff_lookup_1d(elem.g, ks[inner])
    gmax = float(np.max(np.abs(elem.g.values))) if elem.g.values.size else 0.0
    tail = float(np.max(np.abs(alpha))) * math.sqrt(beta.inv_l2_tail_sq(K_out)) * gmax
    return SpectralImage(SpectralFunction(1, K_out, vals, copy=False), K_out, tail)


def approximation_error(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    p: Optional[float] = None,
    method: str = "parseval_oracle",
    K_out: Optional[int] = None,
    oversample: int = 8,
) -> float:
    """Norm of (target - approximant) by one of two routes.

    ``parseval_oracle`` (p = 2 only) sums the exact coefficient
    differences over m < |k| <= K_out.  ``quadrature`` materializes the
    coefficient difference on the band and takes its L_p norm.  Both are
    truncated at the same K_out, so they can be compared directly.
    """
    if p is None:
        p = elem.p
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if K_out is None:
        K_out = max(default_K_out(elem.lam, beta, m), elem.g.bandwidth)
    if method == "parseval_oracle":
        if p != 2.0:
            raise ValueError("parseval_oracle applies to p = 2 only")
        ks = np.concatenate(
            [np.arange(-K_out, -m), np.arange(m + 1, K_out + 1)]
        )
        kp = k_prime_array(ks, m)
        _, _, alpha = band_arrays(elem.lam, beta, m)
        gamma = alpha[kp + m] * np.asarray(beta.inv_values(ks))
        diff = gamma * coeff_lookup_1d(elem.g, kp) - np.asarray(
            elem.lam.inv_values(ks)
        ) * coeff_lookup_1d(elem.g, ks)
        return float(np.linalg.norm(diff))
    if method == "quadrature":
        img = spectral_image(elem, beta, m, K_out=K_out).function
        diff = img - elem.target_spectral()
        return lp_norm(diff, p, oversample=oversample)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Reproducing-kernel helpers (generator sequence = lam^2)


def kernel_section(lam: CoefficientSequence, x, radius: int) -> SpectralFunction:
    """Kernel section K(., x): coefficients lambda_k^{-2} e^{-i(k,x)}."""
    d = lam.dimension
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != d:
        raise SequenceError("point dimension mismatch")
    if d == 1:
        ks = np.arange(-radius, radius + 1)
        inv2 = np.asarray(lam.inv_values(ks)) ** 2
        vals = inv2 * np.exp(-1j * ks * x[0])
    else:
        box = md_index_box(radius, d)
        inv2 = np.asarray(lam.inv_values(box)) ** 2
        vals = (inv2 * np.exp(-1j * box @ x)).reshape((2 * radius + 1,) * d)
    return SpectralFunction(d, radius, vals, copy=False)


def class_inner_product(
    f1: SpectralFunction, f2: SpectralFunction, lam: CoefficientSequence
) -> complex:
    """Inner product sum_k lambda_k^2 f1hat(k) conj(f2hat(k))."""
    if f1.dimension != f2.dimension or f1.dimension != lam.dimension:
        raise SequenceError("dimension mismatch")
    r = min(f1.radius, f2.radius)  # outside either box the product vanishes
    d = f1.dimension
    sl1 = (slice(f1.radius - r, f1.radius + r + 1),) * d
    sl2 = (slice(f2.radius - r, f2.radius + r + 1),) * d
    if d == 1:
        lam2 = np.asarray(lam.values(np.arange(-r, r + 1))) ** 2
    else:
        lam2 = np.asarray(lam.values(md_index_box(r, d))).reshape((2 * r + 1,) * d) ** 2
    return complex(np.sum(lam2 * f1.values[sl1] * np.conj(f2.values[sl2])))
