"""Approximation by translates of a single generator on the d-torus.

The pipeline: a filter polynomial with coefficients alpha_k =
beta_k / lambda_k on the box |k|_inf <= m is convolved with the source g,
sampled at the (2m+1)^d uniform nodes (lexicographic order), and the
samples divided by (2m+1)^d become the weights of translates of the
beta-generator.  The result reproduces the target coefficients exactly on
the box and aliases the band alpha ghat coordinatewise onto higher
frequencies, which is what the error budgets measure.  d = 1 is the box
of dimension 1; every function here takes any d.

The spectral image and both error routes run on an ``ImagePlan``: for one
(lambda, beta, m, K_out) it holds, from the first image on, the multipliers
gamma_k = alpha_{k'} beta_k^{-1} on the index box |k|_inf <= K_out
(lambda_k^{-1} on the band), the gather index to the residues k' and the
off-band mask, and, once a p = 2 error asks for it, the fold of |gamma_k|^2
onto the residues.  These do not depend on the source, so a sweep row
builds one plan and passes it through the ``plan=`` keyword of
``spectral_image`` and ``approximation_error``, which otherwise build one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from ._alias import (
    alias_fold, band_arrays, box_values, centre, default_K_out, index_box, k_prime_array,
)
from .sequences import CoefficientSequence, SequenceError, box_inv_tail
from .spectral import SpectralFunction, convolve, evaluate_many, lp_norm, synthesize

__all__ = [
    "ClassElement",
    "ImagePlan",
    "TranslateApproximant",
    "SpectralImage",
    "k_prime",
    "build_Hm",
    "vm_samples",
    "assemble_Qm",
    "spectral_image",
    "image_tail_bound",
    "approximation_error",
    "quadrature_radius",
    "default_K_gen",
    "kernel_section",
    "class_inner_product",
]

NODE_GUARD = 10**7  # largest node window, or d >= 2 coefficient box


def k_prime(k: int, m: int) -> int:
    """The alias representative of k in [-m, m] modulo 2m+1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return int(k_prime_array(int(k), m))


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
        d, g = self.dimension, self.g
        inv = np.asarray(self.lam.inv_values(index_box(g.radius, d))).reshape(g.values.shape)
        return SpectralFunction(d, g.radius, inv * g.values, copy=False)

    def evaluate(self, x) -> complex:
        return spectral.evaluate(self.target_spectral(), x)


def default_K_gen(beta: CoefficientSequence, m: int, tol: float = 1e-10) -> int:
    """Generator truncation radius for physical-space evaluation.

    Univariate power-decay reciprocals use max(50 m, 1000); exponential
    ones the radius making the l1 tail drop below tol; truncated
    generators the table radius itself.  In d >= 2 dimensions the radius
    is max(50 m, 1000), halved (not below m) until the generator box
    (2K+1)^d fits the node guard.
    """
    d = beta.dimension
    if d > 1:
        K = max(50 * m, 1000)
        while (2 * K + 1) ** d > NODE_GUARD and K > m:
            K = max(m, K // 2)
        return K
    rule = beta.tail_rule()
    if rule.kind == "finite":
        return max(rule.radius, m)
    if rule.kind == "exponential":
        return max(m, rule.radius_for(tol, 1, cap=10**6))
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
        d = self.dimension
        return self.delta * (index_box(self.m, d) + self.m).reshape(-1, d)

    def generator(self) -> SpectralFunction:
        """The truncated generator as a band-limited function."""
        d, K = self.dimension, self.K_gen
        vals = np.asarray(self.beta.inv_values(index_box(K, d)), dtype=complex)
        return SpectralFunction(d, K, vals.reshape((2 * K + 1,) * d), copy=False)

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
    """Filter polynomial with coefficients beta_k / lambda_k on |k|_inf <= m."""
    if lam.dimension != beta.dimension:
        raise SequenceError("sequence dimensions differ")
    _, _, alpha = band_arrays(lam, beta, m)
    return SpectralFunction(lam.dimension, m, alpha.astype(complex), copy=False)


def vm_samples(g: SpectralFunction, Hm: SpectralFunction, m: int) -> np.ndarray:
    """Samples of (Hm * g) at the nodes delta * l, l in {0..2m}^d.

    The coefficient products are folded onto residues mod 2m+1 per axis
    and one inverse transform of shape (2m+1,)^d produces all node values
    at once.
    """
    return synthesize(convolve(Hm, g), 2 * m + 1).values


def assemble_Qm(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    K_gen: Optional[int] = None,
) -> TranslateApproximant:
    """Build the (2m+1)^d translate weights for a class element."""
    d = elem.dimension
    if (2 * m + 1) ** d > NODE_GUARD:
        raise ValueError(f"(2m+1)^d = {(2 * m + 1) ** d} exceeds the node guard")
    Hm = build_Hm(elem.lam, beta, m)
    if K_gen is None:
        K_gen = default_K_gen(beta, m)
    if K_gen < m:
        raise ValueError("K_gen must be >= m")
    weights = vm_samples(elem.g, Hm, m) / (2 * m + 1) ** d
    return TranslateApproximant(beta, m, weights, K_gen, dimension=d)


@dataclass(frozen=True)
class SpectralImage:
    """Exact coefficients of the approximant on |k| <= K_out."""

    function: SpectralFunction
    K_out: int
    tail_bound: float  # l2 bound on the discarded coefficients


class ImagePlan:
    """The part of the spectral image that every source of a row shares.

    For fixed (lam, beta, m, K_out) the image of a source g has the
    coefficient gamma_k ghat(k') at each k of the box |k|_inf <= K_out,
    where k' is the residue of k in the band [-m, m]^d.  Off the band
    gamma_k = alpha_{k'} beta_k^{-1}; on it gamma_k = lambda_k^{-1}, so the
    target is reproduced there.  ``index`` maps each box position (C order)
    to the flat band position of k' and ``outer`` marks |k|_inf > m; the
    first image builds them with ``gamma`` and ``tail_scale``, and each
    image then costs one gather and one product.  ``fold`` sums |gamma_k|^2
    over the off-band positions of each residue class (``_alias.alias_fold``
    for a product pair, a pass over the box otherwise), after which a p = 2
    error costs O(bandwidth^d) per source (``error_sq``).  A sweep row passes
    one plan to the public image and error functions through ``plan=``.
    """

    def __init__(self, lam: CoefficientSequence, beta: CoefficientSequence, m: int, K_out: int):
        if beta.dimension != lam.dimension:
            raise SequenceError("sequence dimensions differ")
        if K_out < m:
            raise ValueError("K_out must be >= m")
        self.lam, self.beta, self.m, self.K_out, self.dimension = lam, beta, m, K_out, lam.dimension
        self._source = None  # the plan on a source's own box, for error_sq

    def __getattr__(self, name: str):
        if name not in ("index", "outer", "gamma", "tail_scale"):  # built together, on first use
            raise AttributeError(name)
        self._build_box()
        return getattr(self, name)

    def _build_box(self) -> None:
        d, m, K = self.dimension, self.m, self.K_out
        if d > 1 and (2 * K + 1) ** d > NODE_GUARD:
            raise ValueError("K_out box exceeds the coefficient guard")
        inv_lam, _, alpha = band_arrays(self.lam, self.beta, m)
        ks = index_box(K, d)
        kp = (k_prime_array(ks, m) + m).reshape(-1, d)
        self.index = np.ravel_multi_index(tuple(kp.T), alpha.shape).astype(np.int32)
        self.outer = np.max(np.abs(ks.reshape(-1, d)), axis=1) > m
        self.gamma = alpha.ravel()[self.index] * np.asarray(self.beta.inv_values(ks))
        self.gamma[~self.outer] = inv_lam.ravel()  # the band, in C order
        self.tail_scale = image_tail_bound(alpha, self.beta, K, 1.0)

    def coefficients(self, g: SpectralFunction) -> np.ndarray:
        """Image coefficients of the source g, shape (2 K_out + 1,)^d."""
        vals = box_values(g, self.m).ravel()[self.index]
        np.multiply(self.gamma, vals, out=vals)
        return vals.reshape((2 * self.K_out + 1,) * self.dimension)

    def image(self, g: SpectralFunction) -> SpectralImage:
        """The image of g with the l2 bound on its coefficients beyond K_out."""
        gmax = float(np.max(np.abs(g.values))) if g.values.size else 0.0
        func = SpectralFunction(self.dimension, self.K_out, self.coefficients(g), copy=False)
        return SpectralImage(func, self.K_out, self.tail_scale * gmax)

    @functools.cached_property
    def fold(self) -> np.ndarray:
        """Per residue k', the sum of |gamma_k|^2 over the off-band positions
        of its class in the box, shape (2m+1,)^d."""
        if None not in (self.lam.axis_factors(), self.beta.axis_factors()):
            return alias_fold(self.lam, self.beta, self.m, self.K_out)[0]
        n, d = 2 * self.m + 1, self.dimension
        sq = np.abs(self.gamma[self.outer]) ** 2
        return np.bincount(self.index[self.outer], sq, minlength=n**d).reshape((n,) * d)

    def error_sq(self, g: SpectralFunction) -> float:
        """Squared l2 norm of (image - target) over m < |k|_inf <= K_out,
        regrouped by residue classes; with r = min(bandwidth of g, K_out),

            err^2 = sum_{k'} |ghat(k')|^2 fold(k')
                  + sum_{m < |k|_inf <= r} ( |lam_k^{-1} ghat(k)|^2
                                  - 2 Re[gamma_k ghat(k') conj(lam_k^{-1} ghat(k))] ),

        with gamma_k ghat(k') the image on the source's own box of radius r,
        whose plan and lam^{-1} off its band are kept for the last r: O(r^d)
        per source after the fold.  Coefficients beyond K_out are not counted.
        """
        m, r = self.m, min(g.bandwidth, self.K_out)
        total = float(np.sum(np.abs(box_values(g, m)) ** 2 * self.fold))
        if r > m:
            if self._source is None or self._source[0].K_out != r:
                plan = ImagePlan(self.lam, self.beta, m, r)
                ks = index_box(r, self.dimension)[plan.outer]
                self._source = (plan, np.asarray(self.lam.inv_values(ks)))
            plan, inv_lam = self._source
            image = spectral_image(ClassElement(self.lam, g), self.beta, m, plan=plan)
            bterm = inv_lam * box_values(g, r).ravel()[plan.outer]
            cross = image.function.values.ravel()[plan.outer] * np.conj(bterm)
            total += float(np.sum(np.abs(bterm) ** 2) - 2.0 * np.sum(cross.real))
        return total


def quadrature_radius(K_out: int, p: float, m: int, bw: int) -> int:
    """The image radius of a quadrature: K_out, cut to 131072 at p = 2 and
    to the sampling grid's max(4096, 16 m, bw + 1) otherwise (bw is the
    source bandwidth).  A p = 2 error builds no box, so that cap saves no
    memory; it stays because the golden CSVs and the benchmark's reference
    values pin ``error_quadrature`` at it."""
    return min(K_out, 131072 if p == 2.0 else max(4096, 16 * m, bw + 1))


def _plan_for(elem, beta, m, K_out, plan, quadrature_p=None) -> ImagePlan:
    """The given plan, checked against the call, or a one-off plan; without
    K_out that takes ``default_K_out`` (at least the source bandwidth), cut to
    ``quadrature_radius`` for a quadrature at ``quadrature_p``."""
    if plan is None:
        if K_out is None:
            bw = elem.g.bandwidth
            K_out = max(default_K_out(elem.lam, beta, m), bw)
            if quadrature_p is not None:
                K_out = quadrature_radius(K_out, quadrature_p, m, bw)
        return ImagePlan(elem.lam, beta, m, K_out)
    if (plan.lam, plan.beta, plan.m) != (elem.lam, beta, m) or K_out not in (None, plan.K_out):
        raise ValueError("the plan was built for another (lam, beta, m, K_out)")
    return plan


def spectral_image(
    elem: ClassElement,
    beta: CoefficientSequence,
    m: int,
    K_out: Optional[int] = None,
    *,
    plan: Optional[ImagePlan] = None,
) -> SpectralImage:
    """Fourier coefficients of the approximant, computed without sampling.

    Inside the band the target coefficients are reproduced exactly; for
    |k| > m the coefficient is gamma_k ghat(k') with
    gamma_k = alpha_{k'} beta_k^{-1}.  ``plan`` is a prebuilt ImagePlan of
    the same (lam, beta, m, K_out); without one, a one-off plan is built.
    """
    return _plan_for(elem, beta, m, K_out, plan).image(elem.g)


def image_tail_bound(
    alpha: np.ndarray, beta: CoefficientSequence, K_out: int, gmax: float
) -> float:
    """l2 bound on the approximant's coefficients beyond |k|_inf = K_out.

    Each is alpha_{k'} beta_k^{-1} ghat(k'), so max|alpha| max|ghat| times
    the l2 tail of beta^{-1} bounds them all (gmax = max|ghat|).
    """
    return float(np.max(np.abs(alpha))) * math.sqrt(box_inv_tail(beta, K_out, 2)) * gmax


def approximation_error(
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
    """Norm of (target - approximant), truncated at |k|_inf <= K_out.

    At p = 2 both methods take ``ImagePlan.error_sq``: the squared
    coefficient differences over m < |k|_inf <= K_out regrouped by residue
    classes, O(bandwidth^d) per source once the plan's ``fold`` is built.
    ``parseval_oracle`` (p = 2 only) stops there; ``quadrature`` also counts
    the target's coefficients beyond K_out, which only a source wider than
    K_out has, as its padded grid does at other p.  So the two agree by
    construction; the independent checks of the image are the physical-space
    ``TranslateApproximant.evaluate`` and the DFT of the translate weights.  At
    other p ``quadrature`` takes the L_p norm of the coefficient difference,
    on the box padded to the source's, on a sampling grid.  Without
    ``K_out`` or ``plan`` the oracle truncates at ``default_K_out`` and the
    quadrature at its ``quadrature_radius``, as a sweep row does.  ``plan``
    is as for ``spectral_image``.
    """
    if p is None:
        p = elem.p
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, inf)")
    if method not in ("parseval_oracle", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "parseval_oracle" and p != 2.0:
        raise ValueError("parseval_oracle applies to p = 2 only")
    plan = _plan_for(elem, beta, m, K_out, plan, p if method == "quadrature" else None)
    if p == 2.0:
        err_sq = plan.error_sq(elem.g)
        if method == "quadrature" and elem.g.bandwidth > plan.K_out:
            beyond = elem.target_spectral().values  # a fresh array, changed in place
            beyond[centre(elem.g.radius, plan.K_out, elem.dimension)] = 0
            err_sq += float(np.sum(np.abs(beyond) ** 2))
        return math.sqrt(max(err_sq, 0.0))
    # a fresh array, changed in place
    diff = spectral_image(elem, beta, m, plan=plan).function.padded(max(elem.g.radius, plan.K_out))
    diff.values[centre(diff.radius, elem.g.radius, elem.dimension)] -= elem.target_spectral().values
    return lp_norm(diff, p, oversample=oversample)


# ---------------------------------------------------------------------------
# Reproducing-kernel helpers (generator sequence = lam^2)


def kernel_section(lam: CoefficientSequence, x, radius: int) -> SpectralFunction:
    """Kernel section K(., x): coefficients lambda_k^{-2} e^{-i(k,x)}."""
    d = lam.dimension
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != d:
        raise SequenceError("point dimension mismatch")
    ks = index_box(radius, d)
    inv2 = np.asarray(lam.inv_values(ks)) ** 2
    vals = inv2 * np.exp(-1j * ks.reshape(-1, d) @ x)
    return SpectralFunction(d, radius, vals.reshape((2 * radius + 1,) * d), copy=False)


def class_inner_product(
    f1: SpectralFunction, f2: SpectralFunction, lam: CoefficientSequence
) -> complex:
    """Inner product sum_k lambda_k^2 f1hat(k) conj(f2hat(k))."""
    if f1.dimension != f2.dimension or f1.dimension != lam.dimension:
        raise SequenceError("dimension mismatch")
    r = min(f1.radius, f2.radius)  # outside either box the product vanishes
    d = f1.dimension
    lam2 = np.asarray(lam.values(index_box(r, d))).reshape((2 * r + 1,) * d) ** 2
    v1, v2 = f1.values[centre(f1.radius, r, d)], f2.values[centre(f2.radius, r, d)]
    return complex(np.sum(lam2 * v1 * np.conj(v2)))
