"""Empirical probe of how well n free translates can do at best.

Implements the constructive side of the lower-bound argument: the
lattice-ball cardinality s*, the design (m, s, omega) derived from a
budget n, the hard family of sign polynomials on the lattice ball, and
a heuristic best-approximation search (free nodes, least-squares
weights solved in coefficient space, which by Parseval gives the L2
residual).  The search upper-bounds the true infimum and the family
max lower-bounds nothing rigorously; the resulting statistic is labeled
heuristic and is meant for shape and monotonicity checks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sequences import CoefficientSequence, SequenceError, index_box
from .spectral import SpectralFunction

__all__ = [
    "GrowthFunction",
    "LowerBoundDesign",
    "ProbeResult",
    "lattice_count",
    "design_for_n",
    "sample_F_ns",
    "best_translate_fit",
    "probe_Mn",
    "default_probe_generator",
]


@dataclass(frozen=True)
class GrowthFunction:
    """Nondecreasing growth law Psi on [0, inf), used for rate envelopes.

    ``power``:     Psi(t) = max(t, 1)^a
    ``log_power``: Psi(t) = max(t, 1)^a * (1 + log max(t, 1))^b
    """

    rule: str = "power"
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.rule not in ("power", "log_power"):
            raise ValueError(f"unknown growth rule {self.rule!r}")
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ValueError(f"growth a and b must be finite and >= 0, got a={self.a!r}, b={self.b!r}")

    def __call__(self, t) -> np.ndarray:
        t = np.maximum(np.asarray(t, dtype=float), 1.0)
        if self.rule == "power":
            return t**self.a
        return t**self.a * (1.0 + np.log(t)) ** self.b

    def doubling_constant(self) -> float:
        """max Psi(2t) / Psi(t) over 2001 points of [1, 1e4], geometrically spaced."""
        t = np.geomspace(1.0, 1e4, 2001)
        return float(np.max(self(2 * t) / self(t)))

    def is_nondecreasing(self) -> bool:
        """Psi sampled at 2001 points of [0, 1e4] never falls."""
        return bool(np.all(np.diff(self(np.linspace(0.0, 1e4, 2001))) >= -1e-12))


def lattice_count(s: int, d: int) -> int:
    """Number of integer points with |k|_2 <= s, by exact enumeration."""
    if s < 0 or d < 1:
        raise ValueError("need s >= 0 and d >= 1")
    if s > 0 and float(s) ** d > 1e8:
        raise ValueError("lattice enumeration guard exceeded (s^d > 1e8)")
    return len(_ball_indices(s, d))


def _ball_indices(s: int, d: int) -> np.ndarray:
    box = index_box(s, d).reshape(-1, d)
    keep = np.sum(box.astype(np.int64) ** 2, axis=1) <= s * s
    return box[keep]


@dataclass(frozen=True)
class LowerBoundDesign:
    """Derived quantities (m, s, omega) of the hard-family construction."""

    n: int
    d: int
    c3: float
    m: int
    s: int
    omega: float


def design_for_n(
    n: int, d: int, lam: CoefficientSequence, c3: float = 1.0
) -> LowerBoundDesign:
    """Hard-family design for a budget of n translates.

    m = floor(c3 n log n) + 1 and s is the largest radius whose lattice
    ball still fits: lattice_count(s) <= m < lattice_count(s+1).  The
    amplitude omega = m^{-1/2} / max_{|k|_2 = s} |lam_k| normalizes the
    family into the unit class ball.
    """
    if n < 10:
        raise ValueError("the design assumes n >= 10")
    if not 0.0 < c3 < math.inf:
        raise ValueError(f"c3 must be finite and > 0, got {c3!r}")
    if lam.dimension != d:
        raise SequenceError("sequence dimension differs from d")
    m = int(math.floor(c3 * n * math.log(n))) + 1
    s = 0
    while lattice_count(s + 1, d) <= m:
        s += 1
    shell = _ball_indices(s, d)
    shell = shell[np.sum(shell.astype(np.int64) ** 2, axis=1) == s * s]
    if d == 1:
        shell_max = float(np.max(np.abs(lam.values(shell[:, 0]))))
    else:
        shell_max = float(np.max(np.abs(lam.values(shell))))
    omega = m**-0.5 / shell_max
    return LowerBoundDesign(n=n, d=d, c3=c3, m=m, s=s, omega=omega)


def sample_F_ns(
    design: LowerBoundDesign,
    lam: CoefficientSequence,
    trials: int,
    seed: int,
) -> list:
    """Random members of the hard sign family, deterministic under seed.

    Signs are drawn independently on a lexicographic half of the lattice
    ball and mirrored so each member is real-valued; every member lands
    inside the unit class ball.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    s, d = design.s, design.d
    ball = _ball_indices(s, d)
    ball = ball[np.lexsort(ball.T[::-1])]
    # negation reverses lex order, so entry i is minus entry -1-i: signs
    # are drawn on the lex <= 0 half (0 included) and mirrored onto the rest
    members = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        eps = np.where(rng.random((len(ball) + 1) // 2) < 0.5, 1.0, -1.0)
        f = SpectralFunction.zero(d, s)
        f.values[tuple((ball + s).T)] = design.omega * np.concatenate([eps, eps[-2::-1]])
        members.append(f)
    return members


def default_probe_generator(
    lam: CoefficientSequence, truncation: int
) -> SpectralFunction:
    """Truncated generator with reciprocals lam_k^{-1} / max(|k|_1, 1)^d.

    This is the generator the box-sup rate theorem pairs with the class,
    read with decaying coefficients: its Fourier coefficients are the
    damped reciprocals (a growing-coefficient reading would not define a
    usable function), gaining a |k|^d damping over the plain generator.
    """
    d = lam.dimension
    ks = index_box(truncation, d)
    nrm = np.maximum(np.sum(np.abs(ks.reshape(-1, d)), axis=1).astype(float), 1.0)
    vals = (np.asarray(lam.inv_values(ks)) / nrm**d).reshape((2 * truncation + 1,) * d)
    return SpectralFunction(d, truncation, vals.astype(complex), copy=False)


def _phases(nodes: np.ndarray, K: int, table: np.ndarray) -> np.ndarray:
    """``E[l, k] = e^{-i k a_l}`` for k = 0..K, one row per node, written
    into the ``(n, J, B)`` ``table`` of ``_work``.

    Two-level table: with ``B = isqrt(K + 1)`` and ``k = jB + r``, the
    phase is ``hi[j] * lo[r]``, where ``lo = e^{-i r a}`` (r < B) and
    ``hi = e^{-i jB a}``, so a node takes about ``2 sqrt(K + 1)`` exps
    instead of ``K + 1``.  Each product is off the direct ``exp`` by a few
    ulp of ``k a``, the rounding the direct argument carries too.
    """
    J, B = table.shape[1:]
    lo = np.exp(-1j * np.outer(nodes, np.arange(B)))
    hi = np.exp(-1j * np.outer(nodes, B * np.arange(J)))
    np.multiply(hi[:, :, None], lo[:, None, :], out=table)
    return table.reshape(nodes.size, J * B)[:, : K + 1]


def _work(psihat: np.ndarray, n: int) -> tuple:
    """``(repeat(sqrt(W), 2), table, M)`` for ``_system`` at n nodes, the
    ``(n, J, B)`` phase table (``B = isqrt(K + 1)``, ``J = ceil((K + 1) / B)``)
    and the ``(n, 2(K + 1))`` ``M`` unfilled."""
    K = (psihat.size - 1) // 2
    W = np.abs(psihat) ** 2
    W = W[K:] + np.concatenate([[0.0], W[:K][::-1]])
    B = math.isqrt(K + 1)
    table = np.empty((n, -(-(K + 1) // B), B), complex)
    return np.repeat(np.sqrt(W), 2), table, np.empty((n, 2 * K + 2))


def _system(psihat: np.ndarray, nodes: np.ndarray, work: Optional[tuple] = None) -> tuple:
    """``(V, G, ill)`` for the translates of psihat at ``nodes``.

    The translate at a_l has coefficients ``psihat_k e^{-i k a_l}``, and
    its weight w_l is real, so the fit ``y = E w`` on ``k >= 0`` also gives
    ``conj(y_k)`` at -k: the system lives on the half-spectrum.  ``V`` is
    the phase table of ``_phases`` viewed as reals (Re and Im of each
    phase, interleaved), ``G = Re(E^H diag(W) E)`` with the folded weights
    ``W_0 = |psihat_0|^2`` and ``W_k = |psihat_k|^2 + |psihat_{-k}|^2``,
    the Gram matrix of the full-spectrum ``[Re A; Im A]``, and ``ill``
    the ``cond(G) > 1e14`` verdict, taken from the extreme eigenvalues of
    the symmetric G (ill where the smallest is not positive), not an SVD.
    Given ``work`` (``_work`` of the same psihat and n), the table and ``M``
    go into its arrays, for the same bits: ``V`` lives until the next write.
    """
    K = (psihat.size - 1) // 2
    root, table, M = _work(psihat, nodes.size) if work is None else work
    V = _phases(nodes, K, table).view(float)
    G = np.multiply(V, root, out=M) @ M.T
    try:
        lo, hi = np.linalg.eigvalsh(G)[[0, -1]]  # G is symmetric PSD: cond(G) = hi / lo
        ill = not (lo > 0 and hi / lo <= 1e14)
    except np.linalg.LinAlgError:
        ill = True
    return V, G, ill


def _restart_nodes(n: int, restarts: int, seed):
    """The node sets of the search: equispaced, then ``restarts - 1`` draws
    of Gaussian jitter of a quarter node spacing, taken mod 2 pi."""
    rng = np.random.default_rng(list(seed) if isinstance(seed, (list, tuple)) else [seed])
    base = 2.0 * math.pi * np.arange(n) / n
    yield base
    sigma = 2.0 * math.pi / (4.0 * n)
    for _ in range(restarts - 1):
        yield (base + rng.normal(0.0, sigma, size=n)) % (2 * math.pi)


def _half_spectrum(fhat: np.ndarray, psihat: np.ndarray) -> tuple:
    """``(f, p, zr)``: f and psihat at k = 0..K (row 0) and at -k (row 1),
    and the right-hand-side weights ``zr`` with ``rhs = V @ zr`` for the
    ``V`` of ``_system``: ``rhs = Re(E z)`` with ``z_k = conj(conj(psihat_k)
    f_k) + conj(psihat_{-k}) f_{-k}``, the second term for k > 0 only.
    """
    K = (fhat.size - 1) // 2
    f = np.stack([fhat[K:], fhat[K::-1]])
    p = np.stack([psihat[K:], psihat[K::-1]])
    z = p[0] * f[0].conj()
    z[1:] += p[1, 1:].conj() * f[1, 1:]
    return f, p, z.conj().view(float)


def _solve(system: tuple, half: tuple) -> tuple:
    """``(residual, w, ridged)`` for one node set: the least-squares real
    weights, their L2 residual and whether the ``1e-12 I`` ridge was used.

    The fit is ``y = E w`` at k >= 0 and ``conj(y_k)`` at -k, so the
    residual is the norm of ``f_k - psihat_k y_k`` (k >= 0) together with
    ``f_{-k} - psihat_{-k} conj(y_k)`` (k > 0).
    """
    V, G, ill = system
    f, p, zr = half
    rhs = V @ zr
    try:
        if ill:
            raise np.linalg.LinAlgError
        w, ridged = np.linalg.solve(G, rhs), False
    except np.linalg.LinAlgError:
        w, ridged = np.linalg.solve(G + 1e-12 * np.eye(G.shape[0]), rhs), True
    y = (w @ V).view(complex)
    r = f - p * np.stack([y, y.conj()])
    return math.hypot(np.linalg.norm(r[0]), np.linalg.norm(r[1, 1:])), w, ridged


def best_translate_fit(
    f: SpectralFunction,
    psi: SpectralFunction,
    n: int,
    restarts: int = 8,
    seed: int = 0,
    full_output: bool = False,
    systems: Optional[dict] = None,
):
    """Least-squares fit of n translates of psi to f with searched nodes.

    Restart 0 uses equispaced nodes; later restarts add Gaussian jitter
    of a quarter node spacing.  Real weights solve the convex subproblem
    exactly in coefficient space: f and psi are band-limited, so by
    Parseval the L2 residual is the residual over |k| <= K, where the
    translate at node a_l has coefficients psihat_k e^{-i k a_l}.  The
    returned residual (L2, minimum across restarts) upper-bounds the
    true best distance.  As the weights are real, the system is solved on
    the k >= 0 half of the spectrum, with the phases from a two-level
    table (see ``_system``).  ``systems``, a dict a probe row holds across
    its trials, keeps the restart-0 system and work arrays of each (n, psi)
    that the call would otherwise build itself: a later call with the same n
    and psi pays restart 0 only its right-hand side, solve and residual, and
    every jittered restart writes its system into the kept arrays, for the
    same bits.  A jittered system is valid only until the next restart, and
    a dict belongs to one row in one thread.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.dimension != 1 or psi.dimension != 1:
        raise ValueError("the node search is univariate")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    K = max(f.bandwidth, psi.bandwidth)
    psihat = psi.trimmed().padded(K).values
    half = _half_spectrum(f.trimmed().padded(K).values, psihat)
    best = math.inf
    regularized = False
    systems, key = {} if systems is None else systems, (n, psihat.tobytes())
    for r, nodes in enumerate(_restart_nodes(n, restarts, seed)):
        if r == 0 and key not in systems:
            systems[key] = _system(psihat, nodes), _work(psihat, n)
        kept, work = systems[key]
        residual, _, ridged = _solve(kept if r == 0 else _system(psihat, nodes, work), half)
        best = min(best, residual)
        regularized = regularized or ridged
    if full_output:
        return best, regularized
    return best


@dataclass(frozen=True)
class ProbeResult:
    n: int
    m: int
    s: int
    omega: float
    statistic: float
    envelope_low: float
    envelope_high: float
    flag: str
    per_trial: tuple


def probe_Mn(
    design: LowerBoundDesign,
    lam: CoefficientSequence,
    psi: SpectralFunction,
    trials: int,
    restarts: int,
    seed: int,
    growth: Optional[GrowthFunction] = None,
) -> ProbeResult:
    """Empirical worst case of the translate fit over the hard family.

    Both the family sup and the node infimum are sampled/heuristic, so
    the statistic is labeled heuristic, not a certified bound.  The
    theoretical envelopes 1/Psi((n log n)^{1/d}) and 1/Psi(n^{1/d}) are
    reported for context when a growth law is supplied.
    """
    members = sample_F_ns(design, lam, trials, seed)
    fits, systems = [], {}  # the trials' equispaced system and work arrays, for this row
    regularized = False
    for t, f in enumerate(members):
        value, flagged = best_translate_fit(
            f, psi, design.n, restarts=restarts, seed=(seed, t), full_output=True, systems=systems
        )
        fits.append(value)
        regularized = regularized or flagged
    stat = float(max(fits))
    if growth is not None:
        n, d = design.n, design.d
        env_low = float(1.0 / growth((n * math.log(n)) ** (1.0 / d)))
        env_high = float(1.0 / growth(n ** (1.0 / d)))
    else:
        env_low = env_high = math.nan
    flag = "heuristic" + (",regularized" if regularized else "")
    return ProbeResult(
        n=design.n,
        m=design.m,
        s=design.s,
        omega=design.omega,
        statistic=stat,
        envelope_low=env_low,
        envelope_high=env_high,
        flag=flag,
        per_trial=tuple(fits),
    )
