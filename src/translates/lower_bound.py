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
    ``table``:     monotone interpolation of (table_x, table_y)
    """

    rule: str = "power"
    a: float = 1.0
    b: float = 0.0
    table_x: Optional[tuple] = None
    table_y: Optional[tuple] = None

    def __post_init__(self):
        if self.rule not in ("power", "log_power", "table"):
            raise ValueError(f"unknown growth rule {self.rule!r}")
        if self.rule == "table" and (not self.table_x or not self.table_y):
            raise ValueError("table growth needs table_x and table_y")

    def __call__(self, t) -> np.ndarray:
        t = np.maximum(np.asarray(t, dtype=float), 1.0)
        if self.rule == "power":
            return t**self.a
        if self.rule == "log_power":
            return t**self.a * (1.0 + np.log(t)) ** self.b
        return np.interp(t, self.table_x, self.table_y)

    def doubling_constant(self, lo: float = 1.0, hi: float = 1e4, num: int = 2001) -> float:
        t = np.geomspace(lo, hi, num)
        return float(np.max(self(2 * t) / self(t)))

    def is_nondecreasing(self, lo: float = 0.0, hi: float = 1e4, num: int = 2001) -> bool:
        t = np.linspace(lo, hi, num)
        return bool(np.all(np.diff(self(t)) >= -1e-12))


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


_kept = None  # (n, psihat bytes, system) of the last equispaced restart


def _system(psihat: np.ndarray, nodes: np.ndarray) -> tuple:
    """``(A2, G, ill)`` for the translates of psihat at ``nodes``.

    ``A2 = [Re A; Im A]`` with ``A[k, l] = psihat_k e^{-i k a_l}``,
    ``G = A2^T A2`` and ``ill`` the ``cond(G) > 1e14`` verdict.  Only the
    k >= 0 phases are exponentiated; the k < 0 rows are their conjugates,
    bit for bit what exp gives, since (-k) a is exactly -(k a) and cos and
    sin are even and odd.
    """
    K = (psihat.size - 1) // 2
    A = np.empty((2 * K + 1, nodes.size), dtype=complex)
    np.exp(-1j * np.outer(np.arange(K + 1), nodes), out=A[K:])
    np.conj(A[2 * K : K : -1], out=A[:K])
    np.multiply(psihat[:, None], A, out=A)  # psihat first: numpy's SIMD product is not symmetric
    A2 = np.concatenate([A.real, A.imag])
    G = A2.T @ A2
    try:
        ill = bool(np.linalg.cond(G) > 1e14)
    except np.linalg.LinAlgError:
        ill = True
    return A2, G, ill


def _equispaced_system(psihat: np.ndarray, base: np.ndarray) -> tuple:
    """The restart-0 system at the equispaced ``base``, kept for the last
    ``(psihat, n)``: every trial of a probe row shares it.  The kept tuple
    is replaced whole and never mutated, so a concurrent call at worst
    rebuilds it; it is never handed another key's system.
    """
    global _kept
    kept, key = _kept, psihat.tobytes()
    if kept is None or kept[0] != base.size or kept[1] != key:
        kept = _kept = (base.size, key, _system(psihat, base))
    return kept[2]


def best_translate_fit(
    f: SpectralFunction,
    psi: SpectralFunction,
    n: int,
    restarts: int = 8,
    seed: int = 0,
    full_output: bool = False,
):
    """Least-squares fit of n translates of psi to f with searched nodes.

    Restart 0 uses equispaced nodes; later restarts add Gaussian jitter
    of a quarter node spacing.  Real weights solve the convex subproblem
    exactly in coefficient space: f and psi are band-limited, so by
    Parseval the L2 residual is the residual over |k| <= K, where the
    translate at node a_l has coefficients psihat_k e^{-i k a_l}.  The
    returned residual (L2, minimum across restarts) upper-bounds the
    true best distance.  Only the k >= 0 phases are exponentiated (see
    ``_system``), and the equispaced system is kept across calls with the
    same psi and n, so restart 0 costs only the right-hand side, the
    solve and the residual.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.dimension != 1 or psi.dimension != 1:
        raise ValueError("the node search is univariate")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    K = max(f.bandwidth, psi.bandwidth)
    fhat = f.trimmed().padded(K).values
    psihat = psi.trimmed().padded(K).values
    b2 = np.concatenate([fhat.real, fhat.imag])
    entropy = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    rng = np.random.default_rng(entropy)
    base = 2.0 * math.pi * np.arange(n) / n
    sigma = 2.0 * math.pi / (4.0 * n)
    best = math.inf
    regularized = False
    for r in range(restarts):
        A2, G, ill = (_equispaced_system(psihat, base) if r == 0 else
                      _system(psihat, (base + rng.normal(0.0, sigma, size=n)) % (2 * math.pi)))
        rhs = A2.T @ b2
        try:
            if ill:
                raise np.linalg.LinAlgError
            w = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            w = np.linalg.solve(G + 1e-12 * np.eye(n), rhs)
            regularized = True
        best = min(best, float(np.linalg.norm(b2 - A2 @ w)))
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
    fits = []
    regularized = False
    for t, f in enumerate(members):
        value, flagged = best_translate_fit(
            f, psi, design.n, restarts=restarts, seed=(seed, t), full_output=True
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
