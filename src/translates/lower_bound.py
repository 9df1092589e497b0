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

from ._alias import index_box
from .sequences import CoefficientSequence, SequenceError
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
    if s == 0:
        return 1
    ax = np.arange(-s, s + 1)
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    sq = sum(g.astype(np.int64) ** 2 for g in grids)
    return int(np.count_nonzero(sq <= s * s))


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
    order = np.lexsort(ball.T[::-1])
    ball = ball[order]
    # a half-space representative: first nonzero coordinate positive
    members = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        signs = {}
        for idx in map(tuple, ball):
            neg = tuple(-c for c in idx)
            if neg in signs:
                signs[idx] = signs[neg]
            else:
                signs[idx] = 1.0 if rng.random() < 0.5 else -1.0
        f = SpectralFunction.zero(d, s)
        for idx, eps in signs.items():
            pos = tuple(c + s for c in idx)
            f.values[pos] = design.omega * eps
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
    true best distance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.dimension != 1 or psi.dimension != 1:
        raise ValueError("the node search is univariate")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    K = max(f.bandwidth, psi.bandwidth)
    ks = np.arange(-K, K + 1)
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
        nodes = base if r == 0 else (base + rng.normal(0.0, sigma, size=n)) % (2 * math.pi)
        A = psihat[:, None] * np.exp(-1j * np.outer(ks, nodes))
        A2 = np.concatenate([A.real, A.imag])
        G = A2.T @ A2
        rhs = A2.T @ b2
        try:
            if np.linalg.cond(G) > 1e14:
                raise np.linalg.LinAlgError
            w = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            G = G + 1e-12 * np.eye(n)
            w = np.linalg.solve(G, rhs)
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
