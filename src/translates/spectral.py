"""Band-limited periodic functions on the d-torus.

A :class:`SpectralFunction` stores complex Fourier coefficients on the
box |k|_inf <= radius (dense per axis, zero entries allowed) and is the
common currency of the package.  Synthesis uses the kernel e^{+i(k,x)}
and analysis e^{-i(k,x)}; the convention is pinned by the round-trip
tests.  Norms follow the normalized convention

    ||f||_p = (2pi)^{-d/p} (integral |f|^p)^{1/p}

under which the p = 2 norm is the plain l2 norm of the coefficients and
the coefficients of a convolution are the products of coefficients.

The convolution-class theory assumes the generator lies in the dual
L_{p'} space (1/p + 1/p' = 1); the assumption is recorded here but not
enforced, because only explicit truncations of generators are ever
materialized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "SpectralFunction",
    "GridSamples",
    "SpectralError",
    "freq_norm",
    "evaluate",
    "evaluate_many",
    "convolve",
    "lp_norm",
    "partial_sum",
    "synthesize",
    "analyze",
    "random_real_spectral",
]

_BOX_GUARD = 5 * 10**7


class SpectralError(ValueError):
    """Invalid spectral-function operation."""


def freq_norm(k, p=2.0) -> float:
    """|k|_p of a frequency index (p = inf gives the max norm)."""
    a = np.abs(np.asarray(k, dtype=float))
    if p == math.inf:
        return float(a.max())
    if p < 1:
        raise SpectralError("freq_norm requires p >= 1")
    return float((a**p).sum() ** (1.0 / p))


def _as_index(k, dimension):
    arr = np.atleast_1d(np.asarray(k, dtype=np.int64))
    if arr.size != dimension:
        raise SpectralError(f"index {k!r} does not have dimension {dimension}")
    return tuple(int(v) for v in arr)


class SpectralFunction:
    """Finite map from frequency indices to complex coefficients.

    Coefficients live on the box |k|_inf <= radius; entries may be zero.
    Values are treated as immutable after construction.
    """

    __slots__ = ("dimension", "radius", "values")

    def __init__(self, dimension: int, radius: int, values: np.ndarray, *, copy: bool = True):
        if dimension < 1:
            raise SpectralError("dimension must be >= 1")
        if radius < 0:
            raise SpectralError("radius must be >= 0")
        n = 2 * radius + 1
        if n**dimension > _BOX_GUARD:
            raise SpectralError(f"coefficient box (2*{radius}+1)^{dimension} exceeds guard")
        values = np.asarray(values, dtype=complex)
        if values.shape != (n,) * dimension:
            raise SpectralError(f"values shape {values.shape} != {(n,) * dimension}")
        if not np.all(np.isfinite(values)):
            raise SpectralError("coefficients must be finite")
        self.dimension = dimension
        self.radius = radius
        self.values = values.copy() if copy else values

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int = 1, radius: int = 0) -> "SpectralFunction":
        n = 2 * radius + 1
        return cls(dimension, radius, np.zeros((n,) * dimension, dtype=complex), copy=False)

    @classmethod
    def from_coeffs(cls, coeffs: dict, dimension: Optional[int] = None) -> "SpectralFunction":
        """Build from a mapping {k: value} with k an int or an int tuple."""
        if not coeffs:
            return cls.zero(dimension or 1)
        first = next(iter(coeffs))
        d = dimension
        if d is None:
            d = len(np.atleast_1d(first))
        radius = 0
        items = []
        for k, v in coeffs.items():
            idx = _as_index(k, d)
            radius = max(radius, max(abs(c) for c in idx))
            items.append((idx, complex(v)))
        out = cls.zero(d, radius)
        for idx, v in items:
            pos = tuple(c + radius for c in idx)
            out.values[pos] += v
        return out

    @classmethod
    def single(cls, k, value=1.0, dimension: Optional[int] = None) -> "SpectralFunction":
        """Pure frequency: coefficient ``value`` at index k."""
        d = dimension if dimension is not None else len(np.atleast_1d(k))
        return cls.from_coeffs({tuple(np.atleast_1d(k)): value}, dimension=d)

    # -- accessors ---------------------------------------------------------

    def coeff(self, k) -> complex:
        idx = _as_index(k, self.dimension)
        if any(abs(c) > self.radius for c in idx):
            return 0j
        return complex(self.values[tuple(c + self.radius for c in idx)])

    def axis_indices(self) -> np.ndarray:
        return np.arange(-self.radius, self.radius + 1)

    def items(self) -> Iterator[tuple]:
        """Nonzero (index, value) pairs, indices as int tuples."""
        nz = np.argwhere(self.values != 0)
        for pos in nz:
            idx = tuple(int(p) - self.radius for p in pos)
            yield idx, complex(self.values[tuple(pos)])

    @property
    def bandwidth(self) -> int:
        """Smallest box radius containing the nonzero support."""
        nz = np.argwhere(self.values != 0)
        if nz.size == 0:
            return 0
        return int(np.max(np.abs(nz - self.radius)))

    def is_real_valued(self, tol: float = 1e-12) -> bool:
        flipped = np.conj(self.values[(slice(None, None, -1),) * self.dimension])
        scale = max(1.0, float(np.max(np.abs(self.values))))
        return bool(np.max(np.abs(self.values - flipped)) <= tol * scale)

    def l2(self) -> float:
        return float(np.linalg.norm(self.values.ravel()))

    def trimmed(self) -> "SpectralFunction":
        """Copy with the box shrunk to the actual bandwidth."""
        b = self.bandwidth
        if b == self.radius:
            return self
        sl = (slice(self.radius - b, self.radius + b + 1),) * self.dimension
        return SpectralFunction(self.dimension, b, self.values[sl])

    def padded(self, radius: int) -> "SpectralFunction":
        if radius < self.radius:
            raise SpectralError("padded() cannot shrink the box")
        if radius == self.radius:
            return self
        out = SpectralFunction.zero(self.dimension, radius)
        off = radius - self.radius
        sl = (slice(off, off + 2 * self.radius + 1),) * self.dimension
        out.values[sl] = self.values
        return out

    # -- arithmetic ---------------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, SpectralFunction):
            return NotImplemented
        if other.dimension != self.dimension:
            raise SpectralError("dimension mismatch")
        r = max(self.radius, other.radius)
        a, b = self.padded(r), other.padded(r)
        return SpectralFunction(self.dimension, r, op(a.values, b.values), copy=False)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralFunction(self.dimension, self.radius, self.values * complex(scalar), copy=False)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"SpectralFunction(d={self.dimension}, radius={self.radius}, "
            f"bandwidth={self.bandwidth})"
        )

    # -- serialization -------------------------------------------------------

    def to_lines(self) -> list:
        """Nonzero coefficients as lines ``k_1 ... k_d re im``, sorted."""
        rows = sorted(self.items(), key=lambda kv: kv[0])
        return [
            " ".join(str(c) for c in idx) + f" {v.real!r} {v.imag!r}"
            for idx, v in rows
        ]

    @classmethod
    def from_lines(cls, lines: Iterable[str], dimension: Optional[int] = None) -> "SpectralFunction":
        coeffs = {}
        d = dimension
        for ln, raw in enumerate(lines, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if d is None:
                if len(parts) < 3:
                    raise SpectralError(f"line {ln}: expected 'k_1 .. k_d re im'")
                d = len(parts) - 2
            if len(parts) != d + 2:
                raise SpectralError(f"line {ln}: expected {d + 2} fields, got {len(parts)}")
            try:
                idx = tuple(int(p) for p in parts[:d])
                re_, im_ = float(parts[d]), float(parts[d + 1])
            except ValueError as exc:
                raise SpectralError(f"line {ln}: {exc}") from None
            coeffs[idx] = complex(re_, im_)
        if d is None:
            raise SpectralError("no coefficient lines and no dimension given")
        return cls.from_coeffs(coeffs, dimension=d) if coeffs else cls.zero(d)


@dataclass(frozen=True)
class GridSamples:
    """Values on the uniform grid x_l = 2 pi l / N per axis."""

    dimension: int
    points_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        n = self.points_per_axis
        if n < 1:
            raise SpectralError("points_per_axis must be >= 1")
        if self.values.shape != (n,) * self.dimension:
            raise SpectralError("grid values shape mismatch")


# ---------------------------------------------------------------------------
# Transforms


def synthesize(f: SpectralFunction, N: int) -> GridSamples:
    """Sample f on the uniform N-grid via an inverse FFT.

    Frequencies are folded mod N, so N >= 2*bandwidth + 1 is needed for
    faithful sampling.
    """
    if N < 1:
        raise SpectralError("N must be >= 1")
    d = f.dimension
    spec = np.zeros((N,) * d, dtype=complex)
    fold_into(f, spec)
    vals = np.fft.ifftn(spec) * (N**d)
    return GridSamples(d, N, vals)


def fold_into(f: SpectralFunction, spec: np.ndarray) -> None:
    """Add the coefficients of f into the zeroed N-grid spectrum, frequencies mod N."""
    ks = f.axis_indices() % spec.shape[0]
    np.add.at(spec, np.ix_(*([ks] * f.dimension)), f.values)


def analyze(samples: GridSamples, radius: int) -> SpectralFunction:
    """Recover coefficients on |k|_inf <= radius from grid samples."""
    N = samples.points_per_axis
    if 2 * radius + 1 > N:
        raise SpectralError("analysis radius exceeds the grid Nyquist range")
    spec = np.fft.fftn(samples.values) / (N ** samples.dimension)
    ks = np.arange(-radius, radius + 1) % N
    idx = np.ix_(*([ks] * samples.dimension))
    return SpectralFunction(samples.dimension, radius, spec[idx])


def _axis_phase(xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.outer(xs, ks))


def evaluate_many(f: SpectralFunction, xs) -> np.ndarray:
    """Evaluate f at points xs (shape (n, d), or (n,) when d = 1)."""
    xs = np.asarray(xs, dtype=float)
    if f.dimension == 1:
        xs2 = xs.reshape(-1, 1)
    else:
        xs2 = np.atleast_2d(xs)
        if xs2.shape[-1] != f.dimension:
            raise SpectralError("point dimension mismatch")
    ks = f.axis_indices()
    n = xs2.shape[0]
    out = np.empty(n, dtype=complex)
    block = max(1, 4_000_000 // max(1, ks.size))
    for start in range(0, n, block):
        sl = slice(start, min(n, start + block))
        T = np.tensordot(_axis_phase(xs2[sl, 0], ks), f.values, axes=(1, 0))
        for j in range(1, f.dimension):
            T = np.einsum("nk,nk...->n...", _axis_phase(xs2[sl, j], ks), T)
        out[sl] = T
    return out.reshape(np.shape(xs)[: 1 if f.dimension == 1 else -1] or ())


def evaluate(f: SpectralFunction, x) -> complex:
    """Pointwise synthesis sum_k coeff(k) e^{i(k,x)}."""
    return complex(evaluate_many(f, np.atleast_2d(np.asarray(x, dtype=float)))[0])


# ---------------------------------------------------------------------------
# Operations


def convolve(f1: SpectralFunction, f2: SpectralFunction) -> SpectralFunction:
    """Normalized convolution: coefficients multiply pointwise."""
    if f1.dimension != f2.dimension:
        raise SpectralError("dimension mismatch in convolve")
    r = min(f1.radius, f2.radius)
    lo1, hi1 = f1.radius - r, f1.radius + r + 1
    lo2, hi2 = f2.radius - r, f2.radius + r + 1
    sl1 = (slice(lo1, hi1),) * f1.dimension
    sl2 = (slice(lo2, hi2),) * f2.dimension
    return SpectralFunction(f1.dimension, r, f1.values[sl1] * f2.values[sl2], copy=False)


@functools.lru_cache(maxsize=None)
def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: an FFT length with only small radices."""
    best = 1 << max(n - 1, 0).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def lp_norm(f: SpectralFunction, p: float, oversample: int = 8) -> float:
    """Normalized L_p norm for 1 < p < inf.

    p = 2 is the exact coefficient l2 norm; other p use the trapezoidal
    rule on a uniform grid of oversample*(2*bandwidth+1) points per axis,
    rounded up to the next 5-smooth length (2^a 3^b 5^c) so that the FFT
    factors into small radices.  The rule is exact to rounding when |f|^p
    is a trigonometric polynomial of degree below the grid size (p an even
    integer) and converges spectrally when f has no zeros; where f vanishes
    it converges algebraically, like N^-(p+1).

    The grid arrays (spectrum, samples, |samples|^p) of the last grid
    shape are kept and reused while the shape repeats, as it does for every
    source and probe of a sweep row, so those calls allocate no grid.  Only
    grids of at most ``_KEEP_GRID`` points are kept (10.5 MB at the cap); a
    larger grid is allocated for its call and freed after it.  The values
    are those of ``synthesize`` on fresh arrays, bit for bit, except that an
    f with exactly Hermitian coefficients (no tolerance) is sampled with the
    real half-spectrum transform ``irfftn``, about twice as cheap, which
    agrees with the complex samples to rounding.  The reuse
    makes lp_norm non-re-entrant: do not call it from several threads at
    once.
    """
    if not (1.0 < p < math.inf):
        raise SpectralError("lp_norm supports 1 < p < inf only")
    if oversample < 2:
        raise SpectralError("oversample must be >= 2")
    if p == 2.0:
        return f.l2()
    g = f.trimmed()
    N = _smooth_length(oversample * (2 * g.bandwidth + 1))
    spec, vals, absp = _grid_buffers((N,) * g.dimension)
    spec.fill(0)
    fold_into(g, spec)
    if g.is_real_valued(tol=0.0):  # real f: the half spectrum, into the float buffer
        half = spec[..., : N // 2 + 1]
        samples = np.fft.irfftn(half, s=spec.shape, axes=tuple(range(g.dimension)), out=absp)
    else:
        samples = np.fft.ifftn(spec, out=vals)
    samples *= N**g.dimension
    np.abs(samples, out=absp)
    np.power(absp, p, out=absp)
    return float(np.mean(absp) ** (1.0 / p))


_grid = None  # (spectrum, samples, |samples|^p) of the last kept lp_norm grid
_KEEP_GRID = 1 << 18  # grid points up to which lp_norm keeps its arrays


def _grid_buffers(shape: tuple) -> tuple:
    """The lp_norm grid arrays of this shape: the kept ones, or new ones."""
    global _grid
    if _grid is not None and _grid[0].shape == shape:
        return _grid
    _grid = None  # free the old grid before allocating the new one
    grid = (np.empty(shape, complex), np.empty(shape, complex), np.empty(shape))
    if math.prod(shape) <= _KEEP_GRID:
        _grid = grid
    return grid


def partial_sum(g: SpectralFunction, r: int, s: int) -> SpectralFunction:
    """Restrict coefficients to the index window [r, s] (univariate)."""
    if g.dimension != 1:
        raise SpectralError("partial_sum is univariate")
    if r > s:
        raise SpectralError("partial_sum needs r <= s")
    out = g.values.copy()
    ks = g.axis_indices()
    out[(ks < r) | (ks > s)] = 0
    return SpectralFunction(1, g.radius, out, copy=False)


def random_real_spectral(
    dimension: int,
    bandwidth: int,
    rng: np.random.Generator,
    *,
    normalize_p: Optional[float] = None,
    oversample: int = 8,
) -> SpectralFunction:
    """Random real-valued function with full support on |k|_inf <= bandwidth.

    Coefficients are iid complex Gaussians on a half-space, mirrored to
    satisfy coeff(-k) = conj(coeff(k)).  With ``normalize_p`` the result
    is scaled to unit L_p norm.
    """
    n = 2 * bandwidth + 1
    shape = (n,) * dimension
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flipped = np.conj(vals[(slice(None, None, -1),) * dimension])
    vals = 0.5 * (vals + flipped)
    f = SpectralFunction(dimension, bandwidth, vals, copy=False)
    if normalize_p is not None:
        nrm = lp_norm(f, normalize_p, oversample=oversample)
        if nrm == 0:
            raise SpectralError("degenerate random draw")
        f = f * (1.0 / nrm)
    return f
