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
import itertools
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
    "lp_norm_bound",
    "partial_sum",
    "synthesize",
    "analyze",
    "random_real_spectral",
]

_BOX_GUARD = 5 * 10**7
OVERSAMPLE = 8  # grid points per coefficient and axis of an L_p quadrature, unless a caller sets its own


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


def _bandwidth(v: np.ndarray) -> int:
    """Bandwidth of the coefficient box v (shape (2r+1,)^d): r when a face of
    the box holds a nonzero, else that of the nonzero support."""
    r = (v.shape[0] - 1) // 2
    for j in range(v.ndim):
        before = (slice(None),) * j  # the two faces normal to axis j
        if v[before + (0,)].any() or v[before + (-1,)].any():
            return r
    nz = np.argwhere(v != 0)
    if nz.size == 0:
        return 0
    return int(np.max(np.abs(nz - r)))


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
        """Smallest box radius containing the nonzero support: the radius
        itself when a boundary face of the box holds a nonzero, without a
        scan of the whole box."""
        return _bandwidth(self.values)

    def is_real_valued(self) -> bool:
        """True only if coeff(-k) == conj(coeff(k)) for every k, bit for bit."""
        flipped = np.conj(self.values[(slice(None, None, -1),) * self.dimension])
        return bool(np.array_equal(self.values, flipped))

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


class GridBuffer:
    """One byte buffer that the FFT grids of a call are cut from: it grows, the
    old one freed first, only when a stack needs more bytes than any before it,
    so a sweep that holds one faults in its largest stack's grid once."""

    def __init__(self):
        self.nbytes, self._bytes = 0, None

    def arrays(self, *layout) -> list:
        """Views of the (shape, dtype) pairs of ``layout``, laid end to end on the buffer."""
        sizes = [math.prod(shape) * np.dtype(kind).itemsize for shape, kind in layout]
        if sum(sizes) > self.nbytes:
            self._bytes = None  # freed before the larger one is allocated
            self.nbytes, self._bytes = sum(sizes), np.empty(sum(sizes), np.uint8)
        ends = itertools.accumulate(sizes)
        return [self._bytes[e - n : e].view(kind).reshape(shape) for (shape, kind), n, e in zip(layout, sizes, ends)]


def lp_norm(f: SpectralFunction, p: float, oversample: int = OVERSAMPLE, *, grids: Optional[GridBuffer] = None) -> float:
    """Normalized L_p norm for 1 < p < inf.

    p = 2 is the exact coefficient l2 norm; other p use the trapezoidal
    rule on a uniform grid of oversample*(2*bandwidth+1) points per axis,
    rounded up to the next 5-smooth length (2^a 3^b 5^c) so that the FFT
    factors into small radices.  The rule is exact to rounding when |f|^p
    is a trigonometric polynomial of degree below the grid size (p an even
    integer) and converges spectrally when f has no zeros; where f vanishes
    it converges algebraically, like N^-(p+1).  So p = 4 at oversample 2 is
    exact: |f|^4 has degree 4 bandwidth, and the grid has at least
    4 bandwidth + 2 points per axis.  ``lp_norm_bound`` relies on it.

    It is the one-row case of ``_lp_norms``, which takes a stack of
    coefficient boxes through the same grid, each row bit for bit as here.
    An f with exactly Hermitian coefficients (no tolerance) is sampled with
    the real half-spectrum transform ``irfftn``, about twice as cheap, which
    agrees with the complex samples of ``synthesize`` to rounding; any other
    f with ``ifftn``.  At p = 4 |f| is squared twice.  Its grid is cut from
    ``grids`` if given (a sweep's ``GridBuffer``), else its own, freed when it returns.
    """
    if not (1.0 < p < math.inf):
        raise SpectralError("lp_norm supports 1 < p < inf only")
    if oversample < 2:
        raise SpectralError("oversample must be >= 2")
    return _lp_norms(f.values[None], p, oversample, grids)[0]


def lp_norm_bound(f: SpectralFunction, p: float) -> float:
    """An upper bound on ``lp_norm(f, p, oversample)`` for every oversample
    >= 2, from norms exact on that grid.

    For 1 < p <= 4 it is l2^theta L4^(1 - theta) with theta = min(1, 4/p - 1):
    Lyapunov's inequality (log-convexity of the norms in 1/p; for p <= 2 the
    power-mean inequality) applied to the grid mean of |f|^p.  On a grid of
    N > 2 bandwidth points per axis the grid mean of |f|^2 is the square of
    the coefficient norm ``f.l2()`` (discrete Parseval), and that of |f|^4
    the fourth power of ``lp_norm(f, 4.0, oversample=2)``, exact as that
    grid is.  So the bound holds in any d, for real or complex f, up to
    rounding; at p = 4 it is the L4 norm itself, and for p <= 2 the l2
    norm, which costs no grid.  For p > 4 it is the l_{p/(p-1)} norm of the
    coefficients (Hausdorff-Young: Riesz-Thorin between sup <= l1 and discrete
    Parseval), no grid either.  It is the one-row case of ``_lp_norm_bounds``.
    """
    if not (1.0 < p < math.inf):
        raise SpectralError("lp_norm_bound supports 1 < p < inf only")
    return _lp_norm_bounds(f.values[None], p)[0]


def _lp_norm_bounds(values: np.ndarray, p: float, grids: Optional[GridBuffer] = None) -> list:
    """``lp_norm_bound`` of each row of a stack laid out as for ``_lp_norms``,
    as floats: the L4 norms of the rows share their grids, cut from
    ``grids`` if given."""
    if p > 4.0:
        q = p / (p - 1.0)
        return [float(np.sum(np.abs(row) ** q)) ** (1.0 / q) for row in values]
    theta = min(1.0, 4.0 / p - 1.0)
    bounds = [l2**theta for l2 in _lp_norms(values, 2.0)]
    if theta < 1.0:
        l4 = _lp_norms(values, 4.0, oversample=2, grids=grids)
        bounds = [b * n ** (1.0 - theta) for b, n in zip(bounds, l4)]
    return bounds


def _lp_norms(values: np.ndarray, p: float, oversample: int = OVERSAMPLE, grids: Optional[GridBuffer] = None) -> list:
    """``lp_norm`` of each row of a stack of coefficient boxes, as floats.

    ``values`` has the batch axis first, then d axes of 2r+1: the box
    |k|_inf <= r of each row.  At p = 2 a row's norm is its coefficient l2
    norm.  Otherwise the rows of one bandwidth b take one grid, of
    ``lp_norm``'s size for b, on their boxes cut to radius b
    (``_grid_means``), and each root is taken on a Python float, as a root
    of the array of means can differ in the last bit.  So every row reads
    what ``lp_norm`` gives it alone, bit for bit.  The grid holds all rows
    of a bandwidth at once: the caller sizes the stack.  The grids are cut
    from ``grids``, the buffer a sweep holds for as long as it runs, so that
    its stacks map no new pages once the largest has come; without it the
    call takes a buffer of its own, which gives the same bits.
    """
    if p == 2.0:
        return [float(np.linalg.norm(row.ravel())) for row in values]
    d, R = values.ndim - 1, (values.shape[-1] - 1) // 2
    grids = GridBuffer() if grids is None else grids
    widths = [_bandwidth(row) for row in values]
    norms = [0.0] * len(widths)
    for b in sorted(set(widths)):
        rows = [i for i, w in enumerate(widths) if w == b]
        box = (rows if len(rows) < len(widths) else slice(None),) + (slice(R - b, R + b + 1),) * d
        means = _grid_means(values[box], p, _smooth_length(oversample * (2 * b + 1)), grids)
        for i, mean in zip(rows, means):
            norms[i] = float(mean) ** (1.0 / p)
    return norms


def _grid_means(values: np.ndarray, p: float, N: int, grids: GridBuffer) -> np.ndarray:
    """The mean of |f|^p on the grid of N points per axis for each row of a
    stack of boxes of radius r, 2r + 1 < N, so that no frequency wraps.

    Hermitian symmetry is checked once for the stack: its exactly Hermitian
    rows take one ``irfftn`` on the half spectrum, the others one ``ifftn``.
    A spectrum is filled by slices: per axis the frequencies 0..r go to the
    first r + 1 grid points and -r..-1 to the last r (the half spectrum has
    no negative frequencies on the last axis).  The arrays (the spectrum,
    the complex samples, none for a real grid, and |f|^p) are views cut
    from ``grids``; a real grid takes only the half spectrum and |f|^p, 40%
    of a complex one's bytes.
    """
    d, r = values.ndim - 1, (values.shape[-1] - 1) // 2
    axes = tuple(range(1, d + 1))
    # flipping every axis of a box reverses its flat C order, and a row is
    # Hermitian when its first half and centre mirror the rest
    flat = values.reshape(len(values), -1)
    h = (flat.shape[1] + 1) // 2
    head, tail = flat[:, :h], flat[:, : -h - 1 : -1]
    real = np.all(head.real == tail.real, axis=1) & np.all(head.imag == -tail.imag, axis=1)
    means = np.empty(len(values))
    for rows in (np.flatnonzero(real), np.flatnonzero(~real)):
        if rows.size == 0:
            continue
        block = values if rows.size == len(values) else values[rows]
        half = bool(real[rows[0]])
        shape = (rows.size,) + (N,) * d
        spec_shape = shape[:-1] + (N // 2 + 1,) if half else shape
        spec, samples, out = grids.arrays((spec_shape, complex), ((0,) if half else shape, complex), (shape, float))
        spec.fill(0)
        pieces = [((slice(r, 2 * r + 1), slice(0, r + 1)), (slice(0, r), slice(N - r, N)))] * d
        if half:
            pieces[-1] = pieces[-1][:1]
        for piece in itertools.product(*pieces):
            src, dst = zip(*piece)
            spec[(slice(None),) + dst] = block[(slice(None),) + src]
        if half:
            grid = np.fft.irfftn(spec, s=shape[1:], axes=axes, out=out)
        else:
            grid = np.fft.ifftn(spec, axes=axes, out=samples)
        grid *= N**d
        np.abs(grid, out=out)
        if p == 4.0:  # two squares cost a fraction of np.power(out, 4.0)
            np.square(out, out=out)
            np.square(out, out=out)
        else:
            np.power(out, p, out=out)
        means[rows] = np.mean(out.reshape(rows.size, -1), axis=1)
    return means


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
) -> SpectralFunction:
    """Random real-valued function with full support on |k|_inf <= bandwidth.

    Coefficients are iid complex Gaussians on a half-space, mirrored to
    satisfy coeff(-k) = conj(coeff(k)).  With ``normalize_p`` the result
    is scaled to unit L_p norm, as ``lp_norm`` measures it on its default
    grid.  Drawn re, then im, the coefficients are
    0.5 (re + re(-k)) + 0.5 i (im - im(-k)), each part written in place.
    """
    n = 2 * bandwidth + 1
    shape, flip = (n,) * dimension, (slice(None, None, -1),) * dimension
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    vals = np.empty(shape, dtype=complex)
    np.add(re, re[flip], out=vals.real)
    np.subtract(im, im[flip], out=vals.imag)
    vals *= 0.5
    f = SpectralFunction(dimension, bandwidth, vals, copy=False)
    if normalize_p is not None:
        nrm = lp_norm(f, normalize_p)
        if nrm == 0:
            raise SpectralError("degenerate random draw")
        np.multiply(vals, 1.0 / nrm, out=vals)  # a fresh draw: in place, as f * (1 / nrm) would
    return f
