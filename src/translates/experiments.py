"""Experiment orchestration: sweeps, rate fits, CSV/plot-data output.

A sweep approximates the worst case over the unit class ball at each m
by the max over a batch of random unit-norm sources plus the worst
single-frequency probes, then records the empirical errors next to the
theoretical budget and the predicted decay law.  Outputs are plain CSV
(fixed column schema) or two-column plot data, byte-deterministic for a
fixed config and seed once timing is switched off.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ._alias import band_arrays, build_alias_profile, fold_map, md_single_frequency_errors_sq, whole_blocks
from .approximant import (
    ClassElement,
    ImagePlan,
    _error_stack,
    _radii,
    _single_frequency_errors,
    approximation_error,
    image_tail_bound,
)
from .config import ProbeConfig, SweepConfig
from .error_budget import (
    epsilon_general_p,
    epsilon_p2,
    predicted_rate,
    reciprocal_walk,
)
from .lower_bound import GrowthFunction, default_probe_generator, design_for_n, probe_Mn
from .sequences import box_inv_tail
from .spectral import (
    GridBuffer, SpectralError, SpectralFunction, _lp_norm_bounds, _lp_norms, _smooth_length, lp_norm, random_real_spectral,
)

__all__ = [
    "CSV_COLUMNS",
    "PROBE_COLUMNS",
    "SweepRow",
    "RateFit",
    "run_sweep",
    "epsilon_table",
    "fit_rate",
    "emit_csv",
    "rows_to_csv_text",
    "read_csv_rows",
    "verify_dominance",
    "run_probe",
    "probe_rows_to_csv_text",
]

PROBE_COLUMNS = ["n", "m", "s", "omega", "statistic", "envelope_low", "envelope_high", "flag"]

log = logging.getLogger("translates")


@dataclass(frozen=True)
class SweepRow:
    family: str
    d: int
    p: float
    param: Optional[float]
    m: int
    n_translates: int
    error_quadrature: Optional[float]
    error_parseval: Optional[float]
    epsilon: float
    epsilon_tail: float
    epsilon_variant: str
    predicted: Optional[float]
    seconds: Optional[float]

    @property
    def error(self) -> Optional[float]:
        """The row's error: ``error_parseval``, else ``error_quadrature``."""
        return self.error_quadrature if self.error_parseval is None else self.error_parseval


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def _seq_param(seq) -> Optional[float]:
    for name in ("r", "s", "v"):
        if hasattr(seq, name):
            return float(getattr(seq, name))
    return None


def _random_sources(cfg: SweepConfig, m: int, quad_K: int, grids: Optional[GridBuffer] = None) -> list:
    """The row's ``g_count`` random sources, scaled to unit L_p norm.

    Each is drawn by ``random_real_spectral`` from the row's stream, one after
    another, and scaled by its norm.  At p = 2 that is its coefficient l2
    norm (``lp_norm`` takes no grid), which ``random_real_spectral`` takes as
    it draws each, while its values are in cache.  Otherwise the
    sources are drawn and normalised in chunks whose grid has no more points
    than the row's full quadrature grid at quad_K (``_stack_rows``), each chunk's
    grids as one stack (``_lp_norms``) cut from ``grids``, the sweep's buffer if
    given.  Each norm is the one ``lp_norm`` gives that source alone, bit for
    bit, and only one chunk of unscaled sources is held at a time.
    """
    rng = np.random.default_rng([cfg.seed, m])
    bw = _drawn_bandwidth(cfg, m)
    if cfg.p == 2.0:
        return [random_real_spectral(cfg.dimension, bw, rng, normalize_p=2.0) for _ in range(cfg.g_count)]

    def normalised(chunk):
        sources = [random_real_spectral(cfg.dimension, bw, rng) for _ in chunk]
        norms = _lp_norms(np.stack([g.values for g in sources]), cfg.p, cfg.oversample, grids)
        if 0.0 in norms:
            raise SpectralError("degenerate random draw")
        for g, norm in zip(sources, norms):  # fresh draws: scaled in place, as g * (1 / norm) would
            np.multiply(g.values, 1.0 / norm, out=g.values)
        return sources

    return _in_chunks(normalised, range(cfg.g_count), _stack_rows(cfg, quad_K, bw, cfg.oversample))


def _stack_rows(cfg: SweepConfig, K: int, radius: int, oversample: int) -> int:
    """How many coefficient boxes of the given radius a stacked L_p grid at
    ``oversample`` takes at once: as many as fit, at least one, in the points
    of the full quadrature grid of a row at radius K (``lp_norm``'s grid at
    ``cfg.oversample``).  So a row's stacks need no more of the sweep's grid
    buffer than its measured sources do."""
    full = _smooth_length(cfg.oversample * (2 * K + 1)) ** cfg.dimension
    return max(1, full // _smooth_length(oversample * (2 * radius + 1)) ** cfg.dimension)


def _in_chunks(stacked, items: list, rows: int) -> list:
    """``stacked`` applied to consecutive chunks of at most ``rows`` items, its
    results concatenated."""
    return [value for i in range(0, len(items), rows) for value in stacked(items[i : i + rows])]


def _drawn_bandwidth(cfg: SweepConfig, m: int) -> int:
    return max(1, int(round(cfg.g_bandwidth_factor * m)))


def _load_source(cfg: SweepConfig) -> SpectralFunction:
    with open(cfg.g_file) as fh:
        g = SpectralFunction.from_lines(fh, dimension=cfg.dimension)
    norm = lp_norm(g, cfg.p, oversample=cfg.oversample)
    if norm == 0:
        raise ValueError(f"source file {cfg.g_file} holds the zero function")
    return g * (1.0 / norm)


def run_sweep(cfg: SweepConfig) -> list:
    """One row per m: empirical worst-case errors, budget, prediction.

    Every row runs the same stages for every d and p: sources, radii (K_out
    and quad_K of ``_radii``, the rule of a one-off error too), alias
    sums (the squared p = 2 error of each single frequency on the band),
    probes (the ``probe_count`` largest sums, ties in C order), errors
    (``_plan_errors``: the sources on one image plan, the probes on the same
    plan at p = 2 and on their residue classes' grids otherwise; at p != 2
    only the sources whose ``lp_norm_bound`` reaches the row's max are
    measured, which leaves the max unchanged), budget.
    Only the alias sums depend on d: d = 1 builds the alias profile, whose
    ``element_error`` gives the sources' p = 2 errors, each right after the
    plan's, which shares the profile's ``box`` (one source-box term a source).  At p = 2 it runs to
    K_out; at other p it serves only the probe ranking and stops at the whole
    blocks covering the row's quadrature radius, where the probes' errors are
    cut (a ranking that differs from the K_out one, which only a lopsided beta
    could give, ranks the probes by the sums the row measures); a d >= 2 product pair
    takes ``md_single_frequency_errors_sq``, other pairs probe the edge
    frequency (m, 0, ..., 0), and at d >= 2 the sources' p = 2 errors are
    their quadrature errors on the plan.  At d = 1 every row's folds (its profile's, and at p = 2
    its plan's) come from one walk before the first row, which the rows' ``seconds`` leave out:
    its ``fold_map``, which the sweep holds until it returns.  So does a p != 2 sweep's
    ``reciprocal_walk``, which every row's budget is cut from, and its one ``GridBuffer``,
    which every L_p grid of its rows is cut from.
    """
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    prediction = predicted_rate(lam, beta, p)
    fixed = [_load_source(cfg)] if cfg.g_file else None
    radii, pairs = {}, set()
    for m in cfg.m_list:  # from the bandwidth the row's sources are drawn at
        bw = fixed[0].bandwidth if fixed else _drawn_bandwidth(cfg, m)
        K_out, quad_K = radii[m, bw] = _radii(lam, beta, m, p, bw, cfg.K_out)
        pairs |= {(m, whole_blocks(m, K_out)), (m, quad_K)} if p == 2.0 else {(m, whole_blocks(m, quad_K))}
    folds = fold_map(lam, beta, sorted(pairs)) if d == 1 else {}  # each profile's fold, and at p = 2 each plan's
    walk, grids, rows = None if p == 2.0 else reciprocal_walk(lam, beta, cfg.m_list, cfg.J_max), GridBuffer(), []
    for m in cfg.m_list:
        t0 = time.perf_counter()
        sources = fixed if fixed is not None else _random_sources(cfg, m, radii[m, _drawn_bandwidth(cfg, m)][1], grids)
        bw = max((g.bandwidth for g in sources), default=m)
        K_out, quad_K = radii.get((m, bw)) or _radii(lam, beta, m, p, bw, cfg.K_out)
        if quad_K < K_out and log.isEnabledFor(logging.DEBUG):
            _log_quadrature_clamp(lam, beta, m, K_out, quad_K, sources, p)
        profile = sq = None
        if d == 1:
            profile = build_alias_profile(lam, beta, m, K_out=K_out if p == 2.0 else quad_K, folds=folds)
            sq = profile.sq_profile
        elif lam.axis_factors() and beta.axis_factors():
            sq = md_single_frequency_errors_sq(lam, beta, m)
        if sq is None:
            probes = [(m,) + (0,) * (d - 1)]
        else:
            order = np.argsort(-sq, axis=None, kind="stable")[: cfg.probe_count]
            probes = [tuple(int(c) - m for c in np.unravel_index(i, sq.shape)) for i in order]
        box = None if profile is None else profile.box
        plan = ImagePlan(lam, beta, m, quad_K, box, folds.get((m, quad_K), [None])[0])
        if p == 2.0 and d == 1:  # a source's two errors in turn share its source-box term
            both = [(_plan_errors(cfg, plan, [g], [])[0], profile.element_error(g)) for g in sources]
            err_q, err_p = [q for q, _ in both] + _plan_errors(cfg, plan, [], probes), [e for _, e in both]
        else:
            err_q = _plan_errors(cfg, plan, sources, probes, grids)
            err_p = err_q[: len(sources)] if p == 2.0 else []  # d >= 2: quad_K is K_out there
        if p == 2.0 and sq is not None:
            err_p.append(math.sqrt(sq.flat[order[0]]))  # the first probe's error at K_out
        rows.append(_row(cfg, prediction, m, t0, err_q, err_p, walk))
    return rows


# Relative rounding allowance of lp_norm_bound: a single coefficient attains
# the bound, and its measured norm reads about 1e-15 above it.
_BOUND_SLACK = 1e-9


def _plan_errors(cfg, plan, sources, probes, grids=None) -> list:
    """Quadrature errors, cut at the plan's |k|_inf <= K, of the single-frequency
    probes and of the sources the row's max needs.

    The sources share the image plan of radius K; at p != 2 its box is the
    row's largest array, freed when the next row's plan replaces it, before
    that one builds its box.  At p = 2 every source is measured and the probes take
    the plan's fold too.  At other p each probe's error lives on its residue
    class and takes its norm on the class grid (``_single_frequency_errors``),
    not on the plan's box; and since the row keeps only the max, a source is
    measured only if ``lp_norm_bound`` of its error coefficients cannot rule
    it out.  The bounds take the sources as stacks: chunks of ``_stack_rows``
    sources, whose error coefficients (``_error_stack``) share one L4 grid
    (``_lp_norm_bounds``; none above p = 4), each bound that of the source alone, bit for bit.
    Every grid of the row is cut from ``grids``, the sweep's buffer, if given.
    The source with the largest bound always is measured, then the probes,
    then the rest in descending bound order while their bound reaches the
    running max; the first one below it ends the row, as all later ones are
    below it too.  Each measured value is checked against its bound.  So the
    max is the one of every source and probe, bit for bit.
    """
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    m, K = plan.m, plan.K_out

    def error(g):
        return approximation_error(ClassElement(lam, g, p), beta, m, oversample=cfg.oversample, plan=plan, grids=grids)

    if p == 2.0:
        return [error(g) for g in sources] + [error(SpectralFunction.single(k0, dimension=d)) for k0 in probes]
    R = max([K] + [g.radius for g in sources])
    bounds = _in_chunks(
        lambda c: _lp_norm_bounds(_error_stack(lam, plan, c, plan.coefficients(c)), p, grids=grids),
        sources, _stack_rows(cfg, K, R, 2),
    )
    order = sorted(range(len(sources)), key=lambda i: -bounds[i])  # ties in source order

    def measured(i):
        value = error(sources[i])
        if value > bounds[i] * (1.0 + _BOUND_SLACK):
            raise RuntimeError(f"m={m}: source {i} has L_p error {value!r} above its bound {bounds[i]!r}")
        return value

    errs = [measured(i) for i in order[:1]]
    errs += _single_frequency_errors(lam, beta, m, probes, p, K, cfg.oversample, grids)
    for i in order[1:]:
        if bounds[i] * (1.0 + _BOUND_SLACK) < max(errs):
            break
        errs.append(measured(i))
    return errs


def _row(cfg, prediction, m, t0, err_q=(), err_p=(), walk=None) -> SweepRow:
    """The row of one m: its budget (at p != 2 cut from ``walk``) and prediction next to the given errors."""
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    if p == 2.0:
        eps = epsilon_p2(lam, beta, m, J_max=cfg.J_max)
    else:
        eps = epsilon_general_p(lam, beta, m, K_max=cfg.J_max, walk=walk)
    return SweepRow(
        family=lam.family,
        d=d,
        p=p,
        param=_seq_param(lam),
        m=m,
        n_translates=(2 * m + 1) ** d,
        error_quadrature=max(err_q) if err_q else None,
        error_parseval=max(err_p) if err_p else None,
        epsilon=eps.value,
        epsilon_tail=eps.tail_bound,
        epsilon_variant=eps.variant,
        predicted=prediction.value_at(m) if prediction.applies else None,
        seconds=time.perf_counter() - t0 if cfg.timing else None,
    )


def _log_quadrature_clamp(lam, beta, m, K_out, quad_K, sources, p) -> None:
    """Report the alias tail dropped by quadrature at quad_K < K_out.

    The bounds cover every quadrature element of the row: the sources and
    the single-frequency probes, whose one coefficient is 1.  The l2 bound
    bounds the dropped L_p norm for p <= 2 only, so at p > 2 the l1 bound
    max|alpha| max|ghat| ||beta^{-1}||_l1 beyond quad_K is reported too: it
    bounds the sup norm, and so every L_p norm, of the dropped part, and is
    infinite where the l1 tail of beta^{-1} diverges.
    """
    _, _, alpha = band_arrays(lam, beta, m)
    gmax = max([1.0] + [float(np.max(np.abs(g.values))) for g in sources])
    msg = "m=%d: quadrature radius %d < K_out %d drops an l2 tail <= %.3e"
    args = [m, quad_K, K_out, image_tail_bound(alpha, beta, quad_K, gmax)]
    if p > 2.0:
        sup = float(np.max(np.abs(alpha))) * box_inv_tail(beta, quad_K, 1) * gmax
        if math.isfinite(sup):
            msg += " and a sup norm <= %.3e"
            args.append(sup)
        else:
            msg += ", and its L_p norm has no finite bound (the l1 tail diverges)"
    log.debug(msg, *args)


def epsilon_table(cfg: SweepConfig) -> list:
    """Budget-only rows (error columns left empty), at p != 2 on one walk."""
    prediction = predicted_rate(cfg.lam, cfg.beta, cfg.p)
    walk = None if cfg.p == 2.0 else reciprocal_walk(cfg.lam, cfg.beta, cfg.m_list, cfg.J_max)
    return [_row(cfg, prediction, m, time.perf_counter(), walk=walk) for m in cfg.m_list]


# ---------------------------------------------------------------------------
# Rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of a decay model on log-transformed errors.

    power:       log e = intercept + exponent * log m   (exponent < 0)
    exponential: log e = intercept - exponent * m       (exponent = sigma > 0)
    """

    model: str
    exponent: float
    intercept: float
    r_squared: float
    n_used: int
    note: str = ""


def fit_rate(ms, errors, model: str = "power") -> RateFit:
    if model not in ("power", "exponential"):
        raise ValueError(f"unknown rate model {model!r}")
    ms = np.asarray(ms, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > 0)
    note = ""
    if np.any(~keep):
        note = f"excluded {int(np.sum(~keep))} non-positive/exact rows"
    ms, errors = ms[keep], errors[keep]
    if ms.size < 3:
        raise ValueError("need at least 3 rows with positive errors")
    x = np.log(ms) if model == "power" else ms
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    exponent = float(slope) if model == "power" else float(-slope)
    return RateFit(model, exponent, float(intercept), float(r2), int(ms.size), note)


# ---------------------------------------------------------------------------
# Output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return format(v, ".12g")


def _csv_text(rows, columns) -> str:
    """One CSV line per row, the attribute of each column by ``_fmt``
    (``seconds`` to the millisecond), under a header of the column names."""

    def cell(row, col):
        value = getattr(row, col)
        return format(value, ".3f") if col == "seconds" and value is not None else _fmt(value)

    lines = [",".join(columns)] + [",".join(cell(r, c) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_csv_text(rows) -> str:
    return _csv_text(rows, CSV_COLUMNS)


def emit_csv(rows, path) -> None:
    Path(path).write_text(rows_to_csv_text(rows))


def plotdata_text(rows) -> str:
    lines = []
    if rows:
        r0 = rows[0]
        lines.append(
            f"# sweep family={r0.family} d={r0.d} p={_fmt(r0.p)} param={_fmt(r0.param)}"
        )
        lines.append("# columns: m error")
    for r in rows:
        lines.append(f"{r.m} {_fmt(r.epsilon if r.error is None else r.error)}")
    return "\n".join(lines) + "\n"


def read_csv_rows(path) -> list:
    """The rows of an emitted sweep CSV as ``SweepRow``s.

    Each cell is read by its field's annotation: ``str`` fields as written,
    ``int`` fields by ``int``, every other field by ``float``, an empty cell
    as None.  So a row reads back as it was written, to the CSV's 12 digits.
    """
    kinds = {f.name: {"str": str, "int": int}.get(f.type, lambda text: float(text) if text else None)
             for f in fields(SweepRow)}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns {reader.fieldnames}")
        rows = []
        for rec in reader:
            if None in rec or None in rec.values():
                raise ValueError(f"{path}:{reader.line_num}: expected {len(CSV_COLUMNS)} cells")
            rows.append(SweepRow(**{key: kinds[key](text) for key, text in rec.items()}))
        return rows


def verify_dominance(rows, slack: float = 1.10) -> tuple:
    """Check error <= slack * C * epsilon on ``SweepRow``s, a sweep's or
    ``read_csv_rows``', with C fitted at the smallest m of each (family, d,
    p, param) group; a row's error is ``SweepRow.error``.

    Rows with no error value (an ``epsilon`` table) compare nothing, so a
    list in which no row carries one fails.  A row whose ``epsilon_tail``
    is infinite is not compared either: its ``epsilon`` is a partial sum of
    a divergent series, not a budget.  So a list that carries errors but
    has no row left to compare fails too.
    """
    groups: dict = {}
    for r in rows:
        key = (r.family, r.d, r.p, r.param)
        groups.setdefault(key, []).append(r)
    ok = True
    report = []
    carried = compared = False
    for key, members in groups.items():
        members = sorted(members, key=lambda r: r.m)
        base = None
        for r in members:
            err, eps = r.error, r.epsilon
            carried = carried or err is not None
            if err is None or eps is None or not math.isfinite(eps) or eps <= 0:
                continue
            if r.epsilon_tail == math.inf:
                report.append(f"group {key}: m = {r.m}: epsilon_tail is infinite, not compared")
                continue
            compared = True
            if base is None:
                if err > 0:
                    base = err / eps
                    report.append(
                        f"group {key}: fitted constant C = {base:.6g} at m = {r.m}"
                    )
                continue
            bound = slack * base * eps
            line = (
                f"group {key}: m = {r.m}: error {err:.6g} "
                f"vs {slack:g} * C * eps = {bound:.6g}"
            )
            if err > bound:
                ok = False
                line += "  VIOLATION"
            report.append(line)
        if base is None:
            report.append(f"group {key}: no usable rows (zero errors or infinite budget)")
    if not carried:
        return False, report + ["no row carries an error value: nothing was compared"]
    if not compared:
        return False, report + ["no row has a finite budget: nothing was compared"]
    return ok, report


# ---------------------------------------------------------------------------
# Lower-bound probe driver


def run_probe(cfg: ProbeConfig) -> list:
    growth = GrowthFunction(cfg.growth_rule, a=cfg.growth_a, b=cfg.growth_b)
    psi = default_probe_generator(cfg.lam, cfg.psi_truncation)
    results = []
    for n in cfg.n_list:
        design = design_for_n(n, cfg.lam.dimension, cfg.lam, c3=cfg.c3)
        results.append(
            probe_Mn(
                design,
                cfg.lam,
                psi,
                trials=cfg.trials,
                restarts=cfg.restarts,
                seed=cfg.seed,
                growth=growth,
            )
        )
    return results


def probe_rows_to_csv_text(results) -> str:
    return _csv_text(results, PROBE_COLUMNS)
