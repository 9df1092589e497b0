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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ._alias import (
    band_arrays,
    build_alias_profile,
    default_K_out,
    md_single_frequency_errors_sq,
)
from .approximant import (
    ClassElement,
    ImagePlan,
    approximation_error,
    image_tail_bound,
    quadrature_radius,
)
from .config import ProbeConfig, SweepConfig
from .error_budget import (
    epsilon_general_p,
    epsilon_p2,
    predicted_rate,
)
from .lower_bound import GrowthFunction, default_probe_generator, design_for_n, probe_Mn
from .spectral import SpectralFunction, lp_norm, random_real_spectral

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

CSV_COLUMNS = [
    "family",
    "d",
    "p",
    "param",
    "m",
    "n_translates",
    "error_quadrature",
    "error_parseval",
    "epsilon",
    "epsilon_tail",
    "epsilon_variant",
    "predicted",
    "seconds",
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


def _seq_param(seq) -> Optional[float]:
    for name in ("r", "s", "v"):
        if hasattr(seq, name):
            return float(getattr(seq, name))
    return None


def _random_sources(cfg: SweepConfig, m: int) -> list:
    rng = np.random.default_rng([cfg.seed, m])
    bw = max(1, int(round(cfg.g_bandwidth_factor * m)))
    return [
        random_real_spectral(
            cfg.dimension, bw, rng, normalize_p=cfg.p, oversample=cfg.oversample
        )
        for _ in range(cfg.g_count)
    ]


def _load_source(cfg: SweepConfig) -> SpectralFunction:
    with open(cfg.g_file) as fh:
        g = SpectralFunction.from_lines(fh, dimension=cfg.dimension)
    norm = lp_norm(g, cfg.p, oversample=cfg.oversample)
    if norm == 0:
        raise ValueError(f"source file {cfg.g_file} holds the zero function")
    return g * (1.0 / norm)


def run_sweep(cfg: SweepConfig) -> list:
    """One row per m: empirical worst-case errors, budget, prediction.

    Every row runs the same stages for every d and p: sources, radii, alias
    sums (the squared p = 2 error of each single frequency on the band),
    probes (the ``probe_count`` largest sums, ties in C order), errors on
    one image plan, budget.  Only the alias sums depend on d: d = 1 builds
    the alias profile, whose ``element_error`` gives the sources' p = 2
    errors; a d >= 2 product pair takes ``md_single_frequency_errors_sq``,
    other pairs probe the edge frequency (m, 0, ..., 0), and at d >= 2 the
    sources' p = 2 errors are their quadrature errors on the plan.
    """
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    prediction = predicted_rate(lam, beta, p)
    fixed = [_load_source(cfg)] if cfg.g_file else None
    rows = []
    for m in cfg.m_list:
        t0 = time.perf_counter()
        sources = fixed if fixed is not None else _random_sources(cfg, m)
        bw = max((g.bandwidth for g in sources), default=m)
        K_out = max(cfg.K_out or default_K_out(lam, beta, m), bw + 1)
        quad_K = quadrature_radius(K_out, p, m, bw)
        if quad_K < K_out and log.isEnabledFor(logging.DEBUG):
            _log_quadrature_clamp(lam, beta, m, K_out, quad_K, sources)
        profile = sq = None
        if d == 1:
            profile = build_alias_profile(lam, beta, m, K_out=K_out)
            sq = profile.sq_profile
        elif lam.axis_factors() and beta.axis_factors():
            sq = md_single_frequency_errors_sq(lam, beta, m)
        if sq is None:
            probes = [(m,) + (0,) * (d - 1)]
        else:
            order = np.argsort(-sq, axis=None, kind="stable")[: cfg.probe_count]
            probes = [tuple(int(c) - m for c in np.unravel_index(i, sq.shape)) for i in order]
        err_q = _plan_errors(cfg, m, quad_K, sources, probes)
        err_p = err_q[: len(sources)] if p == 2.0 else []  # d >= 2: the oracle's sum, as K > bw
        if p == 2.0 and d == 1:
            err_p = [profile.element_error(g) for g in sources]
        if p == 2.0 and sq is not None:
            err_p.append(math.sqrt(sq.flat[order[0]]))  # the first probe's oracle error
        rows.append(_row(cfg, prediction, m, t0, err_q, err_p))
    return rows


def _plan_errors(cfg, m, K, sources, probes) -> list:
    """Quadrature errors of the sources, then of the single-frequency probes.

    All of them share one image plan of radius K.  At p != 2 its box is the
    row's largest array and is freed on return, before the next row builds
    its alias profile.
    """
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    plan = ImagePlan(lam, beta, m, K)
    elems = [ClassElement(lam, g, p) for g in sources]
    elems += [ClassElement(lam, SpectralFunction.single(k0, dimension=d), p) for k0 in probes]
    return [
        approximation_error(e, beta, m, p, "quadrature", oversample=cfg.oversample, plan=plan)
        for e in elems
    ]


def _row(cfg, prediction, m, t0, err_q=(), err_p=()) -> SweepRow:
    """The row of one m: its budget and prediction next to the given errors."""
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    if p == 2.0:
        eps = epsilon_p2(lam, beta, m, J_max=cfg.J_max)
    else:
        eps = epsilon_general_p(lam, beta, m, K_max=cfg.J_max)
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


def _log_quadrature_clamp(lam, beta, m, K_out, quad_K, sources) -> None:
    """Report the l2 alias tail dropped by quadrature at quad_K < K_out.

    The bound covers every quadrature element of the row: the sources and
    the single-frequency probes, whose one coefficient is 1.
    """
    _, _, alpha = band_arrays(lam, beta, m)
    gmax = max([1.0] + [float(np.max(np.abs(g.values))) for g in sources])
    log.debug(
        "m=%d: quadrature radius %d < K_out %d drops an l2 tail <= %.3e",
        m, quad_K, K_out, image_tail_bound(alpha, beta, quad_K, gmax),
    )


def epsilon_table(cfg: SweepConfig) -> list:
    """Budget-only rows (error columns left empty)."""
    prediction = predicted_rate(cfg.lam, cfg.beta, cfg.p)
    return [_row(cfg, prediction, m, time.perf_counter()) for m in cfg.m_list]


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
        err = r.error_parseval if r.error_parseval is not None else r.error_quadrature
        if err is None:
            err = r.epsilon
        lines.append(f"{r.m} {_fmt(err)}")
    return "\n".join(lines) + "\n"


def read_csv_rows(path) -> list:
    """Rows of an emitted CSV as dicts with numeric fields parsed."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns {reader.fieldnames}")
        rows = []
        for rec in reader:
            row = dict(rec)
            for key in ("p", "param", "error_quadrature", "error_parseval",
                        "epsilon", "epsilon_tail", "predicted", "seconds"):
                row[key] = float(rec[key]) if rec[key] not in ("", None) else None
            for key in ("d", "m", "n_translates"):
                row[key] = int(rec[key])
            rows.append(row)
        return rows


def verify_dominance(rows, slack: float = 1.10) -> tuple:
    """Check empirical_error <= slack * C * epsilon with C fitted at the
    smallest m of each (family, d, p, param) group.

    Accepts SweepRow lists or dict rows from ``read_csv_rows``.
    """

    def get(r, key):
        return getattr(r, key) if not isinstance(r, dict) else r[key]

    groups: dict = {}
    for r in rows:
        key = (get(r, "family"), get(r, "d"), get(r, "p"), get(r, "param"))
        groups.setdefault(key, []).append(r)
    ok = True
    report = []
    for key, members in groups.items():
        members = sorted(members, key=lambda r: get(r, "m"))
        base = None
        for r in members:
            err = get(r, "error_parseval")
            if err is None:
                err = get(r, "error_quadrature")
            eps = get(r, "epsilon")
            if err is None or eps is None or not math.isfinite(eps) or eps <= 0:
                continue
            if base is None:
                if err > 0:
                    base = err / eps
                    report.append(
                        f"group {key}: fitted constant C = {base:.6g} at m = {get(r, 'm')}"
                    )
                continue
            bound = slack * base * eps
            line = (
                f"group {key}: m = {get(r, 'm')}: error {err:.6g} "
                f"vs {slack:g} * C * eps = {bound:.6g}"
            )
            if err > bound:
                ok = False
                line += "  VIOLATION"
            report.append(line)
        if base is None:
            report.append(f"group {key}: no usable rows (zero errors or infinite budget)")
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
