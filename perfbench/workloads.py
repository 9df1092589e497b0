"""The benchmark's workloads: configs made from a seed, one pass, and its checks.

Each workload is one caller in a closed loop: a pass runs its configs
one after another through ``translates.experiments.run_sweep`` or
``run_probe``, the route the CLI takes.  The checks are the
acceptance criteria of ``tests/test_acceptance.py`` that the workload's
inputs mirror.  Smoke inputs are tiny versions of the same configs, for
testing the benchmark itself; the same checks hold on them.

This module imports nothing from translates at import time, so that the
set-up probe can time that import.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

# One BLAS thread: each workload is one caller, and a fixed cap keeps runs
# comparable on a shared machine.
BLAS_THREADS = 1


def cap_blas_threads() -> None:
    """Cap BLAS and OpenMP threads; call before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


SWEEP = """[lambda]
family = {family}
{key} = {value}
dim = {dim}

[sweep]
p = {p}
m_list = {m_list}
g_count = {g_count}
g_bandwidth_factor = 2.0
seed = {seed}
timing = off
"""

PROBE_CONFIG = "configs/probe_lower.cfg"

SMOKE_PROBE = """[lambda]
family = korobov
r = 1.0

[probe]
n_list = 10 20
trials = 3
restarts = 2
psi_truncation = 64
growth = power
growth_a = 1.0
seed = {seed}
"""


def _sweep(family, key, value, p, m_list, g_count, seed, dim=1) -> dict:
    return {"text": SWEEP.format(family=family, key=key, value=value, dim=dim, p=p,
                                 m_list=m_list, g_count=g_count, seed=seed)}


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int, bool], dict]  # (seed, smoke) -> {label: config spec}
    checks: Callable[[dict, dict], list]  # (rows, seconds) -> [(name, ok, detail)]


def load(specs: dict, root) -> dict:
    """Parse and validate the workload's configs, as the CLI does."""
    from translates.config import ProbeConfig, SweepConfig, load_config, parse_config

    cfgs = {}
    for label, spec in specs.items():
        if "file" in spec:
            raw = load_config(root / spec["file"])
        else:
            raw = parse_config(spec["text"], path=label)
        kind = ProbeConfig if raw.has("probe") else SweepConfig
        cfgs[label] = kind.from_raw(raw, seed_override=spec.get("seed"))
    return cfgs


def run_pass(cfgs: dict) -> tuple:
    """One pass: every config through the CLI's entry points, in order."""
    from translates import experiments
    from translates.config import ProbeConfig

    rows, seconds = {}, {}
    for label, cfg in cfgs.items():
        t0 = time.perf_counter()
        if isinstance(cfg, ProbeConfig):
            rows[label] = experiments.run_probe(cfg)
        else:
            rows[label] = experiments.run_sweep(cfg)
        seconds[label] = time.perf_counter() - t0
    return rows, seconds


# ---------------------------------------------------------------------------
# Output columns compared with the recorded reference


CHECKED = ("error_quadrature", "error_parseval", "statistic")
DRIFT = ("epsilon", "epsilon_tail")


def columns(rows: list) -> dict:
    """The reference columns of one config's output."""
    if rows and hasattr(rows[0], "statistic"):
        return {"n": [r.n for r in rows], "statistic": [r.statistic for r in rows]}
    out = {"m": [r.m for r in rows]}
    for key in CHECKED[:2] + DRIFT:
        out[key] = [getattr(r, key) for r in rows]
    return out


# ---------------------------------------------------------------------------
# Acceptance criteria


def _errors(rows):
    return [r.error_parseval if r.error_parseval is not None else r.error_quadrature
            for r in rows]


def _fit(rows, errors, model):
    from translates.experiments import fit_rate

    return fit_rate([r.m for r in rows], errors, model)


def _power_checks(tag, rows, r, tol, seconds, limit, r2=None):
    fit = _fit(rows, _errors(rows), "power")
    out = [(f"{tag}.exponent", abs(-fit.exponent - r) <= tol,
            f"exponent {-fit.exponent:.4f}, want {r:g} +- {tol:g}")]
    if r2 is not None:
        out.append((f"{tag}.r_squared", fit.r_squared >= r2, f"R^2 {fit.r_squared:.5f} >= {r2:g}"))
    out.append((f"{tag}.seconds", seconds < limit, f"{seconds:.2f} s < {limit:g} s"))
    return out


def _check_power_p2(rows, seconds):
    from translates.experiments import verify_dominance

    kor, exp = rows["korobov_r1"], rows["exponential_s0.5"]
    out = _power_checks("c1.korobov_r1", kor, 1.0, 0.3, seconds["korobov_r1"], 30.0, r2=0.98)
    fit = _fit(exp, _errors(exp), "exponential")
    out += [
        ("c3.sigma", abs(fit.exponent - 0.5) <= 0.1, f"sigma {fit.exponent:.4f}, want 0.5 +- 0.1"),
        ("c3.r_squared", fit.r_squared >= 0.98, f"R^2 {fit.r_squared:.5f} >= 0.98"),
        ("c3.seconds", seconds["exponential_s0.5"] < 30.0,
         f"{seconds['exponential_s0.5']:.2f} s < 30 s"),
    ]
    for label in ("korobov_r1", "exponential_s0.5"):
        ok, report = verify_dominance(rows[label], slack=1.10)
        bad = [line for line in report if "VIOLATION" in line]
        out.append((f"c7.{label}", ok, bad[0] if bad else "error <= 1.10 C epsilon at every m"))
    return out


def _check_general_p(rows, seconds):
    out = []
    for r in (1, 2):
        label = f"korobov_r{r}"
        out += _power_checks(f"c2.{label}", rows[label], float(r), 0.4, seconds[label], 60.0)
    return out


def _check_d2(rows, seconds):
    out = _power_checks("c9", rows["korobov_r2_d2"], 2.0, 0.5, seconds["korobov_r2_d2"], 120.0)
    bad = [r.m for r in rows["korobov_r2_d2"]
           if r.predicted is None or not math.isclose(r.predicted, (r.m + 1.0) ** -2.0, rel_tol=1e-9)]
    out.append(("c9.predicted", not bad, f"predicted != (m+1)^-2 at m = {bad}" if bad
                else "predicted = (m+1)^-2 at every m"))
    return out


def _check_probe(rows, seconds):
    res = rows["probe_lower"]
    stats = [r.statistic for r in res]
    hits = sum(r.statistic >= 0.1 * r.envelope_high for r in res)
    return [
        ("c10.positive", all(s > 0 for s in stats), f"statistics {stats}"),
        ("c10.monotone", all(b <= a for a, b in zip(stats, stats[1:])),
         "statistic non-increasing in n"),
        ("c10.brackets", hits >= 2, f"{hits}/{len(res)} statistics >= 0.1 envelope_high"),
        ("c10.seconds", seconds["probe_lower"] < 120.0, f"{seconds['probe_lower']:.2f} s < 120 s"),
    ]


# ---------------------------------------------------------------------------
# The workloads


def _power_p2(seed, smoke):
    ms = "4 8 16 32" if smoke else "4 8 16 32 64 128 256"
    g = 4 if smoke else 20
    return {
        "korobov_r1": _sweep("korobov", "r", 1.0, 2.0, ms, g, seed),
        "exponential_s0.5": _sweep("exponential", "s", 0.5, 2.0,
                                   "4 8 16" if smoke else "4 8 16 32 64", g, seed),
    }


def _general_p(seed, smoke):
    ms = "4 8 16 32" if smoke else "4 8 16 32 64 128 256"
    g = 4 if smoke else 20
    return {f"korobov_r{r}": _sweep("korobov", "r", float(r), 3.0, ms, g, seed) for r in (1, 2)}


def _d2(seed, smoke):
    ms = "2 4 8" if smoke else "2 4 8 16 32"
    return {"korobov_r2_d2": _sweep("korobov", "r", 2.0, 2.0, ms, 4 if smoke else 20, seed, dim=2)}


def _probe(seed, smoke):
    if smoke:
        return {"probe_lower": {"text": SMOKE_PROBE.format(seed=seed)}}
    return {"probe_lower": {"file": PROBE_CONFIG, "seed": seed}}


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_power_p2", _power_p2, _check_power_p2),
        Workload("sweep_general_p", _general_p, _check_general_p),
        Workload("sweep_d2", _d2, _check_d2),
        Workload("probe_lower", _probe, _check_probe),
    )
}
