"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Sweep results are shared across criteria through
session-scoped fixtures, and each timed criterion asserts its wall
budget.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from translates import cli
from translates._alias import default_K_out
from translates.approximant import (
    ClassElement,
    approximation_error,
    assemble_Qm,
    class_inner_product,
    kernel_section,
)
from translates.config import SweepConfig, parse_config
from translates.experiments import fit_rate, run_sweep, verify_dominance
from translates.lower_bound import (
    GrowthFunction,
    default_probe_generator,
    design_for_n,
    probe_Mn,
)
from translates.sequences import Korobov, truncated
from translates.spectral import random_real_spectral

REPO = Path(__file__).resolve().parents[1]


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def _sweep_cfg(family, key, value, p, m_list, seed):
    return SweepConfig.from_raw(
        parse_config(
            f"""
[lambda]
family = {family}
{key} = {value}

[sweep]
p = {p}
m_list = {m_list}
g_count = 20
g_bandwidth_factor = 2.0
seed = {seed}
timing = off
"""
        )
    )


@pytest.fixture(scope="module")
def korobov_p2_sweeps():
    out = {}
    for r in (1.0, 2.0):
        cfg = _sweep_cfg("korobov", "r", r, 2.0, "4 8 16 32 64 128 256", 20240501)
        t0 = time.perf_counter()
        rows = run_sweep(cfg)
        out[r] = (rows, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def exponential_sweep():
    cfg = _sweep_cfg("exponential", "s", 0.5, 2.0, "4 8 16 32 64", 20240502)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    return rows, time.perf_counter() - t0


def _errors(rows):
    return [
        r.error_parseval if r.error_parseval is not None else r.error_quadrature
        for r in rows
    ]


def test_criterion_1_korobov_rate(korobov_p2_sweeps):
    details = []
    for r in (1.0, 2.0):
        rows, seconds = korobov_p2_sweeps[r]
        fit = fit_rate([x.m for x in rows], _errors(rows), "power")
        assert abs(-fit.exponent - r) <= 0.3, (r, fit)
        assert fit.r_squared >= 0.98
        assert seconds < 30.0
        details.append(f"r={r:g}: exponent {-fit.exponent:.3f}, R^2 {fit.r_squared:.4f}, {seconds:.1f}s")
    report(1, "; ".join(details))


def test_criterion_2_general_p_rate():
    details = []
    for r in (1.0, 2.0):
        cfg = _sweep_cfg("korobov", "r", r, 3.0, "4 8 16 32 64 128 256", 20240504)
        t0 = time.perf_counter()
        rows = run_sweep(cfg)
        seconds = time.perf_counter() - t0
        fit = fit_rate([x.m for x in rows], [x.error_quadrature for x in rows], "power")
        assert abs(-fit.exponent - r) <= 0.4, (r, fit)
        assert seconds < 60.0
        details.append(f"r={r:g}: exponent {-fit.exponent:.3f}, {seconds:.1f}s")
    report(2, "; ".join(details))


def test_criterion_3_exponential_rate(exponential_sweep):
    rows, seconds = exponential_sweep
    fit = fit_rate([x.m for x in rows], _errors(rows), "exponential")
    assert abs(fit.exponent - 0.5) <= 0.1, fit
    assert fit.r_squared >= 0.98
    assert seconds < 30.0
    report(3, f"sigma {fit.exponent:.4f}, R^2 {fit.r_squared:.5f}, {seconds:.1f}s")


def test_criterion_4_oracle_equivalence():
    # The oracle against the translates themselves: the approximant
    # sum_l c_l phi(x - 2 pi l / (2m+1)) has the coefficient
    # beta_k^{-1} C(k mod (2m+1)) at k, with C the DFT of the weights c.
    # After the node samples this route shares no code with the residue fold.
    lam = Korobov(2.0)
    rng = np.random.default_rng(20240505)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 17))
        bw = int(rng.integers(1, 33))
        g = random_real_spectral(1, bw, rng)
        elem = ClassElement(lam, g)
        K = max(default_K_out(lam, lam, m), bw + 1)
        par = approximation_error(elem, lam, m, K_out=K)
        ks = np.arange(-K, K + 1)
        weights_dft = np.fft.fft(assemble_Qm(elem, lam, m).weights)
        image = lam.inv_values(ks) * weights_dft[ks % (2 * m + 1)]
        target = lam.inv_values(ks) * g.padded(K).values
        translates = float(np.linalg.norm(target - image))
        if par > 0:
            worst = max(worst, abs(par - translates) / par)
    seconds = time.perf_counter() - t0
    assert worst <= 1e-6
    assert seconds < 20.0
    report(4, f"100 pairs, worst relative gap {worst:.2e}, {seconds:.1f}s")


def test_criterion_5_aliasing_identity():
    rng = np.random.default_rng(20240506)
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        n = 2 * m + 1
        ls = 2 * np.pi * np.arange(n) / n
        ts = rng.uniform(0.0, 2 * np.pi, 20)
        ks = np.arange(-50, 51)
        ss = np.arange(-m, m + 1)
        # lhs[k, s, t] = mean_l e^{ik(t - x_l)} e^{is(x_l - t)}
        ek = np.exp(1j * np.outer(ks, ts))  # (K, T)
        for s in ss:
            phase = np.exp(1j * (np.outer(-ks, ls) + s * ls[None, :]))  # (K, L)
            lhs = phase.mean(axis=1)[:, None] * ek * np.exp(-1j * s * ts)[None, :]
            kp = (ks + m) % n - m
            hit = (ks - s) % n == 0
            rhs = np.where(hit[:, None], np.exp(1j * np.outer(ks - kp, ts)), 0.0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    seconds = time.perf_counter() - t0
    assert worst <= 1e-12
    assert seconds < 5.0
    report(5, f"max deviation {worst:.2e} over m<=8, |k|<=50, {seconds:.1f}s")


def test_criterion_6_exact_reproduction():
    rng = np.random.default_rng(20240507)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 13))
        bw = int(rng.integers(1, m + 1))
        r = float(rng.uniform(0.75, 3.0))
        lam = Korobov(r)
        beta = truncated(lam, m)
        g = random_real_spectral(1, bw, rng)
        err = approximation_error(ClassElement(lam, g), beta, m, K_out=max(64, 8 * m))
        worst = max(worst, err)
    seconds = time.perf_counter() - t0
    assert worst <= 1e-12
    assert seconds < 5.0
    report(6, f"50 cases, worst error {worst:.2e}, {seconds:.1f}s")


def test_criterion_7_budget_dominance(korobov_p2_sweeps, exponential_sweep):
    all_ok = []
    for r in (1.0, 2.0):
        rows, _ = korobov_p2_sweeps[r]
        ok, rep = verify_dominance(rows, slack=1.10)
        assert ok, rep
        all_ok.append(f"korobov r={r:g}")
    rows, _ = exponential_sweep
    ok, rep = verify_dominance(rows, slack=1.10)
    assert ok, rep
    all_ok.append("exponential s=0.5")
    report(7, "C fitted at m=4, never exceeded by more than 10%: " + ", ".join(all_ok))


def test_criterion_8_reproducing_kernel():
    rng = np.random.default_rng(20240508)
    lam = Korobov(1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        bw = int(rng.integers(1, 17))
        f = random_real_spectral(1, bw, rng)
        xs = rng.uniform(0.0, 2 * np.pi, 20)
        for x in xs:
            section = kernel_section(lam, float(x), bw)
            ip = class_inner_product(f, section, lam)
            ks = f.axis_indices()
            direct = complex(np.sum(f.values * np.exp(1j * ks * x)))
            worst = max(worst, abs(ip - direct))
    seconds = time.perf_counter() - t0
    assert worst <= 1e-9
    assert seconds < 5.0
    report(8, f"50 f x 20 points, worst gap {worst:.2e}, {seconds:.1f}s")


def test_criterion_9_multivariate_rate():
    cfg = SweepConfig.from_raw(
        parse_config(
            """
[lambda]
family = korobov
r = 2.0
dim = 2

[sweep]
p = 2.0
m_list = 2 4 8 16
g_count = 20
seed = 20240509
timing = off
"""
        )
    )
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    seconds = time.perf_counter() - t0
    fit = fit_rate([x.m for x in rows], _errors(rows), "power")
    assert abs(-fit.exponent - 2.0) <= 0.5, fit
    # the prediction column follows the box-sup law
    for row in rows:
        assert row.predicted == pytest.approx((row.m + 1.0) ** -2.0, rel=1e-9)
    assert seconds < 120.0
    report(9, f"d=2 exponent {-fit.exponent:.3f}, {seconds:.1f}s")


def test_criterion_10_lower_bound_probe():
    lam = Korobov(1.0)
    growth = GrowthFunction("power", a=1.0)
    psi = default_probe_generator(lam, 512)
    t0 = time.perf_counter()
    stats = []
    brackets = 0
    for n in (10, 20, 40):
        design = design_for_n(n, 1, lam, c3=1.0)
        res = probe_Mn(design, lam, psi, trials=20, restarts=8, seed=20240510,
                       growth=growth)
        stats.append(res.statistic)
        assert res.statistic > 0
        if res.statistic >= 0.1 * res.envelope_high:
            brackets += 1
    seconds = time.perf_counter() - t0
    assert all(b <= a for a, b in zip(stats, stats[1:])), stats
    assert brackets >= 2
    assert seconds < 120.0
    report(10, f"statistics {[f'{s:.4f}' for s in stats]}, bracket hits {brackets}/3, {seconds:.1f}s")


def test_criterion_11_determinism(tmp_path):
    config = REPO / "configs" / "acceptance.cfg"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        proc = subprocess.run(
            [sys.executable, "-m", "translates.cli", "sweep",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()
    report(11, f"two process-level runs byte-identical ({a.stat().st_size} bytes)")
