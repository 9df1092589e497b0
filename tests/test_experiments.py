import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from translates import cli
from translates._alias import (
    build_alias_profile,
    default_K_out,
    index_box,
    md_single_frequency_errors_sq,
)
from translates.approximant import (
    ClassElement,
    ImagePlan,
    approximation_error,
    quadrature_radius,
    spectral_image,
)
from translates.config import (
    ConfigError,
    ProbeConfig,
    SweepConfig,
    build_sequence,
    load_config,
    parse_config,
)
from translates.experiments import (
    CSV_COLUMNS,
    fit_rate,
    read_csv_rows,
    rows_to_csv_text,
    run_sweep,
    epsilon_table,
    verify_dominance,
    emit_csv,
    plotdata_text,
    probe_rows_to_csv_text,
    run_probe,
    _random_sources,
)
from translates.error_budget import epsilon_p2_md
from translates.sequences import (
    CoefficientSequence,
    CustomSequence,
    Exponential,
    Korobov,
    ProductSequence,
    SequenceError,
    box_inv_tail,
    truncated,
)
from translates.spectral import SpectralFunction

DATA = Path(__file__).parent / "data"

BASIC = """
[lambda]
family = korobov
r = 2.0

[sweep]
p = 2.0
m_list = 2 4 8
g_count = 5
seed = 12345
timing = off
"""


# ---------------------------------------------------------------------------
# Config parsing


def test_parse_sections_and_values():
    cfg = parse_config(BASIC)
    assert cfg.get("lambda", "family") == "korobov"
    assert cfg.get("sweep", "p", cast=float) == 2.0
    sc = SweepConfig.from_raw(cfg)
    assert sc.m_list == (2, 4, 8)
    assert sc.p == 2.0 and not sc.timing
    assert isinstance(sc.beta, Korobov)  # beta defaults to lambda


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":3"):
        parse_config("[a]\nx = 1\ny 2\n")
    with pytest.raises(ConfigError, match="before any"):
        parse_config("x = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[a]\nx = 1\nx = 2\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        SweepConfig.from_raw(parse_config(BASIC.replace("p = 2.0", "p = spam")))


def test_config_validation_rules():
    with pytest.raises(ConfigError, match="m_list"):
        SweepConfig.from_raw(parse_config(BASIC.replace("m_list = 2 4 8", "m_list = ")))
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepConfig.from_raw(parse_config(BASIC.replace("m_list = 2 4 8", "m_list = 4 2")))
    with pytest.raises(ConfigError, match="unknown family"):
        build_sequence(parse_config("[lambda]\nfamily = sine\n"), "lambda")
    with pytest.raises(ConfigError, match="p = 2"):
        SweepConfig.from_raw(
            parse_config(BASIC.replace("r = 2.0", "r = 2.0\ndim = 2").replace("p = 2.0", "p = 3.0"))
        )
    # BASIC opens with a blank line, so "timing = off" is line 11
    for count in ("0", "-1"):
        with pytest.raises(ConfigError, match=r":12: key 'probe_count' in \[sweep\]"):
            SweepConfig.from_raw(
                parse_config(BASIC.replace("timing = off", f"timing = off\nprobe_count = {count}"))
            )
    # bad source and grid values fail at their line: BASIC less its g_count line ends at 10
    for key, value in (("g_count", "-2"), ("oversample", "1"), ("g_bandwidth_factor", "inf"),
                       ("g_bandwidth_factor", "nan"), ("g_bandwidth_factor", "-1")):
        text = BASIC.replace("g_count = 5\n", "") + f"{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf":11: key '{key}' in \[sweep\]: must be"):
            SweepConfig.from_raw(parse_config(text))
    with pytest.raises(ConfigError, match=r":12: key 'k_ot' in \[sweep\]: unknown key"):
        SweepConfig.from_raw(parse_config(BASIC.replace("timing = off", "timing = off\nk_ot = 5")))
    with pytest.raises(ConfigError, match=r":4: key 'c' in \[lambda\]: unknown key"):
        build_sequence(parse_config("[lambda]\nfamily = korobov\nr = 2.0\nc = 0.5\n"), "lambda")
    with pytest.raises(ConfigError, match=r":4: key 'dim' in \[lambda\]: mask_power is one-dim"):
        build_sequence(parse_config("[lambda]\nfamily = mask_power\nr = 1.5\ndim = 2\n"), "lambda")
    with pytest.raises(ConfigError, match=r":3: key 'dim' in \[beta\]: exponent_mask is one-dim"):
        build_sequence(parse_config("[beta]\nfamily = exponent_mask\ndim = 3\ns = 0.5\n"), "beta")
    with pytest.raises(ConfigError, match=r":6: key 'trails' in \[probe\]: unknown key"):
        ProbeConfig.from_raw(
            parse_config("[lambda]\nfamily = korobov\nr = 1.0\n[probe]\nn_list = 10\ntrails = 3\n")
        )
    # each family reads its own keys, and nothing else
    mask = "[lambda]\nfamily = mask_power\nr = 1.5\nprofile = log_damped\nc = 0.5\nbound_c = 2.0\n"
    assert build_sequence(parse_config(mask + "dim = 1\n"), "lambda").r == 1.5
    with pytest.raises(ConfigError, match=r":7: key 's' in \[lambda\]: unknown key"):
        build_sequence(parse_config(mask + "s = 0.5\n"), "lambda")


def test_build_sequence_families():
    cfg = parse_config(
        "[lambda]\nfamily = exponential\ns = 0.5\n"
        "[beta]\nfamily = korobov\nr = 2.0\ntruncate = 6\n"
    )
    lam = build_sequence(cfg, "lambda")
    assert isinstance(lam, Exponential) and lam.s == 0.5
    beta = build_sequence(cfg, "beta")
    assert isinstance(beta, CustomSequence)
    assert float(beta.inv_values(np.array(7))) == 0.0
    assert float(beta.values(np.array(5))) == 25.0


def test_truncate_caps_each_axis_factor():
    cfg = parse_config("[beta]\nfamily = korobov\nr = 2.0\ndim = 2\ntruncate = 3\n")
    beta = build_sequence(cfg, "beta")
    assert isinstance(beta, ProductSequence)
    assert beta.inv_values(np.array([[3, -2], [4, 0], [0, -4]])).tolist() == [1 / 36, 0.0, 0.0]


def test_probe_config():
    cfg = parse_config(
        "[lambda]\nfamily = korobov\nr = 1.0\n"
        "[probe]\nn_list = 10 20\ntrials = 3\nrestarts = 2\nseed = 5\n"
    )
    pc = ProbeConfig.from_raw(cfg)
    assert pc.n_list == (10, 20) and pc.trials == 3
    with pytest.raises(ConfigError, match=">= 10"):
        ProbeConfig.from_raw(
            parse_config("[lambda]\nfamily = korobov\nr = 1.0\n[probe]\nn_list = 5\n")
        )


def test_probe_config_rejects_bad_values_at_their_line():
    head = "[lambda]\nfamily = korobov\nr = 1.0\n[probe]\nn_list = 10\n"
    for key, value in (("trials", "0"), ("restarts", "0"), ("psi_truncation", "-1"),
                       ("c3", "0"), ("c3", "-1"), ("c3", "nan"), ("c3", "inf"),
                       ("growth", "cubic"), ("growth", "table")):
        with pytest.raises(ConfigError, match=rf":6: key '{key}' in \[probe\]: must be"):
            ProbeConfig.from_raw(parse_config(head + f"{key} = {value}\n"))
    edge = "trials = 1\nrestarts = 1\npsi_truncation = 0\ngrowth = log_power\n"
    pc = ProbeConfig.from_raw(parse_config(head + edge))
    assert (pc.trials, pc.restarts, pc.psi_truncation, pc.growth_rule) == (1, 1, 0, "log_power")


def test_sweep_k_out_and_j_max_are_auto_or_positive():
    for key in ("k_out", "j_max"):
        for value in ("0", "-3", "abc", "2.5"):
            with pytest.raises(ConfigError, match=rf":12: key '{key}' in \[sweep\]"):
                SweepConfig.from_raw(
                    parse_config(BASIC.replace("timing = off", f"timing = off\n{key} = {value}"))
                )
    for extra, want in (("k_out = 40\nj_max = auto", (40, None)), ("j_max = 1", (None, 1))):
        cfg = SweepConfig.from_raw(parse_config(BASIC.replace("timing = off", f"timing = off\n{extra}")))
        assert (cfg.K_out, cfg.J_max) == want


# ---------------------------------------------------------------------------
# Rate fitting


def test_fit_rate_synthetic_power():
    ms = [4, 8, 16, 32]
    fit = fit_rate(ms, [m**-2.0 for m in ms], "power")
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rate_synthetic_exponential():
    ms = [4, 8, 16, 32]
    fit = fit_rate(ms, [3.0 * math.exp(-0.5 * m) for m in ms], "exponential")
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rate_excludes_exact_rows():
    fit = fit_rate([2, 4, 8, 16], [0.0, 1e-1, 1e-2, 1e-3], "power")
    assert fit.n_used == 3
    assert "excluded 1" in fit.note
    with pytest.raises(ValueError):
        fit_rate([2, 4], [1.0, 0.5], "power")
    with pytest.raises(ValueError):
        fit_rate([2, 4, 8], [1.0, 0.5, 0.1], "cubic")


# ---------------------------------------------------------------------------
# Output formats


def test_csv_schema_and_roundtrip(tmp_path):
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = run_sweep(cfg)
    text = rows_to_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    back = read_csv_rows(path)
    assert len(back) == len(rows)
    for row, rec in zip(rows, back):
        assert rec["m"] == row.m
        assert rec["error_parseval"] == pytest.approx(row.error_parseval, rel=1e-11)
        assert rec["seconds"] is None


CONFIGS = DATA.parent.parent / "configs"
# (config, recorded CSV): the golden sweeps (d = 1 at p = 2, the d = 2 route,
# the p = 3 quadrature route), then every shipped sweep config
SWEEP_GOLDEN = [
    *((DATA / f"{n}.cfg", DATA / f"{n}.csv") for n in ("golden_sweep", "golden_sweep_d2", "golden_sweep_p3")),
    *((CONFIGS / f"{n}.cfg", DATA / f"shipped_{n}.csv") for n in ("acceptance", "exponential", "korobov_r2")),
]
# (config, recorded CSV) of budget tables whose tail rules the sweeps above do not
# reach: mask power, exponent mask, finite (truncated, d = 2), constant, divergent
EPSILON_GOLDEN = [
    (DATA / f"golden_epsilon_{n}.cfg", DATA / f"golden_epsilon_{n}.csv")
    for n in ("mask", "exponent_mask", "d2_truncated", "constant", "korobov_slow")
]
# the probe golden was recorded before the fit kept its equispaced system;
# two budgets replace it once
PROBE_GOLDEN = [
    (DATA / "golden_probe.cfg", DATA / "golden_probe.csv"),
    (CONFIGS / "probe_lower.cfg", DATA / "shipped_probe_lower.csv"),
]


def test_csv_golden_file():
    for cfg_path, csv_path in SWEEP_GOLDEN:
        text = rows_to_csv_text(run_sweep(SweepConfig.from_raw(load_config(cfg_path))))
        assert text == csv_path.read_text(), csv_path.name
    for cfg_path, csv_path in EPSILON_GOLDEN:
        text = rows_to_csv_text(epsilon_table(SweepConfig.from_raw(load_config(cfg_path))))
        assert text == csv_path.read_text(), csv_path.name


def test_probe_csv_golden_file():
    for cfg_path, csv_path in PROBE_GOLDEN:
        text = probe_rows_to_csv_text(run_probe(ProbeConfig.from_raw(load_config(cfg_path))))
        assert text == csv_path.read_text(), csv_path.name


def test_unicode_path(tmp_path):
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = epsilon_table(cfg)
    path = tmp_path / "résultats-ε.csv"
    emit_csv(rows, path)
    assert read_csv_rows(path)[0]["epsilon"] > 0


def test_plotdata_format():
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = run_sweep(cfg)
    text = plotdata_text(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#") and lines[1].startswith("#")
    for row, line in zip(rows, lines[2:]):
        m, err = line.split()
        assert int(m) == row.m
        assert float(err) == pytest.approx(row.error_parseval, rel=1e-11)


def test_epsilon_table_rows_empty_errors():
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = epsilon_table(cfg)
    assert all(r.error_quadrature is None and r.error_parseval is None for r in rows)
    assert all(r.epsilon > 0 for r in rows)


def test_sweep_determinism_bytes():
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    a = rows_to_csv_text(run_sweep(cfg))
    b = rows_to_csv_text(run_sweep(cfg))
    assert a == b
    cfg2 = SweepConfig.from_raw(parse_config(BASIC), seed_override=999)
    c = rows_to_csv_text(run_sweep(cfg2))
    assert c != a


def test_general_p_rows_leave_parseval_empty():
    cfg = SweepConfig.from_raw(parse_config(BASIC.replace("p = 2.0", "p = 3.0")))
    rows = run_sweep(cfg)
    assert all(r.error_parseval is None for r in rows)
    assert all(r.epsilon_variant == "general_p" for r in rows)
    assert all(r.error_quadrature > 0 for r in rows)


def test_quadrature_clamp_is_logged(caplog):
    # Korobov r = 2: K_out is 637 at m = 8 (no clamp) and 4519 at m = 64,
    # where p != 2 quadrature stops at 4096
    text = BASIC.replace("p = 2.0", "p = 3.0").replace("m_list = 2 4 8", "m_list = 8 64")
    cfg = SweepConfig.from_raw(parse_config(text.replace("g_count = 5", "g_count = 2")))
    quiet = rows_to_csv_text(run_sweep(cfg))
    with caplog.at_level(logging.DEBUG, logger="translates"):
        loud = rows_to_csv_text(run_sweep(cfg))
    assert loud == quiet
    records = [r for r in caplog.records if r.name == "translates"]
    assert len(records) == 1
    m, quad_K, K_out, bound = records[0].args
    assert (m, quad_K, K_out) == (64, 4096, 4519)
    # the bound covers the single-frequency probes' dropped coefficients
    lam = Korobov(2.0)
    for k0 in range(-m, m + 1):
        probe = ClassElement(lam, SpectralFunction.single(k0), 3.0)
        img = spectral_image(probe, lam, m, K_out=K_out)
        ks = img.function.axis_indices()
        assert np.linalg.norm(img.function.values[np.abs(ks) > quad_K]) <= bound
    # alpha = 1 (beta = lambda); max|ghat| = 1 is the probes' one coefficient,
    # which no coefficient of a unit-norm source exceeds
    assert bound == pytest.approx(math.sqrt(lam.inv_tail(quad_K, 2)), rel=1e-12)


def test_alias_truncation_is_logged(caplog, monkeypatch):
    from translates import _alias, experiments

    text = BASIC.replace("r = 2.0", "r = 0.75\ndim = 2").replace("m_list = 2 4 8", "m_list = 2 4")
    cfg = SweepConfig.from_raw(parse_config(text.replace("g_count = 5", "g_count = 2")))
    quiet = rows_to_csv_text(run_sweep(cfg))
    built = []

    def counting(lam, beta, m, K_out=None):
        built.append(m)
        return build_alias_profile(lam, beta, m, K_out=K_out)

    for module in (_alias, experiments):
        monkeypatch.setattr(module, "build_alias_profile", counting)
    with caplog.at_level(logging.DEBUG, logger="translates"):
        loud = rows_to_csv_text(run_sweep(cfg))
    assert loud == quiet
    assert built == [2, 4]  # one alias profile per row serves the probes and the log
    records = [r for r in caplog.records if r.name == "translates"]
    assert [r.args[:2] for r in records] == [(2, 64), (4, 64)]
    m, T, bound = records[1].args
    lam = Korobov(0.75, dimension=2)
    dropped = md_single_frequency_errors_sq(lam, lam, m, T=2000) - md_single_frequency_errors_sq(
        lam, lam, m, T=T
    )
    assert 0 < np.max(dropped) <= bound


class Radial(CoefficientSequence):
    """(1 + |k|_2^2)^(3/2) on Z^2, which is no product over axes."""

    dimension = 2

    def values(self, k):
        return (1.0 + np.sum(np.asarray(k, dtype=float) ** 2, axis=-1)) ** 1.5

    def inv_values(self, k):
        return 1.0 / self.values(k)


def test_non_product_pair_takes_the_fallbacks():
    seq, m = Radial(), 2
    assert seq.axis_factors() is None
    assert box_inv_tail(seq, 3, 2) == math.inf
    box = index_box(m + 256, 2)  # the sup scans a shell 256 wide
    shell = box[np.max(np.abs(box), axis=1) > m]
    assert box_inv_tail(seq, m, math.inf) == np.max(seq.inv_values(shell))
    rep = epsilon_p2_md(seq, seq, m, J_max=4)
    assert rep.truncation_radius == 4 and rep.tail_bound == math.inf and rep.tail_dominated
    # run_sweep has no single-frequency errors here: it probes the edge frequency (m, 0)
    one_row = parse_config(BASIC.replace("m_list = 2 4 8", "m_list = 2"))
    cfg = replace(SweepConfig.from_raw(one_row), lam=seq, beta=seq)
    [row] = run_sweep(cfg)
    sources = _random_sources(cfg, m)
    K = max(4 * m, 32, max(g.bandwidth for g in sources) + 1)
    elems = [ClassElement(seq, g) for g in sources]
    assert row.error_parseval == max(
        approximation_error(e, seq, m, 2.0, "parseval_oracle", K_out=K) for e in elems
    )
    elems.append(ClassElement(seq, SpectralFunction.single((m, 0))))
    assert row.error_quadrature == max(
        approximation_error(e, seq, m, 2.0, "quadrature", K_out=K) for e in elems
    )


def test_alias_profile_rejects_a_non_product_pair():
    seq = Radial()
    with pytest.raises(SequenceError, match="product"):
        build_alias_profile(seq, seq, 2, K_out=40)
    with pytest.raises(SequenceError, match="product"):
        md_single_frequency_errors_sq(seq, seq, 2)


def test_d2_alias_profile_takes_the_default_K_out():
    lam, beta, m = Korobov(2.0, dimension=2), ProductSequence((Korobov(2.0), Korobov(1.0))), 3
    assert default_K_out(lam, beta, m) == 32
    auto, given = build_alias_profile(lam, beta, m), build_alias_profile(lam, beta, m, K_out=32)
    assert auto.K_out == given.K_out and auto.tail_sq == given.tail_sq
    assert np.array_equal(auto.sq_profile, given.sq_profile)


def test_d2_sweep_never_truncates_below_the_source_bandwidth():
    # at m = 4 the sources have bandwidth 8: k_out = 5 would cut their targets
    text = BASIC.replace("r = 2.0", "r = 2.0\ndim = 2").replace("m_list = 2 4 8", "m_list = 4")
    low, edge = (
        run_sweep(SweepConfig.from_raw(parse_config(text.replace("seed", f"k_out = {k}\nseed"))))
        for k in (5, 9)
    )
    assert low == edge


def test_generator_vanishing_in_band_raises_on_the_d2_paths():
    lam = Korobov(2.0, dimension=2)
    beta = ProductSequence((truncated(Korobov(2.0), 1), Korobov(2.0)))  # zero at k_1 = 2
    with pytest.raises(SequenceError, match="vanishes"):
        epsilon_p2_md(lam, beta, 2)
    with pytest.raises(SequenceError, match="vanishes"):
        md_single_frequency_errors_sq(lam, beta, 2)
    one_row = parse_config(BASIC.replace("m_list = 2 4 8", "m_list = 2"))
    with pytest.raises(SequenceError, match="vanishes"):
        run_sweep(replace(SweepConfig.from_raw(one_row), lam=lam, beta=beta))


def _sweep_errors_one_call_each(cfg):
    """(error_quadrature, error_parseval) of each row of run_sweep, with one
    public per-source call for every source and probe and no shared plan."""
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    out = []
    for m in cfg.m_list:
        sources = _random_sources(cfg, m)
        bw = max(g.bandwidth for g in sources)
        if d > 1:
            K = max(4 * m, 32, bw + 1)
            sq = md_single_frequency_errors_sq(lam, beta, m)
            k0 = tuple(int(c) - m for c in np.unravel_index(int(np.argmax(sq)), sq.shape))
            elems = [ClassElement(lam, g, p) for g in sources]
            par = [approximation_error(e, beta, m, p, "parseval_oracle", K_out=K) for e in elems]
            par.append(float(math.sqrt(np.max(sq))))
            elems.append(ClassElement(lam, SpectralFunction.single(k0), p))
            quad = [approximation_error(e, beta, m, p, "quadrature", K_out=K) for e in elems]
        else:
            K_out = max(default_K_out(lam, beta, m), bw + 1)
            K = min(K_out, 131072 if p == 2.0 else max(4096, 16 * m, bw + 1))
            profile = build_alias_profile(lam, beta, m, K_out=K_out)
            if p == 2.0:
                errs = np.sqrt(profile.sq_profile)
                par = [profile.element_error(g) for g in sources] + [float(np.max(errs))]
                probes = [int(np.argmax(errs)) - m]
            else:
                par = []
                probes = [int(i) - m for i in np.argsort(profile.sq_profile)[::-1][:8]]
            elems = [ClassElement(lam, g, p) for g in sources]
            elems += [ClassElement(lam, SpectralFunction.single(k0), p) for k0 in probes]
            quad = [approximation_error(e, beta, m, p, "quadrature", K_out=K) for e in elems]
        out.append((max(quad), max(par) if par else None))
    return out


@pytest.mark.parametrize(
    "lam, p, dim, m_list",
    [
        ("r = 1.0", 2.0, 1, "4 16"),
        ("s = 0.5", 2.0, 1, "4 16"),
        ("r = 2.0", 3.0, 1, "4 16"),
        ("r = 2.0", 2.0, 2, "2 4"),
    ],
)
def test_sweep_plan_equals_one_call_per_source(lam, p, dim, m_list):
    family = "korobov" if lam.startswith("r") else "exponential"
    text = (
        BASIC.replace("family = korobov\nr = 2.0", f"family = {family}\n{lam}\ndim = {dim}")
        .replace("p = 2.0", f"p = {p}")
        .replace("m_list = 2 4 8", f"m_list = {m_list}")
        .replace("g_count = 5", "g_count = 3")
    )
    cfg = SweepConfig.from_raw(parse_config(text))
    rows = run_sweep(cfg)
    assert [(r.error_quadrature, r.error_parseval) for r in rows] == _sweep_errors_one_call_each(cfg)


def test_p2_sweep_row_takes_no_pass_over_the_quadrature_box(monkeypatch):
    # Korobov r = 1 at m = 4, d = 1: the quadrature box has radius 131072 and
    # the sources bandwidth 8; Korobov r = 2 at m = 2, d = 2: radius 32 and
    # bandwidth 4.  Every p = 2 error reads the plan's fold and an image on
    # the source's own box, so no box is wider than 2 bw + 1 per axis; a
    # p = 3 row builds its one quadrature box
    sizes, coefficients = [], ImagePlan.coefficients
    built, build_box = [], ImagePlan._build_box

    def spying(self, g):
        out = coefficients(self, g)
        sizes.append(out.size)
        return out

    def building(self):
        built.append(self.K_out)
        build_box(self)

    monkeypatch.setattr(ImagePlan, "coefficients", spying)
    monkeypatch.setattr(ImagePlan, "_build_box", building)
    for r, dim, m, K_quad in ((1.0, 1, 4, 131072), (2.0, 2, 2, 32)):
        text = BASIC.replace("r = 2.0", f"r = {r}\ndim = {dim}").replace("m_list = 2 4 8", f"m_list = {m}")
        cfg = SweepConfig.from_raw(parse_config(text))
        sizes.clear()
        built.clear()
        [row] = run_sweep(cfg)
        bw = max(g.bandwidth for g in _random_sources(cfg, m))
        K_out = max(default_K_out(cfg.lam, cfg.beta, m), bw + 1)
        assert quadrature_radius(K_out, 2.0, m, bw) == K_quad and bw == 2 * m
        assert built and max(built) <= bw
        assert sizes and max(sizes) <= (2 * bw + 1) ** dim
        assert row.error_quadrature > 0 and row.error_parseval > 0
    text = BASIC.replace("p = 2.0", "p = 3.0").replace("m_list = 2 4 8", "m_list = 4")
    cfg = SweepConfig.from_raw(parse_config(text))
    built.clear()
    run_sweep(cfg)
    bw = max(g.bandwidth for g in _random_sources(cfg, 4))
    assert built == [quadrature_radius(max(default_K_out(cfg.lam, cfg.beta, 4), bw + 1), 3.0, 4, bw)]


def _probes_by_row(monkeypatch, cfg) -> dict:
    """The single-frequency probes of each row of run_sweep, as index tuples
    in the order their quadratures run."""
    from translates import experiments

    elems: dict = {}

    def recording(elem, beta, m, p=None, method="parseval_oracle", **kwargs):
        if method == "quadrature":
            elems.setdefault(m, []).append(elem)
        return approximation_error(elem, beta, m, p, method, **kwargs)

    monkeypatch.setattr(experiments, "approximation_error", recording)
    run_sweep(cfg)
    return {m: [k for e in es[cfg.g_count:] for k, _ in e.g.items()] for m, es in elems.items()}


@pytest.mark.parametrize("p, dim", [(3.0, 1), (2.0, 1), (2.0, 2)])
def test_probe_count_is_honoured_in_every_dimension(monkeypatch, p, dim):
    text = (
        BASIC.replace("r = 2.0", f"r = 2.0\ndim = {dim}")
        .replace("p = 2.0", f"p = {p}")
        .replace("m_list = 2 4 8", "m_list = 4 8" if dim == 1 else "m_list = 2 4")
        .replace("g_count = 5", "g_count = 2")
    )
    lam = Korobov(2.0, dimension=dim)
    for count in ("all", "3", "auto"):
        cfg = SweepConfig.from_raw(parse_config(text.replace("seed", f"probe_count = {count}\nseed")))
        assert cfg.probe_count == {"all": None, "3": 3, "auto": 1 if p == 2.0 else 8}[count]
        for m, probes in _probes_by_row(monkeypatch, cfg).items():
            residues = [tuple(int(c) for c in k) for k in index_box(m, dim).reshape(-1, dim)]
            if count == "all":  # every residue once: 2m+1 probe quadratures at d = 1
                assert len(probes) == (2 * m + 1) ** dim and sorted(probes) == residues
                continue
            if dim == 1:
                K_out = max(default_K_out(lam, lam, m), 2 * m + 1)
                sq = build_alias_profile(lam, lam, m, K_out=K_out).sq_profile
            else:
                sq = md_single_frequency_errors_sq(lam, lam, m)
            # the largest squared errors first, ties in C order (residues is in C order)
            ranked = sorted(range(sq.size), key=lambda i: (-sq.flat[i], i))
            assert probes == [residues[i] for i in ranked[: cfg.probe_count]]


def test_p3_sweep_sources_take_the_real_transform(fft_calls):
    # every source is exactly Hermitian, and so is its error under a symmetric
    # pair: its normalisation and its quadrature sample with irfftn; the
    # single-frequency probes are complex and keep ifftn
    text = (
        BASIC.replace("r = 2.0", "r = 1.0")
        .replace("p = 2.0", "p = 3.0")
        .replace("m_list = 2 4 8", "m_list = 4")
        .replace("g_count = 5", "g_count = 3")
    )
    cfg = SweepConfig.from_raw(parse_config(text))
    assert cfg.probe_count == 8
    run_sweep(cfg)
    assert fft_calls == ["irfftn"] * 3 + ["irfftn"] * 3 + ["ifftn"] * 8


def test_row_dominance_invariant():
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = run_sweep(cfg)
    ok, report = verify_dominance(rows)
    assert ok, report
    for r in rows:
        assert r.error_parseval <= 2.0 * r.epsilon  # triangle-inequality constant


def test_verify_dominance_detects_violation():
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = run_sweep(cfg)
    bad = rows[-1].__class__(**{**rows[-1].__dict__, "error_parseval": 10.0})
    ok, report = verify_dominance(rows[:-1] + [bad])
    assert not ok
    assert any("VIOLATION" in line for line in report)


# ---------------------------------------------------------------------------
# CLI


def test_cli_sweep_and_verify(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(BASIC)
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    assert cli.main(["verify", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_determinism(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(BASIC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_epsilon_and_plot(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(BASIC)
    assert cli.main(["epsilon", "--config", str(cfg_path)]) == 0
    text = capsys.readouterr().out
    assert text.startswith(",".join(CSV_COLUMNS))
    assert ",,," in text  # empty error cells
    assert cli.main(["sweep", "--config", str(cfg_path), "--format", "plot"]) == 0
    assert capsys.readouterr().out.startswith("# sweep family=korobov")


def test_cli_probe_lower(tmp_path, capsys):
    cfg_path = tmp_path / "probe.cfg"
    cfg_path.write_text(
        "[lambda]\nfamily = korobov\nr = 1.0\n"
        "[probe]\nn_list = 10\ntrials = 2\nrestarts = 2\nseed = 4\n"
    )
    assert cli.main(["probe-lower", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    assert header == "n,m,s,omega,statistic,envelope_low,envelope_high,flag"
    fields = row.split(",")
    assert fields[0] == "10" and fields[1] == "24" and fields[2] == "11"
    assert fields[-1].startswith("heuristic")


def test_cli_selftest():
    assert cli.main(["selftest"]) == 0


def test_cli_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[lambda]\nfamily = nope\n")
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(BASIC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["sweep", "--config", str(cfg_path), "--out", str(a), "--seed", "7"])
    cli.main(["sweep", "--config", str(cfg_path), "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_g_file_source(tmp_path):
    # explicit source import through the documented line format
    rng = np.random.default_rng(3)
    from translates.spectral import random_real_spectral

    g = random_real_spectral(1, 6, rng)
    gpath = tmp_path / "source.txt"
    gpath.write_text("\n".join(g.to_lines()) + "\n")
    cfg_text = BASIC + f"g_file = {gpath}\n"
    cfg = SweepConfig.from_raw(parse_config(cfg_text))
    rows = run_sweep(cfg)
    assert len(rows) == 3
    assert all(r.error_parseval is not None for r in rows)
    # same file twice gives identical rows even though g_count is ignored
    again = run_sweep(SweepConfig.from_raw(parse_config(cfg_text)))
    assert rows_to_csv_text(rows) == rows_to_csv_text(again)


@pytest.mark.parametrize(
    "family,key,value",
    [
        ("korobov", "r", 1.0),
        ("korobov", "r", 2.0),
        ("korobov", "r", 3.0),
        ("exponential", "s", 0.5),
        ("exponential", "s", 1.0),
    ],
)
def test_budget_dominance_across_families(family, key, value):
    cfg = SweepConfig.from_raw(
        parse_config(
            f"""
[lambda]
family = {family}
{key} = {value}

[sweep]
p = 2.0
m_list = 4 8 16 32 64 128 256
g_count = 20
seed = 424242
timing = off
"""
        )
    )
    rows = run_sweep(cfg)
    ok, report = verify_dominance(rows, slack=1.10)
    assert ok, report
