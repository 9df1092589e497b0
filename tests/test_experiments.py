import functools
import itertools
import logging
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from translates import cli, spectral
from translates._alias import (
    build_alias_profile,
    default_K_out,
    index_box,
    md_single_frequency_errors_sq,
)
from translates.approximant import (
    ClassElement,
    ImagePlan,
    _radii,
    _single_frequency_errors,
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
    SweepRow,
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
    _load_source,
    _plan_errors,
    _drawn_bandwidth,
    _random_sources,
)
from translates.error_budget import epsilon_general_p, epsilon_p2_md, predicted_rate
from translates.sequences import (
    CoefficientSequence,
    CustomSequence,
    Exponential,
    Korobov,
    ProductSequence,
    SequenceError,
    TailRule,
    box_inv_tail,
    truncated,
)
from translates.spectral import SpectralFunction, _lp_norm_bounds, _smooth_length, random_real_spectral

DATA = Path(__file__).parent / "data"


def _row_sources(cfg, m):
    """The row's random sources, chunked at the row's quadrature radius as ``run_sweep`` draws them."""
    return _random_sources(cfg, m, _radii(cfg.lam, cfg.beta, m, cfg.p, _drawn_bandwidth(cfg, m), cfg.K_out)[1])

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
    # bad source, grid and seed values fail at their line: BASIC less its g_count
    # and seed lines ends at 9
    for key, value in (("g_count", "-2"), ("oversample", "1"), ("g_bandwidth_factor", "inf"),
                       ("g_bandwidth_factor", "nan"), ("g_bandwidth_factor", "-1"), ("seed", "-1")):
        text = BASIC.replace("g_count = 5\n", "").replace("seed = 12345\n", "") + f"{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf":10: key '{key}' in \[sweep\]: must be"):
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
                       ("growth", "cubic"), ("growth", "table"), ("growth_a", "nan"),
                       ("growth_a", "-1"), ("growth_a", "inf"), ("growth_b", "nan"),
                       ("growth_b", "-0.5"), ("growth_b", "inf"), ("seed", "-1")):
        with pytest.raises(ConfigError, match=rf":6: key '{key}' in \[probe\]: must be"):
            ProbeConfig.from_raw(parse_config(head + f"{key} = {value}\n"))
    edge = "trials = 1\nrestarts = 1\npsi_truncation = 0\ngrowth = log_power\ngrowth_a = 0\ngrowth_b = 0\nseed = 0\n"
    pc = ProbeConfig.from_raw(parse_config(head + edge))
    assert (pc.trials, pc.restarts, pc.psi_truncation, pc.growth_rule) == (1, 1, 0, "log_power")
    assert (pc.growth_a, pc.growth_b, pc.seed) == (0.0, 0.0, 0)


@pytest.mark.parametrize("family, key, value", [
    ("korobov", "r", "nan"), ("korobov", "r", "inf"), ("korobov", "dim", "0"),
    ("exponential", "s", "nan"), ("exponential", "dim", "-1"),
    ("constant", "v", "nan"), ("constant", "v", "inf"), ("constant", "dim", "0"),
    ("mask_power", "r", "nan"), ("mask_power", "c", "nan"), ("mask_power", "bound_c", "nan"),
    ("exponent_mask", "s", "nan"), ("exponent_mask", "bound_c", "inf"),
])
def test_sequence_parameters_fail_at_their_line(family, key, value, tmp_path, capsys):
    # r = nan ended deep in a sweep ("coefficients must be finite"), constant
    # with dim = 0 in an IndexError, and bound_c = nan in rows with an infinite
    # budget: each is now a config error at the key's line, in the CLI too
    rate = {"korobov": ("r", 1.5), "exponential": ("s", 0.5), "constant": ("v", 2.0),
            "mask_power": ("r", 1.5), "exponent_mask": ("s", 0.5)}[family]
    params = dict([("family", family), rate, (key, value)])  # a bad rate takes the good one's line
    text = "[lambda]\n" + "".join(f"{k} = {v}\n" for k, v in params.items()) + "[sweep]" + BASIC.split("[sweep]")[1]
    line = 2 + list(params).index(key)
    where = rf":{line}: key '{key}' in \[lambda\]: {'dimension' if key == 'dim' else key} must be"
    with pytest.raises(ConfigError, match=where):
        SweepConfig.from_raw(parse_config(text))
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert f"key '{key}' in [lambda]" in capsys.readouterr().err


@pytest.mark.parametrize("params, key", [
    ({"family": "korobov", "r": "2.0", "truncate": "-1"}, "truncate"),
    ({"family": "exponential", "s": "1.0", "truncate": "800"}, "truncate"),  # e^800 overflows the table
    ({"family": "exponent_mask", "s": "0.5", "profile": "log_damped", "c": "0.5"}, "profile"),
    # a table profile's points are set through the API only
    ({"family": "exponent_mask", "s": "0.5", "profile": "table"}, "profile"),
    ({"family": "mask_power", "r": "1.5", "profile": "table"}, "profile"),
])
def test_sequence_section_errors_name_their_key(params, key, tmp_path, capsys):
    # a bad truncation degree printed a bare "truncation degree must be >= 0",
    # and a rising exponent-type envelope named its section only
    text = "[lambda]\nfamily = korobov\nr = 1.0\n[beta]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    text += "[sweep]" + BASIC.split("[sweep]")[1]
    line = 5 + list(params).index(key)
    with pytest.raises(ConfigError, match=rf"<text>:{line}: key '{key}' in \[beta\]: "):
        SweepConfig.from_raw(parse_config(text))
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert f"bad.cfg:{line}: key '{key}' in [beta]" in capsys.readouterr().err


def test_seed_override_must_be_non_negative(tmp_path, capsys):
    # a negative --seed is a config error that names the flag, in both sections
    # and through the CLI, not numpy's bare "expected non-negative integer"
    probe = "[lambda]\nfamily = korobov\nr = 1.0\n[probe]\nn_list = 10\n"
    for kind, text, command in ((SweepConfig, BASIC, "sweep"), (ProbeConfig, probe, "probe-lower")):
        with pytest.raises(ConfigError, match="--seed must be >= 0, got -3"):
            kind.from_raw(parse_config(text), seed_override=-3)
        assert kind.from_raw(parse_config(text), seed_override=0).seed == 0
        path = tmp_path / f"{command}.cfg"
        path.write_text(text)
        assert cli.main([command, "--config", str(path), "--seed", "-3"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err


def test_probe_config_rejects_a_multivariate_lambda_at_its_line(tmp_path, capsys, monkeypatch):
    text = "[lambda]\nfamily = korobov\nr = 1.0\ndim = 2\n[probe]\nn_list = 10\n"
    with pytest.raises(ConfigError, match=r":4: key 'dim' in \[lambda\]: .*univariate"):
        ProbeConfig.from_raw(parse_config(text))
    # the CLI stops at the config, before it builds a design or draws the family
    monkeypatch.setattr(cli.experiments, "design_for_n", None)
    path = tmp_path / "probe_d2.cfg"
    path.write_text(text)
    assert cli.main(["probe-lower", "--config", str(path)]) == 2
    assert "key 'dim' in [lambda]" in capsys.readouterr().err


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
    # the rows read back are the written rows, each float at the CSV's 12 digits
    at_12_digits = [
        SweepRow(*(float(format(v, ".12g")) if isinstance(v, float) else v for v in astuple(row)))
        for row in rows
    ]
    assert read_csv_rows(path) == at_12_digits
    assert all(row.seconds is None for row in at_12_digits)
    path.write_text(text.rstrip("\n").rsplit(",", 1)[0] + "\n")  # the last row loses a cell
    with pytest.raises(ValueError, match=r"out.csv:4: expected 13 cells"):
        read_csv_rows(path)


CONFIGS = DATA.parent.parent / "configs"
# (config, recorded CSV): the golden sweeps (d = 1 at p = 2, the d = 2 route,
# the p = 3 quadrature route at r = 1 and at r = 2, whose quadrature radius
# is K_out up to m = 32 and below it from m = 64), then every shipped sweep config
SWEEP_GOLDEN = [
    *(
        (DATA / f"{n}.cfg", DATA / f"{n}.csv")
        for n in ("golden_sweep", "golden_sweep_d2", "golden_sweep_p3", "golden_sweep_p3_r2")
    ),
    *((CONFIGS / f"{n}.cfg", DATA / f"shipped_{n}.csv") for n in ("acceptance", "exponential", "korobov_r2")),
]
# (config, recorded CSV) of budget tables whose tail rules the sweeps above do not
# reach: mask power, exponent mask, finite (truncated, d = 2), constant, divergent
EPSILON_GOLDEN = [
    (DATA / f"golden_epsilon_{n}.cfg", DATA / f"golden_epsilon_{n}.csv")
    for n in ("mask", "exponent_mask", "d2_truncated", "constant", "korobov_slow")
]
# the probe golden was recorded before a probe row kept its equispaced system and
# its restarts' work arrays; each row keeps its own, for every trial after the first
PROBE_GOLDEN = [
    (DATA / "golden_probe.cfg", DATA / "golden_probe.csv"),
    (CONFIGS / "probe_lower.cfg", DATA / "shipped_probe_lower.csv"),
]


# a lopsided table (neg is not pos) whose reciprocals rise and fall past |k| = 12,
# so that a short radius ends inside it and its last window does not telescope
_LOPSIDED_P3 = CustomSequence(
    {k: (1.0 + abs(k)) ** (1.5 if k > 0 else 1.2) * (1.0 + 0.5 * (k % 3 == 0)) for k in range(-60, 61)},
    TailRule("power", rate=1.5, scale=1.0),
)


def _walked_by_hand(lam, beta, m, K):
    """(delta_lambda, delta_gamma, tail_bound) of the general-p budget at
    (m, K), each side walked on its own from k = m + 1 to K + 1."""
    from translates._alias import band_arrays
    from translates.error_budget import _comb_l1_tail
    from translates.sequences import two_sided

    def variation(sides, far):
        total = tail = 0.0
        for vals in sides:
            steps = np.diff(vals)
            total += float(np.sum(np.abs(steps)))
            tail += float(vals[-1]) if np.all(steps[-31:] <= 0) else far
        return total, tail

    ks, n = np.arange(m + 1, K + 2), 2 * m + 1
    a = np.abs(band_arrays(lam, beta, m)[2])
    pos, neg = two_sided(beta, ks)
    dl, dl_tail = variation(two_sided(lam, ks), lam.inv_tail(K, 1))
    gammas = (np.resize(a, ks.size) * pos, np.resize(a[::-1], ks.size) * neg)
    dg, dg_tail = variation(gammas, float(np.max(a)) * beta.inv_tail(K, 1))
    if lam.tail_rule().kind == "constant" and lam.tail_rule().radius <= K:
        dl_tail = 0.0
    T, rule = max(1, (K - m) // n), beta.tail_rule()
    ga_tail = float(a[2 * m]) * (_comb_l1_tail(rule, n, m, T) + _comb_l1_tail(rule, n, -m, T))
    return dl, dg, max(dl_tail, dg_tail + ga_tail)


@pytest.mark.parametrize("j_max", [None, 12, 50])
@pytest.mark.parametrize("source", [
    "golden_sweep_p3", "golden_sweep_p3_r2", "golden_epsilon_constant", "golden_epsilon_exponent_mask",
    "golden_epsilon_korobov_slow", "lopsided", "lopsided beta",
])
def test_budget_rows_cut_from_one_walk_equal_one_off_budgets(source, j_max):
    # a p != 2 sweep walks the reciprocals of its m_list once and cuts each row's
    # budget from that walk: every row is epsilon_general_p of its m alone, bit
    # for bit, where K_max changes with m (the exponent mask), beta is not lam
    # (the constant), neg is not pos (the lopsided tables) and j_max is given
    cfg = SweepConfig.from_raw(load_config(DATA / f"{source if 'lopsided' not in source else 'golden_sweep_p3'}.cfg"))
    if source == "lopsided":
        cfg = replace(cfg, lam=_LOPSIDED_P3, beta=_LOPSIDED_P3)
    elif source == "lopsided beta":
        cfg = replace(cfg, beta=_LOPSIDED_P3)
    cfg = replace(cfg, J_max=j_max)
    for row in epsilon_table(cfg):
        alone = epsilon_general_p(cfg.lam, cfg.beta, row.m, K_max=j_max)
        assert repr((row.epsilon, row.epsilon_tail, row.epsilon_variant)) == repr(
            (alone.value, alone.tail_bound, alone.variant)
        )
        # and both are the walk of the row's own k, each side on its own
        terms = alone.components
        got = (terms["delta_lambda_term"], terms["delta_gamma_term"], alone.tail_bound)
        assert repr(got) == repr(_walked_by_hand(cfg.lam, cfg.beta, row.m, alone.truncation_radius))
    rows = run_sweep(replace(cfg, g_count=1, m_list=cfg.m_list[:3]))
    assert [(r.epsilon, r.epsilon_tail) for r in rows] == [(r.epsilon, r.epsilon_tail) for r in epsilon_table(cfg)[:3]]


def test_a_p3_sweep_cuts_every_grid_from_one_buffer(monkeypatch):
    # a warm p = 3 sweep makes one grid buffer, and every L_p grid of its rows
    # (normalisations, bound stacks, class grids, measured sources) is cut from
    # it: the buffer grows only when a stack needs more than any before, to
    # that stack's size, so its final size is its largest stack's
    from translates import experiments

    buffers = []

    class Recording(spectral.GridBuffer):
        def __init__(self):
            super().__init__()
            self.asked, self.sizes = [], []
            buffers.append(self)

        def arrays(self, *layout):
            self.asked.append(sum(math.prod(shape) * np.dtype(kind).itemsize for shape, kind in layout))
            views = super().arrays(*layout)
            self.sizes.append(self.nbytes)
            return views

    cfg = SweepConfig.from_raw(load_config(DATA / "golden_sweep_p3.cfg"))
    rows = run_sweep(cfg)
    monkeypatch.setattr(experiments, "GridBuffer", Recording)
    monkeypatch.setattr(spectral, "GridBuffer", Recording)
    assert run_sweep(cfg) == rows
    assert len(buffers) == 1
    grids = buffers[0]
    assert len(grids.asked) > 3 * len(cfg.m_list)
    assert grids.sizes == list(itertools.accumulate(grids.asked, max))
    assert grids.nbytes == max(grids.asked) and len(set(grids.sizes)) < len(grids.sizes) // 4


def test_csv_golden_file():
    for cfg_path, csv_path in SWEEP_GOLDEN:
        text = rows_to_csv_text(run_sweep(SweepConfig.from_raw(load_config(cfg_path))))
        assert text == csv_path.read_text(), csv_path.name
    for cfg_path, csv_path in EPSILON_GOLDEN:
        text = rows_to_csv_text(epsilon_table(SweepConfig.from_raw(load_config(cfg_path))))
        assert text == csv_path.read_text(), csv_path.name


@pytest.mark.parametrize("csv_path", [c for _, c in SWEEP_GOLDEN if "p3" not in c.stem], ids=lambda c: c.stem)
def test_p2_rows_sit_above_the_n_width(csv_path):
    # Q_m has rank n = (2m+1)^d, so E_m >= d_n, the linear n-width of the class
    # ball in L2: the (n+1)-th largest |lam_k^{-1}|.  A row's error is a sampled
    # max under E_m, so this holds as measured, not proved; the slack covers the
    # CSV's 12 digits (the Exponential rows at m >= 32 equal the width to them).
    for r in read_csv_rows(csv_path):
        n, m, x = r.n_translates, r.m, r.param
        if r.d == 1:
            width = (m + 1) ** -x if r.family == "korobov" else math.exp(-x * (m + 1))
        else:  # the Korobov product, from a sorted box
            assert (r.family, r.d) == ("korobov", 2)
            axis = np.maximum(np.abs(np.arange(-n, n + 1)), 1.0) ** -x
            width = np.sort(np.outer(axis, axis), axis=None)[-n - 1]
            assert width >= (n + 1) ** -x  # every index outside the box is below it
        assert r.p == 2.0 and width <= r.error_parseval * (1 + 1e-11), m


def test_probe_csv_golden_file():
    for cfg_path, csv_path in PROBE_GOLDEN:
        text = probe_rows_to_csv_text(run_probe(ProbeConfig.from_raw(load_config(cfg_path))))
        assert text == csv_path.read_text(), csv_path.name


def test_unicode_path(tmp_path):
    cfg = SweepConfig.from_raw(parse_config(BASIC))
    rows = epsilon_table(cfg)
    path = tmp_path / "résultats-ε.csv"
    emit_csv(rows, path)
    assert read_csv_rows(path)[0].epsilon > 0


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
    # a row prints its error_parseval, else its error_quadrature, else its epsilon
    p2 = SweepRow("korobov", 1, 2.0, 1.0, 4, 9, 0.25, 0.125, 0.5, 0.0625, "p2_univariate", 0.2, None)
    p3 = replace(p2, p=3.0, error_parseval=None, epsilon_variant="general_p")
    head = "# sweep family=korobov d=1 p={} param=1\n# columns: m error\n"
    assert plotdata_text([p2]) == head.format(2) + "4 0.125\n"
    assert plotdata_text([p3]) == head.format(3) + "4 0.25\n"
    assert plotdata_text([replace(p3, error_quadrature=None)]) == head.format(3) + "4 0.5\n"


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
    walk = [r for r in caplog.records if r.name == "translates" and "alias walk" in r.msg]
    assert len(walk) == 1 and walk[0].args[0] == 2  # one fold a row, at its quadrature radius
    records = [r for r in caplog.records if r.name == "translates" and "quadrature radius" in r.msg]
    assert len(records) == 1
    m, quad_K, K_out, bound, sup = records[0].args
    assert (m, quad_K, K_out) == (64, 4096, 4519)
    # both bounds cover the single-frequency probes' dropped coefficients: the
    # l2 bound their l2 norm, the l1 bound their l1 norm, which bounds the sup
    # norm and so the L_3 norm of the dropped part
    lam = Korobov(2.0)
    for k0 in range(-m, m + 1):
        probe = ClassElement(lam, SpectralFunction.single(k0), 3.0)
        img = spectral_image(probe, lam, m, K_out=K_out)
        dropped = img.function.values[np.abs(img.function.axis_indices()) > quad_K]
        assert np.linalg.norm(dropped) <= bound
        assert np.sum(np.abs(dropped)) <= sup
    # alpha = 1 (beta = lambda); max|ghat| = 1 is the probes' one coefficient,
    # which no coefficient of a unit-norm source exceeds
    assert bound == pytest.approx(math.sqrt(lam.inv_tail(quad_K, 2)), rel=1e-12)
    assert sup == pytest.approx(lam.inv_tail(quad_K, 1), rel=1e-12)  # 4.9e-4
    assert "sup norm <= 4.883e-04" in records[0].getMessage()
    # Korobov r = 1: the l1 tail of beta^{-1} diverges, so at p = 3 no finite
    # bound covers the L_3 norm the clamp to 4096 drops
    caplog.clear()
    text = BASIC.replace("r = 2.0", "r = 1.0").replace("p = 2.0", "p = 3.0")
    cfg = SweepConfig.from_raw(parse_config(text.replace("m_list = 2 4 8", "m_list = 4")))
    quiet = rows_to_csv_text(run_sweep(cfg))
    with caplog.at_level(logging.DEBUG, logger="translates"):
        loud = rows_to_csv_text(run_sweep(cfg))
    assert loud == quiet
    [record] = [r for r in caplog.records if r.name == "translates" and "quadrature radius" in r.msg]
    assert record.args[:2] == (4, 4096) and len(record.args) == 4
    assert "no finite bound" in record.getMessage()


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
    sources = _row_sources(cfg, m)
    K = max(4 * m, 32, max(g.bandwidth for g in sources) + 1)
    elems = [ClassElement(seq, g) for g in sources]
    assert row.error_parseval == max(
        approximation_error(e, seq, m, K_out=K) for e in elems
    )
    elems.append(ClassElement(seq, SpectralFunction.single((m, 0))))
    assert row.error_quadrature == max(
        approximation_error(e, seq, m, K_out=K) for e in elems
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


def test_p2_sweep_of_a_complex_pair_predicts_nothing():
    # the nondecreasing-type probes cannot order complex values: a complex beta
    # (d = 1) or lam (d = 2) leaves the prediction empty instead of failing the sweep
    cplx = CustomSequence({k: max(abs(k), 1) ** 2 * complex(np.exp(0.3j * k)) for k in range(-6, 7)},
                          TailRule("power", rate=2.0))
    text = BASIC.replace("m_list = 2 4 8", "m_list = 2 4")
    for dim, lam, beta in ((1, Korobov(2.0), cplx), (2, ProductSequence((cplx, Korobov(2.0))), Korobov(2.0, 2))):
        cfg = SweepConfig.from_raw(parse_config(text.replace("r = 2.0", f"r = 2.0\ndim = {dim}")))
        rows = run_sweep(replace(cfg, lam=lam, beta=beta))
        assert [r.m for r in rows] == [2, 4]
        assert all(r.predicted is None and r.error_parseval > 0 for r in rows)
        assert "complex" in predicted_rate(lam, beta, 2.0).reason


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
    """Per row of run_sweep: the quadrature errors of every source and probe
    and the oracle errors, each from one public per-source call with no
    shared plan and no bound, and the number of sources."""
    lam, beta, p, d = cfg.lam, cfg.beta, cfg.p, cfg.dimension
    out = []
    for m in cfg.m_list:
        sources = [_load_source(cfg)] if cfg.g_file else _row_sources(cfg, m)
        bw = max((g.bandwidth for g in sources), default=m)
        if d > 1:
            K_out = K = max(4 * m, 32, bw + 1)
            sq = md_single_frequency_errors_sq(lam, beta, m)
        else:
            K_out = max(default_K_out(lam, beta, m), bw + 1)
            K = min(K_out, 131072 if p == 2.0 else max(4096, 16 * m, bw + 1))
            profile = build_alias_profile(lam, beta, m, K_out=K_out)
            sq = profile.sq_profile
        ranked = sorted(range(sq.size), key=lambda i: (-sq.flat[i], i))[: cfg.probe_count]
        probes = [tuple(int(c) - m for c in np.unravel_index(i, sq.shape)) for i in ranked]
        elems = [ClassElement(lam, g, p) for g in sources]
        quad = [approximation_error(e, beta, m, K_out=K) for e in elems]
        par = []
        if p == 2.0:
            if d > 1:
                par = [approximation_error(e, beta, m, K_out=K) for e in elems]
            else:
                par = [profile.element_error(g) for g in sources]
            par.append(float(math.sqrt(sq.flat[ranked[0]])))
            elems = [ClassElement(lam, SpectralFunction.single(k0), p) for k0 in probes]
            quad += [approximation_error(e, beta, m, K_out=K) for e in elems]
        else:  # each probe on its class grid, cut at the same K
            quad += [_single_frequency_errors(lam, beta, m, [k0], p, K)[0] for k0 in probes]
        out.append((quad, par, len(sources)))
    return out


def _case(lam, p, dim, m_list, sweep="", note=""):
    return pytest.param(lam, p, dim, m_list, sweep, id="-".join(filter(None, (lam, str(p), str(dim), m_list, note))))


@pytest.mark.parametrize(
    "lam, p, dim, m_list, sweep",
    [
        _case("r = 1.0", 2.0, 1, "4 16"),
        _case("s = 0.5", 2.0, 1, "4 16"),
        _case("r = 2.0", 3.0, 1, "4 16"),
        _case("r = 2.0", 2.0, 2, "2 4"),
        _case("r = 1.0", 3.0, 1, "4", "seed = 224", "a source is the row max"),
        _case("r = 1.0", 3.0, 1, "2", "seed = 0\ng_count = 20", "the bounds leave three sources"),
        _case("r = 2.0", 1.5, 1, "4 16", "", "the bound is l2 alone"),
        _case("r = 2.0", 5.0, 1, "4 16", "", "the HY bound"),
        _case("r = 2.0", 3.0, 1, "4 16", "g_count = 0", "no source"),
        _case("r = 2.0", 2.0, 1, "4 16", "g_count = 0", "no source"),
        _case("r = 2.0", 3.0, 1, "4 16", "g_file", "g_file"),
    ],
)
def test_sweep_plan_equals_one_call_per_source(tmp_path, lam, p, dim, m_list, sweep):
    family = "korobov" if lam.startswith("r") else "exponential"
    text = (
        BASIC.replace("family = korobov\nr = 2.0", f"family = {family}\n{lam}\ndim = {dim}")
        .replace("p = 2.0", f"p = {p}")
        .replace("m_list = 2 4 8", f"m_list = {m_list}")
        .replace("g_count = 5", "g_count = 3")
    )
    if sweep == "g_file":
        gpath = tmp_path / "source.txt"
        g = random_real_spectral(1, 6, np.random.default_rng(3))
        gpath.write_text("\n".join(g.to_lines()) + "\n")
        sweep = f"g_file = {gpath}"
    for line in filter(None, sweep.split("\n")):  # replaces the key BASIC sets, if it does
        key = line.split(" = ")[0]
        text = "\n".join(ln for ln in text.split("\n") if not ln.startswith(key + " ")) + line + "\n"
    cfg = SweepConfig.from_raw(parse_config(text))
    rows = run_sweep(cfg)
    want = _sweep_errors_one_call_each(cfg)
    assert [(r.error_quadrature, r.error_parseval) for r in rows] == [
        (max(quad), max(par) if par else None) for quad, par, _ in want
    ]
    if sweep.startswith("seed = 224"):
        [(quad, _, n)] = want
        assert max(quad[:n]) > max(quad[n:])
    if sweep.startswith("g_count = 0"):
        assert all(n == 0 for _, _, n in want)


@pytest.mark.parametrize("family", ["korobov\nr = 1.0", "exponential\ns = 0.5"])
def test_p2_row_columns_equal_fresh_one_off_errors(monkeypatch, family):
    # each source's two p = 2 errors share its source-box term (one image on
    # its own box a source), and each equals the one a fresh one-off call
    # gives: approximation_error at the row's quad_K, element_error of a
    # fresh profile at its K_out, bit for bit
    from translates import _alias, approximant, experiments

    calls = []

    def recording(kind, fn):
        def call(*args, **kwargs):
            value = fn(*args, **kwargs)
            calls.append((kind, args, kwargs, value))
            return value

        return call

    monkeypatch.setattr(experiments, "approximation_error", recording("quad", approximation_error))
    monkeypatch.setattr(_alias.AliasProfile, "element_error", recording("par", _alias.AliasProfile.element_error))
    monkeypatch.setattr(approximant, "spectral_image", recording("image", approximant.spectral_image))
    cfg = SweepConfig.from_raw(parse_config(BASIC.replace("korobov\nr = 2.0", family)))
    rows = run_sweep(cfg)
    monkeypatch.undo()
    # a row, in the order the calls return: each source's image on its own
    # box inside its first error, its two errors, then the one probe's error
    assert [kind for kind, *_ in calls] == (["image", "quad", "par"] * cfg.g_count + ["quad"]) * len(rows)
    for kind, args, kwargs, value in calls:
        if kind == "quad":
            elem, beta, m = args
            fresh = approximation_error(elem, beta, m, K_out=kwargs["plan"].K_out)
        elif kind == "par":
            profile, g = args
            fresh = build_alias_profile(profile.lam, profile.beta, profile.m, K_out=profile.K_out).element_error(g)
        else:
            continue
        assert value == fresh


def test_p6_sweep_equals_an_all_measured_one(monkeypatch):
    # the Hausdorff-Young bound rules sources out at p > 4, where no bound did
    # before, and the rows stay those of a sweep that measures every source
    from translates import experiments

    measured = []

    def recording(*args, **kwargs):
        measured.append(1)
        return approximation_error(*args, **kwargs)

    text = BASIC.replace("p = 2.0", "p = 6.0").replace("m_list = 2 4 8", "m_list = 4 8 16").replace("g_count = 5", "g_count = 6")
    cfg = SweepConfig.from_raw(parse_config(text))
    monkeypatch.setattr(experiments, "approximation_error", recording)
    rows = run_sweep(cfg)
    pruned = len(measured)
    assert pruned < 3 * cfg.g_count
    monkeypatch.setattr(experiments, "_lp_norm_bounds", lambda v, p, **kw: [math.inf] * len(v))
    assert run_sweep(cfg) == rows and len(measured) == pruned + 3 * cfg.g_count


def test_general_p_row_checks_each_measured_source_against_its_bound(monkeypatch):
    # a bound that does not bound stops the sweep instead of dropping a source
    from translates import experiments

    monkeypatch.setattr(experiments, "_lp_norm_bounds", lambda v, p, **kw: [0.5 * b for b in _lp_norm_bounds(v, p, **kw)])
    text = BASIC.replace("p = 2.0", "p = 3.0").replace("m_list = 2 4 8", "m_list = 4")
    with pytest.raises(RuntimeError, match="above its bound"):
        run_sweep(SweepConfig.from_raw(parse_config(text)))


@pytest.mark.parametrize("p, dim", [(2.0, 1), (3.0, 1), (2.0, 2), (3.0, 2)])
@pytest.mark.parametrize("g_count", [0, 1, 20])
def test_random_sources_equal_one_draw_and_norm_each(p, dim, g_count):
    # the sources are drawn one by one from the row's stream and normalised
    # together, in chunks at p != 2 (at m = 256, d = 1 and at m = 4, d = 2 the
    # last chunk is partial): each equals random_real_spectral's draw
    # normalised alone, bit for bit
    text = BASIC.replace("r = 2.0", f"r = 2.0\ndim = {dim}").replace("g_count = 5", f"g_count = {g_count}")
    cfg = replace(SweepConfig.from_raw(parse_config(text)), p=p)
    for m in (4, 256) if dim == 1 else (2, 4):
        rng = np.random.default_rng([cfg.seed, m])
        # random_real_spectral normalises on lp_norm's default grid, spectral.OVERSAMPLE, the config's
        want = [random_real_spectral(dim, 2 * m, rng, normalize_p=p) for _ in range(g_count)]
        got = _row_sources(cfg, m)
        assert len(got) == g_count
        assert all(np.array_equal(g.values.view(np.int64), w.values.view(np.int64)) for g, w in zip(got, want))


def test_stacked_bounds_need_no_more_memory_than_one_source():
    # a p = 3 row bounds its sources in chunks whose grid has no more points
    # than the row's full quadrature grid (K = 4096: three L4 grids of 16875
    # points in 65610), on the kept grid arrays, so the row's error stage with
    # 20 sources peaks where the one with 1 source does: at its measured
    # source's full grid
    import tracemalloc

    text = BASIC.replace("r = 2.0", "r = 1.0").replace("p = 2.0", "p = 3.0").replace("g_count = 5", "g_count = 20")
    cfg = SweepConfig.from_raw(parse_config(text))
    m, K = 16, 4096
    sources = _row_sources(cfg, m)

    def peak(n):
        plan = ImagePlan(cfg.lam, cfg.beta, m, K)
        plan.index  # the plan's box is built before the stage
        tracemalloc.start()
        try:
            _plan_errors(cfg, plan, sources[:n], [])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20) <= 1.25 * peak(1)


def test_general_p_row_errors_in_d2_equal_one_call_per_source():
    # a sweep rejects d = 2 at p != 2 (its budget is univariate), but the
    # row's error stage is d-generic: its max is that of one call per source
    # and per probe at d = 2, p = 3 too
    text = BASIC.replace("r = 2.0", "r = 2.0\ndim = 2").replace("g_count = 5", "g_count = 3")
    cfg = replace(SweepConfig.from_raw(parse_config(text)), p=3.0, probe_count=8)
    for m in (2, 4):
        sources = _row_sources(cfg, m)
        bw = max(g.bandwidth for g in sources)
        K = max(4 * m, 32, bw + 1)
        sq = md_single_frequency_errors_sq(cfg.lam, cfg.beta, m)
        ranked = sorted(range(sq.size), key=lambda i: (-sq.flat[i], i))[:8]
        probes = [tuple(int(c) - m for c in np.unravel_index(i, sq.shape)) for i in ranked]
        want = [approximation_error(ClassElement(cfg.lam, g, 3.0), cfg.beta, m, K_out=K) for g in sources]
        want += [_single_frequency_errors(cfg.lam, cfg.beta, m, [k0], 3.0, K)[0] for k0 in probes]
        assert max(_plan_errors(cfg, ImagePlan(cfg.lam, cfg.beta, m, K), sources, probes)) == max(want)


def test_p2_sweep_row_takes_no_pass_over_the_quadrature_box(monkeypatch):
    # Korobov r = 1 at m = 4, d = 1: the quadrature box has radius 131072 and
    # the sources bandwidth 8; Korobov r = 2 at m = 2, d = 2: radius 32 and
    # bandwidth 4.  Every p = 2 error reads the plan's fold and an image on
    # the source's own box, so no box is wider than 2 bw + 1 per axis; a
    # p = 3 row builds its one quadrature box
    sizes, coefficients = [], ImagePlan.coefficients
    built, build_box = [], ImagePlan.__dict__["_arrays"].func

    def spying(self, g):
        out = coefficients(self, g)
        sizes.append(out.size)
        return out

    def building(self):
        built.append(self.K_out)
        return build_box(self)

    arrays = functools.cached_property(building)
    arrays.__set_name__(ImagePlan, "_arrays")
    monkeypatch.setattr(ImagePlan, "coefficients", spying)
    monkeypatch.setattr(ImagePlan, "_arrays", arrays)
    for r, dim, m, K_quad in ((1.0, 1, 4, 131072), (2.0, 2, 2, 32)):
        text = BASIC.replace("r = 2.0", f"r = {r}\ndim = {dim}").replace("m_list = 2 4 8", f"m_list = {m}")
        cfg = SweepConfig.from_raw(parse_config(text))
        sizes.clear()
        built.clear()
        [row] = run_sweep(cfg)
        bw = max(g.bandwidth for g in _row_sources(cfg, m))
        K_out = max(default_K_out(cfg.lam, cfg.beta, m), bw + 1)
        assert quadrature_radius(K_out, 2.0, m, bw) == K_quad and bw == 2 * m
        assert built and max(built) <= bw
        assert sizes and max(sizes) <= (2 * bw + 1) ** dim
        assert row.error_quadrature > 0 and row.error_parseval > 0
    text = BASIC.replace("p = 2.0", "p = 3.0").replace("m_list = 2 4 8", "m_list = 4")
    cfg = SweepConfig.from_raw(parse_config(text))
    built.clear()
    run_sweep(cfg)
    bw = max(g.bandwidth for g in _row_sources(cfg, 4))
    assert built == [quadrature_radius(max(default_K_out(cfg.lam, cfg.beta, 4), bw + 1), 3.0, 4, bw)]


def test_p2_sweep_row_builds_one_plan_on_the_sources_box(monkeypatch):
    # the profile's element errors and the row plan's quadrature errors share
    # one image plan on the sources' own box of radius bw = 2m a row
    built, init = [], ImagePlan.__init__

    def recording(self, lam, beta, m, K_out, *args, **kwargs):
        built.append((m, K_out))
        init(self, lam, beta, m, K_out, *args, **kwargs)

    monkeypatch.setattr(ImagePlan, "__init__", recording)
    for family in ("korobov\nr = 1.0", "korobov\nr = 2.0", "exponential\ns = 0.5"):
        cfg = SweepConfig.from_raw(parse_config(BASIC.replace("korobov\nr = 2.0", family)))
        built.clear()
        run_sweep(cfg)
        assert [m for m, K in built if K == 2 * m] == list(cfg.m_list)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sweep_walks_the_alias_blocks_once(monkeypatch, p):
    # one alias_folds walk before the first row gives every row's profile
    # fold and, at p = 2, its row plan's fold at quad_K; no row walks again
    from translates import _alias

    walks, folds = [], _alias.alias_folds

    def walking(lam, beta, pairs):
        walks.append(list(pairs))
        return folds(lam, beta, pairs)

    monkeypatch.setattr(_alias, "alias_folds", walking)
    text = BASIC.replace("r = 2.0", "r = 1.0").replace("p = 2.0", f"p = {p}")
    cfg = SweepConfig.from_raw(parse_config(text))
    run_sweep(cfg)
    [pairs] = walks
    for m in cfg.m_list:
        K_out = default_K_out(cfg.lam, cfg.beta, m)
        quad_K = quadrature_radius(K_out, p, m, 2 * m)
        n = 2 * m + 1
        whole = n * -(-(K_out - m) // n) + m if p == 2.0 else n * -(-(quad_K - m) // n) + m
        assert [K for mm, K in pairs if mm == m] == ([quad_K, whole] if p == 2.0 else [whole])


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sweep_folds_die_with_the_sweep(monkeypatch, p):
    # the folds of a sweep's walk live in that sweep: once run_sweep returns,
    # nothing holds them (no module keeps them for the next sweep)
    import weakref

    from translates import _alias

    refs, folds = [], _alias.alias_folds

    def walking(lam, beta, pairs):
        out = folds(lam, beta, pairs)
        refs.extend(weakref.ref(fold) for fold, _ in out)
        return out

    monkeypatch.setattr(_alias, "alias_folds", walking)
    text = BASIC.replace("r = 2.0", "r = 1.0").replace("p = 2.0", f"p = {p}")
    rows = run_sweep(SweepConfig.from_raw(parse_config(text)))
    assert len(rows) == 3 and len(refs) == (6 if p == 2.0 else 3)
    assert all(ref() is None for ref in refs)


def test_profile_takes_the_same_bits_with_or_without_the_sweeps_folds():
    # a fold found in the sweep's map is the one the profile takes, and it is
    # the fold the profile walks without the map; a radius the map lacks is
    # walked as without it
    from translates._alias import fold_map, whole_blocks

    lam, beta = Korobov(1.0), Korobov(2.0)
    folds = fold_map(lam, beta, [(4, whole_blocks(4, 5000)), (8, 333)])
    g = random_real_spectral(1, 8, np.random.default_rng(27))
    for m, K_out, found in ((4, 5000, True), (4, 700, False), (8, 333, False)):
        kept = build_alias_profile(lam, beta, m, K_out=K_out, folds=folds)
        own = build_alias_profile(lam, beta, m, K_out=K_out)
        assert (kept.sq_profile is folds.get((m, kept.K_out), [None])[0]) == found
        assert np.array_equal(kept.sq_profile.view(np.int64), own.sq_profile.view(np.int64))
        assert (kept.K_out, kept.tail_sq) == (own.K_out, own.tail_sq)
        assert kept.element_error(g) == own.element_error(g)


def _sweeps_in_threads(cfgs) -> None:
    """Sweep each config 50 times in its own thread (more threads than cores,
    switched often) and check every pass against its serial rows."""
    import sys
    import threading

    want = [rows_to_csv_text(run_sweep(cfg)) for cfg in cfgs]
    got = [[] for _ in cfgs]

    def sweeping(i):
        for _ in range(50):
            got[i].append(rows_to_csv_text(run_sweep(cfgs[i])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweeping, args=(i,)) for i in range(len(cfgs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 50 for w in want]


def test_sweeps_in_threads_read_only_their_own_folds():
    # every sweep holds the folds of its own walk and hands them to its rows,
    # so two configs with the same radii (k_out = 200), each swept in two
    # threads, give their serial rows
    text = BASIC.replace("g_count = 5", "g_count = 1\nk_out = 200")
    cfgs = [SweepConfig.from_raw(parse_config(text.replace("r = 2.0", f"r = {r}"))) for r in (1.0, 3.0)]
    _sweeps_in_threads(cfgs * 2)


def test_p3_sweeps_in_threads_keep_their_own_grids():
    # the stacks of a loop share the grid arrays that loop holds, so p = 3
    # sweeps of equal grid sizes, each config in two threads, give their
    # serial rows (with one kept grid per process the errors of one thread
    # were read from another's grid, and a row stopped with an error above
    # its bound)
    text = BASIC.replace("p = 2.0", "p = 3.0").replace("m_list = 2 4 8", "m_list = 4 8")
    text = text.replace("g_count = 5", "g_count = 2\nk_out = 200")
    cfgs = [SweepConfig.from_raw(parse_config(text.replace("r = 2.0", f"r = {r}"))) for r in (1.0, 2.0)]
    _sweeps_in_threads(cfgs * 2)


def _probes_by_row(monkeypatch, cfg) -> dict:
    """The single-frequency probes of each row of run_sweep, as index tuples
    in the order their quadratures run: after the sources on the row's plan
    at p = 2, each on its class grid (``_single_frequency_errors``) otherwise."""
    from translates import experiments

    elems: dict = {}
    singles: dict = {}

    def recording(elem, beta, m, **kwargs):
        elems.setdefault(m, []).append(elem)
        return approximation_error(elem, beta, m, **kwargs)

    def on_class(lam, beta, m, k0s, *args):
        singles.setdefault(m, []).extend(tuple(np.atleast_1d(k0)) for k0 in k0s)
        return _single_frequency_errors(lam, beta, m, k0s, *args)

    monkeypatch.setattr(experiments, "approximation_error", recording)
    monkeypatch.setattr(experiments, "_single_frequency_errors", on_class)
    run_sweep(cfg)
    if cfg.p != 2.0:  # sources only: those the bound could not rule out, at least one a row
        for m in cfg.m_list:
            sources = _row_sources(cfg, m)
            assert elems[m] and all(any(np.array_equal(e.g.values, g.values) for g in sources) for e in elems[m])
        return singles
    assert not singles
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


def test_general_p_row_ranks_its_probes_at_the_quadrature_radius(monkeypatch):
    # a p != 2 row reads only the probe ranking of its alias profile, so the
    # profile stops at the whole blocks covering the row's quadrature radius
    # (Korobov r = 1 walked to K_out = 2^21 before); the ranking is the one
    # at default_K_out for every shipped p = 3 family
    from translates import experiments

    built = {}

    def building(lam, beta, m, K_out=None, **kwargs):
        profile = build_alias_profile(lam, beta, m, K_out=K_out, **kwargs)
        built[m] = profile.K_out
        return profile

    monkeypatch.setattr(experiments, "build_alias_profile", building)
    for family in ("korobov\nr = 1.0", "korobov\nr = 2.0", "exponential\ns = 0.5"):
        text = (
            BASIC.replace("korobov\nr = 2.0", family)
            .replace("p = 2.0", "p = 3.0")
            .replace("m_list = 2 4 8", "m_list = 4 8 16 32 64 128 256")
            .replace("g_count = 5", "g_count = 1")
        )
        cfg = SweepConfig.from_raw(parse_config(text))
        built.clear()
        probes = _probes_by_row(monkeypatch, cfg)
        assert sorted(probes) == sorted(built) == list(cfg.m_list)
        for m in cfg.m_list:
            bw = max(g.bandwidth for g in _row_sources(cfg, m))
            K_out = max(default_K_out(cfg.lam, cfg.beta, m), bw + 1)
            quad_K = quadrature_radius(K_out, 3.0, m, bw)
            assert quad_K <= built[m] <= quad_K + 2 * m
            sq = build_alias_profile(cfg.lam, cfg.beta, m, K_out=default_K_out(cfg.lam, cfg.beta, m)).sq_profile
            ranked = sorted(range(sq.size), key=lambda i: (-sq.flat[i], i))[: cfg.probe_count]
            assert probes[m] == [(i - m,) for i in ranked]
        if family.endswith("r = 1.0"):
            assert default_K_out(cfg.lam, cfg.beta, 4) == 2**21 and max(built.values()) <= 4096 + 2 * 256


def test_p3_sweep_sources_take_the_real_transform(fft_calls):
    # every source is exactly Hermitian, and so is its error under a symmetric
    # pair: the normalisations take one stacked irfftn on the sources' grid,
    # the bounds one stacked irfftn on the oversample-2 grid of the radius
    # K = 4096 (three of those fit in the points of the full grid), and the
    # source with the largest bound one irfftn on the full grid, as the probes
    # beat the other bounds here.  The single-frequency probes are complex and
    # keep ifftn, on their residue classes' grids of at least 2048 points, not
    # on the full one: all 8 share T and take stacks of 3, 3 and 2, as three
    # complex class grids fit in the bytes of the full real grid
    text = (
        BASIC.replace("r = 2.0", "r = 1.0")
        .replace("p = 2.0", "p = 3.0")
        .replace("m_list = 2 4 8", "m_list = 4")
        .replace("g_count = 5", "g_count = 3")
    )
    cfg = SweepConfig.from_raw(parse_config(text))
    assert cfg.probe_count == 8
    run_sweep(cfg)
    assert fft_calls == ["irfftn"] * 3 + ["ifftn"] * 3
    m, K, bw = 4, 4096, 8
    source_grid = _smooth_length(8 * (2 * bw + 1))  # 144
    bound_grid = _smooth_length(2 * (2 * K + 1))  # 16875
    full = _smooth_length(8 * (2 * K + 1))  # 65610
    assert fft_calls.shapes[:3] == [(3, source_grid), (3, bound_grid), (1, full)]
    T = (K + m) // (2 * m + 1)  # the widest class box of a band frequency
    class_grid = _smooth_length(max(8 * (2 * T + 1), 2048))  # 7290
    assert fft_calls.shapes[3:] == [(3, class_grid), (3, class_grid), (2, class_grid)]
    assert 3 * 40 * class_grid <= 16 * full < 4 * 40 * class_grid  # bytes a point: 40 complex, 16 real


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


def test_cli_verify_fails_on_a_table_with_no_error(tmp_path, capsys):
    # an epsilon table carries no error: verify compares nothing, so it must not pass
    cfg_path, csv_path = tmp_path / "sweep.cfg", tmp_path / "eps.csv"
    cfg_path.write_text(BASIC)
    assert cli.main(["epsilon", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
    assert cli.main(["verify", str(csv_path)]) == 1
    out = capsys.readouterr().out
    assert "no row carries an error value" in out and "dominance check: FAIL" in out
    # errors of exactly 0 are carried, and 0 <= C eps passes
    lines = csv_path.read_text().splitlines()
    col = CSV_COLUMNS.index("error_parseval")
    zeroed = [",".join(f[:col] + ["0"] + f[col + 1 :]) for f in (line.split(",") for line in lines[1:])]
    csv_path.write_text("\n".join(lines[:1] + zeroed) + "\n")
    assert cli.main(["verify", str(csv_path)]) == 0
    assert "dominance check: PASS" in capsys.readouterr().out
    # at r = 0.5 every budget is the partial sum of a divergent series (an
    # infinite epsilon_tail): no row is compared, although m = 2's error
    # 2.345 lies above its epsilon 2.285
    cfg_path.write_text(BASIC.replace("r = 2.0", "r = 0.5").replace("2 4 8", "2 4")
                        .replace("g_count = 5", "g_count = 1").replace("12345", "3"))
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
    rows = read_csv_rows(csv_path)
    assert [r.epsilon_tail for r in rows] == [math.inf] * 2 and rows[0].error_parseval > rows[0].epsilon
    assert cli.main(["verify", str(csv_path)]) == 1
    out = capsys.readouterr().out
    assert "no row has a finite budget: nothing was compared" in out and "dominance check: FAIL" in out


def test_cli_probe_lower(tmp_path, capsys):
    cfg_path = tmp_path / "probe.cfg"
    cfg_path.write_text(
        "[lambda]\nfamily = korobov\nr = 1.0\n"
        "[probe]\nn_list = 10\ntrials = 2\nrestarts = 2\nseed = 4\n"
    )
    with pytest.raises(SystemExit) as exc:  # the probe writes CSV only, so it takes no --format
        cli.main(["probe-lower", "--config", str(cfg_path), "--format", "plot"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["probe-lower", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    assert header == "n,m,s,omega,statistic,envelope_low,envelope_high,flag"
    fields = row.split(",")
    assert fields[0] == "10" and fields[1] == "24" and fields[2] == "11"
    assert fields[-1].startswith("heuristic")


def test_cli_selftest(capsys):
    # the five checks of what the public API computes, each passing
    assert cli.main(["selftest"]) == 0
    names = ("aliasing identity", "grid round trip", "exact reproduction", "cross-path consistency",
             "reproducing kernel")
    assert capsys.readouterr().out.splitlines() == [f"PASS  {name}" for name in names]


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
