"""Flat ``key = value`` config files with bracketed section headers.

No nesting, no quoting: one assignment per line, ``#`` comments, and
section headers like ``[lambda]``.  Parse errors, and keys that their
section does not read, carry the line number and key so a bad config is
diagnosable from the CLI message.

Sequence sections (``[lambda]``, ``[beta]``) take a ``family`` key plus
family parameters:

    family = korobov        r = 2.0       dim = 1
    family = exponential    s = 0.5       dim = 1
    family = constant       v = 1.0       dim = 1
    family = mask_power     r = 1.5       profile = one|log_damped  c = 0.5  bound_c = 2.0
    family = exponent_mask  s = 0.5       profile = one             bound_c = 1.0

Any sequence section may add ``truncate = <degree>`` to cap the
generator at a trigonometric polynomial of that degree.  ``[beta]``
defaults to a copy of ``[lambda]`` when absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .sequences import (
    CoefficientSequence,
    Constant,
    Exponential,
    ExponentMask,
    Korobov,
    MaskPower,
    MaskSpec,
    ProductSequence,
    SequenceError,
    truncated,
)
from .spectral import OVERSAMPLE

__all__ = ["ConfigError", "RawConfig", "parse_config", "load_config", "build_sequence",
           "SweepConfig", "ProbeConfig"]


class ConfigError(ValueError):
    """Config syntax or schema problem, with location information."""


@dataclass
class RawConfig:
    """Sections mapping keys to (value, line_number) pairs; ``read`` holds
    the (section, key) pairs ``get`` was asked for."""

    sections: dict = field(default_factory=dict)
    path: str = "<text>"
    read: set = field(default_factory=set, repr=False, compare=False)

    def has(self, name: str) -> bool:
        return name in self.sections

    def get(self, section: str, key: str, default=None, cast=str, required=False):
        sec = self.sections.get(section, {})
        self.read.add((section, key))
        if key not in sec:
            if required:
                raise ConfigError(f"{self.path}: missing key '{key}' in [{section}]")
            return default
        try:
            return cast(sec[key][0])
        except (TypeError, ValueError):
            raise self.error(section, key, f"cannot parse {sec[key][0]!r}") from None

    def error(self, section: str, key: str, message: str) -> ConfigError:
        """A ConfigError at the line of ``key`` in ``section``."""
        line = self.sections[section][key][1]
        return ConfigError(f"{self.path}:{line}: key '{key}' in [{section}]: {message}")

    def reject_unread(self, section: str) -> None:
        """Raise on the first key of ``section`` that no ``get`` asked for."""
        for key in self.sections.get(section, {}):
            if (section, key) not in self.read:
                raise self.error(section, key, "unknown key")


def parse_config(text: str, path: str = "<text>") -> RawConfig:
    cfg = RawConfig(path=path)
    current = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"{path}:{no}: empty section header")
            cfg.sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{no}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{no}: assignment before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"{path}:{no}: empty key")
        if key in cfg.sections[current]:
            raise ConfigError(f"{path}:{no}: duplicate key '{key}' in [{current}]")
        cfg.sections[current][key] = (value, no)
    return cfg


def load_config(path) -> RawConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, path=str(p))


def _bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("on", "true", "yes", "1"):
        return True
    if v in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _int_list(value: str) -> list:
    parts = value.replace(",", " ").split()
    return [int(p) for p in parts]


def _count(cfg: RawConfig, section: str, key: str, named: dict):
    """``key`` as one of the ``named`` words (mapped to its value) or an
    integer >= 1; absent reads as ``auto``."""
    raw = cfg.get(section, key, default="auto")
    if raw in named:
        return named[raw]
    value = cfg.get(section, key, cast=int)
    if value < 1:
        raise cfg.error(section, key, f"must be {', '.join(named)} or an integer >= 1")
    return value


def _require(cfg: RawConfig, section: str, rules) -> None:
    """Raise at the line of the first (key, value, ok, need) rule that fails."""
    for key, value, ok, need in rules:
        if not ok:
            raise cfg.error(section, key, f"must be {need}, got {value!r}")


def _seed(seed: int, override: Optional[int]) -> int:
    """The CLI's ``--seed`` where given, else the config's ``seed``."""
    if override is not None and override < 0:
        raise ConfigError(f"--seed must be >= 0, got {override}")
    return seed if override is None else override


def build_sequence(cfg: RawConfig, section: str) -> CoefficientSequence:
    """Construct the sequence described by a config section."""
    if not cfg.has(section):
        raise ConfigError(f"{cfg.path}: missing section [{section}]")
    family = cfg.get(section, "family", required=True).strip().lower()
    dim = cfg.get(section, "dim", default=1, cast=int)
    try:
        if family == "korobov":
            seq = Korobov(cfg.get(section, "r", required=True, cast=float), dimension=dim)
        elif family == "exponential":
            seq = Exponential(cfg.get(section, "s", required=True, cast=float), dimension=dim)
        elif family == "constant":
            seq = Constant(cfg.get(section, "v", required=True, cast=float), dimension=dim)
        elif family in ("mask_power", "exponent_mask"):
            if dim != 1:
                raise cfg.error(section, "dim", f"{family} is one-dimensional, got {dim}")
            power = family == "mask_power"
            spec = MaskSpec(
                profile=cfg.get(section, "profile", default="one"),
                c=cfg.get(section, "c", default=0.0, cast=float),
                bound_c=cfg.get(section, "bound_c", default=2.0 if power else 1.0, cast=float),
            )
            rate = cfg.get(section, "r" if power else "s", required=True, cast=float)
            seq = MaskPower(rate, spec) if power else ExponentMask(rate, spec)
        else:
            raise ConfigError(
                f"{cfg.path}: unknown family {family!r} in [{section}] "
                "(korobov, exponential, constant, mask_power, exponent_mask)"
            )
        degree = cfg.get(section, "truncate", default=None, cast=int)
        if degree is not None:
            factors = seq.axis_factors()
            if factors is None:
                raise ConfigError(f"{cfg.path}: [{section}]: truncate needs a product family")
            factors = tuple(truncated(f, degree) for f in factors)
            seq = factors[0] if seq.dimension == 1 else ProductSequence(factors)
    except SequenceError as exc:  # a truncation's table is the only one a config builds
        key = {"dimension": "dim", "degree": "truncate", "table": "truncate"}.get(exc.key, exc.key)
        if key in cfg.sections[section]:
            raise cfg.error(section, key, str(exc)) from None
        raise ConfigError(f"{cfg.path}: [{section}]: {exc}") from None
    cfg.reject_unread(section)
    return seq


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters.

    Sources are either random (``g_count`` draws of bandwidth
    ``g_bandwidth_factor * m`` under the seed) or a single function read
    from ``g_file`` in the coefficient line format.
    """

    lam: CoefficientSequence
    beta: CoefficientSequence
    p: float
    m_list: tuple
    g_count: int
    g_bandwidth_factor: float
    g_file: Optional[str]
    seed: int
    oversample: int
    timing: bool
    probe_count: Optional[int]  # >= 1; None = every residue of the band
    K_out: Optional[int]
    # p = 2: cap on the alias blocks summed exactly per side, the rest is
    # bracketed in closed form; general p: reciprocal truncation radius
    J_max: Optional[int]
    out: Optional[str]

    @property
    def dimension(self) -> int:
        return self.lam.dimension

    @classmethod
    def from_raw(cls, cfg: RawConfig, seed_override: Optional[int] = None,
                 out_override: Optional[str] = None) -> "SweepConfig":
        lam = build_sequence(cfg, "lambda")
        beta = build_sequence(cfg, "beta") if cfg.has("beta") else lam
        if lam.dimension != beta.dimension:
            raise ConfigError(f"{cfg.path}: [lambda] and [beta] dimensions differ")
        sec = "sweep"
        if not cfg.has(sec):
            raise ConfigError(f"{cfg.path}: missing section [sweep]")
        p = cfg.get(sec, "p", default=2.0, cast=float)
        if not 1.0 < p < float("inf"):
            raise ConfigError(f"{cfg.path}: p must lie in (1, inf), got {p}")
        m_list = tuple(cfg.get(sec, "m_list", required=True, cast=_int_list))
        if not m_list:
            raise ConfigError(f"{cfg.path}: m_list is empty")
        if any(b <= a for a, b in zip(m_list, m_list[1:])) or m_list[0] < 1:
            raise ConfigError(f"{cfg.path}: m_list must be strictly increasing positive")
        if lam.dimension > 1 and p != 2.0:
            raise ConfigError(f"{cfg.path}: multivariate sweeps support p = 2 only")
        probe_count = _count(cfg, sec, "probe_count", {"auto": 1 if p == 2.0 else 8, "all": None})
        seed = cfg.get(sec, "seed", default=0, cast=int)
        out = cfg.get(sec, "out", default=None)  # read even when overridden: a known key
        g_count = cfg.get(sec, "g_count", default=20, cast=int)
        bw_factor = cfg.get(sec, "g_bandwidth_factor", default=2.0, cast=float)
        oversample = cfg.get(sec, "oversample", default=OVERSAMPLE, cast=int)
        _require(cfg, sec, (
            ("g_count", g_count, g_count >= 0, ">= 0"),
            ("g_bandwidth_factor", bw_factor, 0.0 < bw_factor < float("inf"), "finite and > 0"),
            ("oversample", oversample, oversample >= 2, ">= 2"),
            ("seed", seed, seed >= 0, ">= 0"),
        ))
        config = cls(
            lam=lam,
            beta=beta,
            p=p,
            m_list=m_list,
            g_count=g_count,
            g_bandwidth_factor=bw_factor,
            g_file=cfg.get(sec, "g_file", default=None),
            seed=_seed(seed, seed_override),
            oversample=oversample,
            timing=cfg.get(sec, "timing", default=True, cast=_bool),
            probe_count=probe_count,
            K_out=_count(cfg, sec, "k_out", {"auto": None}),
            J_max=_count(cfg, sec, "j_max", {"auto": None}),
            out=out_override or out,
        )
        cfg.reject_unread(sec)
        return config


@dataclass(frozen=True)
class ProbeConfig:
    """Validated lower-bound probe parameters."""

    lam: CoefficientSequence
    n_list: tuple
    trials: int
    restarts: int
    c3: float
    psi_truncation: int
    growth_rule: str
    growth_a: float
    growth_b: float
    seed: int
    out: Optional[str]

    @classmethod
    def from_raw(cls, cfg: RawConfig, seed_override: Optional[int] = None,
                 out_override: Optional[str] = None) -> "ProbeConfig":
        lam = build_sequence(cfg, "lambda")
        if lam.dimension != 1:
            raise cfg.error("lambda", "dim", f"the probe's node search is univariate, got {lam.dimension}")
        sec = "probe"
        if not cfg.has(sec):
            raise ConfigError(f"{cfg.path}: missing section [probe]")
        n_list = tuple(cfg.get(sec, "n_list", required=True, cast=_int_list))
        if not n_list or any(n < 10 for n in n_list):
            raise ConfigError(f"{cfg.path}: n_list entries must be >= 10")
        seed = cfg.get(sec, "seed", default=0, cast=int)
        out = cfg.get(sec, "out", default=None)  # read even when overridden: a known key
        trials = cfg.get(sec, "trials", default=20, cast=int)
        restarts = cfg.get(sec, "restarts", default=8, cast=int)
        c3 = cfg.get(sec, "c3", default=1.0, cast=float)
        psi_truncation = cfg.get(sec, "psi_truncation", default=512, cast=int)
        growth = cfg.get(sec, "growth", default="power")
        growth_a = cfg.get(sec, "growth_a", default=1.0, cast=float)
        growth_b = cfg.get(sec, "growth_b", default=0.0, cast=float)
        _require(cfg, sec, (
            ("trials", trials, trials >= 1, ">= 1"),
            ("restarts", restarts, restarts >= 1, ">= 1"),
            ("c3", c3, 0.0 < c3 < float("inf"), "finite and > 0"),
            ("psi_truncation", psi_truncation, psi_truncation >= 0, ">= 0"),
            ("growth", growth, growth in ("power", "log_power"), "power or log_power"),
            ("growth_a", growth_a, 0.0 <= growth_a < float("inf"), "finite and >= 0"),
            ("growth_b", growth_b, 0.0 <= growth_b < float("inf"), "finite and >= 0"),
            ("seed", seed, seed >= 0, ">= 0"),
        ))
        config = cls(
            lam=lam,
            n_list=n_list,
            trials=trials,
            restarts=restarts,
            c3=c3,
            psi_truncation=psi_truncation,
            growth_rule=growth,
            growth_a=growth_a,
            growth_b=growth_b,
            seed=_seed(seed, seed_override),
            out=out_override or out,
        )
        cfg.reject_unread(sec)
        return config
