"""Command-line front end.

Subcommands:
  sweep        run a convergence sweep from a config file
  epsilon      emit the theoretical budget table only
  probe-lower  run the lower-bound probe
  verify       re-check budget dominance on an existing sweep CSV
  selftest     run the built-in invariant checks

Shared flags: --config PATH, --seed N (overrides the config seed),
--out PATH (default stdout); sweep and epsilon also take --format csv|plot.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .config import ConfigError, ProbeConfig, SweepConfig, load_config
from .sequences import SequenceError


def _add_common(sub):
    sub.add_argument("--config", required=True, help="config file path")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translates",
        description="Approximation of periodic functions by translates of a single generator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, what in (("sweep", "run a convergence sweep"), ("epsilon", "emit the budget table only")):
        sub = _add_common(subs.add_parser(name, help=what))
        sub.add_argument("--format", choices=("csv", "plot"), default="csv", help="output format")
    _add_common(subs.add_parser("probe-lower", help="run the lower-bound probe"))

    verify = subs.add_parser("verify", help="re-check dominance on an existing CSV")
    verify.add_argument("csv_path", help="sweep CSV produced by this tool")
    verify.add_argument("--slack", type=float, default=1.10,
                        help="allowed multiple of the fitted constant (default 1.10)")

    subs.add_parser("selftest", help="run the built-in invariant checks")
    return parser


def _write(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_sweep(args, budget_only: bool) -> int:
    cfg = SweepConfig.from_raw(load_config(args.config), seed_override=args.seed,
                               out_override=args.out)
    rows = experiments.epsilon_table(cfg) if budget_only else experiments.run_sweep(cfg)
    if args.format == "plot":
        text = experiments.plotdata_text(rows)
    else:
        text = experiments.rows_to_csv_text(rows)
    _write(text, cfg.out)
    return 0


def _cmd_probe(args) -> int:
    cfg = ProbeConfig.from_raw(load_config(args.config), seed_override=args.seed,
                               out_override=args.out)
    results = experiments.run_probe(cfg)
    _write(experiments.probe_rows_to_csv_text(results), cfg.out)
    return 0


def _cmd_verify(args) -> int:
    rows = experiments.read_csv_rows(args.csv_path)
    ok, report = experiments.verify_dominance(rows, slack=args.slack)
    for line in report:
        print(line)
    print("dominance check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Self test


def _selftest_checks():
    from .approximant import (
        ClassElement, approximation_error, assemble_Qm, class_inner_product, kernel_section,
        spectral_image,
    )
    from .sequences import Korobov, truncated
    from .spectral import (
        analyze, evaluate, evaluate_many, random_real_spectral, synthesize,
    )

    def check_aliasing():
        for m in (1, 3, 5):
            n = 2 * m + 1
            ls = np.arange(n)
            t = 0.7317
            for k in (-17, -2, 0, 9, 25):
                for s in range(-m, m + 1):
                    lhs = np.mean(np.exp(1j * k * (t - 2 * np.pi * ls / n))
                                  * np.exp(1j * s * (2 * np.pi * ls / n - t)))
                    kp = (k + m) % n - m
                    rhs = np.exp(1j * (k - kp) * t) if (k - s) % n == 0 else 0.0
                    if abs(lhs - rhs) > 1e-12:
                        return False
        return True

    def check_roundtrip():
        rng = np.random.default_rng(5)
        g = random_real_spectral(1, 24, rng)
        back = analyze(synthesize(g, 64), 24)
        return float(np.max(np.abs(back.values - g.values))) < 1e-12

    def check_exactness():
        rng = np.random.default_rng(6)
        lam = Korobov(2.0)
        g = random_real_spectral(1, 4, rng)
        err = approximation_error(ClassElement(lam, g), truncated(lam, 4), 4, K_out=200)
        return err == 0.0

    def check_cross_path():
        rng = np.random.default_rng(7)
        lam = Korobov(3.0)
        g = random_real_spectral(1, 6, rng)
        elem = ClassElement(lam, g)
        A = assemble_Qm(elem, lam, 3, K_gen=120)
        xs = rng.uniform(0, 2 * np.pi, 16)
        img = spectral_image(elem, lam, 3, K_out=120).function
        return float(np.max(np.abs(A.evaluate(xs) - evaluate_many(img, xs)))) < 1e-9

    def check_kernel():
        rng = np.random.default_rng(8)
        lam = Korobov(2.0)
        f = random_real_spectral(1, 10, rng)
        x = 1.234
        section = kernel_section(lam, x, 10)
        ip = class_inner_product(f, section, lam)
        return abs(ip - evaluate(f, x)) < 1e-9

    return [
        ("aliasing identity", check_aliasing),
        ("grid round trip", check_roundtrip),
        ("exact reproduction", check_exactness),
        ("cross-path consistency", check_cross_path),
        ("reproducing kernel", check_kernel),
    ]


def _cmd_selftest(_args) -> int:
    ok = True
    for name, fn in _selftest_checks():
        try:
            passed = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed = False
            name = f"{name} ({exc})"
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args, budget_only=False)
        if args.command == "epsilon":
            return _cmd_sweep(args, budget_only=True)
        if args.command == "probe-lower":
            return _cmd_probe(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
    except (ConfigError, SequenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
