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
import math
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
    from ._alias import alias_fold, alias_folds, band_arrays
    from .approximant import (
        ClassElement, ImagePlan, _error_coefficients, approximation_error, assemble_Qm,
        class_inner_product, kernel_section, spectral_image,
    )
    from .lower_bound import _restart_nodes, best_translate_fit, default_probe_generator
    from .lower_bound import design_for_n, sample_F_ns
    from .sequences import Korobov, truncated
    from .spectral import (
        SpectralFunction, _lp_norms, analyze, evaluate, evaluate_many, lp_norm, lp_norm_bound,
        random_real_spectral, synthesize,
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

    def check_error_bound():
        # lp_norm_bound of an error's coefficients against its full quadrature
        rng = np.random.default_rng(9)
        lam, beta, m = Korobov(1.0), Korobov(2.0), 4
        plan = ImagePlan(lam, beta, m, 64)
        for p in (1.5, 3.0, 4.0):
            elem = ClassElement(lam, random_real_spectral(1, 8, rng, normalize_p=p), p)
            bound = lp_norm_bound(_error_coefficients(elem, beta, m, plan), p)
            quad = approximation_error(elem, beta, m, plan=plan)
            if (bound < quad) if p < 4.0 else abs(bound - quad) > 1e-12 * quad:
                return False
        return True

    def check_stacked_norms():
        # a stack of five rows, one of them complex, against lp_norm row by row, bit for bit
        rng = np.random.default_rng(10)
        rows = [random_real_spectral(1, 12, rng).values for _ in range(4)]
        rows.insert(2, rows[0] + 1j * rows[1])
        stack = np.stack(rows)
        for p in (1.5, 3.0, 4.0):
            want = [lp_norm(SpectralFunction(1, 12, v), p) for v in stack]
            if np.array(_lp_norms(stack, p)).view(np.int64).tolist() != np.array(want).view(np.int64).tolist():
                return False
        return True

    def check_alias_fold():
        # a three-pair walk against each pair's own walk (bit for bit) and the box (1e-12): (5, 333)
        # sums its 30 rows, (2, 500) and (4, 2^16) take their rows past the head from the series,
        # and (4, 2^16) is within 4e-15 of the fsum of its terms
        lam, beta, pairs = Korobov(2.0), Korobov(1.0), [(2, 500), (5, 333), (4, 2**16)]
        folds = alias_folds(lam, beta, pairs)
        for (m, K), (fold, tail) in zip(pairs, folds):
            one, box = alias_fold(lam, beta, m, K), ImagePlan(lam, beta, m, K)
            sums = np.bincount(box.index[box.outer], np.abs(box.gamma[box.outer]) ** 2)
            if not (np.array_equal(fold, one[0]) and tail == one[1] and np.allclose(fold, sums, 1e-12, 0)):
                return False
        k = 9 * np.arange(1, -(-(2**16 - 4) // 9) + 1)[:, None] + np.arange(-4, 5)  # the last row is partial
        sq = np.abs(beta.inv_values(k)) ** 2 * (k <= 2**16)  # beta is symmetric: k < 0 gives the same terms
        want = np.abs(band_arrays(lam, beta, 4)[2]) ** 2 * [math.fsum([*sq[:, c], *sq[:, 8 - c]]) for c in range(9)]
        return bool(np.all(np.abs(folds[2][0] - want) <= 4e-15 * want))

    def check_translate_fit():
        lam = Korobov(1.0)
        psi = default_probe_generator(lam, 64)
        if best_translate_fit(psi, psi, 3, restarts=2) > 1e-8:
            return False
        # a family member against a dense full-spectrum solve at the same nodes;
        # at seed 2 the jittered restart beats the equispaced one and sets the fit
        f = sample_F_ns(design_for_n(10, 1, lam), lam, 1, seed=0)[0]
        fhat = f.padded(psi.radius).values
        b2 = np.concatenate([fhat.real, fhat.imag])
        want = np.inf
        for nodes in _restart_nodes(10, 2, 2):
            A = psi.values[:, None] * np.exp(-1j * np.outer(psi.axis_indices(), nodes))
            A2 = np.concatenate([A.real, A.imag])
            w = np.linalg.lstsq(A2, b2, rcond=None)[0]
            want = min(want, float(np.linalg.norm(b2 - A2 @ w)))
        return abs(best_translate_fit(f, psi, 10, restarts=2, seed=2) - want) <= 1e-10 * want

    return [
        ("aliasing identity", check_aliasing),
        ("grid round trip", check_roundtrip),
        ("exact reproduction", check_exactness),
        ("cross-path consistency", check_cross_path),
        ("reproducing kernel", check_kernel),
        ("L_p error bound", check_error_bound),
        ("stacked L_p norms", check_stacked_norms),
        ("alias fold", check_alias_fold),
        ("translate fit", check_translate_fit),
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
