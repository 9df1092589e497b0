"""Benchmark of the translates sweeps and lower-bound probe.

    python3 perfbench/run.py --workload sweep_power_p2 --seed 1 --seconds 24 --trace 0

Runs one workload (see ``workloads.py``) from the given seed in a closed
loop of one caller for about ``--seconds`` seconds, checks every pass
against the workload's acceptance criteria and the recorded reference,
writes a results file and prints one JSON line as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of ``tracing.py``.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from tracing import Tracer, metric_names  # noqa: E402
from workloads import (  # noqa: E402
    BLAS_THREADS, CHECKED, DRIFT, WORKLOADS, cap_blas_threads, columns, load, run_pass,
)


class Ledger:
    """Correctness checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.first_pass = []

    def add(self, name: str, ok: bool, detail: str, pass_no: int) -> None:
        self.attempted += 1
        if pass_no == 0:
            self.first_pass.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed.append({"check": name, "pass": pass_no, "detail": detail})


def rel_dev(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(ref: dict, rows: dict) -> tuple:
    """Checks of the checked columns against the reference, and the drift of
    the budget columns, which is reported and not checked."""
    checks, drift = [], {}
    for label, cols in ref["columns"].items():
        got = columns(rows[label])
        for key in (k for k in CHECKED + DRIFT if k in cols):
            if len(got[key]) == len(cols[key]):
                dev = max(map(rel_dev, got[key], cols[key]), default=0.0)
            else:
                dev = float("inf")
            if key in DRIFT:
                drift[f"{label}.{key}"] = dev
            else:
                checks.append((f"reference.{label}.{key}", dev <= ref["rel_tol"],
                               f"max relative deviation {dev:.3g}, tolerance {ref['rel_tol']:g}"))
    return checks, drift


def setup_sample(specs: dict) -> float:
    job = json.dumps({"root": str(ROOT), "specs": specs})
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=job,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "started_unix": time.time(),
    }


def more(walls: list, traced_walls: list, trace: bool, deadline: float) -> bool:
    """Closed loop: the first pass (and a traced one when tracing), then another
    pass while the median pass so far should still end by the deadline."""
    done = walls + traced_walls
    if not done or (trace and not traced_walls):
        return True
    return time.perf_counter() + statistics.median(done) <= deadline


def timed_pass(cfgs: dict, traced: bool) -> tuple:
    """Wall seconds, rows, per-config seconds and, when traced, the pass's Tracer."""
    if not traced:
        t0 = time.perf_counter_ns()
        rows, seconds = run_pass(cfgs)
        return (time.perf_counter_ns() - t0) * 1e-9, rows, seconds, None
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter_ns()
        rows, seconds = run_pass(cfgs)
        wall = (time.perf_counter_ns() - t0) * 1e-9
    return wall, rows, seconds, tracer


def measure(args) -> dict:
    wl = WORKLOADS[args.workload]
    specs = wl.specs(args.seed, args.smoke)
    setup = [] if args.trace else [setup_sample(specs) for _ in range(SETUP_SAMPLES)]
    cfgs = load(specs, ROOT)
    ref = None
    if not args.smoke and REFERENCE.exists():
        table = json.loads(REFERENCE.read_text())
        cols = table["workloads"].get(wl.name, {}).get(str(args.seed))
        ref = {"rel_tol": table["rel_tol"], "columns": cols} if cols else None

    ledger = Ledger()
    walls, traced_walls, layers, spans = [], [], [], []
    first_rows = drift = None
    deadline = time.perf_counter() + args.seconds
    while more(walls, traced_walls, args.trace, deadline):
        # traced runs alternate untraced and traced passes, untraced first
        pass_no = len(walls) + len(traced_walls)
        traced = bool(args.trace and pass_no % 2)
        try:
            wall, rows, seconds, tracer = timed_pass(cfgs, traced)
            (traced_walls if traced else walls).append(wall)
            if tracer is not None:
                layers.append(tracer.summary())
                spans.append(tracer.spans)
            checks = wl.checks(rows, seconds)
        except Exception:  # a pass that raises is one failed check and ends the run
            ledger.add("pass_completed", False, traceback.format_exc(), pass_no)
            break
        if ref is not None:
            ref_checks, drift = compare(ref, rows)  # rows repeat, so the last drift is the first
            checks += ref_checks
        if first_rows is None:
            first_rows = repr(rows)
        else:
            name = "traced_rows_equal_untraced" if traced else "rows_repeat"
            checks.append((name, repr(rows) == first_rows, "rows identical to pass 0"))
        if traced and len(layers) > 1:
            same = all(layers[-1][k] == layers[0][k] for k in layers[0] if not k.endswith("_s"))
            checks.append(("work_counts_repeat", same, "calls and counts as in traced pass 0"))
        for name, ok, detail in checks:
            ledger.add(name, ok, detail, pass_no)

    metrics, raw = {}, {"wall_s": walls}
    if args.trace and layers:
        for name, unit in metric_names():
            if name == "trace.overhead_s":
                # pass 0 also warms up, so compare with later untraced passes when there are any
                value = statistics.median(traced_walls) - statistics.median(walls[1:] or walls)
            elif name.endswith(".self_s"):
                value = statistics.median(layer[name] for layer in layers)
            else:
                value = layers[0][name]
            metrics[name] = {"value": value, "unit": unit}
        raw["traced_wall_s"] = traced_walls
    elif not args.trace and walls:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        raw["setup_s"] = setup
    return {
        "provenance": provenance(args),
        "correct": not ledger.failed and bool(metrics),
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "fail_frac": len(ledger.failed) / max(ledger.attempted, 1),
        "metrics": metrics,
        "samples": raw,
        "checks_pass0": ledger.first_pass,
        "failures": ledger.failed,
        "reference": "none recorded for this seed" if ref is None else f"rel_tol {ref['rel_tol']:g}",
        "epsilon_drift": drift,
        "per_pass_layers": layers,
        "spans_per_traced_pass": spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    ap.add_argument("--out", type=Path, help="results file (default perfbench/results/...)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    cap_blas_threads()
    try:
        import translates
    except ImportError as exc:
        print(f"cannot import translates from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(translates.__file__).resolve().parent != ROOT / "src" / "translates":
        print(f"translates imported from {translates.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = measure(args)
    out = args.out or HERE / "results" / (
        f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"FAILED {failure['check']} (pass {failure['pass']}): {failure['detail']}",
              file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
