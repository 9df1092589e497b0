"""Record the reference outputs that ``run.py`` compares each pass with.

    python3 perfbench/reference.py --seeds 0-31 2026 20240501

Runs one pass of every workload at each seed and stores the checked
columns (``error_quadrature``, ``error_parseval``, probe ``statistic``)
and the drift columns (``epsilon``, ``epsilon_tail``) in
``perfbench/reference.json``.  A seed at which a workload's acceptance
checks fail is reported and not recorded.  Record again only when a
change to the program moves the checked columns on purpose, and say so
in CHANGES.md.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from workloads import WORKLOADS, cap_blas_threads, columns, load, run_pass  # noqa: E402

REL_TOL = 1e-6  # checked columns may move by rounding, not by a change of method


def seed_list(tokens) -> list:
    out = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def dump(table: dict) -> str:
    """JSON text with one line per (workload, seed)."""
    lines = ["{"] + [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in table.items() if k != "workloads"]
    lines.append(' "workloads": {')
    for i, (name, seeds) in enumerate(table["workloads"].items()):
        lines.append(f"  {json.dumps(name)}: {{")
        body = [f"   {json.dumps(seed)}: {json.dumps(cols)}" for seed, cols in seeds.items()]
        lines.append(",\n".join(body))
        lines.append("  }" + ("," if i < len(table["workloads"]) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-31")
    args = ap.parse_args(argv)
    cap_blas_threads()
    import numpy

    table = {"rel_tol": REL_TOL, "workloads": {}}
    if REFERENCE.exists():
        table = json.loads(REFERENCE.read_text())
    table["recorded_with"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    status = 0
    for name, wl in WORKLOADS.items():
        for seed in seed_list(args.seeds):
            rows, seconds = run_pass(load(wl.specs(seed, False), ROOT))
            bad = [(check, detail) for check, ok, detail in wl.checks(rows, seconds) if not ok]
            if bad:
                print(f"{name} seed {seed}: not recorded, failed {bad}", file=sys.stderr)
                status = 1
                continue
            table["workloads"].setdefault(name, {})[str(seed)] = {
                label: columns(r) for label, r in rows.items()
            }
            print(f"{name} seed {seed}: recorded", flush=True)
            REFERENCE.write_text(dump(table))
    return status


if __name__ == "__main__":
    sys.exit(main())
