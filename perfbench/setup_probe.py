"""Time the set-up of one workload in a fresh interpreter.

Reads ``{"root": ..., "specs": ...}`` as JSON on stdin, then times the
import of ``translates.cli`` (which pulls in ``config`` and
``experiments``) and the parsing and validation of the workload's
configs.  Prints ``{"setup_s": seconds}``.  ``run.py`` starts this
script several times per run and reports the median.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.load(sys.stdin)
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from workloads import load

    t0 = time.perf_counter()
    import translates.cli  # noqa: F401

    load(job["specs"], root)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
