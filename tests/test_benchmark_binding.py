"""The benchmark's tracer, ``perfbench/tracing.py``, patches functions of the
package by module path.  These tests load it as it is and check that every
name it binds exists, and that a traced pass leaves no wrapper behind."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    import translates  # noqa: F401

    for layer, module, attr, _ in _load_tracing().TARGETS:
        owner = importlib.import_module(f"translates.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(getattr(owner, cls_name))
            assert attr in owner, layer
        else:
            assert callable(getattr(owner, attr)), layer


# Run in a fresh interpreter: which modules ``import translates`` loads is
# the point, and this test session has loaded them all already.
_TWO_PASSES = """
import importlib.util, sys
import translates
from translates import approximant
from translates.sequences import Korobov
from translates.spectral import SpectralFunction

assert "translates.approximant_md" in sys.modules, "import translates skips approximant_md"
md = sys.modules["translates.approximant_md"]
orig = approximant.approximation_error
assert md.approximation_error_md is orig
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
lam = Korobov(2.0, dimension=2)
elem = approximant.ClassElement(lam, SpectralFunction.single((1, 0)))
for _ in range(2):
    tracer = tracing.Tracer()
    with tracer.installed():
        md.approximation_error_md(elem, lam, 2, 2.0, K_out=8)
    counts = tracer.summary()
    assert counts["approximant.approximation_error.calls"] == 1, counts
    assert counts["approximant_md.approximation_error_md.calls"] == 1, counts
    assert md.approximation_error_md is orig and approximant.approximation_error is orig
"""


def test_traced_passes_leave_no_stale_wrapper():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_PASSES, str(TRACING)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
