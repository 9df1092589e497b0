"""The benchmark's tracer, ``perfbench/tracing.py``, patches functions of the
package by module path.  These tests load it as it is and check that every
name it binds exists, that a traced pass leaves no wrapper behind, and that
a smoke pass of each sweep workload reaches every layer the benchmark's own
tests require of it."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("perfbench_tracing", TRACING)


# the layers each workload must reach, as the benchmark's tests pin them
EXPECTED_CALLS = _load("perfbench_tests", ROOT / "perfbench" / "test_perfbench.py").EXPECTED_CALLS


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
from translates import approximant, error_budget, experiments
from translates.sequences import Korobov
from translates.spectral import SpectralFunction

assert "translates.approximant_md" in sys.modules, "import translates skips approximant_md"
md = sys.modules["translates.approximant_md"]
orig = approximant.approximation_error
assert md.approximation_error_md is orig
budget = error_budget.epsilon_p2
assert error_budget.epsilon_p2_md is budget


def budget_names():
    return [
        (mod.__name__, key, value is budget)
        for mod in (translates, error_budget, experiments)
        for key, value in vars(mod).items()
        if key.startswith("epsilon_p2")
    ]

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
lam = Korobov(2.0, dimension=2)
elem = approximant.ClassElement(lam, SpectralFunction.single((1, 0)))
for _ in range(2):
    tracer = tracing.Tracer()
    with tracer.installed():
        md.approximation_error_md(elem, lam, 2, 2.0, K_out=8)
        error_budget.epsilon_p2_md(lam, lam, 2, J_max=4)
    counts = tracer.summary()
    assert counts["approximant.approximation_error.calls"] == 1, counts
    assert counts["approximant_md.approximation_error_md.calls"] == 1, counts
    assert counts["error_budget.epsilon_p2.calls"] == 1, counts
    assert counts["error_budget.epsilon_p2_md.calls"] == 1, counts
    assert md.approximation_error_md is orig and approximant.approximation_error is orig
    assert all(same for _, _, same in budget_names()), budget_names()
"""


def test_traced_passes_leave_no_stale_wrapper():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TWO_PASSES, str(TRACING)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", [w for w in EXPECTED_CALLS if w.startswith("sweep_")])
def test_smoke_pass_reaches_every_pinned_layer(workload):
    # the tracer rebinds names in the modules loaded before it is installed,
    # and run_pass imports the sweep module
    importlib.import_module("translates.experiments")
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    cfgs = workloads.load(workloads.WORKLOADS[workload].specs(5, True), ROOT)
    tracer = _load_tracing().Tracer()
    with tracer.installed():
        workloads.run_pass(cfgs)
    calls = tracer.summary()
    assert [layer for layer in EXPECTED_CALLS[workload] if not calls[f"{layer}.calls"]] == []
