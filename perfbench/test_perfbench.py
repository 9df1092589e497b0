"""Tests of the benchmark itself, on smoke inputs.

    python3 -m pytest -q perfbench

They are not part of the package's test suite (``testpaths = tests``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Layers each workload must reach, from the metric -> layer -> workload map in README.md.
EXPECTED_CALLS = {
    "sweep_power_p2": [
        "sequences.inv_values", "error_budget.epsilon_p2", "error_budget.predicted_rate",
        "spectral.lp_norm", "spectral.random_real_spectral", "alias.default_K_out",
        "alias.build_alias_profile", "alias.AliasProfile.element_error",
        "approximant.approximation_error", "approximant.spectral_image", "experiments.run_sweep",
    ],
    "sweep_general_p": [
        "sequences.inv_values", "error_budget.epsilon_general_p", "error_budget.predicted_rate",
        "spectral.lp_norm", "spectral.random_real_spectral", "alias.default_K_out",
        "alias.build_alias_profile", "approximant.approximation_error",
        "approximant.spectral_image", "experiments.run_sweep",
    ],
    "sweep_d2": [
        "sequences.inv_values", "error_budget.epsilon_p2_md", "error_budget.predicted_rate",
        "spectral.random_real_spectral", "alias.md_single_frequency_errors_sq",
        "approximant_md.approximation_error_md", "experiments.run_sweep",
    ],
    "probe_lower": [
        "sequences.inv_values", "lower_bound.sample_F_ns", "lower_bound.best_translate_fit",
        "experiments.run_probe",
    ],
}

# Work counts each workload must record (a zero would mean the counter is not wired).
EXPECTED_COUNTS = {
    "sweep_power_p2": ["sequences.inv_values.indices", "error_budget.epsilon_p2.truncation",
                       "alias.build_alias_profile.alias_coeffs", "approximant.spectral_image.coeffs"],
    "sweep_general_p": ["spectral.lp_norm.grid_points", "alias.build_alias_profile.alias_coeffs"],
    "sweep_d2": ["sequences.inv_values.indices"],
    "probe_lower": ["lower_bound.best_translate_fit.restarts"],
}


def run(tmp_path, workload, trace, seed=5, cwd=ROOT):
    out = tmp_path / f"{workload}_{trace}_{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_schema(tmp_path, workload):
    line, full = run(tmp_path, workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(v["value"] > 0 for v in line["metrics"].values())
    prov = full["provenance"]
    for key in ("git_sha", "nproc", "python", "numpy", "blas_threads", "seed"):
        assert key in prov
    assert full["samples"]["wall_s"] and len(full["samples"]["setup_s"]) >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(tmp_path, workload):
    (a, full), (b, _) = run(tmp_path, workload, 1), run(tmp_path, workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in a["metrics"].items()} == want
    assert a["correct"] and b["correct"]
    counts = [k for k, unit in want.items() if unit == "count"]
    assert {k: a["metrics"][k]["value"] for k in counts} == {k: b["metrics"][k]["value"] for k in counts}
    for name in [f"{layer}.calls" for layer in EXPECTED_CALLS[workload]] + EXPECTED_COUNTS[workload]:
        assert a["metrics"][name]["value"] > 0, name
    # correct includes the check that the traced rows equal the untraced ones
    assert full["samples"]["wall_s"] and full["samples"]["traced_wall_s"]
    assert full["spans_per_traced_pass"]


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
