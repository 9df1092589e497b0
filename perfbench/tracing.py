"""Spans and work counts around calls into the public functions of translates.

The program has no tracing of its own, so this module wraps functions
from the outside.  Each wrapper is bound under every name that a
translates module uses for the function (``experiments.epsilon_p2``,
``approximant.lp_norm``, ``spectral.lp_norm`` ...), and methods are
patched on their class.  Spans are kept in memory as
``[layer, parent span, start ns, end ns]`` and summarised when a pass
ends.  A layer's self time is its span minus the spans of its children.

Work counts are computed from the arguments and results of the wrapped
call, so they count the work the call was asked to do.  They repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager


def _indices(counts, args, result):
    counts["indices"] += int(getattr(result, "size", 1))


def _budget(counts, args, result):
    counts["truncation"] += int(result.truncation_radius)
    counts["tail_dominated"] += int(bool(result.tail_dominated))


def _grid_points(counts, args, result):
    # Mirrors lp_norm: p != 2 samples oversample * (2 * bandwidth + 1)
    # points per axis of the trimmed function; p = 2 samples none.
    if args["p"] != 2.0:
        f = args["f"]
        counts["grid_points"] += (args["oversample"] * (2 * f.bandwidth + 1)) ** f.dimension


def _alias_coeffs(counts, args, result):
    # the profile sums 2 * T blocks of 2m + 1 alias coefficients, K_out = (2m+1) T + m
    counts["alias_coeffs"] += 2 * (result.K_out - result.m)


def _coeffs(counts, args, result):
    counts["coeffs"] += int(result.function.values.size)


def _fit(counts, args, result):
    counts["restarts"] += int(args["restarts"])
    if args["full_output"]:
        counts["regularized"] += int(bool(result[1]))


# (layer, defining module, attribute, work counter or None)
TARGETS = [
    ("sequences.inv_values", "sequences", "CoefficientSequence.inv_values", _indices),
    ("sequences.inv_values", "sequences", "Constant.inv_values", _indices),
    ("spectral.lp_norm", "spectral", "lp_norm", _grid_points),
    ("spectral.random_real_spectral", "spectral", "random_real_spectral", None),
    ("alias.default_K_out", "_alias", "default_K_out", None),
    ("alias.build_alias_profile", "_alias", "build_alias_profile", _alias_coeffs),
    ("alias.AliasProfile.element_error", "_alias", "AliasProfile.element_error", None),
    ("alias.md_single_frequency_errors_sq", "_alias", "md_single_frequency_errors_sq", None),
    ("approximant.approximation_error", "approximant", "approximation_error", None),
    ("approximant.spectral_image", "approximant", "spectral_image", _coeffs),
    ("approximant_md.approximation_error_md", "approximant_md", "approximation_error_md", None),
    ("error_budget.epsilon_p2", "error_budget", "epsilon_p2", _budget),
    ("error_budget.epsilon_general_p", "error_budget", "epsilon_general_p", None),
    ("error_budget.epsilon_p2_md", "error_budget", "epsilon_p2_md", None),
    ("error_budget.predicted_rate", "error_budget", "predicted_rate", None),
    ("lower_bound.sample_F_ns", "lower_bound", "sample_F_ns", None),
    ("lower_bound.best_translate_fit", "lower_bound", "best_translate_fit", _fit),
    ("experiments.run_sweep", "experiments", "run_sweep", None),
    ("experiments.run_probe", "experiments", "run_probe", None),
]

LAYERS = list(dict.fromkeys(t[0] for t in TARGETS))

# layer -> work counts it records; every layer also records calls and self_s
WORK_COUNTS = {
    "sequences.inv_values": ("indices",),
    "spectral.lp_norm": ("grid_points",),
    "alias.build_alias_profile": ("alias_coeffs",),
    "approximant.spectral_image": ("coeffs",),
    "error_budget.epsilon_p2": ("truncation", "tail_dominated"),
    "lower_bound.best_translate_fit": ("restarts", "regularized"),
}


def metric_names() -> list:
    """Every per-layer metric name, with its unit, in a fixed order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        out.extend((f"{layer}.{c}", "count") for c in WORK_COUNTS.get(layer, ()))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """In-memory spans and work counts for the wrapped functions."""

    def __init__(self):
        self.spans = []  # [layer, parent index or -1, start ns, end ns]
        self.counts = {layer: dict.fromkeys(WORK_COUNTS.get(layer, ()), 0) for layer in LAYERS}
        self._stack = []

    def _wrap(self, layer, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts[layer]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, stack[-1] if stack else -1, time.perf_counter_ns(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers in every translates module; restore on exit."""
        undo = []
        try:
            for layer, module, attr, counter in TARGETS:
                mod = importlib.import_module(f"translates.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, orig, counter))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(layer, orig, counter)
                for name, user in list(sys.modules.items()):
                    if name.split(".")[0] != "translates":
                        continue
                    for key, value in list(vars(user).items()):
                        if value is orig:
                            undo.append((user, key, orig))
                            setattr(user, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def summary(self) -> dict:
        """calls, self_s and work counts of everything recorded so far."""
        child_ns = [0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            for c, v in self.counts[layer].items():
                out[f"{layer}.{c}"] = v
        for (layer, parent, start, end), child in zip(self.spans, child_ns):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (end - start - child) * 1e-9
        return out
