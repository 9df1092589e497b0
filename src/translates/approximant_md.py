"""Alias of the d-generic ``approximant.approximation_error``.

``perfbench/tracing.py`` binds ``approximant_md.approximation_error_md`` by
module path.  The benchmark harness changes only together with its
reference data, so this name stays until then.  ``translates/__init__``
imports this module, so that it is loaded before a tracer patches
``approximation_error``.
"""

from .approximant import approximation_error as approximation_error_md  # noqa: F401
