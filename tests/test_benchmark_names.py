"""The benchmark tracer keys its per-layer metrics on library function names.

A renamed function would make those metrics read 0 without any error, so
every name the tracer singles out must be one it wraps.
"""

import importlib.util
import pathlib

import qhtbounds
import qhtbounds.cli  # noqa: F401  (the tracer walks every module, cli included)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_are_traced_functions():
    tracer = load_tracer()
    traced = tracer._traced_functions(qhtbounds)
    named = [*tracer.CERTIFIERS, tracer.GROW, *tracer.RESULT_HOOKS]
    missing = [name for name in named if name not in traced]
    assert not missing, f"tracer names with no library function: {missing}"
