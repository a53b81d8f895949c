"""The names the benchmark harness (perfbench/) looks up in prostasim.

perfbench wraps each function of ``tracer.LAYERS`` by name and records
``prostasim.active_backend()`` with every run, so a refactor that moves or
renames one of them breaks every benchmark run.
"""

import importlib
import importlib.util
import os

import prostasim

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_functions_exist():
    for layer, fns in _tracer_layers().items():
        module = importlib.import_module(f"prostasim.{layer}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"prostasim.{layer}.{fn}"


def test_active_backend_is_a_name():
    assert isinstance(prostasim.active_backend(), str)
