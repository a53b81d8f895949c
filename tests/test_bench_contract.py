"""The names and behaviour the benchmark harness (perfbench/) relies on in prostasim.

perfbench wraps each function of ``tracer.LAYERS`` by name and records
``prostasim.active_backend()`` with every run, so a refactor that moves or
renames one of them breaks every benchmark run.  A traced run must also
see at least one call into every layer its workload lists, one task
per insertion slot, and every first pass and phantom build under the
names the phantom layer wraps; the traced-run tests below check that
here.
"""

import functools
import importlib
import importlib.util
import os
import sys

import pytest

import prostasim
from conftest import tiny_config
from prostasim import calibrate, sensing, study

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@functools.cache
def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses of a module resolve their annotations through it
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tracer_layers():
    return _perfbench("tracer").LAYERS


def test_traced_functions_exist():
    for layer, fns in _tracer_layers().items():
        module = importlib.import_module(f"prostasim.{layer}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"prostasim.{layer}.{fn}"


def test_active_backend_is_a_name():
    assert isinstance(prostasim.active_backend(), str)


def _traced(run) -> dict:
    tracer = _perfbench("tracer").Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.remove()
    return tracer.metrics()


def _run_tiny_study(out_dir):
    cfg = tiny_config(mode="both")
    study.write_report(study.run_study(cfg), out_dir, cfg.output.format)


def _run_tiny_calibration(out_dir):
    calibrate.calibrate(tiny_config(), replicates=1, grid_points=1)


def _run_tiny_plan_heavy(out_dir):
    # the arch of perfbench's plan_heavy: some direct paths are blocked
    cfg = tiny_config(mode="open_loop")
    for cap in cfg.arch.capsules:
        cap["radius"] = 11.0
    cfg.robot.max_angulation = 22.0
    study.write_report(study.run_study(cfg), out_dir, cfg.output.format)


@pytest.mark.parametrize(
    "workload, run, slots",
    [
        ("study_default", _run_tiny_study, 16),
        ("calibrate_grid", _run_tiny_calibration, 8),
        ("plan_heavy", _run_tiny_plan_heavy, 16),
    ],
)
def test_traced_run_calls_every_layer_and_counts_slots(workload, run, slots, tmp_path):
    metrics = _traced(lambda: run(str(tmp_path)))
    for layer in _perfbench("workloads").WORKLOADS[workload].layers:
        calls = sum(
            v for k, v in metrics.items() if k.startswith(layer + ".") and k.endswith(".calls")
        )
        assert calls >= 1, f"no traced call into layer {layer}"
    assert metrics["trace.tasks"] == slots
    # the phantom layer's metrics read these names: a first pass or a
    # phantom build routed around them would read 0 there, silently
    assert metrics["phantom.prostate_transform.calls"] >= slots
    assert metrics["phantom.generate_phantom.calls"] == tiny_config().n_phantoms
    if workload == "plan_heavy":
        assert metrics["planning.replan_angled.calls"] >= 1
    # removed again: every binding holds prostasim's own function
    assert calibrate.run_study is study.run_study
    assert not hasattr(sensing.observe, "__wrapped__")

