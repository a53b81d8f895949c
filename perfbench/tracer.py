"""Per-layer tracing by wrapping prostasim's public functions.

The tracer replaces each listed function with a wrapper that records a
span (name, start, end, parent span, task id) in flat in-memory arrays.
Nothing under ``src/`` is touched: the wrappers are installed from the
benchmark process and removed again before the outputs are checked.

A function is wrapped at every binding a caller actually looks up.  Many
modules import by value (``from .stats import median_iqr`` in
``study``), so patching only the defining module would record nothing;
the tracer patches every ``prostasim.*`` module attribute that holds the
original function object.

Self time is a span's duration minus the durations of its wrapped
children.  A task is one (phantom, target, replicate) insertion of one
study; its closed- and open-loop runs share the task id.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from array import array

import numpy as np

# layer (= prostasim module) -> wrapped public functions
LAYERS = {
    "controller": ("run_insertion", "open_loop_insertion"),
    "planning": (
        "replan_angled",
        "candidate_entries",
        "clearance_grid",
        "collision_check",
        "first_blocked_depth",
    ),
    "phantom": ("prostate_transform", "generate_phantom"),
    "sensing": ("observe", "observe_point", "rigid_register"),
    "rng": ("substream",),
    "kinematics": ("inverse_kinematics", "advance_insertion"),
    "study": ("build_phantoms", "summarize", "write_report"),
    "stats": ("median_iqr", "mann_whitney_u", "kruskal_wallis"),
    "calibrate": ("study_medians", "run_study"),
}

# calibrate.run_study is study.run_study itself.  Only the binding inside
# calibrate is the layer; the study workloads call run_study directly and
# must not count as calibration studies.
OWN_BINDING_ONLY = {"calibrate.run_study"}

CONTROLLER_FNS = ("controller.run_insertion", "controller.open_loop_insertion")

# (name, unit) of every metric a traced run reports, in report order
DERIVED_METRICS = (
    ("controller.run_insertion.p50_ms", "ms"),
    ("controller.run_insertion.p99_ms", "ms"),
    ("controller.corrections", "count"),
    ("controller.budget_exceeded", "count"),
    ("controller.disengaged", "count"),
    ("planning.replan_angled.per_task", "calls/task"),
    ("planning.angled_share", "ratio"),
    ("planning.candidate_entries.rows", "count"),
    ("planning.clearance_grid.pairs", "count"),
    ("phantom.prostate_transform.per_task", "calls/task"),
    ("sensing.rigid_register.per_task", "calls/task"),
    ("rng.substream.per_task", "calls/task"),
    ("study.write_report.bytes", "bytes"),
    ("trace.tasks", "count"),
    ("trace.overhead_frac", "ratio"),
)


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_METRICS)
    return units


class Tracer:
    """Wraps the LAYERS functions while installed and records their spans."""

    def __init__(self):
        self.names = function_names()
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.counters = {
            "controller.corrections": 0,
            "controller.budget_exceeded": 0,
            "controller.disengaged": 0,
            "planning.candidate_entries.rows": 0,
            "planning.clearance_grid.pairs": 0,
            "study.write_report.bytes": 0,
        }
        self._stack: list[int] = []
        self._task = -1
        self._n_tasks = 0
        self._task_key = None
        self._task_fns: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = 0.0

    # -- install / remove -------------------------------------------------

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "prostasim" or name.startswith("prostasim."))
        ]
        for idx, name in enumerate(self.names):
            layer, fn = name.split(".")
            home = importlib.import_module(f"prostasim.{layer}")
            orig = getattr(home, fn)
            wrapper = self._wrap(idx, name, orig)
            if name in OWN_BINDING_ONLY:
                bindings = [(home, fn)]
            else:
                bindings = [
                    (m, attr) for m in modules for attr, val in vars(m).items() if val is orig
                ]
            for module, attr in bindings:
                self._patched.append((module, attr, orig))
                setattr(module, attr, wrapper)
        self._t0 = time.perf_counter()

    def remove(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, idx: int, name: str, orig):
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, tasks = self.span_parent, self.span_task
        on_call = self._on_call.get(name)
        on_return = self._on_return.get(name)
        controller = name in CONTROLLER_FNS

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if controller:
                self._enter_task(name, args, kwargs)
            if on_call is not None:
                on_call(self, args, kwargs)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            tasks.append(self._task)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                if controller:
                    self._task = -1
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def _enter_task(self, name, args, kwargs):
        streams = kwargs["streams"] if "streams" in kwargs else args[6]
        key = (streams.phantom, streams.target, streams.replicate)
        # the closed- and open-loop run of one (phantom, target, replicate)
        # follow each other; a repeated key with a mode already seen is the
        # same slot of the next study
        if key != self._task_key or name in self._task_fns:
            self._task_key = key
            self._task_fns = set()
            self._n_tasks += 1
        self._task_fns.add(name)
        self._task = self._n_tasks - 1

    def _count_record(self, rec):
        c = self.counters
        c["controller.corrections"] += rec.n_corrections
        c["controller.budget_exceeded"] += int(rec.max_corrections_exceeded)
        c["controller.disengaged"] += int(rec.disengaged)

    def _count_rows(self, result):
        self.counters["planning.candidate_entries.rows"] += int(result[0].shape[0])

    def _count_pairs(self, args, kwargs):
        entries = kwargs["entries"] if "entries" in kwargs else args[0]
        cap_a = kwargs["cap_a"] if "cap_a" in kwargs else args[4]
        self.counters["planning.clearance_grid.pairs"] += int(
            np.shape(entries)[0] * np.shape(cap_a)[0]
        )

    def _count_bytes(self, paths):
        self.counters["study.write_report.bytes"] += sum(os.path.getsize(p) for p in paths)

    _on_call = {"planning.clearance_grid": _count_pairs}
    _on_return = {
        "controller.run_insertion": _count_record,
        "controller.open_loop_insertion": _count_record,
        "planning.candidate_entries": _count_rows,
        "study.write_report": _count_bytes,
    }

    # -- results ----------------------------------------------------------

    def _arrays(self):
        names = np.array(self.span_name, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        parent = np.array(self.span_parent, dtype=np.int64)
        return names, start, end, parent

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time plus the derived layer metrics.

        ``trace.overhead_frac`` needs an untraced run and is left out here.
        """
        names, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))

        out: dict[str, float] = {}
        index = {name: i for i, name in enumerate(self.names)}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])

        ins = dur[names == index["controller.run_insertion"]] * 1e3
        out["controller.run_insertion.p50_ms"] = float(np.percentile(ins, 50)) if ins.size else 0.0
        out["controller.run_insertion.p99_ms"] = float(np.percentile(ins, 99)) if ins.size else 0.0
        out.update(self.counters)

        replans = int(calls[index["planning.replan_angled"]])
        grid_parents = parent[names == index["planning.candidate_entries"]]
        grid_parents = grid_parents[grid_parents >= 0]
        angled = np.unique(grid_parents[names[grid_parents] == index["planning.replan_angled"]]).size
        out["planning.angled_share"] = angled / replans if replans else 0.0

        tasks = self._n_tasks
        for name in ("planning.replan_angled", "phantom.prostate_transform",
                     "sensing.rigid_register", "rng.substream"):
            out[f"{name}.per_task"] = int(calls[index[name]]) / tasks if tasks else 0.0
        out["trace.tasks"] = tasks
        return out

    def write_spans(self, path: str):
        """Spans as gzipped TSV; times in seconds from install."""
        names, start, end, parent = self._arrays()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\ttask\n")
            for i in range(len(names)):
                fh.write(
                    f"{self.names[names[i]]}\t{start[i] - self._t0:.9f}\t"
                    f"{end[i] - self._t0:.9f}\t{parent[i]}\t{self.span_task[i]}\n"
                )
