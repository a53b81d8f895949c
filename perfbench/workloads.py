"""The benchmark's workloads: study config, main call and output checks.

Every workload is a serial (``jobs=1``) harness call made from one
process.  Its inputs are made from the workload seed alone: the seed is
the study seed, so the same seed gives the same phantoms, targets and
noise, and byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from prostasim import calibrate, config, study

DEFAULT_SEED = 20260823

# Tolerances of acceptance criteria 4 and 5, copied from the module
# constants of tests/test_acceptance.py ("criteria 4-7").
MAX_CLOSED_OPEN_RATIO = 0.6
MAX_OPEN_VS_INDUCED_REL = 0.25
ERROR_TARGET, ERROR_TOL = 2.73, 1.0
AXIAL_TARGET, AXIAL_TOL = 5.46, 1.5
APEX_DC_TARGET, BASE_DC_TARGET, DC_TOL = 4.0, 6.5, 1.5
AXIS_TARGETS, AXIS_TOL = (1.26, 1.09, 1.53), 0.5

# One replicate per grid study instead of calibrate's default 4: a run of
# 4 replicates takes ~20 s, a single sample per run, and its time swung
# 16-25 s between runs on a shared 2-core machine (IQR/median 0.27 over
# ten seeds).  One replicate keeps the 32 studies, their fixed costs and
# the plans repeated across grid points, in ~5 s samples a run can take
# the median of.  The result is feasible at seeds 0-10 and 20260823.
CAL_REPLICATES = 1
CAL_GRID_POINTS = 2
CAL_AXES = 5  # axial_base_offset, axial_gain, rotation_gain, noise_sd_motion, sigma0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # layers a traced run must see called at least once
    layers: tuple[str, ...]
    make_config: Callable[[int], config.StudyConfig]
    # main call: writes outputs under the directory and, as soon as they
    # are known, records in ``done`` the number of insertion runs
    # completed and the payload ``check`` inspects, so a later step that
    # raises still leaves both
    main: Callable[[config.StudyConfig, str, dict], None]
    check: Callable[[config.StudyConfig, str, object], list[str]]


def _default(seed: int) -> config.StudyConfig:
    cfg = config.default_config()
    cfg.seed = seed
    cfg.jobs = 1
    return cfg


def _plan_heavy(seed: int) -> config.StudyConfig:
    cfg = _default(seed)
    cfg.mode = "open_loop"
    # Wider arch capsules block the direct path of about 30% of targets
    # (21-42% over seeds 0-100), so planning runs the angled grid search
    # far more often than the default 13%.  Sweep of (radius, max
    # angulation) over seeds: 10 mm/15 deg and 12 mm/20 deg abort with
    # NoFeasiblePath at 3-4 of 8 seeds; 11 mm/20 deg is feasible at
    # seeds 1-100 and 20260823 but aborts at seed 0 (best clearance
    # -0.013 mm); 11 mm/22 deg is feasible at every seed 0-100 and at
    # 20260823.  The angulation limit does not change which plans need
    # the grid, only how wide it is.
    for capsule in cfg.arch.capsules:
        capsule["radius"] = 11.0
    cfg.robot.max_angulation = 22.0
    # Which targets need the grid is mostly phantom geometry, so with the
    # default 9 phantoms the planning work swings with the seed (angled
    # share IQR/median 0.19 over seeds 1-10).  Four times the phantoms at
    # a quarter of the replicates keeps the 1800 insertions and cuts that
    # swing to 0.08.  Feasible at seeds 0-39 and at 40 random seeds
    # below 2**31.
    factor = 4
    cfg.n_phantoms *= factor
    cfg.n_seed_replicates //= factor
    cfg.zone_quotas = {k: v * factor for k, v in cfg.zone_quotas.items()}
    return cfg


def _run_study(cfg: config.StudyConfig, out_dir: str, done: dict):
    report = study.run_study(cfg)
    done.update(insertions=len(report.rows_closed) + len(report.rows_open), payload=report)
    study.write_report(report, out_dir, cfg.output.format)


def _run_calibrate(cfg: config.StudyConfig, out_dir: str, done: dict):
    result = calibrate.calibrate(cfg, replicates=CAL_REPLICATES, grid_points=CAL_GRID_POINTS)
    studies = CAL_GRID_POINTS**CAL_AXES
    insertions = studies * cfg.n_phantoms * cfg.targets_per_phantom * CAL_REPLICATES
    done.update(insertions=insertions, payload=result)
    # The result is written as JSON, not through calibrate.fitted_config_yaml:
    # that call raises yaml.representer.RepresenterError whenever
    # grid_points >= 2, because calibrate returns numpy floats (see
    # perfbench/README.md, "Known failure").
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "calibration.json"), "w", encoding="utf-8") as fh:
        json.dump(_calibration_record(result), fh, indent=1, sort_keys=True)


def _calibration_record(result) -> dict:
    return {
        "params": {k: float(v) for k, v in result.params.items()},
        "medians": {k: float(v) for k, v in result.medians.items()},
        "objective": float(result.objective),
        "feasible": bool(result.feasible),
    }


# -- output checks: each returns a list of failure messages ---------------


def _nonfinite_paths(obj, prefix="") -> list[str]:
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_paths(v, f"{prefix}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite_paths(v, f"{prefix}[{i}]")]
    return [prefix] if isinstance(obj, float) and not math.isfinite(obj) else []


def _check_records(path: str, expected_rows: int) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    name = os.path.basename(path)
    if len(rows) - 1 != expected_rows:
        return [f"{name}: {len(rows) - 1} rows, expected {expected_rows}"]
    width = len(rows[0])
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            return [f"{name}: row {i} has {len(row)} fields, header has {width}"]
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue  # zone and approach labels
            if not math.isfinite(value):
                return [f"{name}: row {i} holds non-finite {field}"]
    return []


def _check_study(cfg: config.StudyConfig, out_dir: str, report) -> list[str]:
    n = cfg.n_phantoms * cfg.targets_per_phantom * cfg.n_seed_replicates
    modes = {
        "closed_loop": cfg.mode in ("closed_loop", "both"),
        "open_loop": cfg.mode in ("open_loop", "both"),
    }
    failures = []
    for mode, present in modes.items():
        path = os.path.join(out_dir, f"records_{mode.split('_')[0]}.csv")
        if present != os.path.exists(path):
            failures.append(f"{os.path.basename(path)} {'missing' if present else 'unexpected'}")
        elif present:
            failures += _check_records(path, n)
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    totals = summary["totals"]
    for mode, present in modes.items():
        got = totals[mode]["n"] if mode in totals else 0
        if got != (n if present else 0):
            failures.append(f"summary totals.{mode}.n = {got}, expected {n if present else 0}")
    failures += [f"summary{p} is not finite" for p in _nonfinite_paths(summary)]
    return failures


def _check_default_study(cfg: config.StudyConfig, out_dir: str, report) -> list[str]:
    failures = _check_study(cfg, out_dir, report)
    s = report.summary
    paired = s["paired"]
    ratio = paired["error_ratio"]
    if ratio is None or not ratio <= MAX_CLOSED_OPEN_RATIO:
        failures.append(f"closed/open median error ratio {ratio} > {MAX_CLOSED_OPEN_RATIO}")
    induced = paired["median_induced_axial_motion_mm"]
    rel = abs(paired["open_median_error_mm"] - induced) / induced
    if not rel <= MAX_OPEN_VS_INDUCED_REL:
        failures.append(f"open median vs induced axial motion off by {rel:.3f}")
    strata = {(r["dimension"], r["stratum"]): r for r in s["table1"]["strata"]}
    axes = {r["stratum"]: r for r in s["table2"]["rows"]}["All"]
    checks = (
        ("closed error median", s["totals"]["closed_loop"]["error_mm"]["median"], ERROR_TARGET, ERROR_TOL),
        ("closed axial median", s["totals"]["closed_loop"]["depth_correction_mm"]["median"], AXIAL_TARGET, AXIAL_TOL),
        ("apex depth correction", strata[("depth", "Apex")]["depth_correction_mm"]["median"], APEX_DC_TARGET, DC_TOL),
        ("base depth correction", strata[("depth", "Base")]["depth_correction_mm"]["median"], BASE_DC_TARGET, DC_TOL),
        ("x motion median", axes["x_mm"]["median"], AXIS_TARGETS[0], AXIS_TOL),
        ("y motion median", axes["y_mm"]["median"], AXIS_TARGETS[1], AXIS_TOL),
        ("z motion median", axes["z_mm"]["median"], AXIS_TARGETS[2], AXIS_TOL),
    )
    for label, value, target, tol in checks:
        if not abs(value - target) <= tol:
            failures.append(f"{label} {value:.3f} outside {target} +- {tol}")
    return failures


def _check_calibrate(cfg: config.StudyConfig, out_dir: str, result) -> list[str]:
    failures = []
    if not result.feasible:
        failures.append("calibration result is infeasible")
    if not math.isfinite(result.objective):
        failures.append(f"calibration objective {result.objective} is not finite")
    if len(result.params) != CAL_AXES or len(result.medians) != len(calibrate.TARGETS):
        failures.append(f"{len(result.params)} params / {len(result.medians)} medians")
    for key, value in {**result.params, **result.medians}.items():
        if not math.isfinite(value):
            failures.append(f"{key} = {value} is not finite")
    path = os.path.join(out_dir, "calibration.json")
    if not os.path.exists(path):
        failures.append("calibration.json missing")
    else:
        with open(path, encoding="utf-8") as fh:
            if json.load(fh) != _calibration_record(result):
                failures.append("calibration.json does not carry the result")
    return failures


CLOSED_LOOP_LAYERS = ("controller", "planning", "phantom", "sensing", "rng", "kinematics", "study", "stats")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study_default",
            "the shipped default study, both modes, 1800 pairs; closed-loop correction dominates",
            CLOSED_LOOP_LAYERS,
            _default,
            _run_study,
            _check_default_study,
        ),
        Workload(
            "calibrate_grid",
            "calibrate over a 2-point grid, 32 closed-loop studies of 90 insertions; per-study fixed costs and plan reuse",
            CLOSED_LOOP_LAYERS + ("calibrate",),
            _default,
            _run_calibrate,
            _check_calibrate,
        ),
        Workload(
            "plan_heavy",
            "open loop, 36 phantoms, 11 mm arch capsules and 22 deg angulation, ~30% of plans grid-search; planner and kernel work",
            CLOSED_LOOP_LAYERS,
            _plan_heavy,
            _run_study,
            _check_study,
        ),
    )
}


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every output file, keyed by its path under out_dir."""
    out = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))
