"""Grid-search calibration of motion and observation-noise parameters.

The targets are seven published medians: overall placement error, overall
axial motion (depth correction), apex and base depth corrections, and the
three per-axis residual motion medians.  The objective is the sum of
squared relative deviations from those targets; candidates that break the
workflow shape (correction-count distribution, apex/base ordering) are
rejected outright, since the objective alone cannot see them.

The grid points differ only in the four motion parameters and ``sigma0``,
so a search runs them all as the points of one ``study.run_points``,
which draws each block's streams once and plans it once per ``sigma0``;
the points of one ``sigma0`` make each slot's first pass in one call, the
four motion parameters as arrays, and run their closed loops on the
block's plans and streams together, a few hundred (point, slot) rows per
loop call (``study.LOOP_ROWS``).  Each point's records, and so its medians, are
those of its own closed-loop study, and of points of equal objective the
first in grid order wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, StudyConfig, to_yaml
from .controller import Records
from .phantom import APEX, BASE
from .stats import Sample, median_iqr
# run_study is not called here: perfbench's tracer wraps calibrate.run_study by name
from .study import correction_counts, run_points, run_study  # noqa: F401

TARGETS = {
    "overall_error_mm": 2.73,
    "axial_motion_mm": 5.46,
    "apex_depth_correction_mm": 4.0,
    "base_depth_correction_mm": 6.5,
    "motion_x_mm": 1.26,
    "motion_y_mm": 1.09,
    "motion_z_mm": 1.53,
}

# half-width of the search grid around each base value
SPANS = {
    "axial_base_offset": 0.3,
    "axial_gain": 0.02,
    "rotation_gain": 0.002,
    "noise_sd_motion": 0.3,
    "sigma0": 0.02,
}

# workflow-shape constraints the objective cannot express
MIN_FRACTION_ONE_CORRECTION = 0.72
MAX_FRACTION_TWO_PLUS = 0.18


@dataclass
class CalibrationResult:
    params: dict
    objective: float
    medians: dict
    feasible: bool


def _grid(center: float, span: float, points: int):
    if points <= 1:
        return [center]
    # plain floats: the fitted values end up in YAML, which rejects numpy scalars
    return [float(v) for v in np.linspace(center - span, center + span, points)]


def study_medians(rec: Records) -> tuple[dict, dict]:
    """The seven calibration medians of a study's closed-loop records, and its correction counts.

    Each is the median the study summary reports for that quantity (the
    closed-loop totals, the apex and base strata, table 2's "All" row),
    taken straight from the columns of the records, the strata by mask,
    so no summary is built.
    """
    correction, motion = rec.depth_correction_mm, np.abs(rec.motion_mm)
    samples = {
        "overall_error_mm": rec.error_mm,
        "axial_motion_mm": correction,
        "apex_depth_correction_mm": correction[rec.zone_depth == APEX],
        "base_depth_correction_mm": correction[rec.zone_depth == BASE],
        "motion_x_mm": motion[:, 0],
        "motion_y_mm": motion[:, 1],
        "motion_z_mm": motion[:, 2],
    }
    return {key: median_iqr(Sample(values))[0] for key, values in samples.items()}, correction_counts(rec)


def objective(medians: dict) -> float:
    return float(
        sum(((medians[k] - t) / t) ** 2 for k, t in TARGETS.items())
    )


def _feasible(medians: dict, corrections: dict) -> bool:
    if corrections["fraction_exactly_one"] < MIN_FRACTION_ONE_CORRECTION:
        return False
    if corrections["fraction_two_or_more"] > MAX_FRACTION_TWO_PLUS:
        return False
    return medians["apex_depth_correction_mm"] < medians["base_depth_correction_mm"]


def _with_params(base: StudyConfig, params: dict) -> StudyConfig:
    """``base`` with ``sigma0`` and the motion parameters set; only its
    motion and noise sections are new objects, the rest is ``base``'s own."""
    motion = {key: value for key, value in params.items() if key != "sigma0"}
    noise = {key: value for key, value in params.items() if key == "sigma0"}
    return replace(base, motion=replace(base.motion, **motion), noise=replace(base.noise, **noise))


def calibrate(
    base: StudyConfig,
    replicates: int = 4,
    grid_points: int = 3,
) -> CalibrationResult:
    """Search a grid centered on the base config's parameters.

    ``grid_points`` values per axis over +/- ``SPANS`` around each center.
    Every grid point is a closed-loop study of ``replicates`` seed
    replicates, all of them points of one ``run_points``.  Returns the
    best feasible candidate (falling back to the best overall if nothing
    passes the shape constraints, flagged infeasible).  Raises ValueError
    when ``replicates`` or ``grid_points`` is below 1, and ConfigError
    naming the quota when ``base`` has no apex or no base target, whose
    depth correction a point is scored on.
    """
    if replicates < 1 or grid_points < 1:
        raise ValueError(
            f"calibrate: replicates and grid_points must be >= 1, got {replicates} and {grid_points}"
        )
    for key in (APEX.lower(), BASE.lower()):
        if not base.zone_quotas[key]:
            raise ConfigError(f"zone_quotas.{key}: must be >= 1 to calibrate, which fits the {key} depth correction")
    base = replace(base, n_seed_replicates=replicates, mode="closed_loop")
    axes = [
        _grid(base.noise.sigma0 if key == "sigma0" else getattr(base.motion, key), span, grid_points)
        for key, span in SPANS.items()
    ]

    # the last axis (sigma0) varies fastest
    grid = [{key: max(0.0, v) for key, v in zip(SPANS, values)} for values in itertools.product(*axes)]
    points = [(_with_params(base, params).motion, params["sigma0"]) for params in grid]
    results = []
    for params, (rec, _) in zip(grid, run_points(base, points)):
        medians, corr = study_medians(rec)
        results.append(CalibrationResult(params, objective(medians), medians, _feasible(medians, corr)))
    # min keeps the first of equal objectives: grid order breaks ties
    return min([r for r in results if r.feasible] or results, key=lambda r: r.objective)


def fitted_config_yaml(base: StudyConfig, result: CalibrationResult, replicates: int, grid_points: int) -> str:
    """The YAML of the config carrying the fitted parameters, under a header naming the search and the fit."""
    lines = [
        "prostasim fitted configuration",
        "calibration: grid search minimizing sum of squared relative",
        "deviations from target medians "
        + ", ".join(f"{k}={v}" for k, v in TARGETS.items()),
        f"grid: {grid_points} points per axis around the base values; "
        f"search replicates: {replicates}",
        "feasibility filter: fraction of single-correction insertions >= "
        f"{MIN_FRACTION_ONE_CORRECTION}, fraction with two or more <= "
        f"{MAX_FRACTION_TWO_PLUS}, apex depth correction < base",
        f"objective at fit: {result.objective:.6f} (feasible={result.feasible})",
        "fitted medians: "
        + ", ".join(f"{k}={v:.3f}" for k, v in result.medians.items()),
    ]
    return to_yaml(_with_params(base, result.params), "\n".join(lines))
