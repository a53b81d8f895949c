"""Grid-search calibration of motion and observation-noise parameters.

The targets are seven published medians: overall placement error, overall
axial motion (depth correction), apex and base depth corrections, and the
three per-axis residual motion medians.  The objective is the sum of
squared relative deviations from those targets; candidates that break the
workflow shape (correction-count distribution, apex/base ordering) are
rejected outright, since the objective alone cannot see them.

The grid points differ only in the four motion parameters and ``sigma0``,
so a search reuses the motion-free half of every study
(``study.SharedWork``), which it keeps by whole block of slots: the
phantoms, which hold no motion parameters, are built once per search and
every study uses them as built, each block's random streams, whose
standard normals the grid values only scale, are drawn once per search,
and each block's plans, made from reference volumes observed at rest and
so dependent on ``sigma0`` but not on motion, once per ``sigma0`` value;
each study passes its own motion parameters to the insertions.  The
grid's order and its strict-``<`` choice of the best point are those of
an unshared search, and so are the results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .config import StudyConfig, to_yaml
from .phantom import APEX, BASE
from .stats import Sample, median_iqr
from .study import SharedWork, correction_counts, run_study, share_work

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


def study_medians(cfg: StudyConfig, shared: SharedWork | None = None) -> tuple[dict, dict]:
    """Run a closed-loop study and pull the seven calibration medians.

    Each is the median the study summary reports for that quantity (the
    closed-loop totals, the apex and base strata, table 2's "All" row),
    taken straight from the columns of the closed-loop records, the strata
    by mask, so no summary is built.
    ``shared`` is passed on to ``run_study``; the medians do not depend on it.
    """
    rec = run_study(cfg, shared).rows_closed
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
    replicates, and all of them share one ``SharedWork``.  Returns the
    best feasible candidate (falling back to the best overall if nothing
    passes the shape constraints, flagged infeasible).  Raises ValueError
    when ``replicates`` or ``grid_points`` is below 1.
    """
    if replicates < 1 or grid_points < 1:
        raise ValueError(
            f"calibrate: replicates and grid_points must be >= 1, got {replicates} and {grid_points}"
        )
    base = replace(base, n_seed_replicates=replicates, mode="closed_loop")
    axes = [
        _grid(base.noise.sigma0 if key == "sigma0" else getattr(base.motion, key), span, grid_points)
        for key, span in SPANS.items()
    ]

    # phantoms, streams and plans are motion-free: made once per search,
    # each block's plans once per sigma0 value, and dropped when the search returns
    shared = share_work(base)
    best = None
    best_any = None
    # the last axis (sigma0) varies fastest
    for values in itertools.product(*axes):
        params = {key: max(0.0, v) for key, v in zip(SPANS, values)}
        medians, corr = study_medians(_with_params(base, params), shared)
        obj = objective(medians)
        ok = _feasible(medians, corr)
        cand = CalibrationResult(params, obj, medians, ok)
        if best_any is None or obj < best_any.objective:
            best_any = cand
        if ok and (best is None or obj < best.objective):
            best = cand
    return best if best is not None else best_any


def fitted_config(base: StudyConfig, result: CalibrationResult, replicates: int, grid_points: int) -> tuple[StudyConfig, str]:
    """Config carrying the fitted parameters, plus its header text."""
    cfg = _with_params(base, result.params)
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
    return cfg, "\n".join(lines)


def fitted_config_yaml(base: StudyConfig, result: CalibrationResult, replicates: int, grid_points: int) -> str:
    cfg, header = fitted_config(base, result, replicates, grid_points)
    return to_yaml(cfg, header)
