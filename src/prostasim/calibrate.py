"""Grid-search calibration of motion and observation-noise parameters.

The targets are seven published medians: overall placement error, overall
axial motion (depth correction), apex and base depth corrections, and the
three per-axis residual motion medians.  The objective is the sum of
squared relative deviations from those targets; candidates that break the
workflow shape (correction-count distribution, apex/base ordering) are
rejected outright, since the objective alone cannot see them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .config import StudyConfig, to_yaml
from .study import run_study

TARGETS = {
    "overall_error_mm": 2.73,
    "axial_motion_mm": 5.46,
    "apex_depth_correction_mm": 4.0,
    "base_depth_correction_mm": 6.5,
    "motion_x_mm": 1.26,
    "motion_y_mm": 1.09,
    "motion_z_mm": 1.53,
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


def study_medians(cfg: StudyConfig) -> tuple[dict, dict]:
    """Run a closed-loop study and pull the seven calibration medians."""
    report = run_study(cfg)
    s = report.summary
    strata = {
        (row["dimension"], row["stratum"]): row for row in s["table1"]["strata"]
    }
    t2 = {row["stratum"]: row for row in s["table2"]["rows"]}
    medians = {
        "overall_error_mm": s["totals"]["closed_loop"]["error_mm"]["median"],
        "axial_motion_mm": s["totals"]["closed_loop"]["depth_correction_mm"]["median"],
        "apex_depth_correction_mm": strata[("depth", "Apex")]["depth_correction_mm"]["median"],
        "base_depth_correction_mm": strata[("depth", "Base")]["depth_correction_mm"]["median"],
        "motion_x_mm": t2["All"]["x_mm"]["median"],
        "motion_y_mm": t2["All"]["y_mm"]["median"],
        "motion_z_mm": t2["All"]["z_mm"]["median"],
    }
    return medians, s["corrections"]


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
    """A copy of ``base`` with ``sigma0`` and the motion parameters set."""
    cfg = copy.deepcopy(base)
    for key, value in params.items():
        if key == "sigma0":
            cfg.noise.sigma0 = value
        else:
            setattr(cfg.motion, key, value)
    return cfg


def _apply_params(base: StudyConfig, params: dict) -> StudyConfig:
    cfg = _with_params(base, params)
    cfg.mode = "closed_loop"
    return cfg


def calibrate(
    base: StudyConfig,
    replicates: int = 4,
    grid_points: int = 3,
    spans: dict | None = None,
) -> CalibrationResult:
    """Search a grid centered on the base config's parameters.

    ``grid_points`` values per axis over +/- span around each center.
    Returns the best feasible candidate (falling back to the best overall
    if nothing passes the shape constraints, flagged infeasible).
    """
    base = copy.deepcopy(base)
    base.n_seed_replicates = replicates
    spans = spans or {
        "axial_base_offset": 0.3,
        "axial_gain": 0.02,
        "rotation_gain": 0.002,
        "noise_sd_motion": 0.3,
        "sigma0": 0.02,
    }
    axes = {
        "axial_base_offset": _grid(base.motion.axial_base_offset, spans["axial_base_offset"], grid_points),
        "axial_gain": _grid(base.motion.axial_gain, spans["axial_gain"], grid_points),
        "rotation_gain": _grid(base.motion.rotation_gain, spans["rotation_gain"], grid_points),
        "noise_sd_motion": _grid(base.motion.noise_sd_motion, spans["noise_sd_motion"], grid_points),
        "sigma0": _grid(base.noise.sigma0, spans["sigma0"], grid_points),
    }

    best = None
    best_any = None
    for offset in axes["axial_base_offset"]:
        for gain in axes["axial_gain"]:
            for rot in axes["rotation_gain"]:
                for sd in axes["noise_sd_motion"]:
                    for sigma0 in axes["sigma0"]:
                        params = {
                            "axial_base_offset": max(0.0, offset),
                            "axial_gain": max(0.0, gain),
                            "rotation_gain": max(0.0, rot),
                            "noise_sd_motion": max(0.0, sd),
                            "sigma0": max(0.0, sigma0),
                        }
                        medians, corr = study_medians(_apply_params(base, params))
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
