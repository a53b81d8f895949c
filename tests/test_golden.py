"""Byte-level pins of the study outputs.

Given a config and seed the report bytes are fixed; a refactor must leave
these digests alone.  A deliberate change to the output bytes updates the
digests here and names the change in CHANGES.md.

The pins were made with the versions of ``PINNED_WITH``.  Another numpy can
give other last bits (its LAPACK and ufunc loops), and another PyYAML other
YAML text, so a pin that fails names the versions running.  CI installs
these versions through ``.github/constraints.txt``.
"""

import hashlib
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from conftest import tiny_config
from prostasim import calibrate as cal
from prostasim.config import default_config
from prostasim.study import run_study, write_report

# the versions every pin below was made with
PINNED_WITH = {"python": "3.11", "numpy": "2.4.6", "PyYAML": "6.0.3"}

DEFAULT_STUDY = {
    "records_closed.csv": "ffa177b43d89a9c87b8c042a30fee101b0fd249908ec023c6b080f64c00e2088",
    "records_open.csv": "727b21b332f59fc960145461b5f5c1529b8c3d4a470ade4d425d90f6ec77814c",
    "summary.json": "56f1fc8c8a7cba8fc17af70e37c81712ed2d6cb036df949532eab6f1ef6c3fa7",
}

# the default study in closed loop alone: its records are DEFAULT_STUDY's,
# and its summary holds no open-loop totals and no paired comparison
DEFAULT_CLOSED_ONLY = {
    "records_closed.csv": "ffa177b43d89a9c87b8c042a30fee101b0fd249908ec023c6b080f64c00e2088",
    "summary.json": "cde4cac6e6ae54adc470fdb259216f77b585232575504e1972d46222c81860e2",
}

TINY_OPEN_LOOP = {
    "records_open.csv": "946eaf7a816b7fd5c9dbb0ac85e765b7f9c167b5d7b7c6ade1f7687301375cf8",
    "summary.json": "1d173030d8cfdbfd55c8c1e4f813747287ec09376a6ff30d14a59eff6f0bba72",
}

TINY_ANGLED = {
    "records_closed.csv": "4f9c85d2d6a20768738431932dcf98970931de5ff1216f8132285eec90146e20",
    "records_open.csv": "58cd6a2335ac11ea802f7325e48cc39f446a9c8d9699eacd4473cd82887b14b1",
    "summary.json": "e17405d2bcdc4da6a4c17ec6b5b4009fe2fa19860de2caf705bb099717a1d6b7",
}

# open loop with 11 mm arch capsules and 22 deg angulation, 4x the default
# phantoms at 1/4 of the replicates: about 570 of the 1800 plans take the
# angled grid search, so any planner decision that moves shows here
PLAN_HEAVY = {
    "records_open.csv": "657d42f2a5e05d207c27e3804e1746b0f7f0d5eb1ca553240bf88489d7e8405c",
    "summary.json": "cae4606c43e58102181738bc397506130b6c8e413ae99a20a16e0d24c7c297d3",
}


# calibrate(default_config(), replicates=1, grid_points=2): the YAML header
# rounds the medians, so the objective and medians are pinned exactly too
CALIBRATE_SMALL_YAML = "da99f19d8a800249623f8c0b7b42b4140077388d2a60414ba20b5b7be84451e8"
CALIBRATE_SMALL_OBJECTIVE = 0.04485180233292494
CALIBRATE_SMALL_MEDIANS = {
    "overall_error_mm": 2.294885903364383,
    "axial_motion_mm": 5.065431593079133,
    "apex_depth_correction_mm": 4.178281579447912,
    "base_depth_correction_mm": 6.527082887829902,
    "motion_x_mm": 1.3684160877213967,
    "motion_y_mm": 1.1614742034757637,
    "motion_z_mm": 1.4951289996354349,
}

# sha256 of the fitted_config.yaml that the default `prostasim calibrate`
# writes (3 grid points per axis, 4 replicates); the runtime-only CI job
# also checks the installed CLI's output against it.
CALIBRATE_DEFAULT_YAML = "5ae3f32bc7e0c8c49f50fb07eb871ca5327454ed9892eb60062ccc8e433f7507"


def assert_pinned(got, pinned):
    running = {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__, "PyYAML": yaml.__version__}
    assert got == pinned, f"pinned with {PINNED_WITH}, running {running}"


def _digests(report, out_dir):
    paths = write_report(report, str(out_dir))
    return {os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def test_default_study_bytes(tmp_path):
    assert_pinned(_digests(run_study(default_config()), tmp_path), DEFAULT_STUDY)


def test_default_closed_only_study_bytes(tmp_path):
    cfg = default_config()
    cfg.mode = "closed_loop"
    assert_pinned(_digests(run_study(cfg), tmp_path), DEFAULT_CLOSED_ONLY)
    assert DEFAULT_CLOSED_ONLY["records_closed.csv"] == DEFAULT_STUDY["records_closed.csv"]


def test_open_loop_variant_bytes(tmp_path):
    assert_pinned(_digests(run_study(tiny_config(mode="open_loop")), tmp_path), TINY_OPEN_LOOP)


def test_left_bias_angled_variant_bytes(tmp_path):
    # wider arch capsules block the direct path to some targets, so the
    # planner's angled grid search and clearance kernel are in the pin
    cfg = tiny_config()
    cfg.phantom.left_bias_enabled = True
    for cap in cfg.arch.capsules:
        cap["radius"] = 11.0
    cfg.robot.max_angulation = 22.0
    report = run_study(cfg)
    assert (report.rows_closed.approach == "Angled").any()
    assert_pinned(_digests(report, tmp_path), TINY_ANGLED)


def test_plan_heavy_study_bytes(tmp_path):
    cfg = default_config()
    cfg.mode = "open_loop"
    for cap in cfg.arch.capsules:
        cap["radius"] = 11.0
    cfg.robot.max_angulation = 22.0
    cfg.n_phantoms *= 4
    cfg.n_seed_replicates //= 4
    cfg.zone_quotas = {k: v * 4 for k, v in cfg.zone_quotas.items()}
    report = run_study(cfg)
    assert np.count_nonzero(report.rows_open.approach == "Angled") > 500
    assert_pinned(_digests(report, tmp_path), PLAN_HEAVY)


def test_small_calibration_is_pinned():
    base = default_config()
    result = cal.calibrate(base, replicates=1, grid_points=2)
    text = cal.fitted_config_yaml(base, result, replicates=1, grid_points=2)
    assert_pinned(hashlib.sha256(text.encode("utf-8")).hexdigest(), CALIBRATE_SMALL_YAML)
    assert_pinned(result.objective, CALIBRATE_SMALL_OBJECTIVE)
    assert_pinned(result.medians, CALIBRATE_SMALL_MEDIANS)


def test_default_calibration_is_pinned():
    # the default search: 3 blocks x 3 sigma0 values x 81 motion points
    base = default_config()
    result = cal.calibrate(base)
    text = cal.fitted_config_yaml(base, result, replicates=4, grid_points=3)
    assert_pinned(hashlib.sha256(text.encode("utf-8")).hexdigest(), CALIBRATE_DEFAULT_YAML)
