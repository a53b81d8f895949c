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
    "records_closed.csv": "07fd794bbe09f6b0ed82c740a2b1328002d93ddaa94e07b3a0977c1b0ac11128",
    "records_open.csv": "23bb005ee73520530351b43b01d914ce70ef3677102e2cb1738c0be0f899c3c5",
    "summary.json": "ebf44befde49718b86646ba6c6955ad9ef819df7721f1a8f772128f1b41bd41e",
}

# the default study in closed loop alone: its records are DEFAULT_STUDY's,
# and its summary holds no open-loop totals and no paired comparison
DEFAULT_CLOSED_ONLY = {
    "records_closed.csv": "07fd794bbe09f6b0ed82c740a2b1328002d93ddaa94e07b3a0977c1b0ac11128",
    "summary.json": "d16c0999324180614ee49e367a9c1f08aa787c6d09b7d3566d650098b3537727",
}

TINY_OPEN_LOOP = {
    "records_open.csv": "946eaf7a816b7fd5c9dbb0ac85e765b7f9c167b5d7b7c6ade1f7687301375cf8",
    "summary.json": "1d173030d8cfdbfd55c8c1e4f813747287ec09376a6ff30d14a59eff6f0bba72",
}

TINY_ANGLED = {
    "records_closed.csv": "f0fb57e6fa348511f0e04053c0001969cdeef67b39bf627727ff1b47cd33ddcf",
    "records_open.csv": "6ec855c195d23e99d838d3e67daad3a9858472d58e7bb0e3a6f988f9b29f0514",
    "summary.json": "3a6fccd2ab19ef9b725331c6dec500290cf5943cd6b77807370db72fffde1afb",
}

# open loop with 11 mm arch capsules and 22 deg angulation, 4x the default
# phantoms at 1/4 of the replicates: about 570 of the 1800 plans take the
# angled grid search, so any planner decision that moves shows here
PLAN_HEAVY = {
    "records_open.csv": "7a960bd21247730b09c61d754d85e484b1e66c7ed6184c1b473ca749aa2f525f",
    "summary.json": "31a885e55c4d9116f5139a6f0248ca57b837d247c64450965ad6629631b23f93",
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
