"""Byte-level pins of the study outputs.

Given a config and seed the report bytes are fixed; a refactor must leave
these digests alone.  A deliberate change to the output bytes updates the
digests here and names the change in CHANGES.md.

The pins were made with the versions of ``PINNED_WITH``.  Another numpy can
give other last bits (its ufunc loops), and another PyYAML other YAML text,
so a pin that fails names the versions running.  CI installs these versions
through ``.github/constraints.txt``.  The BLAS and LAPACK kernels move no
pinned byte: no product on the output path goes through them, and the pins
hold under every ``OPENBLAS_CORETYPE``.
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
    "records_closed.csv": "be15cfd87318d8c819f78ab55a2b133a54b58d48024fe92c1f6f7c4a80fbeca7",
    "records_open.csv": "dca1c355dad8dda19d22dbbce5bcd8dcad517618c643bb7b1567b871a0c85c73",
    "summary.json": "466ed1f6fdf1a683f3a474c896117387e274ee700fb82f1d5c9c7ace9b1088b8",
}

# the default study in closed loop alone: its records are DEFAULT_STUDY's,
# and its summary holds no open-loop totals and no paired comparison
DEFAULT_CLOSED_ONLY = {
    "records_closed.csv": "be15cfd87318d8c819f78ab55a2b133a54b58d48024fe92c1f6f7c4a80fbeca7",
    "summary.json": "4f2fad64d3af6c63ab6cd5581bc60da7fe6f93a14fb3575677594cfc8f3299d7",
}

TINY_OPEN_LOOP = {
    "records_open.csv": "3599acf4270972fc84a8fb65780237ca19c9a04f286b507892c5b37ba324dd3a",
    "summary.json": "784114863ba5d794b5f831028737f0e80c62d58d32cfe2c9707f62bda22994c0",
}

TINY_ANGLED = {
    "records_closed.csv": "7ecc13a224bb100e930683c5ac4c3e67fda337422101d58a77c2dcb3ece5ba46",
    "records_open.csv": "9dac698da5442482f6541abb9861c3d37d2284e6c1d5e594ba14df2732f4052f",
    "summary.json": "fdd8c88cd52462e87a6fb4bc52dd4aaf6f7e8209d00ca4dcfeac3cb44f7a2ddd",
}

# open loop with 11 mm arch capsules and 22 deg angulation, 4x the default
# phantoms at 1/4 of the replicates: about 570 of the 1800 plans take the
# angled grid search, so any planner decision that moves shows here
PLAN_HEAVY = {
    "records_open.csv": "c8036f03097b7be5ee08d07237cbc4011686cf33681e8cd06dddddf4e89b7e27",
    "summary.json": "c6d778682edc33b70936d46f431712067a8ab9216e6b78a55fc01ef4f8c38eea",
}


# calibrate(default_config(), replicates=1, grid_points=2): the YAML header
# rounds the medians, so the objective and medians are pinned exactly too
CALIBRATE_SMALL_YAML = "da99f19d8a800249623f8c0b7b42b4140077388d2a60414ba20b5b7be84451e8"
CALIBRATE_SMALL_OBJECTIVE = 0.04485180233292601
CALIBRATE_SMALL_MEDIANS = {
    "overall_error_mm": 2.29488590336438,
    "axial_motion_mm": 5.065431593079129,
    "apex_depth_correction_mm": 4.178281579447916,
    "base_depth_correction_mm": 6.527082887829902,
    "motion_x_mm": 1.3684160877213989,
    "motion_y_mm": 1.1614742034757652,
    "motion_z_mm": 1.4951289996354336,
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
