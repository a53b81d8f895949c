"""End-to-end acceptance checks.

One test per criterion, each emitting a single ACCEPTANCE line (visible
with -s, and in the failure report otherwise).  Tolerances are pinned as
module constants; the full default study runs once per session and is
shared by the statistical criteria.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from prostasim import geometry
from prostasim.config import default_config
from prostasim.kinematics import (
    JointState,
    OutOfReach,
    RobotGeometry,
    Trajectory,
    inverse_kinematics,
    forward_kinematics,
)
from prostasim.stats import Sample, kruskal_wallis, mann_whitney_u
from prostasim.study import CALIBRATION_NOTE, rows_to_csv, run_study

# criterion 1
REG_CASES = 1000
REG_MAX_ROT_DEG = 20.0
REG_MAX_TRANS_MM = 10.0
REG_TOL_TRANS_MM = 1e-6
REG_TOL_ROT_DEG = 1e-6
REG_BUDGET_S = 1.0

# criterion 2
IK_CASES = 1000
IK_LINE_TOL = 1e-9
GRID_STEP_MM = 0.5

# criterion 3
MW_CASES = 200
MW_MAX_N = 12
KW_IDENTITY_TOL = 1e-9

# criteria 4-7
MAX_CLOSED_OPEN_RATIO = 0.6
MAX_OPEN_VS_INDUCED_REL = 0.25
ERROR_TARGET, ERROR_TOL = 2.73, 1.0
AXIAL_TARGET, AXIAL_TOL = 5.46, 1.5
APEX_DC_TARGET, BASE_DC_TARGET, DC_TOL = 4.0, 6.5, 1.5
AXIS_TARGETS, AXIS_TOL = (1.26, 1.09, 1.53), 0.5
ALPHA = 0.05
MIN_ONE_CORRECTION = 0.70
MAX_TWO_PLUS = 0.20

# criterion 8
STUDY_BUDGET_S = 60.0


def _verdict(n, name, ok, detail):
    print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def full_default_study():
    cfg = default_config()
    t0 = time.perf_counter()
    report = run_study(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, report, elapsed


@pytest.fixture(scope="module")
def left_bias_study():
    cfg = default_config()
    cfg.mode = "closed_loop"
    cfg.phantom.left_bias_enabled = True
    return run_study(cfg)


def _table1_test(summary, dimension):
    for t in summary["table1"]["tests"]:
        if t["dimension"] == dimension:
            return t
    raise AssertionError(f"no {dimension} test in table1")


def _stratum_median(summary, dimension, label, key):
    for row in summary["table1"]["strata"]:
        if row["dimension"] == dimension and row["stratum"] == label:
            return row[key]["median"]
    raise AssertionError(f"no stratum {dimension}/{label}")


def test_criterion_1_registration_oracle(rng):
    cases = []
    for _ in range(REG_CASES):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, REG_MAX_ROT_DEG)
        rot = geometry.rotation_about_axis(axis, angle, center=[0.0, 0.0, 0.0])
        shift = rng.normal(size=3)
        shift *= rng.uniform(0.0, REG_MAX_TRANS_MM) / np.linalg.norm(shift)
        t_true = geometry.compose(geometry.RigidTransform(np.eye(3), shift), rot)
        ref = rng.uniform(-30.0, 30.0, (6, 3))
        obs = geometry.apply(t_true, ref)
        cases.append((t_true, ref, obs))

    t0 = time.perf_counter()
    results = [geometry.register_points(ref, obs) for _, ref, obs in cases]
    elapsed = time.perf_counter() - t0

    worst_t = worst_r = 0.0
    for (t_true, _, _), (est, _) in zip(cases, results):
        worst_t = max(worst_t, float(np.linalg.norm(est.translation - t_true.translation)))
        # ||R1 - R2||_F = 2*sqrt(2)*sin(theta/2); arccos of the trace cannot
        # resolve angles this small
        frob = float(np.linalg.norm(est.rotation - t_true.rotation))
        angle = 2.0 * math.asin(min(1.0, frob / (2.0 * math.sqrt(2.0))))
        worst_r = max(worst_r, math.degrees(angle))

    ok = worst_t <= REG_TOL_TRANS_MM and worst_r <= REG_TOL_ROT_DEG and elapsed < REG_BUDGET_S
    _verdict(
        1, "registration oracle", ok,
        f"n={REG_CASES}, worst translation {worst_t:.2e} mm <= {REG_TOL_TRANS_MM}, "
        f"worst rotation {worst_r:.2e} deg <= {REG_TOL_ROT_DEG}, {elapsed:.3f} s < {REG_BUDGET_S} s",
    )


def _probe_feasible(geom, entry3, target):
    """Stage-travel / angulation classifier written from the machine layout."""
    d = geometry.normalize(target - entry3)
    if d[2] <= 0:
        return False
    ang = np.degrees(np.arctan2(np.hypot(d[0], d[1]), d[2]))
    if ang > geom.max_angulation + 1e-9:
        return False
    for plane_z in (geom.front_plane_z, geom.front_plane_z - geom.stage_separation):
        s = (plane_z - entry3[2]) / d[2]
        hit = entry3 + s * d
        if abs(hit[0]) > geom.stage_travel + 1e-9 or abs(hit[1]) > geom.stage_travel + 1e-9:
            return False
    return True


def test_criterion_2_ik_fk_round_trip(rng):
    geom = RobotGeometry()
    worst = 0.0
    for _ in range(IK_CASES):
        while True:
            stage = rng.uniform(-geom.stage_travel * 0.98, geom.stage_travel * 0.98, 4)
            front = np.array([stage[0], stage[1], geom.front_plane_z])
            back = np.array([stage[2], stage[3], geom.front_plane_z - geom.stage_separation])
            d = geometry.normalize(front - back)
            ang = np.degrees(np.arctan2(np.hypot(d[0], d[1]), d[2]))
            if ang <= geom.max_angulation:
                break
        traj = Trajectory(front, d, float(rng.uniform(40.0, 90.0)), "Horizontal")
        js = JointState(*inverse_kinematics(geom, [traj.entry], [traj.dir])[0])
        entry, dd, _ = forward_kinematics(geom, js)
        _, lateral = geometry.axis_decompose(traj.entry, traj.dir, entry)
        worst = max(worst, lateral, float(np.max(np.abs(dd - traj.dir))))

    target = np.array([7.3, -4.1, 11.7])
    xs = np.arange(-46.0, 46.0 + GRID_STEP_MM / 2, GRID_STEP_MM)
    disagreements = 0
    n_grid = 0
    for x in xs:
        for y in xs:
            entry3 = np.array([x, y, geom.front_plane_z])
            traj = Trajectory(
                entry3, geometry.normalize(target - entry3), 60.0, "Horizontal"
            )
            try:
                inverse_kinematics(geom, [traj.entry], [traj.dir])
                got = True
            except OutOfReach:
                got = False
            disagreements += got != _probe_feasible(geom, entry3, target)
            n_grid += 1

    ok = worst <= IK_LINE_TOL and disagreements == 0
    _verdict(
        2, "IK/FK round trip", ok,
        f"n={IK_CASES}, worst line deviation {worst:.2e} <= {IK_LINE_TOL}; "
        f"grid probe {n_grid} entries at {GRID_STEP_MM} mm, {disagreements} disagreements",
    )


def _enumerate_p(a, b):
    pooled = list(a) + list(b)
    na, nb = len(a), len(b)

    def u_min(xs, ys):
        ua = sum(1 for x in xs for y in ys if x > y)
        return min(ua, na * nb - ua)

    obs = u_min(a, b)
    hits = total = 0
    for idx in combinations(range(len(pooled)), na):
        chosen = set(idx)
        ga = [pooled[i] for i in chosen]
        gb = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        total += 1
        hits += u_min(ga, gb) <= obs
    return hits / total


def test_criterion_3_stats_oracles(rng):
    mismatches = 0
    for _ in range(MW_CASES):
        na = int(rng.integers(2, MW_MAX_N - 1))
        nb = int(rng.integers(2, MW_MAX_N - na + 1))
        vals = rng.permutation(np.arange(1.0, na + nb + 1.0)) + rng.uniform(0, 0.3, na + nb)
        a, b = vals[:na], vals[na:]
        _, p = mann_whitney_u(Sample(a), Sample(b))
        mismatches += p != _enumerate_p(a, b)

    worst_gap = 0.0
    for _ in range(50):
        na = int(rng.integers(5, 20))
        nb = int(rng.integers(5, 20))
        vals = rng.permutation(np.arange(1.0, na + nb + 1.0)) + rng.uniform(0, 0.3, na + nb)
        a, b = vals[:na], vals[na:]
        h, _ = kruskal_wallis([Sample(a), Sample(b)])
        # z of the tie-free normal approximation, no continuity correction
        ranks = np.argsort(np.argsort(np.concatenate([a, b]))) + 1.0
        ua = float(np.sum(ranks[:na])) - na * (na + 1) / 2.0
        z = (ua - na * nb / 2.0) / math.sqrt(na * nb * (na + nb + 1) / 12.0)
        worst_gap = max(worst_gap, abs(h - z * z))

    ok = mismatches == 0 and worst_gap <= KW_IDENTITY_TOL
    _verdict(
        3, "stats oracles", ok,
        f"MW exact vs enumeration: {mismatches} mismatches in {MW_CASES} cases "
        f"(n <= {MW_MAX_N}); KW two-group |H - z^2| worst {worst_gap:.2e} <= {KW_IDENTITY_TOL}",
    )


def test_criterion_4_closed_vs_open_loop(full_default_study):
    _, report, _ = full_default_study
    paired = report.summary["paired"]
    ratio = paired["error_ratio"]
    open_med = paired["open_median_error_mm"]
    induced = paired["median_induced_axial_motion_mm"]
    rel = abs(open_med - induced) / induced
    ok = ratio <= MAX_CLOSED_OPEN_RATIO and rel <= MAX_OPEN_VS_INDUCED_REL
    _verdict(
        4, "closed vs open loop", ok,
        f"closed/open median error ratio {ratio:.3f} <= {MAX_CLOSED_OPEN_RATIO}; "
        f"open {open_med:.2f} mm vs induced axial {induced:.2f} mm "
        f"(rel {rel:.3f} <= {MAX_OPEN_VS_INDUCED_REL})",
    )


def test_criterion_5_median_reproduction(full_default_study):
    _, report, _ = full_default_study
    s = report.summary
    err = s["totals"]["closed_loop"]["error_mm"]["median"]
    axial = s["totals"]["closed_loop"]["depth_correction_mm"]["median"]
    apex = _stratum_median(s, "depth", "Apex", "depth_correction_mm")
    base = _stratum_median(s, "depth", "Base", "depth_correction_mm")
    t2 = {row["stratum"]: row for row in s["table2"]["rows"]}["All"]
    axes = (t2["x_mm"]["median"], t2["y_mm"]["median"], t2["z_mm"]["median"])

    checks = [
        abs(err - ERROR_TARGET) <= ERROR_TOL,
        abs(axial - AXIAL_TARGET) <= AXIAL_TOL,
        abs(apex - APEX_DC_TARGET) <= DC_TOL,
        abs(base - BASE_DC_TARGET) <= DC_TOL,
        all(abs(m - t) <= AXIS_TOL for m, t in zip(axes, AXIS_TARGETS)),
        s["header"]["calibration_note"] == CALIBRATION_NOTE,
    ]
    _verdict(
        5, "median reproduction", all(checks),
        f"error {err:.2f} vs {ERROR_TARGET}+-{ERROR_TOL}; axial {axial:.2f} vs "
        f"{AXIAL_TARGET}+-{AXIAL_TOL}; apex dc {apex:.2f} / base dc {base:.2f} vs "
        f"{APEX_DC_TARGET}/{BASE_DC_TARGET}+-{DC_TOL}; axis medians "
        f"({axes[0]:.2f}, {axes[1]:.2f}, {axes[2]:.2f}) vs {AXIS_TARGETS}+-{AXIS_TOL}; "
        f"calibration note {'present' if checks[-1] else 'missing'}",
    )


def test_criterion_6_directional_significance(full_default_study, left_bias_study):
    _, report, _ = full_default_study
    s = report.summary
    depth = _table1_test(s, "depth")
    apex_med = _stratum_median(s, "depth", "Apex", "error_mm")
    base_med = _stratum_median(s, "depth", "Base", "error_mm")
    approach = _table1_test(s, "approach")

    sb = left_bias_study.summary
    lateral = _table1_test(sb, "lateral")
    lat_meds = {
        lab: _stratum_median(sb, "lateral", lab, "error_mm")
        for lab in ("Left", "Center", "Right")
    }
    left_worst = lat_meds["Left"] > max(lat_meds["Center"], lat_meds["Right"])

    ok = (
        depth["p"] < ALPHA
        and apex_med < base_med
        and lateral["p"] < ALPHA
        and left_worst
        and approach["p"] > ALPHA
    )
    _verdict(
        6, "directional significance", ok,
        f"apex-vs-base p {depth['p']:.2e} < {ALPHA} with apex {apex_med:.2f} < base {base_med:.2f}; "
        f"lateral (bias on) p {lateral['p']:.2e} < {ALPHA} with Left {lat_meds['Left']:.2f} worst "
        f"of (C {lat_meds['Center']:.2f}, R {lat_meds['Right']:.2f}); "
        f"horizontal-vs-angled p {approach['p']:.3f} > {ALPHA}",
    )


def test_criterion_7_correction_count_distribution(full_default_study):
    _, report, _ = full_default_study
    corr = report.summary["corrections"]
    one = corr["fraction_exactly_one"]
    two_plus = corr["fraction_two_or_more"]
    ok = one >= MIN_ONE_CORRECTION and two_plus <= MAX_TWO_PLUS
    _verdict(
        7, "correction counts", ok,
        f"exactly one {one:.3f} >= {MIN_ONE_CORRECTION}; two or more {two_plus:.3f} <= {MAX_TWO_PLUS}",
    )


def test_criterion_8_determinism_and_performance(full_default_study):
    cfg, report, elapsed = full_default_study

    def fingerprint(rep):
        return (
            rows_to_csv(rep.rows_closed),
            rows_to_csv(rep.rows_open),
            json.dumps(rep.summary, sort_keys=True),
        )

    first = fingerprint(report)
    repeat_cfg = default_config()
    repeat = fingerprint(run_study(repeat_cfg))

    ok = elapsed < STUDY_BUDGET_S and first == repeat
    _verdict(
        8, "determinism and performance", ok,
        f"default 9x10x20 both-mode study in {elapsed:.2f} s < {STUDY_BUDGET_S} s; "
        f"repeat run identical: {first == repeat}",
    )
