import copy
import json
import os

import numpy as np
import pytest

from conftest import tiny_config
from prostasim.config import default_config
from prostasim.study import (
    CSV_COLUMNS,
    RecordRow,
    build_phantoms,
    phantom_quota_split,
    read_records,
    report_from_records,
    rows_to_csv,
    run_study,
    share_work,
    summarize,
    summary_to_csv,
    write_report,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_study(tiny_config())


def test_row_counts_and_quota_partition(tiny_report):
    cfg = tiny_config()
    n = cfg.n_phantoms * cfg.targets_per_phantom * cfg.n_seed_replicates
    assert len(tiny_report.rows_closed) == n
    assert len(tiny_report.rows_open) == n
    # every row lands in exactly one stratum per dimension
    for r in tiny_report.rows_closed:
        assert r.zone_depth in ("Apex", "Base")
        assert r.zone_lateral in ("Left", "Center", "Right")
        assert r.zone_ap in ("Anterior", "Posterior")
        assert r.approach in ("Horizontal", "Angled")


def test_both_modes_plan_once_per_insertion(monkeypatch):
    from prostasim import planning

    calls = []
    plan = planning.plan_trajectories

    def counted(arch, targets, *args, **kwargs):
        calls.append(len(targets))
        return plan(arch, targets, *args, **kwargs)

    monkeypatch.setattr(planning, "plan_trajectories", counted)
    cfg = tiny_config(mode="both")
    report = run_study(cfg)
    n = cfg.n_phantoms * cfg.targets_per_phantom * cfg.n_seed_replicates
    assert len(report.rows_closed) == len(report.rows_open) == n
    assert sum(calls) == n


def test_open_loop_studies_prepare_no_registration_reference(monkeypatch):
    from prostasim import geometry

    def refuse(*args, **kwargs):
        raise AssertionError("an open-loop run prepared a registration reference")

    monkeypatch.setattr(geometry, "prepare_reference", refuse)
    cfg = tiny_config(mode="open_loop")
    plain = run_study(cfg)
    shared = run_study(cfg, share_work(cfg))
    assert plain.rows_open == shared.rows_open
    assert len(plain.rows_open) == 16


def test_shared_work_refuses_another_config():
    cfg = tiny_config(mode="closed_loop", replicates=1)
    shared = share_work(cfg)
    other = copy.deepcopy(cfg)
    other.motion.axial_gain *= 2.0
    other.noise.sigma0 *= 2.0
    other.output.dir = "elsewhere"
    run_study(other, shared)  # motion, sigma0 and the output may differ
    for change in (
        lambda c: setattr(c, "seed", c.seed + 1),
        lambda c: setattr(c.noise, "depth_gain", 0.002),
        lambda c: setattr(c, "mode", "both"),
        lambda c: setattr(c.phantom, "left_bias_enabled", True),
        # the salt of the motion streams that shared work keeps
        lambda c: setattr(c.motion, "rng_seed", c.motion.rng_seed + 1),
    ):
        other = copy.deepcopy(cfg)
        change(other)
        with pytest.raises(ValueError, match="shared work"):
            run_study(other, shared)


def test_blocks_do_not_change_the_report(monkeypatch, tiny_report):
    from prostasim import study

    sizes = {"plan": [], "correct": []}

    def counted(key, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes[key].append(len(out))
            return out
        return call

    monkeypatch.setattr(study, "plan_insertions", counted("plan", study.plan_insertions))
    monkeypatch.setattr(study, "correct_insertions", counted("correct", study.correct_insertions))
    monkeypatch.setattr(study, "BLOCK_SLOTS", 5)
    split = run_study(tiny_config())
    assert sizes == {"plan": [5, 5, 5, 1], "correct": [5, 5, 5, 1]}
    assert split.rows_closed == tiny_report.rows_closed
    assert split.rows_open == tiny_report.rows_open
    assert json.dumps(split.summary) == json.dumps(tiny_report.summary)


def test_report_keeps_the_config_it_was_run_with(tiny_report):
    cfg = tiny_config()
    report = run_study(cfg)
    cfg.seed += 1  # after the run, before the summary is first read
    assert report.summary == tiny_report.summary


def test_quota_split_sums_per_phantom():
    cfg = tiny_config()
    split = phantom_quota_split(cfg)
    assert len(split) == cfg.n_phantoms
    per = cfg.targets_per_phantom
    for quotas in split:
        assert quotas["Apex"] + quotas["Base"] == per
        assert quotas["Left"] + quotas["Center"] + quotas["Right"] == per
        assert quotas["Anterior"] + quotas["Posterior"] == per
    for key in ("apex", "left", "center", "anterior"):
        label = key.capitalize()
        assert sum(q[label] for q in split) == cfg.zone_quotas[key]


def test_quota_split_rejects_impossible_split():
    cfg = tiny_config()
    # left + center overflow one phantom's 4 slots, forcing right below zero
    cfg.zone_quotas.update(left=5, center=4, right=-1)
    with pytest.raises(ValueError, match="negative"):
        phantom_quota_split(cfg)


def test_build_phantoms_determined_by_seed():
    cfg = tiny_config()
    a = build_phantoms(cfg)
    b = build_phantoms(cfg)
    for pa, pb in zip(a, b):
        for ta, tb in zip(pa.targets, pb.targets):
            np.testing.assert_array_equal(ta.position_rest, tb.position_rest)


def test_csv_round_trip(tiny_report, tmp_path):
    text = rows_to_csv(tiny_report.rows_closed)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    path = tmp_path / "records_closed.csv"
    path.write_text(text)
    back = read_records(str(path))
    assert back == tiny_report.rows_closed
    assert rows_to_csv(back) == text


def test_read_records_rejects_foreign_header(tmp_path):
    header = ",".join(CSV_COLUMNS) + "\n"
    cases = [
        ("a,b,c\n1,2,3\n", "header"),
        (header + "0,1,0,Apex\n", r"x\.csv:2: expected 14 fields, got 4"),
        (header + ",".join(["x"] * 14) + "\n", r"x\.csv:2: invalid literal"),
    ]
    p = tmp_path / "x.csv"
    for body, match in cases:
        p.write_text(body)
        with pytest.raises(ValueError, match=match):
            read_records(str(p))


def test_summary_reproducible_from_csv(tiny_report, tmp_path):
    cfg = tiny_config()
    write_report(tiny_report, str(tmp_path), fmt="json")
    again = report_from_records(cfg, str(tmp_path))
    assert json.dumps(again.summary, sort_keys=True) == json.dumps(
        tiny_report.summary, sort_keys=True
    )


def test_write_report_files_and_formats(tiny_report, tmp_path):
    paths = write_report(tiny_report, str(tmp_path / "j"), fmt="json")
    names = [os.path.basename(p) for p in paths]
    assert names == ["records_closed.csv", "records_open.csv", "summary.json"]
    with open(paths[-1]) as fh:
        loaded = json.load(fh)
    assert loaded == tiny_report.summary

    paths = write_report(tiny_report, str(tmp_path / "c"), fmt="csv")
    assert os.path.basename(paths[-1]) == "summary.csv"
    text = open(paths[-1]).read()
    assert text == summary_to_csv(tiny_report.summary)
    assert text.startswith("key,value\n")


def test_write_report_under_a_file_says_where(tiny_report, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(RuntimeError, match="cannot write report under"):
        write_report(tiny_report, str(blocker / "sub"))


def test_report_from_records_requires_files(tmp_path):
    with pytest.raises(RuntimeError, match="no records"):
        report_from_records(tiny_config(), str(tmp_path))


def test_closed_only_mode_has_no_pairing():
    cfg = tiny_config(mode="closed_loop")
    rep = run_study(cfg)
    assert rep.rows_open == []
    assert "paired" not in rep.summary
    assert "open_loop" not in rep.summary["totals"]
    assert rep.summary["corrections"]["histogram"]


def test_open_only_mode_still_tabulates():
    cfg = tiny_config(mode="open_loop")
    rep = run_study(cfg)
    assert rep.rows_closed == []
    assert rep.summary["corrections"] == {}
    assert rep.summary["table1"]["strata"]
    assert rep.summary["totals"]["open_loop"]["n"] == len(rep.rows_open)


def test_summary_echo_excludes_execution_details(tiny_report):
    echo = tiny_report.summary["header"]["config"]
    assert "output" not in echo
    assert echo["seed"] == tiny_config().seed


def test_correction_fractions_consistent(tiny_report):
    corr = tiny_report.summary["corrections"]
    n = sum(corr["histogram"].values())
    assert n == len(tiny_report.rows_closed)
    one = corr["histogram"].get("1", 0)
    assert corr["fraction_exactly_one"] == pytest.approx(one / n)


def test_summarize_handles_hand_built_rows():
    def row(i, err, zone_depth="Apex"):
        return RecordRow(
            phantom_id=0, target_id=i, replicate=0, zone_depth=zone_depth,
            zone_lateral="Left" if i % 2 else "Right", zone_ap="Anterior",
            approach="Horizontal", n_corrections=1, depth_correction_mm=5.0,
            error_mm=err, motion_x_mm=0.1, motion_y_mm=-0.2, motion_z_mm=0.3,
            disengaged=0,
        )

    rows = [row(i, 1.0 + i * 0.5, "Apex" if i < 3 else "Base") for i in range(6)]
    cfg = tiny_config()
    summary = summarize(cfg, rows, [])
    assert summary["totals"]["closed_loop"]["n"] == 6
    # Center stratum is empty: the lateral test is skipped
    assert all(t["dimension"] != "lateral" for t in summary["table1"]["tests"])
    depth_tests = [t for t in summary["table1"]["tests"] if t["dimension"] == "depth"]
    assert len(depth_tests) == 1
    assert depth_tests[0]["test"] == "mann_whitney_u"


def test_doubling_drag_moves_open_loop_more_than_closed():
    # scale sanity on a small study: stronger drag should blow up the
    # open-loop error and the applied correction, while the closed loop
    # largely absorbs it
    base_cfg = tiny_config(seed=101, replicates=5)
    strong_cfg = copy.deepcopy(base_cfg)
    strong_cfg.motion.axial_gain *= 2.0
    base = run_study(base_cfg)
    strong = run_study(strong_cfg)

    med = lambda rows, attr: float(np.median([getattr(r, attr) for r in rows]))
    open_shift = med(strong.rows_open, "error_mm") - med(base.rows_open, "error_mm")
    closed_shift = med(strong.rows_closed, "error_mm") - med(base.rows_closed, "error_mm")
    dc_shift = med(strong.rows_closed, "depth_correction_mm") - med(
        base.rows_closed, "depth_correction_mm"
    )
    assert open_shift > 0
    assert dc_shift > 0
    assert abs(closed_shift) < 0.5 * open_shift
