import json
import os

import pytest
import yaml

from conftest import UNSPLITTABLE_QUOTAS, tiny_config
from prostasim.cli import cli_main
from prostasim.config import default_config, from_dict, to_yaml
from prostasim.planning import NoFeasiblePath, replan_angled
from prostasim.study import run_study


def tiny_config_file(tmp_path, **kw):
    cfg = tiny_config(**kw)
    path = tmp_path / "study.yaml"
    path.write_text(to_yaml(cfg))
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_help_and_version_exit_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("prostasim ")


def test_bad_flag_is_usage_error(capsys):
    assert run_cli(capsys, "simulate", "--bogus")[0] == 1
    assert run_cli(capsys, "simulate", "--mode", "diagonal")[0] == 1


def test_emit_default_config_is_loadable(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--emit-default-config")
    assert code == 0
    assert out.startswith("# prostasim study configuration")
    cfg = from_dict(yaml.safe_load(out))
    cfg.validate()
    assert cfg.mode == "both"


def test_simulate_writes_expected_files(tmp_path, capsys):
    cfg_path = tiny_config_file(tmp_path)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg_path, "--out", str(out_dir))
    assert code == 0
    for name in ("records_closed.csv", "records_open.csv", "summary.json"):
        assert (out_dir / name).exists()
        assert f"wrote {out_dir / name}" in out
    assert "closed_loop: n=16 median error" in out
    assert "open_loop: n=16" in out


def test_report_recomputes_identical_summary(tmp_path, capsys):
    cfg_path = tiny_config_file(tmp_path)
    out_dir = tmp_path / "run"
    run_cli(capsys, "simulate", "--config", cfg_path, "--out", str(out_dir))
    first = (out_dir / "summary.json").read_bytes()
    code, _, _ = run_cli(capsys, "report", "--config", cfg_path, "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "summary.json").read_bytes() == first


def test_report_reads_the_records_of_its_mode(tmp_path, capsys):
    cfg_path = tiny_config_file(tmp_path)
    both, closed = tmp_path / "both", tmp_path / "closed"
    run_cli(capsys, "simulate", "--config", cfg_path, "--out", str(both))
    run_cli(capsys, "simulate", "--config", cfg_path, "--mode", "closed", "--out", str(closed))
    summary = (closed / "summary.json").read_bytes()
    # a closed-only round trip keeps its bytes
    assert run_cli(capsys, "report", "--config", cfg_path, "--mode", "closed", "--out", str(closed))[0] == 0
    assert (closed / "summary.json").read_bytes() == summary
    # the closed-only report of a run of both modes is the closed-only run's
    assert run_cli(capsys, "report", "--config", cfg_path, "--mode", "closed", "--out", str(both))[0] == 0
    assert (both / "summary.json").read_bytes() == summary
    # a report of both modes needs the open-loop records, and writes nothing without them
    code, _, err = run_cli(capsys, "report", "--config", cfg_path, "--out", str(closed))
    assert code == 2 and f"no records_open.csv under {closed}" in err
    assert (closed / "summary.json").read_bytes() == summary


def test_report_without_records_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--out", str(tmp_path / "nothing"))
    assert code == 2
    assert "no records" in err


def test_an_infeasible_target_exits_2_and_names_its_position(tmp_path, capsys):
    cfg = tiny_config()
    # a wall across the entry side of the gland: no trajectory clears it
    cfg.arch.capsules = [{"a": [-60.0, 0.0, -30.0], "b": [60.0, 0.0, -30.0], "radius": 30.0}]
    path = tmp_path / "walled.yaml"
    path.write_text(to_yaml(cfg))
    with pytest.raises(NoFeasiblePath) as exc:
        run_study(cfg)
    target = exc.value.target
    # the named position is the target the search failed for
    with pytest.raises(NoFeasiblePath) as alone:
        replan_angled(cfg.arch.build(), [target], cfg.entry_region, cfg.robot, cfg.needle_radius)
    assert alone.value.best_clearance == exc.value.best_clearance
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "run"))
    assert code == 2
    x, y, z = target.tolist()
    assert f"no collision-free trajectory to the target at ({x:.3f}, {y:.3f}, {z:.3f}) mm" in err


def test_a_target_observed_behind_the_entry_plane_exits_2_and_names_it(tmp_path, capsys):
    # a valid degradation whose late needles observe a target behind the entry plane
    cfg = default_config()
    cfg.noise.degradation_per_needle = 2.0
    path = tmp_path / "degraded.yaml"
    path.write_text(to_yaml(cfg))
    with pytest.raises(NoFeasiblePath) as exc:
        run_study(cfg)
    x, y, z = exc.value.target.tolist()
    assert z <= cfg.robot.front_plane_z
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "run"))
    assert code == 2
    assert f"for the target at ({x:.3f}, {y:.3f}, {z:.3f}) mm" in err
    # a failed run leaves no directory it made
    assert not (tmp_path / "run").exists()


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("verbosity: 3\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == 1
    assert "verbosity" in err


def test_an_entry_plane_behind_the_gland_front_is_config_error(tmp_path, capsys):
    cfg = tiny_config()
    cfg.robot.front_plane_z = -10.0
    path = tmp_path / "inside.yaml"
    path.write_text(to_yaml(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "robot.front_plane_z" in err
    assert not (tmp_path / "run").exists()


def test_quotas_no_phantom_can_hold_are_config_error(tmp_path, capsys):
    cfg = default_config()
    cfg.zone_quotas = dict(UNSPLITTABLE_QUOTAS)
    path = tmp_path / "quotas.yaml"
    path.write_text(to_yaml(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "zone_quotas: zone quotas leave phantom 0 with negative Right count" in err
    # it fails before the run makes its output directory
    assert not (tmp_path / "run").exists()


def test_an_overflowing_degradation_is_config_error(tmp_path, capsys):
    cfg = tiny_config()
    cfg.noise.degradation_per_needle = 1e300
    path = tmp_path / "degraded.yaml"
    path.write_text(to_yaml(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "noise.degradation_per_needle" in err
    assert "Traceback" not in err


def test_a_target_spacing_no_gland_can_hold_is_config_error(tmp_path, capsys):
    cfg = tiny_config()
    cfg.phantom.min_target_spacing = 100.0
    path = tmp_path / "spaced.yaml"
    path.write_text(to_yaml(cfg))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "phantom.min_target_spacing" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def crowded_config_file(tmp_path):
    """The default config with targets spaced within the two-target bound
    validate checks, so that it passes, but too far apart for ten to fit."""
    cfg = default_config()
    cfg.phantom.min_target_spacing = 30.0
    cfg.validate()
    path = tmp_path / "crowded.yaml"
    path.write_text(to_yaml(cfg))
    return str(path)


CROWDED_ERROR = "phantom: could not place target 2 in zone ('Apex', 'Left', 'Anterior') with min spacing 30.0 mm"


def test_a_phantom_whose_targets_cannot_be_placed_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", crowded_config_file(tmp_path), "--out", str(tmp_path / "run"))
    assert code == 1
    assert CROWDED_ERROR in err
    assert "Traceback" not in err
    # the output directory the command made before the run is removed again
    assert not (tmp_path / "run").exists()


def test_calibrate_of_a_phantom_whose_targets_cannot_be_placed_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "calibrate", "--config", crowded_config_file(tmp_path), "--out", str(tmp_path / "fit"),
        "--grid-points", "1", "--replicates", "1",
    )
    assert code == 1
    assert CROWDED_ERROR in err
    assert "Traceback" not in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_a_config_error_in_the_run_removes_only_the_directories_the_command_made(tmp_path, capsys, command):
    config = crowded_config_file(tmp_path)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("written before the run")
    empty = tmp_path / "empty"
    empty.mkdir()
    for out in (kept, empty, kept / "made" / "deeper"):
        assert run_cli(capsys, command, "--config", config, "--out", str(out))[0] == 1
    assert (kept / "notes.txt").read_text() == "written before the run"
    assert empty.is_dir()
    assert not (kept / "made").exists()


def test_seed_override_changes_bytes_and_repeats(tmp_path, capsys):
    cfg_path = tiny_config_file(tmp_path, mode="closed_loop")
    runs = {}
    for name, seed in (("a", "123"), ("b", "123"), ("c", "124")):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys, "simulate", "--config", cfg_path, "--out", str(out_dir), "--seed", seed
        )
        assert code == 0
        runs[name] = (out_dir / "records_closed.csv").read_bytes()
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_mode_alias_and_csv_format(tmp_path, capsys):
    cfg_path = tiny_config_file(tmp_path)
    out_dir = tmp_path / "open_run"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--config", cfg_path, "--out", str(out_dir),
        "--mode", "open", "--format", "csv",
    )
    assert code == 0
    assert (out_dir / "records_open.csv").exists()
    assert not (out_dir / "records_closed.csv").exists()
    text = (out_dir / "summary.csv").read_text()
    assert text.startswith("key,value\n")
    assert "header.mode,open_loop" in text


def test_calibrate_writes_fitted_config(tmp_path, capsys):
    cfg_path = tiny_config_file(tmp_path, mode="closed_loop")
    out_dir = tmp_path / "fit"
    code, out, err = run_cli(
        capsys,
        "calibrate", "--config", cfg_path, "--out", str(out_dir),
        "--grid-points", "1", "--replicates", "1",
    )
    assert code == 0
    path = out_dir / "fitted_config.yaml"
    assert path.exists()
    assert f"wrote {path}" in err
    fitted = from_dict(yaml.safe_load(path.read_text()))
    fitted.validate()
    assert out == path.read_text()


def test_calibrate_into_an_unwritable_yaml_is_runtime_error(tmp_path, capsys, monkeypatch):
    # the YAML is checked before the search
    def refuse(*args, **kwargs):
        raise AssertionError("calibrate searched a grid whose YAML it cannot write")

    monkeypatch.setattr("prostasim.calibrate.run_points", refuse)
    cfg_path = tiny_config_file(tmp_path, mode="closed_loop")
    out_dir = tmp_path / "fit"
    (out_dir / "fitted_config.yaml").mkdir(parents=True)
    code, out, err = run_cli(
        capsys,
        "calibrate", "--config", cfg_path, "--out", str(out_dir),
        "--grid-points", "1", "--replicates", "1",
    )
    assert code == 2 and out == ""
    assert f"error: cannot write report under {out_dir}: " in err


@pytest.mark.parametrize("zone", ["apex", "base"])
def test_calibrate_without_an_apex_or_base_target_is_config_error(tmp_path, capsys, monkeypatch, zone):
    # calibrate scores the apex and base depth corrections: a config with no
    # target in one of them passes validate, but fails before the search
    def refuse(*args, **kwargs):
        raise AssertionError("calibrate searched a grid it cannot score")

    monkeypatch.setattr("prostasim.calibrate.run_points", refuse)
    cfg = tiny_config(mode="closed_loop")
    other = "base" if zone == "apex" else "apex"
    cfg.zone_quotas[other] += cfg.zone_quotas[zone]
    cfg.zone_quotas[zone] = 0
    cfg.validate()
    config = tmp_path / "study.yaml"
    config.write_text(to_yaml(cfg))
    out_dir = tmp_path / "fit"
    code, _, err = run_cli(
        capsys, "calibrate", "--config", str(config), "--out", str(out_dir),
        "--grid-points", "1", "--replicates", "1",
    )
    assert code == 1
    assert f"error: zone_quotas.{zone}: " in err
    assert not out_dir.exists()


def test_calibrate_rejects_bad_counts(tmp_path, capsys):
    code, _, err = run_cli(capsys, "calibrate", "--grid-points", "0")
    assert code == 1
    assert "grid-points" in err


def test_simulate_into_unwritable_dir_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg_path = tiny_config_file(tmp_path)
    code, _, err = run_cli(
        capsys, "simulate", "--config", cfg_path, "--out", str(blocker / "sub")
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("fmt, blocked", [
    ("json", "summary.json"), ("csv", "summary.csv"), ("json", "records_open.csv"),
])
def test_simulate_into_an_unwritable_report_file_is_runtime_error(tmp_path, capsys, monkeypatch, fmt, blocked):
    # every file of the report is checked before the run
    def refuse(*args, **kwargs):
        raise AssertionError("simulate ran a study whose report it cannot write")

    monkeypatch.setattr("prostasim.cli.run_study", refuse)
    out_dir = tmp_path / "run"
    (out_dir / blocked).mkdir(parents=True)
    code, out, err = run_cli(
        capsys, "simulate", "--config", tiny_config_file(tmp_path, mode="both"), "--out", str(out_dir),
        "--format", fmt,
    )
    assert code == 2 and out == ""
    assert f"error: cannot write report under {out_dir}: " in err
    assert not [path for path in out_dir.glob("records_*.csv") if path.is_file()]


@pytest.mark.parametrize("command, module, name", [
    ("simulate", "prostasim.cli", "run_study"),
    ("calibrate", "prostasim.calibrate", "calibrate"),
])
def test_an_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, command, module, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} ran before it made its output directory")

    monkeypatch.setattr(f"{module}.{name}", refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code, _, err = run_cli(capsys, command, "--out", str(blocker / "sub"))
    assert code == 2
    assert "cannot write" in err
