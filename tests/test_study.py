import copy
import json
import os
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from conftest import records_csv_oracle, tiny_config
from prostasim.config import ConfigError, StudyConfig, default_config
from prostasim.controller import Records
from prostasim.phantom import phantom_quota_split
from prostasim.planning import NoFeasiblePath
from prostasim.study import (
    CSV_COLUMNS,
    build_phantoms,
    read_records,
    report_from_records,
    rows_to_csv,
    run_points,
    run_study,
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
    rec = tiny_report.rows_closed
    assert set(rec.zone_depth.tolist()) <= {"Apex", "Base"}
    assert set(rec.zone_lateral.tolist()) <= {"Left", "Center", "Right"}
    assert set(rec.zone_ap.tolist()) <= {"Anterior", "Posterior"}
    assert set(rec.approach.tolist()) <= {"Horizontal", "Angled"}


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
    # two points, of two sigma0 values: the first point's records are the study's
    (no_closed, first), _ = run_points(cfg, [(cfg.motion, cfg.noise.sigma0), (cfg.motion, 0.0)])
    assert plain.rows_open == first
    assert len(plain.rows_open) == 16 and len(no_closed) == 0


def test_run_points_validates_each_point(monkeypatch):
    cfg = tiny_config(mode="closed_loop", replicates=1)
    validated = []
    check = StudyConfig.validate
    monkeypatch.setattr(StudyConfig, "validate", lambda self: validated.append(self) or check(self))
    points = [(cfg.motion, cfg.noise.sigma0), (replace(cfg.motion, axial_gain=0.0), 0.0)]
    assert len(list(run_points(cfg, points))) == 2
    assert len(validated) == 1 and validated[0] is cfg  # the base config, once
    # a point's sections fail as the config's own would, with its key path
    for motion, sigma0, match in (
        (replace(cfg.motion, axial_gain=-1.0), 0.1, r"^motion: axial_gain must be >= 0$"),
        (replace(cfg.motion, rotation_gain=float("nan")), 0.1, r"^motion\.rotation_gain: must be finite$"),
        (cfg.motion, -0.1, r"^noise: sigma0 must be >= 0$"),
        (cfg.motion, float("inf"), r"^noise\.sigma0: must be finite$"),
    ):
        bad = replace(cfg, motion=motion, noise=replace(cfg.noise, sigma0=sigma0))
        with pytest.raises(ConfigError, match=match):
            bad.validate()
        with pytest.raises(ConfigError, match=match):
            run_points(cfg, [points[0], (motion, sigma0)])
    # the streams are drawn under the config's motion stream salt
    with pytest.raises(ValueError, match="rng_seed"):
        run_points(cfg, [(replace(cfg.motion, rng_seed=cfg.motion.rng_seed + 1), cfg.noise.sigma0)])


def test_run_points_lets_each_point_go_once_it_is_handed_out():
    cfg = tiny_config(mode="closed_loop", replicates=1)
    points = iter(run_points(cfg, [(cfg.motion, cfg.noise.sigma0), (cfg.motion, 0.0), (cfg.motion, 0.2)]))
    first, _ = next(points)
    released = weakref.ref(first)
    del first
    assert released() is None
    # the points after it are still there
    assert [len(rows_closed) for rows_closed, _ in points] == [8, 8]


# Three relations between the records of two runs on one host. Unlike the
# golden pins, which hold only on the BLAS kernel they were made on, they
# hold on the SkylakeX, Zen and Haswell kernels alike, so they are drawn
# over small valid configs.  A plan that fails is part of the relation:
# where the two runs plan the same slots, both fail, for the same target.


def _between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def tiny_configs(draw, replicates=st.integers(1, 3)):
    """A valid variant of conftest's tiny config, of both modes: a drawn seed,
    replicate count, gland, motion, noise and arch capsule radius."""
    cfg = tiny_config(draw(st.integers(0, 2**64 - 1)), replicates=draw(replicates))
    # glands from well inside to past the default's in every axis, each
    # roomy enough for a phantom's four zoned targets 4 mm apart
    cfg.phantom = replace(
        cfg.phantom, gland_semiaxes=tuple(draw(_between(14.0, 32.0)) for _ in range(3)),
        pivot=(draw(_between(-6.0, 6.0)), draw(_between(4.0, 26.0)), draw(_between(-26.0, 0.0))),
        left_bias_mm=draw(_between(0.0, 3.0)), left_bias_enabled=draw(st.booleans()),
    )
    cfg.motion = replace(
        cfg.motion, axial_gain=draw(_between(0.0, 0.3)), axial_base_offset=draw(_between(0.0, 4.0)),
        rotation_gain=draw(_between(0.0, 0.05)), noise_sd_motion=draw(_between(0.0, 3.0)),
    )
    # up to a 125-fold sd at a phantom's last needle: some targets are seen behind the entry plane
    cfg.noise = replace(
        cfg.noise, sigma0=draw(_between(0.0, 0.5)), depth_gain=draw(_between(0.0, 0.01)),
        degradation_per_needle=draw(_between(1.0, 5.0)),
    )
    # from clear direct paths to arches that block every path to some targets
    radius = draw(_between(1.0, 14.0))
    for cap in cfg.arch.capsules:
        cap["radius"] = radius
    cfg.validate()
    return cfg


def _run(cfg):
    """The study's report, or the NoFeasiblePath its plan raised."""
    try:
        return run_study(cfg)
    except NoFeasiblePath as e:
        return e


def _both_failed(a, b) -> bool:
    """Whether runs ``a`` and ``b`` (``_run``'s) both failed to plan, for the same
    target; one failing alone fails the test."""
    failed = isinstance(a, NoFeasiblePath)
    assert failed == isinstance(b, NoFeasiblePath), (a, b)
    if failed:
        np.testing.assert_array_equal(a.target, b.target)
    return failed


# every example runs whole studies: a failing one fails the run as drawn, for
# shrinking it (and explaining the shrunk one) would hold the run for minutes
DRAWN = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)


@DRAWN
@given(cfg=tiny_configs(), block=st.integers(1, 40))
@example(cfg=tiny_config(), block=5)
@example(cfg=tiny_config(), block=1)
@example(cfg=tiny_config(), block=7)
@example(cfg=tiny_config(), block=128)
def test_blocks_do_not_change_the_report(monkeypatch, cfg, block):
    from prostasim import study

    whole = _run(cfg)
    sizes = {"plan": [], "correct": []}

    def counted(key, fn, rows=len):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes[key].append(rows(out))
            return out
        return call

    with monkeypatch.context() as patch:
        patch.setattr(study, "plan_insertions", counted("plan", study.plan_insertions))
        # a loop's records, one per point
        patch.setattr(
            study, "correct_insertions", counted("correct", study.correct_insertions, lambda out: sum(map(len, out)))
        )
        patch.setattr(study, "BLOCK_SLOTS", block)
        split = _run(cfg)
    if _both_failed(whole, split):
        return
    n = len(whole.rows_closed)
    blocks = [min(block, n - lo) for lo in range(0, n, block)]
    assert sizes == {"plan": blocks, "correct": blocks}
    assert split.rows_closed == whole.rows_closed
    assert split.rows_open == whole.rows_open
    assert json.dumps(split.summary) == json.dumps(whole.summary)


@pytest.mark.parametrize("block, first_pass_rows, sigma0s, sizes", [
    # one point: blocks of BLOCK_SLOTS, the last of what remains
    (5, 12, [0.1], [5, 5, 5, 1]),
    # three points of one sigma0: FIRST_PASS_ROWS // 3 slots
    (5, 12, [0.1, 0.1, 0.1], [4, 4, 4, 4]),
    # the largest sigma0 has two points: 12 // 2 = 6 slots, but at most 5,
    # each block planned once per sigma0
    (5, 12, [0.1, 0.2, 0.1], [5, 5, 5, 5, 5, 5, 1, 1]),
    # fewer rows than points: a slot per block
    (5, 3, [0.1] * 4, [1] * 16),
])
def test_a_block_holds_block_slots_or_first_pass_rows_per_point(monkeypatch, block, first_pass_rows, sigma0s, sizes):
    from prostasim import study

    plan = study.plan_insertions
    planned = []

    def counted(*args, **kwargs):
        plans = plan(*args, **kwargs)
        planned.append(len(plans))
        return plans

    monkeypatch.setattr(study, "plan_insertions", counted)
    monkeypatch.setattr(study, "BLOCK_SLOTS", block)
    monkeypatch.setattr(study, "FIRST_PASS_ROWS", first_pass_rows)
    cfg = tiny_config()
    rows = [len(rows_closed) for rows_closed, _ in run_points(cfg, [(cfg.motion, s) for s in sigma0s])]
    assert rows == [16] * len(sigma0s)
    assert planned == sizes


def test_a_block_is_let_go_before_the_next_is_drawn(monkeypatch):
    from prostasim import study

    # a weak reference to every block's streams and plans, as they are made
    made = []

    def kept(fn, drawing=False):
        def call(*args, **kwargs):
            if drawing:
                assert [ref() for ref in made] == [None] * len(made)
            out = fn(*args, **kwargs)
            made.append(weakref.ref(out))
            return out
        return call

    monkeypatch.setattr(study, "draw_insertions", kept(study.draw_insertions, drawing=True))
    monkeypatch.setattr(study, "plan_insertions", kept(study.plan_insertions))
    monkeypatch.setattr(study, "BLOCK_SLOTS", 5)
    cfg = tiny_config()
    # both modes, two sigma0s: 4 blocks, each drawn once and planned twice
    points = [(cfg.motion, cfg.noise.sigma0), (cfg.motion, 0.0), (cfg.motion, cfg.noise.sigma0)]
    assert len(list(run_points(cfg, points))) == 3
    assert len(made) == 4 * 3


@pytest.mark.parametrize("seed", [777, 1, 2])
def test_a_study_of_both_modes_gives_the_records_of_each_mode_run_alone(seed):
    both = run_study(tiny_config(seed, mode="both"))
    assert run_study(tiny_config(seed, mode="closed_loop")).rows_closed == both.rows_closed
    assert run_study(tiny_config(seed, mode="open_loop")).rows_open == both.rows_open


@DRAWN
@given(cfg=tiny_configs())
def test_a_study_of_both_modes_gives_the_records_of_each_mode_run_alone_on_drawn_configs(cfg):
    both = _run(cfg)
    closed, opened = (_run(replace(cfg, mode=mode)) for mode in ("closed_loop", "open_loop"))
    if _both_failed(both, closed) | _both_failed(both, opened):
        return
    assert closed.rows_closed == both.rows_closed
    assert opened.rows_open == both.rows_open


@pytest.mark.parametrize("seed", [777, 1, 2])
def test_the_first_replicates_of_a_study_are_the_study_of_those_replicates(seed):
    # the 48 slots of 6 replicates against 8 and 24, each one block
    many = run_study(tiny_config(seed, mode="both", replicates=6))
    for replicates in (1, 3):
        few = run_study(tiny_config(seed, mode="both", replicates=replicates))
        for rows, prefix in ((many.rows_closed, few.rows_closed), (many.rows_open, few.rows_open)):
            assert len(prefix) == 8 * replicates
            assert rows.rows(rows.replicate < replicates) == prefix, replicates


@DRAWN
@given(cfg=tiny_configs(replicates=st.integers(2, 6)), data=st.data())
def test_the_first_replicates_of_a_study_are_the_study_of_those_replicates_on_drawn_configs(cfg, data):
    # n replicates against fewer, each study one block
    many = _run(cfg)
    replicates = data.draw(st.integers(1, cfg.n_seed_replicates - 1))
    few = _run(replace(cfg, n_seed_replicates=replicates))
    if isinstance(few, NoFeasiblePath):
        # the longer study plans the same slots and more: it fails too
        assert isinstance(many, NoFeasiblePath)
        return
    if isinstance(many, NoFeasiblePath):
        return  # a slot of a later replicate failed
    for rows, prefix in ((many.rows_closed, few.rows_closed), (many.rows_open, few.rows_open)):
        assert len(prefix) == 8 * replicates
        assert rows.rows(rows.replicate < replicates) == prefix, replicates


def _at(cfg, motion, sigma0):
    """``cfg`` run at the point (``motion``, ``sigma0``)."""
    return replace(cfg, motion=motion, noise=replace(cfg.noise, sigma0=sigma0))


@st.composite
def sigma0_groups(draw, cfg):
    """Points of ``cfg``: two or three sigma0 values, one of them a group of a
    single point and the others groups of two or three, in a drawn order."""
    sigmas = draw(st.lists(_between(0.0, 0.5), min_size=2, max_size=3, unique=True))
    sizes = [1] + [draw(st.integers(2, 3)) for _ in sigmas[1:]]
    motions = st.builds(
        replace, st.just(cfg.motion), axial_gain=_between(0.0, 0.3), axial_base_offset=_between(0.0, 4.0),
        rotation_gain=_between(0.0, 0.05), noise_sd_motion=_between(0.0, 3.0),
    )
    points = [(draw(motions), sigma0) for sigma0, size in zip(sigmas, sizes) for _ in range(size)]
    return draw(st.permutations(points))


@DRAWN
@given(cfg=tiny_configs(), data=st.data())
def test_each_point_of_a_run_is_the_study_at_that_point(monkeypatch, cfg, data):
    points = data.draw(sigma0_groups(cfg))
    alone = [_run(_at(cfg, motion, sigma0)) for motion, sigma0 in points]
    failed = [a for a in alone if isinstance(a, NoFeasiblePath)]
    with monkeypatch.context() as patch:
        # chunks of any size: a chunk's first passes are its slice of its sigma0's
        from prostasim import study

        patch.setattr(study, "LOOP_ROWS", data.draw(st.integers(1, 120)))
        try:
            together = list(run_points(cfg, points))
        except NoFeasiblePath as e:
            # the first group to fail names the target its points fail on alone
            assert any(np.array_equal(e.target, a.target) for a in failed), e
            return
    assert not failed
    for (rows_closed, rows_open), report in zip(together, alone):
        assert rows_closed == report.rows_closed
        assert rows_open == report.rows_open


@DRAWN
@given(cfg=tiny_configs(), mode=st.sampled_from(["closed_loop", "open_loop", "both"]))
@example(cfg=tiny_config(), mode="closed_loop")
@example(cfg=tiny_config(), mode="open_loop")
@example(cfg=tiny_config(), mode="both")
def test_the_report_of_the_written_records_is_the_runs(cfg, mode):
    cfg = replace(cfg, mode=mode)
    report = _run(cfg)
    if isinstance(report, NoFeasiblePath):
        return  # no records to write
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        again = report_from_records(cfg, out)
    assert json.dumps(again.summary) == json.dumps(report.summary)


def test_every_loop_reads_the_blocks_tables_as_they_are(monkeypatch, tiny_report):
    from prostasim import study

    # every block's plans and streams, each with a copy taken as it was made
    made = []

    def kept(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            made.append((out, copy.deepcopy(out)))
            return out
        return call

    # the plans and streams each loop was given
    handed = []

    def seen(fn, at):
        def call(*args):
            handed.append(args[at:at + 2])
            return fn(*args)
        return call

    def assert_read_as_made(blocks, loops):
        assert len(made) == blocks and len(handed) == loops
        tables = [table for table, _ in made]
        for plans, streams in handed:
            assert any(plans is t for t in tables) and any(streams is t for t in tables)
        # the loops read them and changed none of their columns
        for table, as_made in made:
            assert table == as_made
        made.clear()
        handed.clear()

    monkeypatch.setattr(study, "draw_insertions", kept(study.draw_insertions))
    monkeypatch.setattr(study, "plan_insertions", kept(study.plan_insertions))
    monkeypatch.setattr(study, "correct_insertions", seen(study.correct_insertions, 5))
    monkeypatch.setattr(study, "open_loop_records", seen(study.open_loop_records, 1))
    monkeypatch.setattr(study, "BLOCK_SLOTS", 5)
    cfg = tiny_config()
    report = run_study(cfg)
    # 4 blocks, each drawn and planned once, each scored in both modes
    assert_read_as_made(4 + 4, 4 * 2)
    assert report.rows_closed == tiny_report.rows_closed
    assert report.rows_open == tiny_report.rows_open
    # three points, two of them of one sigma0: each block is drawn once and
    # planned once per sigma0, runs one closed loop per sigma0 and is scored
    # in the open loop by every point
    points = [
        (cfg.motion, cfg.noise.sigma0),
        (replace(cfg.motion, axial_gain=2.0 * cfg.motion.axial_gain), 2.0 * cfg.noise.sigma0),
        (replace(cfg.motion, rotation_gain=0.0, noise_sd_motion=0.5), cfg.noise.sigma0),
    ]
    (rows_closed, rows_open), *_ = run_points(cfg, points)
    assert_read_as_made(4 + 4 * 2, 4 * (2 + 3))
    assert rows_closed == tiny_report.rows_closed and rows_open == tiny_report.rows_open


def run_fresh(code: str, **env):
    """Run ``code`` in a fresh interpreter that imports prostasim and conftest, with
    the environment variables ``env`` set for it alone; fails with its stderr."""
    import prostasim

    paths = [os.path.dirname(os.path.dirname(prostasim.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]), **env)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# OpenBLAS's x86-64 cores and the CPU flags their kernels need: a core the
# CPU cannot run is left out rather than forced on it
OPENBLAS_CORES = {
    "SkylakeX": {"avx512f", "avx512dq", "avx512bw", "avx512vl"}, "Haswell": {"avx2", "fma"}, "Zen": {"avx2", "fma"},
    "Prescott": {"pni"},
}


def openblas_cores_here() -> list[str]:
    """The cores of ``OPENBLAS_CORES`` this machine can run, where numpy's BLAS is
    an x86-64 OpenBLAS that picks its core at run time (none elsewhere)."""
    try:  # the dict form of numpy's build record is numpy 1.26's
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return []
    if "openblas" not in blas.get("name", "").lower() or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next(set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags"))
    except (OSError, StopIteration):
        return []
    return [core for core, need in OPENBLAS_CORES.items() if need <= flags]


def test_report_bytes_do_not_depend_on_the_openblas_core(tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels for one process: a tiny
    # study of both modes, each in a fresh interpreter on another core,
    # must write the same bytes
    cores = openblas_cores_here()
    if len(cores) < 2:
        pytest.skip("numpy's BLAS is not an x86-64 OpenBLAS with two cores to choose from here")
    for core in cores:
        run_fresh(
            "from conftest import tiny_config\n"
            "from prostasim.study import run_study, write_report\n"
            f"write_report(run_study(tiny_config(mode='both')), {str(tmp_path / core)!r})\n",
            OPENBLAS_CORETYPE=core,
        )
    first, *others = cores
    names = sorted(os.listdir(tmp_path / first))
    assert names == ["records_closed.csv", "records_open.csv", "summary.json"]
    for core in others:
        assert sorted(os.listdir(tmp_path / core)) == names
        for name in names:
            assert (tmp_path / core / name).read_bytes() == (tmp_path / first / name).read_bytes(), (core, name)


def test_a_study_run_imports_no_numpy_ma(tmp_path):
    # numpy 2.4's plain np.unique imports numpy.ma (9-17 ms) on its first
    # call; a run and its report must not make one.  A fresh interpreter,
    # so that no other test has imported it already
    run_fresh(
        "import sys\n"
        "from conftest import tiny_config\n"
        "from prostasim.study import run_study, write_report\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported before the run'\n"
        f"write_report(run_study(tiny_config(mode='both')), {str(tmp_path)!r})\n"
        "assert 'numpy.ma' not in sys.modules, 'the run imported numpy.ma'\n"
    )
    assert (tmp_path / "summary.json").exists()


def test_a_default_simulate_imports_no_yaml(tmp_path):
    # PyYAML serves only the commands that read or write YAML; a default
    # simulate, through the CLI, does neither and must not pay its import
    run_fresh(
        "import sys\n"
        "from prostasim.cli import cli_main\n"
        f"assert cli_main(['simulate', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'yaml' not in sys.modules, 'a default simulate imported yaml'\n"
    )
    assert (tmp_path / "summary.json").exists()


def test_report_keeps_the_config_it_was_run_with(tiny_report):
    cfg = tiny_config()
    report = run_study(cfg)
    cfg.seed += 1  # after the run, before the summary is first read
    assert report.summary == tiny_report.summary


def test_quota_split_sums_per_phantom():
    cfg = tiny_config()
    split = phantom_quota_split(cfg.zone_quotas, cfg.n_phantoms, cfg.targets_per_phantom)
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
        phantom_quota_split(cfg.zone_quotas, cfg.n_phantoms, cfg.targets_per_phantom)


def test_build_phantoms_determined_by_seed():
    cfg = tiny_config()
    a = build_phantoms(cfg)
    b = build_phantoms(cfg)
    assert len(a) == cfg.n_phantoms
    np.testing.assert_array_equal(a.target_rest, b.target_rest)


def csv_part(rec):
    """``rec`` without the columns the records CSV does not hold."""
    return replace(
        rec, max_corrections_exceeded=None, registration_rms=None, duration_s=None, rotation_angle_deg=None
    )


def test_csv_round_trip(tiny_report, tmp_path):
    for rec in (tiny_report.rows_closed, tiny_report.rows_open):
        text = rows_to_csv(rec)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        # the bytes of the row-wise writer
        assert text == records_csv_oracle(rec)
        path = tmp_path / "records.csv"
        path.write_text(text)
        back = read_records(str(path))
        assert back == csv_part(rec) and back != rec
        assert rows_to_csv(back) == text


LABELS = {
    "zone_depth": ("Apex", "Base"),
    "zone_lateral": ("Left", "Center", "Right"),
    "zone_ap": ("Anterior", "Posterior"),
    "approach": ("Horizontal", "Angled"),
}
INTS = st.integers(-(2**63), 2**63 - 1)
# any finite float: -0.0, subnormals and the extremes among them
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_records(draw):
    """Records of up to 12 rows holding only the CSV's columns."""
    n = draw(st.integers(0, 12))

    def column(elements, dtype, width=1):
        values = draw(st.lists(elements, min_size=n * width, max_size=n * width))
        return np.array(values, dtype=dtype).reshape((n, width) if width > 1 else n)

    return Records(
        phantom_id=column(INTS, np.int64), target_id=column(INTS, np.int64), replicate=column(INTS, np.int64),
        **{name: column(st.sampled_from(labels), str) for name, labels in LABELS.items()},
        n_corrections=column(INTS, np.int64),
        depth_correction_mm=column(FLOATS, np.float64), error_mm=column(FLOATS, np.float64),
        motion_mm=column(FLOATS, np.float64, width=3),
        disengaged=column(st.integers(0, 1), np.int64),
    )


def one_row(**floats):
    """A one-row record of the CSV's columns, its floats given."""
    return Records(
        *(np.array([i], dtype=np.int64) for i in range(3)),
        *(np.array([labels[0]]) for labels in LABELS.values()),
        np.array([1]), np.array([floats["depth"]]), np.array([floats["error"]]),
        np.array([floats["motion"]]), np.array([0]),
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rec=csv_records())
@example(rec=one_row(depth=-0.0, error=5e-324, motion=[-0.0, 2.2250738585072014e-308, -1e-310]))
@example(rec=one_row(depth=0.1, error=1.7976931348623157e308, motion=[-2.5e-320, 0.0, 1 / 3]))
def test_csv_round_trip_keeps_every_bit(rec, tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(rows_to_csv(rec))
    assert read_records(str(path)) == rec


def test_read_records_rejects_foreign_header(tmp_path):
    header = ",".join(CSV_COLUMNS) + "\n"
    cases = [
        ("a,b,c\n1,2,3\n", "header"),
        (header + "0,1,0,Apex\n", r"x\.csv:2: expected 14 fields, got 4"),
        # every parse error names its column
        (header + ",".join(["x"] * 14) + "\n", r"x\.csv:2: phantom_id: invalid literal"),
        (header + "0,1,0,Apex,Left,Anterior,Horizontal,1,0.5,0.7,0.1,0.2,0.3,0\n"
         "0,2,0,Base,Right,Posterior,Angled,2,0.5,abc,0.1,0.2,0.3,0\n",
         r"^\S*x\.csv:3: error_mm: could not convert string to float: 'abc'$"),
        (header + "0,1,0,Apex,Left,Anterior,Horizontal,1,0.5,0.7,0.1,0.2,0.3,0\n"
         "0,2,0,Base,Right,Posterior,Angled,2,0.5,nan,0.1,0.2,0.3,0\n",
         r"^\S*x\.csv:3: error_mm: non-finite value 'nan'$"),
        (header + "0,1,0,Apex,Left,Anterior,Horizontal,1,0.5,0.7,0.1,-inf,0.3,0\n",
         r"^\S*x\.csv:2: motion_y_mm: non-finite value '-inf'$"),
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


def test_report_from_records_reads_the_csvs_of_its_mode(tiny_report, tmp_path):
    # the records of a run of both modes report each mode as a run of it alone
    write_report(tiny_report, str(tmp_path))
    for mode in ("closed_loop", "open_loop"):
        cfg = tiny_config(mode=mode)
        again = report_from_records(cfg, str(tmp_path))
        assert json.dumps(again.summary) == json.dumps(run_study(cfg).summary), mode
    # a mode whose records are missing names them
    os.remove(tmp_path / "records_open.csv")
    for mode in ("both", "open_loop"):
        with pytest.raises(RuntimeError, match=f"no records_open.csv under {tmp_path} for mode {mode}"):
            report_from_records(tiny_config(mode=mode), str(tmp_path))


def test_write_report_files_and_formats(tiny_report, tmp_path):
    paths = write_report(tiny_report, str(tmp_path / "j"), fmt="json")
    names = [os.path.basename(p) for p in paths]
    assert names == ["records_closed.csv", "records_open.csv", "summary.json"]
    with open(paths[-1]) as fh:
        loaded = json.load(fh)
    assert loaded == tiny_report.summary

    paths = write_report(tiny_report, str(tmp_path / "c"), fmt="csv")
    assert os.path.basename(paths[-1]) == "summary.csv"
    with open(paths[-1]) as fh:
        text = fh.read()
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
    assert len(rep.rows_open) == 0
    assert "paired" not in rep.summary
    assert "open_loop" not in rep.summary["totals"]
    assert rep.summary["corrections"]["histogram"]


def test_open_only_mode_still_tabulates():
    cfg = tiny_config(mode="open_loop")
    rep = run_study(cfg)
    assert len(rep.rows_closed) == 0
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
    i = np.arange(6)
    rows = Records(
        phantom_id=np.zeros(6, dtype=np.int64), target_id=i, replicate=np.zeros(6, dtype=np.int64),
        zone_depth=np.where(i < 3, "Apex", "Base"), zone_lateral=np.where(i % 2, "Left", "Right"),
        zone_ap=np.full(6, "Anterior"), approach=np.full(6, "Horizontal"),
        n_corrections=np.ones(6, dtype=np.int64), depth_correction_mm=np.full(6, 5.0),
        error_mm=1.0 + i * 0.5, motion_mm=np.tile([0.1, -0.2, 0.3], (6, 1)),
        disengaged=np.zeros(6, dtype=np.int64),
    )
    cfg = tiny_config()
    no_rows = replace(rows, **{f.name: getattr(rows, f.name)[:0] for f in fields(rows) if f.default is not None})
    summary = summarize(cfg, rows, no_rows)
    assert "open_loop" not in summary["totals"]
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

    med = lambda rec, attr: float(np.median(getattr(rec, attr)))
    open_shift = med(strong.rows_open, "error_mm") - med(base.rows_open, "error_mm")
    closed_shift = med(strong.rows_closed, "error_mm") - med(base.rows_closed, "error_mm")
    dc_shift = med(strong.rows_closed, "depth_correction_mm") - med(
        base.rows_closed, "depth_correction_mm"
    )
    assert open_shift > 0
    assert dc_shift > 0
    assert abs(closed_shift) < 0.5 * open_shift
