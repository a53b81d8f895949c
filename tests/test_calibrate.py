import itertools
from collections import Counter
from dataclasses import fields

import numpy as np
import yaml

import pytest

from conftest import tiny_config
from prostasim import calibrate as cal
from prostasim import planning, rng, study
from prostasim.config import from_dict, to_dict


def test_objective_zero_at_targets():
    assert cal.objective(dict(cal.TARGETS)) == 0.0
    off = dict(cal.TARGETS)
    off["overall_error_mm"] *= 1.1
    assert cal.objective(off) == pytest.approx(0.01, abs=1e-12)


def test_feasibility_filter():
    meds = {"apex_depth_correction_mm": 4.0, "base_depth_correction_mm": 6.0}
    good = {"fraction_exactly_one": 0.9, "fraction_two_or_more": 0.05}
    assert cal._feasible(meds, good)
    assert not cal._feasible(meds, {**good, "fraction_exactly_one": 0.5})
    assert not cal._feasible(meds, {**good, "fraction_two_or_more": 0.5})
    flipped = {"apex_depth_correction_mm": 7.0, "base_depth_correction_mm": 6.0}
    assert not cal._feasible(flipped, good)


def test_with_params_targets_the_right_fields():
    base = tiny_config()
    before = to_dict(base)
    out = cal._with_params(base, {"sigma0": 0.9, "axial_gain": 0.33})
    assert out.noise.sigma0 == 0.9
    assert out.motion.axial_gain == 0.33
    assert out.motion.rotation_gain == base.motion.rotation_gain
    assert out.mode == base.mode
    # only the motion and noise sections are new objects, the rest is the base's own
    for f in fields(base):
        assert (getattr(out, f.name) is getattr(base, f.name)) == (f.name not in ("motion", "noise")), f.name
    # the base config is untouched
    assert to_dict(base) == before


def test_calibrate_runs_closed_loop_studies_of_its_replicates(monkeypatch):
    # the rows each grid point's medians are taken from
    seen = []

    def medians(rec):
        seen.append(rec)
        return dict(cal.TARGETS), {"fraction_exactly_one": 1.0, "fraction_two_or_more": 0.0}

    monkeypatch.setattr(cal, "study_medians", medians)
    base = tiny_config(mode="both", replicates=2)
    before = to_dict(base)
    cal.calibrate(base, replicates=3, grid_points=2)
    assert len(seen) == 2 ** len(cal.SPANS)
    slots = set(itertools.product(range(base.n_phantoms), range(base.targets_per_phantom), range(3)))
    for rec in seen:
        assert sorted(zip(rec.phantom_id.tolist(), rec.target_id.tolist(), rec.replicate.tolist())) == sorted(slots)
        # closed-loop rows: every one registered (an open-loop row holds 0 there)
        assert np.all(rec.registration_rms > 0.0)
    assert to_dict(base) == before


def test_study_medians_has_all_target_keys():
    medians, corrections = cal.study_medians(study.run_study(tiny_config(mode="closed_loop")).rows_closed)
    assert set(medians) == set(cal.TARGETS)
    assert 0.0 <= corrections["fraction_exactly_one"] <= 1.0


def test_single_point_grid_returns_base_params():
    base = tiny_config(mode="closed_loop")
    result = cal.calibrate(base, replicates=1, grid_points=1)
    assert result.params["axial_gain"] == base.motion.axial_gain
    assert result.params["sigma0"] == base.noise.sigma0
    assert result.objective >= 0.0
    text = cal.fitted_config_yaml(base, result, replicates=1, grid_points=1)
    assert text.startswith("# prostasim fitted configuration")
    fitted = from_dict(yaml.safe_load(text))
    fitted.validate()
    assert fitted.motion.axial_gain == result.params["axial_gain"]


@pytest.mark.parametrize("chosen, winner, feasible", [
    # grid point: (relative deviation of every median, feasible)
    ({3: (0.0, False), 5: (0.1, True), 7: (0.2, True)}, 5, True),  # feasible beats a lower infeasible one
    ({4: (0.1, True), 9: (0.1, True), 2: (0.0, False)}, 4, True),  # equal objectives: grid order
    ({6: (0.05, False), 8: (0.1, False)}, 6, False),  # nothing feasible: the best overall, flagged
])
def test_calibrate_picks_the_best_feasible_point_first_in_grid_order(monkeypatch, chosen, winner, feasible):
    # every other point is infeasible and far off
    seen = []

    def points(cfg, pts):
        seen.extend(pts)
        return [(i, None) for i in range(len(pts))]

    def medians(i):
        off, ok = chosen.get(i, (0.5, False))
        corrections = {"fraction_exactly_one": 0.9 if ok else 0.5, "fraction_two_or_more": 0.05}
        return {key: target * (1.0 + off) for key, target in cal.TARGETS.items()}, corrections

    monkeypatch.setattr(cal, "run_points", points)
    monkeypatch.setattr(cal, "study_medians", medians)
    base = tiny_config(mode="closed_loop")
    result = cal.calibrate(base, replicates=1, grid_points=2)
    assert len(seen) == 32
    assert (cal._with_params(base, result.params).motion, result.params["sigma0"]) == seen[winner]
    assert result.feasible is feasible
    assert result.objective == cal.objective(medians(winner)[0])


@pytest.mark.parametrize("replicates, grid_points", [(0, 1), (-1, 1), (1, 0), (1, -2)])
def test_calibrate_rejects_an_empty_search(replicates, grid_points):
    with pytest.raises(ValueError, match="calibrate: replicates and grid_points must be >= 1"):
        cal.calibrate(tiny_config(mode="closed_loop"), replicates=replicates, grid_points=grid_points)


def test_two_point_grid_writes_loadable_yaml():
    base = tiny_config(mode="closed_loop", replicates=1)
    base.n_phantoms = 1
    base.zone_quotas = {
        "apex": 2, "base": 2, "left": 1, "center": 2, "right": 1, "anterior": 2, "posterior": 2,
    }
    result = cal.calibrate(base, replicates=1, grid_points=2)
    assert all(type(v) is float for v in result.params.values())
    fitted = from_dict(yaml.safe_load(cal.fitted_config_yaml(base, result, 1, 2)))
    fitted.validate()
    assert fitted.noise.sigma0 == result.params["sigma0"]
    assert fitted.motion.rotation_gain == result.params["rotation_gain"]


def test_grid_is_centered_and_sized():
    assert cal._grid(1.0, 0.5, 1) == [1.0]
    g = cal._grid(1.0, 0.5, 3)
    assert g == [0.5, 1.0, 1.5]


def test_batched_grid_points_give_the_records_of_their_own_studies(monkeypatch):
    axes = {
        "axial_base_offset": (1.5, 3.0),
        "axial_gain": (0.05, 0.2),
        "rotation_gain": (0.0, 0.03),
        "noise_sd_motion": (0.0, 1.5),
        "sigma0": (0.05, 0.3),
    }
    # insertions that verify with the last volume of their budget, per budget
    spent = Counter()
    for max_corrections in (10, 2):
        base = tiny_config(mode="closed_loop", replicates=1)
        base.motion.noise_sd_motion = 0.8
        base.convergence.max_corrections = max_corrections
        grid = [cal._with_params(base, dict(zip(axes, values))) for values in itertools.product(*axes.values())]
        # 8 slots in blocks of 3, 3 and 2, 16 points per sigma0: each point
        # runs its own closed loop on every block
        with monkeypatch.context() as m:
            m.setattr(study, "BLOCK_SLOTS", 3)
            batched = study.run_points(base, [(cfg.motion, cfg.noise.sigma0) for cfg in grid])
        for cfg, (rec, opened) in zip(grid, batched):
            fresh = study.run_study(cfg).rows_closed
            assert rec == fresh and len(opened) == 0
            assert cal.study_medians(rec) == cal.study_medians(fresh)
            spent[max_corrections] += int(np.count_nonzero(rec.n_corrections == max_corrections))
    assert spent[2] > 0


def test_a_points_records_do_not_depend_on_how_many_points_share_its_loop(monkeypatch):
    axes = {
        "axial_base_offset": (1.5, 3.0),
        "axial_gain": (0.05, 0.2),
        "rotation_gain": (0.0, 0.03),
        "noise_sd_motion": (0.0, 1.5),
        "sigma0": (0.05, 0.3),
    }
    # a closed-only study, and one that also scores the open loop
    for mode, max_corrections in itertools.product(("closed_loop", "both"), (10, 2)):
        base = tiny_config(mode=mode, replicates=1)
        base.motion.noise_sd_motion = 0.8
        base.convergence.max_corrections = max_corrections
        grid = [cal._with_params(base, dict(zip(axes, values))) for values in itertools.product(*axes.values())]
        points = [(cfg.motion, cfg.noise.sigma0) for cfg in grid]
        # each point's (closed, open) records, per setting
        runs = []
        # 8 slots in blocks of 3, 3 and 2, 16 points per sigma0: a loop of
        # one point, of 3 points (4 on the block of 2, 16 = 3 * 5 + 1 and
        # 4 * 4) and of all 16, per block and sigma0
        for loop_rows, loops in ((1, 3 * 2 * 16), (9, 2 * (6 + 6 + 4)), (10**6, 3 * 2)):
            # the points of each loop call
            calls = []
            correct = study.correct_insertions

            def counted(motions, *rest):
                calls.append(len(motions))
                return correct(motions, *rest)

            with monkeypatch.context() as m:
                m.setattr(study, "BLOCK_SLOTS", 3)
                m.setattr(study, "LOOP_ROWS", loop_rows)
                m.setattr(study, "correct_insertions", counted)
                runs.append(list(study.run_points(base, points)))
            assert len(calls) == loops and sum(calls) == 3 * len(points)
        alone, *shared = runs
        assert all(len(opened) == (8 if mode == "both" else 0) for _, opened in alone)
        for records in shared:
            assert records == alone


def test_calibrate_builds_phantoms_once_and_plans_once_per_sigma0(monkeypatch):
    calls = {"phantoms": 0, "plans": 0}
    build, plan = study.build_phantoms, planning.plan_trajectories
    # the rows each stream purpose is drawn for, by slot
    drawn = {purpose: Counter() for purpose in (rng.REFERENCE, rng.MOTION, rng.OBSERVE)}
    draw = rng.standard_normals

    def normals(master_seed, purpose, slots, salt, size):
        # a block's slots come packed (K, 3)
        drawn[purpose].update(map(tuple, np.asarray(slots).tolist()))
        return draw(master_seed, purpose, slots, salt, size)

    def count(key, fn, rows=lambda *args: 1):
        def counted(*args, **kwargs):
            calls[key] += rows(*args)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(study, "build_phantoms", count("phantoms", build))
    # one row of targets per plan
    monkeypatch.setattr(
        planning, "plan_trajectories", count("plans", plan, lambda arch, targets, *rest: len(targets))
    )
    monkeypatch.setattr(rng, "standard_normals", normals)
    base = tiny_config(mode="closed_loop", replicates=1)
    cal.calibrate(base, replicates=1, grid_points=2)
    insertions = base.n_phantoms * base.targets_per_phantom
    assert calls == {"phantoms": 1, "plans": 2 * insertions}
    # each slot's streams, its observation budget among them, are drawn once per search
    slots = set(itertools.product(range(base.n_phantoms), range(base.targets_per_phantom), range(1)))
    for purpose, rows in drawn.items():
        assert set(rows) == slots and set(rows.values()) == {1}, purpose


def test_calibrate_leaves_the_shared_phantoms_as_built(monkeypatch):
    # every grid point of a search uses the same phantom objects, not copies
    made = []
    build = study.build_phantoms

    def built_once(cfg):
        made.append(build(cfg))
        return made[-1]

    monkeypatch.setattr(study, "build_phantoms", built_once)
    base = tiny_config(mode="closed_loop", replicates=1)
    cal.calibrate(base, replicates=1, grid_points=2)
    (phantoms,) = made
    fresh = build(base)
    # column by column, each with its dtype, shape and bits
    assert len(phantoms) == len(fresh) and phantoms == fresh
