"""Study harness: run all insertions, stratify, and emit reports.

A study is the cross product (phantom, target, replicate).  Every
insertion draws from counter-based streams keyed by those indices, so
outputs do not depend on execution order, and the closed/open pair of an
insertion shares its streams.

Outputs: one raw CSV per mode (fixed column order) and a structured
summary (JSON by default) holding the stratified tables.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import os
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import __version__
from .config import StudyConfig, to_dict
from .controller import (
    InsertionPlan,
    InsertionRecord,
    correct_insertions,
    open_loop_insertion,
    plan_insertions,
)
from .phantom import (
    ANTERIOR,
    APEX,
    BASE,
    CENTER,
    LEFT,
    POSTERIOR,
    RIGHT,
    PhantomSpec,
    generate_phantom,
    largest_remainder,
)
from .rng import InsertionStreams, draw_insertions
from .stats import Sample, kruskal_wallis, mann_whitney_u, median_iqr

CALIBRATION_NOTE = (
    "Motion and observation-noise parameters are calibration fits chosen so "
    "the default study reproduces published summary statistics; the medians "
    "in this report are calibration-fit reproductions, not independent "
    "predictions."
)

QUARTILE_NOTE = "median: midpoint of middle two; quartiles: linear interpolation (type 7)"


@dataclass
class RecordRow:
    phantom_id: int
    target_id: int
    replicate: int
    zone_depth: str
    zone_lateral: str
    zone_ap: str
    approach: str
    n_corrections: int
    depth_correction_mm: float
    error_mm: float
    motion_x_mm: float
    motion_y_mm: float
    motion_z_mm: float
    disengaged: int


# the records CSV holds RecordRow's fields in declaration order
CSV_COLUMNS = tuple(f.name for f in fields(RecordRow))
_PARSERS = tuple({"int": int, "float": float, "str": str}[f.type] for f in fields(RecordRow))
_row_values = attrgetter(*CSV_COLUMNS)


@dataclass
class StudyReport:
    """A study's records per mode; the summary is built from them on first access."""

    cfg: StudyConfig
    rows_closed: list[RecordRow]
    rows_open: list[RecordRow]

    def __post_init__(self):
        # the summary echoes the config: keep it as the study saw it
        self.cfg = copy.deepcopy(self.cfg)

    @functools.cached_property
    def summary(self) -> dict:
        return summarize(self.cfg, self.rows_closed, self.rows_open)


def _row_from_record(rec: InsertionRecord, phantom_id: int, replicate: int) -> RecordRow:
    return RecordRow(
        phantom_id=phantom_id,
        target_id=rec.target_id,
        replicate=replicate,
        zone_depth=rec.zone.depth_zone,
        zone_lateral=rec.zone.lateral_zone,
        zone_ap=rec.zone.ap_zone,
        approach=rec.zone.approach,
        n_corrections=rec.n_corrections,
        depth_correction_mm=float(rec.axial_motion),
        error_mm=float(rec.distance_error),
        motion_x_mm=float(rec.residual_motion[0]),
        motion_y_mm=float(rec.residual_motion[1]),
        motion_z_mm=float(rec.residual_motion[2]),
        disengaged=int(rec.disengaged),
    )


def phantom_quota_split(cfg: StudyConfig) -> list[dict[str, int]]:
    """Per-phantom zone quotas from the study-level quotas.

    Each label's study count is spread across phantoms by largest
    remainder; the last label of each dimension absorbs the rest so each
    dimension sums to targets_per_phantom on every phantom.
    """
    n, per = cfg.n_phantoms, cfg.targets_per_phantom
    even = [1.0 / n] * n
    split = {
        key: largest_remainder(cfg.zone_quotas[key], even)
        for key in ("apex", "left", "center", "anterior")
    }
    out = []
    for i in range(n):
        apex = split["apex"][i]
        left = split["left"][i]
        center = split["center"][i]
        anterior = split["anterior"][i]
        quotas = {
            APEX: apex,
            BASE: per - apex,
            LEFT: left,
            CENTER: center,
            RIGHT: per - left - center,
            ANTERIOR: anterior,
            POSTERIOR: per - anterior,
        }
        bad = [k for k, v in quotas.items() if v < 0]
        if bad:
            raise ValueError(f"zone quotas leave phantom {i} with negative {bad[0]} count")
        out.append(quotas)
    return out


def build_phantoms(cfg: StudyConfig):
    quotas = phantom_quota_split(cfg)
    bias = cfg.phantom.left_bias_mm if cfg.phantom.left_bias_enabled else 0.0
    phantoms = []
    for i in range(cfg.n_phantoms):
        spec = PhantomSpec(
            n_targets=cfg.targets_per_phantom,
            gland_semiaxes=cfg.phantom.gland_semiaxes,
            zone_quotas=quotas[i],
            min_spacing=cfg.phantom.min_target_spacing,
            margin=cfg.phantom.target_margin,
            pivot=cfg.phantom.pivot,
            left_bias=bias,
            index=i,
        )
        phantoms.append(generate_phantom(spec, cfg.seed))
    return phantoms


def _motion_free_key(cfg: StudyConfig) -> dict:
    """The config minus what shared work may differ in: the motion
    parameters but their stream's salt, sigma0 and the output."""
    key = to_dict(cfg)
    key["motion"] = {"rng_seed": cfg.motion.rng_seed}
    del key["noise"]["sigma0"], key["output"]
    return key


@dataclass
class SharedWork:
    """The motion-free half of a study, reused across studies of one config
    that differ only in the motion parameters and ``noise.sigma0`` (the
    axes of a calibration grid).

    Every such study has the same slots, and so the same blocks (see
    ``run_study``).  A phantom holds no motion parameters, so the phantoms
    are built once and every study uses them as built.  A block's streams
    depend on no grid value (the noise and motion parameters only scale
    their standard normals, see ``rng``), so they are drawn on first use
    and kept under the block's slot range ``(start, stop)``; the motion
    stream's salt, ``motion.rng_seed``, is part of the config the work is
    shared under.  A block's plans depend on sigma0 but not on motion, so
    they are made on first use and kept under ``(sigma0, start, stop)``.
    Make one with ``share_work`` and keep it no longer than the search
    that uses it.
    """

    key: dict
    phantoms: list
    streams: dict[tuple, list[InsertionStreams]] = field(default_factory=dict)
    plans: dict[tuple, list[InsertionPlan]] = field(default_factory=dict)


def share_work(cfg: StudyConfig) -> SharedWork:
    cfg.validate()
    return SharedWork(_motion_free_key(cfg), build_phantoms(cfg))


# slots per block: the closed loop steps a block together, and a block's
# streams, plans and records are let go before the next one starts: the
# default study run as one block peaked at 54 MB of RSS, at 128 slots at
# 41.5 MB.
BLOCK_SLOTS = 128


def run_study(cfg: StudyConfig, shared: SharedWork | None = None) -> StudyReport:
    """Run every insertion of the configured study; the report summarizes them.

    The slots (phantom, target, replicate) are worked through in blocks of
    ``BLOCK_SLOTS``.  A block's streams are drawn together
    (``rng.draw_insertions``, the observation budget only for a
    closed-loop study), its slots are planned together
    (``plan_insertions``), each slot is given its open-loop baseline
    (``open_loop_insertion``) under ``cfg.motion``, and a closed-loop
    study then corrects the whole block together (``correct_insertions``).
    The records do not depend on the block size.  With ``shared`` (see
    SharedWork) the phantoms come from it, and a block's streams and plans
    are kept in it for the next study, which draws and plans only the
    blocks it does not hold; the records are the same as without it.
    Without it no stream or plan outlives its block.
    """
    cfg.validate()
    if shared is None:
        phantoms = build_phantoms(cfg)
    elif _motion_free_key(cfg) != shared.key:
        raise ValueError("shared work was made for a config that differs beyond motion and sigma0")
    else:
        phantoms = shared.phantoms
    arch = cfg.arch.build()
    do_closed = cfg.mode in ("closed_loop", "both")
    do_open = cfg.mode in ("open_loop", "both")
    n_fiducials = len(phantoms[0].fiducial_points)
    volumes = cfg.convergence.max_corrections + 1 if do_closed else 0

    slots = list(itertools.product(
        range(cfg.n_phantoms), range(cfg.targets_per_phantom), range(cfg.n_seed_replicates)
    ))
    rows_closed: list[RecordRow] = []
    rows_open: list[RecordRow] = []
    for start in range(0, len(slots), BLOCK_SLOTS):
        stop = min(start + BLOCK_SLOTS, len(slots))
        block = slots[start:stop]
        block_phantoms = [phantoms[p] for p, _, _ in block]
        # the needle count of a slot is its target's place in the session
        target_ids = [t for _, t, _ in block]
        # without shared work a block's streams and plans are kept only for the block
        held_streams, held_plans = (shared.streams, shared.plans) if shared is not None else ({}, {})
        streams = held_streams.get((start, stop))
        if streams is None:
            streams = held_streams[start, stop] = draw_insertions(
                cfg.seed, block, target_ids, n_fiducials, volumes, cfg.motion.rng_seed, cfg.noise.rng_seed,
            )
        plans = held_plans.get((cfg.noise.sigma0, start, stop))
        if plans is None:
            plans = held_plans[cfg.noise.sigma0, start, stop] = plan_insertions(
                block_phantoms, cfg.robot, arch, cfg.noise, target_ids, streams,
                cfg.entry_region, cfg.needle_radius, track=do_closed,
            )
        # streams goes by keyword: perfbench's tracer keys tasks on it
        baselines = [
            open_loop_insertion(phantom, cfg.motion, plan, streams=slot_streams)
            for phantom, plan, slot_streams in zip(block_phantoms, plans, streams)
        ]
        if do_closed:
            closed = correct_insertions(
                block_phantoms, cfg.motion, cfg.noise, cfg.robot,
                cfg.convergence, plans, streams, baselines,
            )
            rows_closed.extend(_row_from_record(rec, p, r) for rec, (p, _, r) in zip(closed, block))
        if do_open:
            rows_open.extend(_row_from_record(rec, p, r) for rec, (p, _, r) in zip(baselines, block))

    return StudyReport(cfg, rows_closed, rows_open)


def _stat_block(values) -> dict:
    med, q1, q3 = median_iqr(Sample(np.asarray(values, dtype=np.float64)))
    return {"median": med, "q1": q1, "q3": q3}


def _mode_totals(rows: list[RecordRow]) -> dict:
    return {
        "n": len(rows),
        "error_mm": _stat_block([r.error_mm for r in rows]),
        "depth_correction_mm": _stat_block([r.depth_correction_mm for r in rows]),
        "n_disengaged": sum(r.disengaged for r in rows),
    }


_STRATA = (
    ("depth", "zone_depth", (APEX, BASE)),
    ("lateral", "zone_lateral", (LEFT, CENTER, RIGHT)),
    ("ap", "zone_ap", (ANTERIOR, POSTERIOR)),
    ("approach", "approach", ("Horizontal", "Angled")),
)


def _split(rows, attr, label):
    return [r for r in rows if getattr(r, attr) == label]


def _table1(rows: list[RecordRow]) -> dict:
    strata = []
    tests = []
    for dimension, attr, labels in _STRATA:
        groups = {}
        for label in labels:
            sub = _split(rows, attr, label)
            groups[label] = sub
            entry = {"dimension": dimension, "stratum": label, "n": len(sub)}
            if sub:
                entry["error_mm"] = _stat_block([r.error_mm for r in sub])
                entry["depth_correction_mm"] = _stat_block([r.depth_correction_mm for r in sub])
            strata.append(entry)
        samples = [
            Sample(np.array([r.error_mm for r in sub]), label)
            for label, sub in groups.items()
            if len(sub) >= 2
        ]
        if len(samples) < len(labels):
            continue  # a stratum too small for a test
        if len(labels) == 2:
            u, p = mann_whitney_u(samples[0], samples[1])
            tests.append(
                {
                    "dimension": dimension,
                    "comparison": " vs ".join(labels),
                    "test": "mann_whitney_u",
                    "statistic": float(u),
                    "p": float(p),
                }
            )
        else:
            h, p = kruskal_wallis(samples)
            tests.append(
                {
                    "dimension": dimension,
                    "comparison": " vs ".join(labels),
                    "test": "kruskal_wallis",
                    "statistic": float(h),
                    "p": float(p),
                }
            )
    return {"strata": strata, "tests": tests}


def _table2(rows: list[RecordRow]) -> dict:
    out = []
    per_axis = lambda sub: {
        "x_mm": _stat_block([abs(r.motion_x_mm) for r in sub]),
        "y_mm": _stat_block([abs(r.motion_y_mm) for r in sub]),
        "z_mm": _stat_block([abs(r.motion_z_mm) for r in sub]),
    }
    out.append({"stratum": "All", "n": len(rows), **per_axis(rows)})
    for _, attr, labels in _STRATA:
        for label in labels:
            sub = _split(rows, attr, label)
            if sub:
                out.append({"stratum": label, "n": len(sub), **per_axis(sub)})
    return {"rows": out}


def correction_counts(rows: list[RecordRow]) -> dict:
    counts: dict[str, int] = {}
    for r in rows:
        key = str(r.n_corrections)
        counts[key] = counts.get(key, 0) + 1
    hist = {k: counts[k] for k in sorted(counts, key=int)}
    n = len(rows)
    one = sum(1 for r in rows if r.n_corrections == 1)
    two_plus = sum(1 for r in rows if r.n_corrections >= 2)
    return {
        "histogram": hist,
        "fraction_exactly_one": one / n if n else 0.0,
        "fraction_two_or_more": two_plus / n if n else 0.0,
    }


def summarize(cfg: StudyConfig, rows_closed: list[RecordRow], rows_open: list[RecordRow]) -> dict:
    """Build the summary dict from raw rows (shared by run and re-report)."""
    echo = to_dict(cfg)
    # where the report goes does not affect results and must not affect bytes
    echo.pop("output", None)

    primary = rows_closed if rows_closed else rows_open
    summary = {
        "header": {
            "tool": "prostasim",
            "version": __version__,
            "seed": cfg.seed,
            "mode": cfg.mode,
            "calibration_note": CALIBRATION_NOTE,
            "conventions": QUARTILE_NOTE,
            "perineum_peak_force_n": cfg.phantom.perineum_peak_force_n,
            "config": echo,
        },
        "totals": {},
        "table1": _table1(primary) if primary else {"strata": [], "tests": []},
        "table2": _table2(primary) if primary else {"rows": []},
        "corrections": correction_counts(rows_closed) if rows_closed else {},
    }
    if rows_closed:
        summary["totals"]["closed_loop"] = _mode_totals(rows_closed)
    if rows_open:
        summary["totals"]["open_loop"] = _mode_totals(rows_open)

    if rows_closed and rows_open:
        closed_med = _stat_block([r.error_mm for r in rows_closed])["median"]
        open_med = _stat_block([r.error_mm for r in rows_open])["median"]
        induced = _stat_block([r.depth_correction_mm for r in rows_open])["median"]
        per_rep = []
        wins = 0
        reps = sorted({r.replicate for r in rows_closed})
        for rep in reps:
            cm = _stat_block([r.error_mm for r in rows_closed if r.replicate == rep])["median"]
            om = _stat_block([r.error_mm for r in rows_open if r.replicate == rep])["median"]
            wins += cm < om
            per_rep.append(
                {"replicate": rep, "closed_median_error_mm": cm, "open_median_error_mm": om}
            )
        summary["paired"] = {
            "closed_median_error_mm": closed_med,
            "open_median_error_mm": open_med,
            "error_ratio": closed_med / open_med if open_med else None,
            "median_induced_axial_motion_mm": induced,
            "replicate_win_fraction": wins / len(reps) if reps else 0.0,
        }
        summary["per_replicate"] = per_rep
    return summary


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[RecordRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(_fmt, _row_values(r))) for r in rows)
    return "\n".join(lines) + "\n"


def read_records(path: str) -> list[RecordRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected CSV header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(CSV_COLUMNS):
            raise ValueError(
                f"{path}:{lineno}: expected {len(CSV_COLUMNS)} fields, got {len(values)}"
            )
        try:
            rows.append(RecordRow(*(parse(v) for parse, v in zip(_PARSERS, values))))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
    return rows


def _flatten(prefix: str, obj, out: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, _fmt(obj)))


def summary_to_csv(summary: dict) -> str:
    flat: list[tuple[str, str]] = []
    _flatten("", summary, flat)
    lines = ["key,value"]
    for key, value in flat:
        if "," in value:
            value = '"' + value.replace('"', '""') + '"'
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def write_summary(summary: dict, out_dir: str, fmt: str = "json") -> str:
    """Write just the summary file; returns its path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        if fmt == "json":
            path = os.path.join(out_dir, "summary.json")
            _write_text(path, json.dumps(summary, indent=2) + "\n")
        else:
            path = os.path.join(out_dir, "summary.csv")
            _write_text(path, summary_to_csv(summary))
    except OSError as e:
        raise RuntimeError(f"cannot write report under {out_dir}: {e}") from e
    return path


def write_report(report: StudyReport, out_dir: str, fmt: str = "json") -> list[str]:
    """Write raw per-mode CSVs plus the summary; returns written paths.

    Output bytes depend only on (config, seed, version), never on
    execution order or dict ordering.
    """
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        if report.rows_closed:
            path = os.path.join(out_dir, "records_closed.csv")
            _write_text(path, rows_to_csv(report.rows_closed))
            written.append(path)
        if report.rows_open:
            path = os.path.join(out_dir, "records_open.csv")
            _write_text(path, rows_to_csv(report.rows_open))
            written.append(path)
    except OSError as e:
        raise RuntimeError(f"cannot write report under {out_dir}: {e}") from e
    written.append(write_summary(report.summary, out_dir, fmt))
    return written


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def report_from_records(cfg: StudyConfig, out_dir: str) -> StudyReport:
    """The report of the raw CSVs written by a previous run."""
    closed_path = os.path.join(out_dir, "records_closed.csv")
    open_path = os.path.join(out_dir, "records_open.csv")
    rows_closed = read_records(closed_path) if os.path.exists(closed_path) else []
    rows_open = read_records(open_path) if os.path.exists(open_path) else []
    if not rows_closed and not rows_open:
        raise RuntimeError(f"no records_closed.csv or records_open.csv under {out_dir}")
    return StudyReport(cfg, rows_closed, rows_open)
