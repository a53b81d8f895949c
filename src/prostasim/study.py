"""Study harness: run all insertions, stratify, and emit reports.

A study is the cross product (phantom, target, replicate).  Every
insertion draws from counter-based streams keyed by those indices, so
outputs do not depend on execution order, and the closed/open pair of an
insertion shares its streams.

Outputs: one raw CSV per mode (fixed column order) and a structured
summary (JSON by default) holding the stratified tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import StudyConfig
from .controller import InsertionRecord, open_loop_insertion, run_insertion
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
from .rng import InsertionStreams
from .stats import Sample, kruskal_wallis, mann_whitney_u, median_iqr

CSV_COLUMNS = (
    "phantom_id",
    "target_id",
    "replicate",
    "zone_depth",
    "zone_lateral",
    "zone_ap",
    "approach",
    "n_corrections",
    "depth_correction_mm",
    "error_mm",
    "motion_x_mm",
    "motion_y_mm",
    "motion_z_mm",
    "disengaged",
)

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


@dataclass
class StudyReport:
    summary: dict
    rows_closed: list[RecordRow]
    rows_open: list[RecordRow]


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
            motion=cfg.motion,
            index=i,
        )
        phantoms.append(generate_phantom(spec, cfg.seed))
    return phantoms


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run every insertion of the configured study and summarize."""
    cfg.validate()
    phantoms = build_phantoms(cfg)
    arch = cfg.arch.build()
    do_closed = cfg.mode in ("closed_loop", "both")
    do_open = cfg.mode in ("open_loop", "both")

    rows_closed: list[RecordRow] = []
    rows_open: list[RecordRow] = []
    for p in range(cfg.n_phantoms):
        for t in range(cfg.targets_per_phantom):
            for r in range(cfg.n_seed_replicates):
                streams = InsertionStreams(
                    cfg.seed, p, t, r,
                    motion_salt=cfg.motion.rng_seed,
                    noise_salt=cfg.noise.rng_seed,
                    needle_count=t,
                )
                # one insertion per slot: the closed record carries its baseline
                insert = run_insertion if do_closed else open_loop_insertion
                rec = insert(
                    phantoms[p], cfg.robot, arch, cfg.noise, cfg.convergence, t, streams,
                    entry_region=cfg.entry_region, needle_radius=cfg.needle_radius,
                )
                if do_closed:
                    rows_closed.append(_row_from_record(rec, p, r))
                if do_open:
                    rows_open.append(_row_from_record(rec.open_loop if do_closed else rec, p, r))

    summary = summarize(cfg, rows_closed, rows_open)
    return StudyReport(summary, rows_closed, rows_open)


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


def _corrections(rows: list[RecordRow]) -> dict:
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
    from .config import to_dict as config_to_dict

    echo = config_to_dict(cfg)
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
        "corrections": _corrections(rows_closed) if rows_closed else {},
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
    for r in rows:
        lines.append(
            ",".join(
                (
                    str(r.phantom_id),
                    str(r.target_id),
                    str(r.replicate),
                    r.zone_depth,
                    r.zone_lateral,
                    r.zone_ap,
                    r.approach,
                    str(r.n_corrections),
                    repr(r.depth_correction_mm),
                    repr(r.error_mm),
                    repr(r.motion_x_mm),
                    repr(r.motion_y_mm),
                    repr(r.motion_z_mm),
                    str(r.disengaged),
                )
            )
        )
    return "\n".join(lines) + "\n"


def read_records(path: str) -> list[RecordRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append(
            RecordRow(
                phantom_id=int(f[0]),
                target_id=int(f[1]),
                replicate=int(f[2]),
                zone_depth=f[3],
                zone_lateral=f[4],
                zone_ap=f[5],
                approach=f[6],
                n_corrections=int(f[7]),
                depth_correction_mm=float(f[8]),
                error_mm=float(f[9]),
                motion_x_mm=float(f[10]),
                motion_y_mm=float(f[11]),
                motion_z_mm=float(f[12]),
                disengaged=int(f[13]),
            )
        )
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
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
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
    """Rebuild the summary from raw CSVs written by a previous run."""
    closed_path = os.path.join(out_dir, "records_closed.csv")
    open_path = os.path.join(out_dir, "records_open.csv")
    rows_closed = read_records(closed_path) if os.path.exists(closed_path) else []
    rows_open = read_records(open_path) if os.path.exists(open_path) else []
    if not rows_closed and not rows_open:
        raise RuntimeError(f"no records_closed.csv or records_open.csv under {out_dir}")
    summary = summarize(cfg, rows_closed, rows_open)
    return StudyReport(summary, rows_closed, rows_open)
