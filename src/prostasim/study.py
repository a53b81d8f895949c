"""Study harness: run all insertions, stratify, and emit reports.

A study is the cross product (phantom, target, replicate).  Every
insertion draws from counter-based streams keyed by those indices, so
outputs do not depend on execution order, and the closed/open pair of an
insertion shares its streams.  The phantoms share the config's one gland
and are built once, as one ``phantom.Phantoms`` of their targets that
every block reads by its slots' phantom rows.
``run_points`` runs a study at several (motion, sigma0) points at once,
as a calibration grid does, and ``run_study`` at the config's own.

A study's records are one ``controller.Records`` per mode, a column per
quantity with a row per insertion, joined from its blocks.  Outputs: one
raw CSV per mode (fixed column order), written and read column by
column, and a structured summary (JSON by default) holding the
stratified tables, whose strata are boolean masks over the columns.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .config import ConfigError, StudyConfig, to_dict, validate_motion_noise
from .controller import (
    Records,
    correct_insertions,
    open_loop_insertion,
    open_loop_records,
    plan_insertions,
)
from .phantom import ZONE_GROUPS, MotionParams, Phantoms, generate_phantom, phantom_quota_split
from .planning import ANGLED, HORIZONTAL
from .rng import draw_insertions
from .sensing import NoiseModel
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
    """The schema of the records CSV: its columns, in order, and their types."""

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


# the records CSV holds RecordRow's fields in declaration order; each is
# parsed by its type into an array of that type
CSV_COLUMNS = tuple(f.name for f in fields(RecordRow))
_PARSERS = tuple({"int": int, "float": float, "str": str}[f.type] for f in fields(RecordRow))
_DTYPES = {int: np.int64, float: np.float64, str: str}
# the CSV's columns of Records.motion_mm, one per axis
_MOTION = ("motion_x_mm", "motion_y_mm", "motion_z_mm")
# the records CSV of each mode, in the order a report writes them
RECORD_FILES = {"closed_loop": "records_closed.csv", "open_loop": "records_open.csv"}


@dataclass
class StudyReport:
    """A study's records per mode, of no rows for a mode not run; the summary
    is built from them on first access."""

    cfg: StudyConfig
    rows_closed: Records
    rows_open: Records

    def __post_init__(self):
        # the summary echoes the config: keep it as the study saw it
        self.cfg = copy.deepcopy(self.cfg)

    @functools.cached_property
    def summary(self) -> dict:
        return summarize(self.cfg, self.rows_closed, self.rows_open)


def build_phantoms(cfg: StudyConfig) -> Phantoms:
    """The study's phantoms, row p generated as phantom p.

    Raises ConfigError naming ``phantom`` when a phantom's targets cannot
    be placed.
    """
    quotas = phantom_quota_split(cfg.zone_quotas, cfg.n_phantoms, cfg.targets_per_phantom)
    try:
        return Phantoms.concat([
            generate_phantom(cfg.phantom, cfg.targets_per_phantom, cfg.seed, quotas[i], i)
            for i in range(cfg.n_phantoms)
        ])
    except ValueError as e:
        raise ConfigError(f"phantom: {e}") from e


# slots per block, at most: the closed loop steps a block together, and a
# block's streams, plans and first-pass stacks are let go before the next
# block is drawn.  Larger blocks spread numpy's per-call cost of planning
# and correcting over more rows: on a 2-core x86-64 host the default
# simulate took, against 128 slots, 0.88x the time at 256 slots, 0.82x at
# 300, 0.81x at 384 and 0.80x at 450 (medians of 21 alternating runs), for
# +0.2, +0.7, +0.9 and +1.8 MB of peak RSS over 41.4 MB (fresh processes),
# and the open-loop plan-heavy study 0.91x, 0.86x, 0.90x and 0.88x the
# time.  300 cuts the 1800 slots of the default study into 6 blocks.
BLOCK_SLOTS = 300
# (point, slot) rows of a block's first-pass stacks, at most: a run whose
# largest sigma0 group has P points makes blocks of FIRST_PASS_ROWS // P
# slots or fewer, so that the default calibrate (81 points per sigma0)
# keeps its 128-slot blocks and their ~1 MB (P, K) stacks; 300-slot blocks
# there took its peak RSS from 47.9 to 48.9 MB, against CI's 50 MB gate.
FIRST_PASS_ROWS = 81 * 128
# (point, slot) rows per closed-loop call: the points of one sigma0 share a
# block's loop in chunks of LOOP_ROWS // K points, at least one.  A loop's
# working arrays grow with its rows: on a 2-core x86-64 host the default
# calibrate peaked at 48.0 MB of RSS at one point per loop, 47.9-48.1 MB at
# 384 rows and 49.7-49.8 MB at 1024 (3 runs each), and took 0.93x the time
# of one point per loop at 384 rows and 0.88x at 1024 (medians of 5 runs).
# The (P, K) first-pass stacks of a sigma0's points, sliced by chunk, add
# about 1 MB there: 48.7 MB at 384 rows.
LOOP_ROWS = 384


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run every insertion of the configured study; the report summarizes them.

    The study's one point of ``run_points``: its own motion and sigma0.
    """
    ((rows_closed, rows_open),) = run_points(cfg, [(cfg.motion, cfg.noise.sigma0)])
    return StudyReport(cfg, rows_closed, rows_open)


def run_points(cfg: StudyConfig, points: list[tuple[MotionParams, float]]) -> Iterator[tuple[Records, Records]]:
    """Run the configured study at each point (motion, sigma0): each point's (closed, open) records, in turn.

    A point's records are those of ``cfg`` with its motion and
    ``noise.sigma0``, whatever the other points and the block size.
    ``cfg`` is validated once, each point's motion and noise as
    ``cfg.validate`` checks its own; a point keeps ``cfg.motion.rng_seed``.

    The slots (phantom, target, replicate) are worked through in blocks of
    ``BLOCK_SLOTS``, or of ``FIRST_PASS_ROWS // P`` if fewer, where P is
    the point count of the largest sigma0 (at least one slot), one block at
    a time (``_run_block``), each let go before the next is drawn.  A
    block's streams are drawn together once, as one
    ``rng.Streams`` (``rng.draw_insertions``; a point only scales their
    standard normals), and its slots are planned together once per sigma0
    (``plan_insertions``; a plan is made at rest, which no motion touches),
    its plans carrying the slots' targets, so that the rest reads no
    phantom table; a slot's needle count is its target id.
    Then each slot makes its first passes under every motion of that
    sigma0 in one call (``open_loop_insertion`` on ``MotionParams.stack``
    of them, given the slot's row of the streams, a view made once per
    block), each point's with the bits of its own call, filled into the
    stacks (P, K, 3, 3) and (P, K, 3) of the sigma0's P points.  Its points
    go through the block in chunks of at most ``LOOP_ROWS // K`` points,
    at least one, whatever the mode, each chunk on its slice of the
    stacks.  The chunk runs one closed loop (``correct_insertions``, which
    gives each point its records of the block) over its (point, slot)
    rows, and each point its own open-loop scoring
    (``open_loop_records``), as the mode asks, on the block's plans and
    streams themselves and those stacks.

    Every point is run, and every check made, before this returns; the
    iterator joins a point's blocks only when it is asked for that point,
    and holds no point it has handed out.
    """
    cfg.validate()
    # sigma0 -> its noise model and its points
    groups: dict[float, tuple[NoiseModel, list[int]]] = {}
    for i, (motion, sigma0) in enumerate(points):
        noise, members = groups.setdefault(sigma0, (replace(cfg.noise, sigma0=sigma0), []))
        validate_motion_noise(motion, noise)
        if motion.rng_seed != cfg.motion.rng_seed:
            raise ValueError(f"a point's motion.rng_seed must be the study's, {cfg.motion.rng_seed}")
        members.append(i)
    phantoms = build_phantoms(cfg)
    arch = cfg.arch.build()
    slots = list(itertools.product(
        range(cfg.n_phantoms), range(cfg.targets_per_phantom), range(cfg.n_seed_replicates)
    ))
    largest = max((len(members) for _, members in groups.values()), default=1)
    size = max(1, min(BLOCK_SLOTS, FIRST_PASS_ROWS // largest))
    # each point's records per block, per mode
    closed, opened = [[] for _ in points], [[] for _ in points]
    for start in range(0, len(slots), size):
        _run_block(cfg, phantoms, arch, points, groups, slots[start:start + size], closed, opened)

    # joined a point at a time, each point's blocks let go as it is joined
    empty = _no_records()
    return (
        tuple(Records.concat(blocks) if blocks else empty for blocks in (closed.pop(0), opened.pop(0)))
        for _ in points
    )


def _run_block(cfg, phantoms, arch, points, groups, block, closed, opened):
    """Run the slots ``block`` at every point of ``run_points``, appending each
    point's records of the block to its list in ``closed`` and ``opened``.

    The block's streams, plans and first-pass stacks live only in this call.
    """
    do_closed = cfg.mode in ("closed_loop", "both")
    do_open = cfg.mode in ("open_loop", "both")
    volumes = cfg.convergence.max_corrections + 1 if do_closed else 0
    streams = draw_insertions(
        cfg.seed, block, len(cfg.phantom.fiducial_points), volumes, cfg.motion.rng_seed, cfg.noise.rng_seed
    )
    # each slot's own streams, for its first passes
    slot_streams = [streams.rows(k) for k in range(len(block))]
    per_loop = max(1, LOOP_ROWS // len(block))
    for noise, members in groups.values():
        plans = plan_insertions(
            cfg.phantom, phantoms, cfg.robot, arch, noise, streams,
            cfg.entry_region, cfg.needle_radius, track=do_closed,
        )
        motions = [points[i][0] for i in members]
        stacked = MotionParams.stack(motions)
        # (P, K, 3, 3) and (P, K, 3): point p's first passes are row p,
        # filled a slot at a time by one first pass of every point
        rotations = np.empty((len(members), len(block), 3, 3))
        translations = np.empty((len(members), len(block), 3))
        for k in range(len(block)):
            # streams by keyword: perfbench's tracer keys a task on each call
            first = open_loop_insertion(stacked, plans, k, streams=slot_streams[k])
            rotations[:, k], translations[:, k] = first.rotation, first.translation
        for begin in range(0, len(members), per_loop):
            chunk = slice(begin, begin + per_loop)
            if do_closed:
                records = correct_insertions(
                    motions[chunk], cfg.phantom, noise, cfg.robot, cfg.convergence, plans, streams,
                    rotations[chunk], translations[chunk],
                )
                for i, rec in zip(members[chunk], records):
                    closed[i].append(rec)
            if do_open:
                for i, motion, rot, trans in zip(
                    members[chunk], motions[chunk], rotations[chunk], translations[chunk]
                ):
                    opened[i].append(open_loop_records(motion, plans, streams, rot, trans))


def _stat_block(values: np.ndarray) -> dict:
    med, q1, q3 = median_iqr(Sample(values))
    return {"median": med, "q1": q1, "q3": q3}


def _mode_totals(rec: Records) -> dict:
    return {
        "n": len(rec),
        "error_mm": _stat_block(rec.error_mm),
        "depth_correction_mm": _stat_block(rec.depth_correction_mm),
        "n_disengaged": int(rec.disengaged.sum()),
    }


# (dimension, Records column, labels) of each stratum dimension, in table order
_STRATA = [(dimension, "zone_" + dimension, labels) for dimension, labels in ZONE_GROUPS.items()]
_STRATA.append(("approach", "approach", (HORIZONTAL, ANGLED)))


def _strata(rec: Records):
    """(dimension, labels, the rows of each label as a mask) of each dimension, in table order."""
    return [
        (dimension, labels, [getattr(rec, attr) == label for label in labels])
        for dimension, attr, labels in _STRATA
    ]


def _table1(rec: Records) -> dict:
    strata = []
    tests = []
    for dimension, labels, masks in _strata(rec):
        errors = {}
        for label, mask in zip(labels, masks):
            entry = {"dimension": dimension, "stratum": label, "n": int(np.count_nonzero(mask))}
            if entry["n"]:
                errors[label] = rec.error_mm[mask]
                entry["error_mm"] = _stat_block(errors[label])
                entry["depth_correction_mm"] = _stat_block(rec.depth_correction_mm[mask])
            strata.append(entry)
        samples = [Sample(values, label) for label, values in errors.items() if len(values) >= 2]
        if len(samples) < len(labels):
            continue  # a stratum too small for a test
        if len(labels) == 2:
            test, (statistic, p) = "mann_whitney_u", mann_whitney_u(*samples)
        else:
            test, (statistic, p) = "kruskal_wallis", kruskal_wallis(samples)
        tests.append({
            "dimension": dimension,
            "comparison": " vs ".join(labels),
            "test": test,
            "statistic": float(statistic),
            "p": float(p),
        })
    return {"strata": strata, "tests": tests}


def _table2(rec: Records) -> dict:
    motion = np.abs(rec.motion_mm)
    groups = [("All", motion)] + [
        (label, motion[mask])
        for _, labels, masks in _strata(rec) for label, mask in zip(labels, masks) if mask.any()
    ]
    axes = ("x_mm", "y_mm", "z_mm")
    return {"rows": [
        {"stratum": stratum, "n": len(sub), **{axis: _stat_block(sub[:, i]) for i, axis in enumerate(axes)}}
        for stratum, sub in groups
    ]}


def correction_counts(rec: Records) -> dict:
    counts = rec.n_corrections
    values, freq = np.unique(counts, return_counts=True)
    n = len(counts)
    return {
        "histogram": dict(zip(map(str, values.tolist()), freq.tolist())),
        "fraction_exactly_one": int(np.count_nonzero(counts == 1)) / n if n else 0.0,
        "fraction_two_or_more": int(np.count_nonzero(counts >= 2)) / n if n else 0.0,
    }


def summarize(cfg: StudyConfig, rows_closed: Records, rows_open: Records) -> dict:
    """Build the summary dict from each mode's records (shared by run and re-report)."""
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
        closed, opened = summary["totals"]["closed_loop"], summary["totals"]["open_loop"]
        closed_med, open_med = closed["error_mm"]["median"], opened["error_mm"]["median"]
        induced = opened["depth_correction_mm"]["median"]
        # not np.unique: it would import numpy.ma
        reps = sorted(set(rows_closed.replicate.tolist()))
        closed_error, open_error = rows_closed.error_mm, rows_open.error_mm
        per_rep = [
            {
                "replicate": rep,
                "closed_median_error_mm": _stat_block(closed_error[rows_closed.replicate == rep])["median"],
                "open_median_error_mm": _stat_block(open_error[rows_open.replicate == rep])["median"],
            }
            for rep in reps
        ]
        wins = sum(r["closed_median_error_mm"] < r["open_median_error_mm"] for r in per_rep)
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


def rows_to_csv(records: Records) -> str:
    """The records CSV: the header, then a line per row; floats as their ``repr``."""
    columns = [
        records.motion_mm[:, _MOTION.index(name)] if name in _MOTION else getattr(records, name)
        for name in CSV_COLUMNS
    ]
    line = ",".join("%r" if col.dtype.kind == "f" else "%s" for col in columns)
    rows = map(line.__mod__, zip(*(col.tolist() for col in columns)))
    return "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"


def _parse_records(path: str, rows: list[list[str]]) -> Records:
    """The records of the CSV's rows, each the text of its fields.

    Errors name ``path``, the line and the column.
    """
    columns = {}
    for name, parse, texts in zip(CSV_COLUMNS, _PARSERS, list(zip(*rows)) or [()] * len(CSV_COLUMNS)):
        values = []
        try:
            for text in texts:
                values.append(parse(text))
        except ValueError as e:
            raise ValueError(f"{path}:{len(values) + 2}: {name}: {e}") from e
        columns[name] = np.array(values, dtype=_DTYPES[parse])
        if parse is float and not np.isfinite(columns[name]).all():
            row = int(np.argmin(np.isfinite(columns[name])))
            raise ValueError(f"{path}:{row + 2}: {name}: non-finite value {texts[row]!r}")
    motion = np.stack([columns.pop(name) for name in _MOTION], axis=1)
    return Records(**columns, motion_mm=motion)


def _no_records() -> Records:
    return _parse_records("", [])  # the records of a CSV of no rows


def read_records(path: str) -> Records:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    for lineno, values in enumerate(rows, start=2):
        if len(values) != len(CSV_COLUMNS):
            raise ValueError(
                f"{path}:{lineno}: expected {len(CSV_COLUMNS)} fields, got {len(values)}"
            )
    return _parse_records(path, rows)


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


@contextlib.contextmanager
def _writing(out_dir: str):
    """Turn an OSError into RuntimeError naming ``out_dir``."""
    try:
        yield
    except OSError as e:
        raise RuntimeError(f"cannot write report under {out_dir}: {e}") from e


def write_text(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` as file ``name`` under ``out_dir``, made if missing; returns its path.

    Raises RuntimeError naming ``out_dir`` when it cannot be written.
    """
    path = os.path.join(out_dir, name)
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return path


def check_writable(out_dir: str, name: str):
    """Raise RuntimeError, as ``write_text`` would, when file ``name`` cannot be
    written under the existing ``out_dir``; leaves the file as it was found."""
    path = os.path.join(out_dir, name)
    existed = os.path.lexists(path)
    with _writing(out_dir):
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _summary_file(fmt: str) -> str:
    """The name of the summary file of format ``fmt``."""
    return "summary.json" if fmt == "json" else "summary.csv"


def report_files(mode: str, fmt: str) -> list[str]:
    """The files ``write_report`` writes for a study run in ``mode``, in order:
    the records CSV of each mode it runs, then the summary of format ``fmt``."""
    return [name for run, name in RECORD_FILES.items() if mode in (run, "both")] + [_summary_file(fmt)]


def write_summary(summary: dict, out_dir: str, fmt: str = "json") -> str:
    """Write just the summary file; returns its path."""
    text = json.dumps(summary, indent=2) + "\n" if fmt == "json" else summary_to_csv(summary)
    return write_text(out_dir, _summary_file(fmt), text)


def write_report(report: StudyReport, out_dir: str, fmt: str = "json") -> list[str]:
    """Write raw per-mode CSVs plus the summary; returns written paths.

    Output bytes depend only on (config, seed, version), never on
    execution order or dict ordering.
    """
    written = [
        write_text(out_dir, name, rows_to_csv(rows))
        for rows, name in zip((report.rows_closed, report.rows_open), RECORD_FILES.values())
        if rows
    ]
    written.append(write_summary(report.summary, out_dir, fmt))
    return written


def report_from_records(cfg: StudyConfig, out_dir: str) -> StudyReport:
    """The report of the raw CSVs a previous run wrote: those of the modes ``cfg.mode`` names, and no other.

    Raises RuntimeError naming the first of them missing.
    """
    rows = []
    for mode, name in RECORD_FILES.items():
        path = os.path.join(out_dir, name)
        if cfg.mode not in (mode, "both"):
            rows.append(_no_records())
        elif os.path.exists(path):
            rows.append(read_records(path))
        else:
            raise RuntimeError(f"no {name} under {out_dir} for mode {cfg.mode}")
    return StudyReport(cfg, *rows)
