"""Study configuration: schema, defaults, YAML round-trip, validation.

One YAML file drives a whole study.  Validation errors always name the
offending key path so CLI users can find the problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from . import geometry, rng
from .controller import ConvergenceParams
from .kinematics import RobotGeometry
from .phantom import MotionParams
from .planning import EntryRegion, PubicArchModel
from .sensing import NoiseModel

MODES = ("closed_loop", "open_loop", "both")
FORMATS = ("csv", "json")

# zone counts for the default 9x10 study; the three groups each sum to 90
DEFAULT_ZONE_QUOTAS = {
    "apex": 50,
    "base": 40,
    "left": 32,
    "center": 28,
    "right": 30,
    "anterior": 52,
    "posterior": 38,
}

DEFAULT_ARCH_CAPSULES = (
    {"a": (0.0, 24.0, -32.0), "b": (30.0, 10.0, -32.0), "radius": 8.0},
    {"a": (0.0, 24.0, -32.0), "b": (-30.0, 10.0, -32.0), "radius": 8.0},
)


class ConfigError(ValueError):
    """Configuration problem; the message starts with the key path."""


@dataclass
class PhantomConfig:
    gland_semiaxes: tuple[float, float, float] = (25.0, 20.0, 22.0)
    min_target_spacing: float = 4.0
    target_margin: float = 0.92
    pivot: tuple[float, float, float] = (0.0, 16.0, -14.0)
    left_bias_mm: float = 1.5
    left_bias_enabled: bool = False
    perineum_peak_force_n: float = 1.8


@dataclass
class ArchConfig:
    enabled: bool = True
    capsules: list[dict] = field(default_factory=lambda: [dict(c) for c in DEFAULT_ARCH_CAPSULES])

    def build(self) -> PubicArchModel:
        segments = [
            (geometry.Segment(np.array(c["a"], dtype=float), np.array(c["b"], dtype=float)),
             float(c["radius"]))
            for c in self.capsules
        ]
        return PubicArchModel(segments, enabled=self.enabled)


@dataclass
class OutputConfig:
    dir: str = "out"
    format: str = "json"


@dataclass
class StudyConfig:
    seed: int = 20260823
    n_phantoms: int = 9
    targets_per_phantom: int = 10
    n_seed_replicates: int = 20
    mode: str = "both"
    zone_quotas: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_ZONE_QUOTAS))
    phantom: PhantomConfig = field(default_factory=PhantomConfig)
    motion: MotionParams = field(default_factory=MotionParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    robot: RobotGeometry = field(default_factory=RobotGeometry)
    arch: ArchConfig = field(default_factory=ArchConfig)
    convergence: ConvergenceParams = field(default_factory=ConvergenceParams)
    needle_radius: float = 0.635
    entry_region: EntryRegion = field(default_factory=EntryRegion)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self):
        # every phantom and replicate index must fit its random-stream key field
        max_index = 1 << rng._FIELD_BITS
        _check(0 <= self.seed < 2**64, "seed", "must be in [0, 2**64)")
        for key in ("n_phantoms", "n_seed_replicates"):
            _check(1 <= getattr(self, key) <= max_index, key, f"must be in [1, {max_index}]")
        _check(1 <= self.targets_per_phantom <= 64, "targets_per_phantom", "must be in [1, 64]")
        _check(self.mode in MODES, "mode", f"must be one of {MODES}")
        total = self.n_phantoms * self.targets_per_phantom
        for key in DEFAULT_ZONE_QUOTAS:
            _check(key in self.zone_quotas, f"zone_quotas.{key}", "missing")
            _check(self.zone_quotas[key] >= 0, f"zone_quotas.{key}", "must be >= 0")
        for keys in (("apex", "base"), ("left", "center", "right"), ("anterior", "posterior")):
            got = sum(self.zone_quotas[k] for k in keys)
            _check(
                got == total,
                "zone_quotas." + "+".join(keys),
                f"sum {got} must equal n_phantoms*targets_per_phantom = {total}",
            )
        _check(min(self.phantom.gland_semiaxes) > 0, "phantom.gland_semiaxes", "must be positive")
        _check(0 < self.phantom.target_margin <= 1, "phantom.target_margin", "must be in (0, 1]")
        _check(self.phantom.min_target_spacing >= 0, "phantom.min_target_spacing", "must be >= 0")
        _check(self.phantom.left_bias_mm >= 0, "phantom.left_bias_mm", "must be >= 0")
        _wrap("motion", self.motion.validate)
        _wrap("noise", self.noise.validate)
        _wrap("robot", self.robot.validate)
        _wrap("convergence", self.convergence.validate)
        _check(self.needle_radius > 0, "needle_radius", "must be positive")
        er = self.entry_region
        _check(er.x_min < er.x_max, "entry_region.x_min", "must be < x_max")
        _check(er.y_min < er.y_max, "entry_region.y_min", "must be < y_max")
        for i, c in enumerate(self.arch.capsules):
            for k in ("a", "b", "radius"):
                _check(k in c, f"arch.capsules[{i}].{k}", "missing")
        _wrap("arch.capsules", self.arch.build)
        _check(self.output.format in FORMATS, "output.format", f"must be one of {FORMATS}")
        return self


def _check(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _wrap(path: str, fn):
    try:
        fn()
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def default_config() -> StudyConfig:
    return StudyConfig()


def to_dict(cfg: StudyConfig) -> dict:
    return {
        "seed": cfg.seed,
        "n_phantoms": cfg.n_phantoms,
        "targets_per_phantom": cfg.targets_per_phantom,
        "n_seed_replicates": cfg.n_seed_replicates,
        "mode": cfg.mode,
        "zone_quotas": {k: int(cfg.zone_quotas[k]) for k in DEFAULT_ZONE_QUOTAS},
        "phantom": {
            "gland_semiaxes": [float(v) for v in cfg.phantom.gland_semiaxes],
            "min_target_spacing": cfg.phantom.min_target_spacing,
            "target_margin": cfg.phantom.target_margin,
            "pivot": [float(v) for v in cfg.phantom.pivot],
            "left_bias_mm": cfg.phantom.left_bias_mm,
            "left_bias_enabled": cfg.phantom.left_bias_enabled,
            "perineum_peak_force_n": cfg.phantom.perineum_peak_force_n,
        },
        "motion": {
            "axial_gain": cfg.motion.axial_gain,
            "axial_base_offset": cfg.motion.axial_base_offset,
            "rotation_gain": cfg.motion.rotation_gain,
            "noise_sd_motion": cfg.motion.noise_sd_motion,
            "rng_seed": cfg.motion.rng_seed,
        },
        "noise": {
            "sigma0": cfg.noise.sigma0,
            "depth_gain": cfg.noise.depth_gain,
            "degradation_per_needle": cfg.noise.degradation_per_needle,
            "rng_seed": cfg.noise.rng_seed,
        },
        "robot": {
            "stage_separation": cfg.robot.stage_separation,
            "stage_travel": cfg.robot.stage_travel,
            "z_travel": cfg.robot.z_travel,
            "max_angulation": cfg.robot.max_angulation,
            "insertion_speed": cfg.robot.insertion_speed,
            "rotation_speed": cfg.robot.rotation_speed,
            "front_plane_z": cfg.robot.front_plane_z,
        },
        "arch": {
            "enabled": cfg.arch.enabled,
            "capsules": [
                {
                    "a": [float(v) for v in c["a"]],
                    "b": [float(v) for v in c["b"]],
                    "radius": float(c["radius"]),
                }
                for c in cfg.arch.capsules
            ],
        },
        "convergence": {
            "depth_epsilon": cfg.convergence.depth_epsilon,
            "max_corrections": cfg.convergence.max_corrections,
        },
        "needle_radius": cfg.needle_radius,
        "entry_region": {
            "x_min": cfg.entry_region.x_min,
            "x_max": cfg.entry_region.x_max,
            "y_min": cfg.entry_region.y_min,
            "y_max": cfg.entry_region.y_max,
        },
        "output": {"dir": cfg.output.dir, "format": cfg.output.format},
    }


def _take(data: dict, path: str, known: tuple[str, ...]):
    unknown = set(data) - set(known)
    if unknown:
        key = sorted(unknown)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where}: unknown key")


def from_dict(data: dict) -> StudyConfig:
    """Build a StudyConfig from plain data, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    cfg = default_config()
    _take(data, "", (
        "seed", "n_phantoms", "targets_per_phantom", "n_seed_replicates", "mode",
        "zone_quotas", "phantom", "motion", "noise", "robot", "arch",
        "convergence", "needle_radius", "entry_region", "output",
    ))
    try:
        for key in ("seed", "n_phantoms", "targets_per_phantom", "n_seed_replicates"):
            if key in data:
                setattr(cfg, key, int(data[key]))
        if "mode" in data:
            cfg.mode = str(data["mode"])
        if "needle_radius" in data:
            cfg.needle_radius = float(data["needle_radius"])
        if "zone_quotas" in data:
            _take(data["zone_quotas"], "zone_quotas", tuple(DEFAULT_ZONE_QUOTAS))
            cfg.zone_quotas.update({k: int(v) for k, v in data["zone_quotas"].items()})
        if "phantom" in data:
            sec = data["phantom"]
            _take(sec, "phantom", (
                "gland_semiaxes", "min_target_spacing", "target_margin", "pivot",
                "left_bias_mm", "left_bias_enabled", "perineum_peak_force_n",
            ))
            p = cfg.phantom
            if "gland_semiaxes" in sec:
                p.gland_semiaxes = tuple(float(v) for v in sec["gland_semiaxes"])
            if "pivot" in sec:
                p.pivot = tuple(float(v) for v in sec["pivot"])
            for key in ("min_target_spacing", "target_margin", "left_bias_mm", "perineum_peak_force_n"):
                if key in sec:
                    setattr(p, key, float(sec[key]))
            if "left_bias_enabled" in sec:
                p.left_bias_enabled = bool(sec["left_bias_enabled"])
        if "motion" in data:
            _take(data["motion"], "motion", (
                "axial_gain", "axial_base_offset", "rotation_gain", "noise_sd_motion", "rng_seed",
            ))
            for key, v in data["motion"].items():
                setattr(cfg.motion, key, int(v) if key == "rng_seed" else float(v))
        if "noise" in data:
            _take(data["noise"], "noise", (
                "sigma0", "depth_gain", "degradation_per_needle", "rng_seed",
            ))
            for key, v in data["noise"].items():
                setattr(cfg.noise, key, int(v) if key == "rng_seed" else float(v))
        if "robot" in data:
            _take(data["robot"], "robot", (
                "stage_separation", "stage_travel", "z_travel", "max_angulation",
                "insertion_speed", "rotation_speed", "front_plane_z",
            ))
            for key, v in data["robot"].items():
                setattr(cfg.robot, key, float(v))
        if "arch" in data:
            _take(data["arch"], "arch", ("enabled", "capsules"))
            if "enabled" in data["arch"]:
                cfg.arch.enabled = bool(data["arch"]["enabled"])
            if "capsules" in data["arch"]:
                cfg.arch.capsules = [
                    {
                        "a": [float(x) for x in c["a"]],
                        "b": [float(x) for x in c["b"]],
                        "radius": float(c["radius"]),
                    }
                    for c in data["arch"]["capsules"]
                ]
        if "convergence" in data:
            _take(data["convergence"], "convergence", ("depth_epsilon", "max_corrections"))
            sec = data["convergence"]
            if "depth_epsilon" in sec:
                cfg.convergence.depth_epsilon = float(sec["depth_epsilon"])
            if "max_corrections" in sec:
                cfg.convergence.max_corrections = int(sec["max_corrections"])
        if "entry_region" in data:
            _take(data["entry_region"], "entry_region", ("x_min", "x_max", "y_min", "y_max"))
            for key, v in data["entry_region"].items():
                setattr(cfg.entry_region, key, float(v))
        if "output" in data:
            _take(data["output"], "output", ("dir", "format"))
            if "dir" in data["output"]:
                cfg.output.dir = str(data["output"]["dir"])
            if "format" in data["output"]:
                cfg.output.format = str(data["output"]["format"])
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as e:
        raise ConfigError(f"malformed config value: {e}") from e
    return cfg


def to_yaml(cfg: StudyConfig, header: str | None = None) -> str:
    body = yaml.safe_dump(to_dict(cfg), sort_keys=False, default_flow_style=False)
    if header:
        lines = "".join(f"# {line}\n" for line in header.splitlines())
        return lines + body
    return body


def load_config(path: str) -> StudyConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path} is not valid YAML: {e}") from e
    if data is None:
        data = {}
    return from_dict(data)


def save_config(cfg: StudyConfig, path: str, header: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_yaml(cfg, header))
