"""Study configuration: schema, defaults, YAML round-trip, validation.

One YAML file drives a whole study.  The default ``StudyConfig`` is the
schema: its dataclass fields and default values fix every key, its
nesting and its leaf type.  One coercion walks that schema for
``from_dict``, ``to_dict`` and ``StudyConfig.validate``: unknown keys are
rejected at every level (arch capsules included), sections must be
mappings, vectors keep their default length, flags must be YAML booleans
and numbers must be finite.  Errors always name the offending key path
so CLI users can find the problem.

PyYAML is imported only where YAML is read or written (``load_config``,
``to_yaml``): a run of the default study does neither, and does not pay
for the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

from . import rng
from .controller import ConvergenceParams
from .kinematics import RobotGeometry
from .phantom import DEFAULT_ZONE_QUOTAS, MotionParams, PhantomConfig, phantom_quota_split
from .planning import DEFAULT_NEEDLE_RADIUS, EntryRegion, PubicArchModel
from .sensing import NoiseModel

MODES = ("closed_loop", "open_loop", "both")
FORMATS = ("csv", "json")

DEFAULT_ARCH_CAPSULES = (
    {"a": (0.0, 24.0, -32.0), "b": (30.0, 10.0, -32.0), "radius": 8.0},
    {"a": (0.0, 24.0, -32.0), "b": (-30.0, 10.0, -32.0), "radius": 8.0},
)


class ConfigError(ValueError):
    """Configuration problem; the message starts with the key path."""


@dataclass
class ArchConfig:
    enabled: bool = True
    capsules: list[dict] = field(default_factory=lambda: [dict(c) for c in DEFAULT_ARCH_CAPSULES])

    def build(self) -> PubicArchModel:
        """The arch model of the capsules, each checked; a disabled arch has none of them."""
        arch = PubicArchModel(*([c[key] for c in self.capsules] for key in ("a", "b", "radius")))
        return arch if self.enabled else PubicArchModel([], [], [])


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
    needle_radius: float = DEFAULT_NEEDLE_RADIUS
    entry_region: EntryRegion = field(default_factory=EntryRegion)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self):
        # the shapes and leaf types from_dict enforces, for configs built in Python
        _coerce(self, default_config(), "")
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
        # and each phantom's share of them must fit its targets
        _wrap("zone_quotas", lambda: phantom_quota_split(self.zone_quotas, self.n_phantoms, self.targets_per_phantom))
        _check(min(self.phantom.gland_semiaxes) > 0, "phantom.gland_semiaxes", "must be positive")
        _check(0 < self.phantom.target_margin <= 1, "phantom.target_margin", "must be in (0, 1]")
        _check(self.phantom.min_target_spacing >= 0, "phantom.min_target_spacing", "must be >= 0")
        widest = 2 * max(self.phantom.gland_semiaxes) * self.phantom.target_margin  # of any two targets' gaps
        _check(self.targets_per_phantom < 2 or self.phantom.min_target_spacing <= widest, "phantom.min_target_spacing",
               f"must be <= 2 * max(phantom.gland_semiaxes) * phantom.target_margin = {widest:g} mm")
        _check(self.phantom.left_bias_mm >= 0, "phantom.left_bias_mm", "must be >= 0")
        validate_motion_noise(self.motion, self.noise)
        try:  # the noise sd of a session's last needle reads this power
            self.noise.degradation_per_needle ** (self.targets_per_phantom - 1)
        except OverflowError:
            raise ConfigError(
                "noise.degradation_per_needle: overflows raised to the power targets_per_phantom - 1"
            ) from None
        _wrap("robot", self.robot.validate)
        # every target lies inside the gland, so an entry plane that reaches
        # the gland's apical pole can leave some of them on or behind it
        _check(
            self.robot.front_plane_z < -self.phantom.gland_semiaxes[2],
            "robot.front_plane_z",
            f"must be < -phantom.gland_semiaxes[2] = {-self.phantom.gland_semiaxes[2]}: "
            "the entry plane must lie in front of the gland",
        )
        _wrap("convergence", self.convergence.validate)
        _check(self.needle_radius > 0, "needle_radius", "must be positive")
        er = self.entry_region
        _check(er.x_min < er.x_max, "entry_region.x_min", "must be < x_max")
        _check(er.y_min < er.y_max, "entry_region.y_min", "must be < y_max")
        _wrap("arch.capsules", self.arch.build)
        _check(self.output.format in FORMATS, "output.format", f"must be one of {FORMATS}")
        return self


def validate_motion_noise(motion: MotionParams, noise: NoiseModel):
    """Check a motion and a noise section as ``StudyConfig.validate`` checks a config's own."""
    schema = default_config()
    _coerce(motion, schema.motion, "motion")
    _coerce(noise, schema.noise, "noise")
    _wrap("motion", motion.validate)
    _wrap("noise", noise.validate)


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


def _where(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _items(node):
    return {f.name: getattr(node, f.name) for f in fields(node)} if is_dataclass(node) else node


def _coerce(value, schema, path: str, exact: bool = False):
    """Check ``value`` against ``schema`` and return it as plain YAML data.

    ``schema`` is a node of the default config: a dataclass or dict is a
    mapping whose keys ``value`` may override (``exact``: must all give),
    a list holds elements shaped like its first one, a tuple is a float
    vector of fixed length, and any other default fixes its leaf's type.
    """
    if is_dataclass(schema) or isinstance(schema, dict):
        value, keys = _items(value), _items(schema)
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config root'}: must be a mapping")
        for key in value:
            if key not in keys:
                raise ConfigError(f"{_where(path, key)}: unknown key")
        for key in keys if exact else ():
            if key not in value:
                raise ConfigError(f"{_where(path, key)}: missing")
        return {k: _coerce(value.get(k, d), d, _where(path, k)) for k, d in keys.items()}
    if isinstance(schema, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: must be a list")
        if isinstance(schema, list):
            return [_coerce(v, schema[0], f"{path}[{i}]", exact=True) for i, v in enumerate(value)]
        if len(value) != len(schema):
            raise ConfigError(f"{path}: must hold {len(schema)} numbers, got {len(value)}")
        return [_coerce(v, d, f"{path}[{i}]") for i, (v, d) in enumerate(zip(value, schema))]
    kind = type(schema)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: must be true or false, got {value!r}")
        return value
    if value is None or isinstance(value, (bool, dict, list, tuple)):
        raise ConfigError(f"{path}: malformed value, expected a {kind.__name__}")
    try:
        value = kind(value)
    except OverflowError as e:
        raise ConfigError(f"{path}: out of range: {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: malformed value: {e}") from e
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _build(schema, data):
    if is_dataclass(schema):
        return type(schema)(**{k: _build(d, data[k]) for k, d in _items(schema).items()})
    return tuple(data) if isinstance(schema, tuple) else data


def to_dict(cfg: StudyConfig) -> dict:
    """Plain data of ``cfg`` in schema order, as YAML and the summary echo it."""
    return _coerce(cfg, default_config(), "")


def from_dict(data: dict) -> StudyConfig:
    """Build a StudyConfig from plain data, rejecting unknown keys."""
    schema = default_config()
    return _build(schema, _coerce(data, schema, ""))


def to_yaml(cfg: StudyConfig, header: str | None = None) -> str:
    import yaml

    body = yaml.safe_dump(to_dict(cfg), sort_keys=False, default_flow_style=False)
    if header:
        lines = "".join(f"# {line}\n" for line in header.splitlines())
        return lines + body
    return body


def load_config(path: str) -> StudyConfig:
    import yaml

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
