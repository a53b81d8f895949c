import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import UNSPLITTABLE_QUOTAS
from prostasim import rng
from prostasim.config import (
    ConfigError,
    StudyConfig,
    default_config,
    from_dict,
    load_config,
    to_dict,
    to_yaml,
)
from prostasim.controller import MAX_CORRECTIONS


def test_default_config_validates():
    cfg = default_config()
    assert cfg.validate() is cfg
    assert cfg.n_phantoms * cfg.targets_per_phantom == 90


def test_yaml_round_trip(tmp_path):
    cfg = default_config()
    cfg.seed = 99
    cfg.motion.axial_gain = 0.2
    cfg.arch.capsules[0]["radius"] = 9.5
    path = tmp_path / "study.yaml"
    path.write_text(to_yaml(cfg, header="hello\nworld"))
    text = path.read_text()
    assert text.startswith("# hello\n# world\n")
    back = load_config(str(path))
    assert to_dict(back) == to_dict(cfg)
    back.validate()


def test_yaml_header_is_comment_only():
    cfg = default_config()
    data = yaml.safe_load(to_yaml(cfg, header="ignore me"))
    assert "ignore me" not in data
    assert data["seed"] == cfg.seed


def test_unknown_keys_name_their_path():
    with pytest.raises(ConfigError, match="bogus: unknown key"):
        from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="motion.warp_speed: unknown key"):
        from_dict({"motion": {"warp_speed": 9}})
    with pytest.raises(ConfigError, match="zone_quotas.middle: unknown key"):
        from_dict({"zone_quotas": {"middle": 4}})
    capsule = {"a": [0, 1, 2], "b": [3, 4, 5], "radius": 2.0, "thickness": 1.0}
    with pytest.raises(ConfigError, match=r"arch\.capsules\[0\]\.thickness: unknown key"):
        from_dict({"arch": {"capsules": [capsule]}})
    with pytest.raises(ConfigError, match="^1: unknown key"):
        from_dict({1: 2})


def test_partial_override_keeps_other_defaults():
    cfg = from_dict({"seed": 7, "noise": {"sigma0": 0.5}})
    assert cfg.seed == 7
    assert cfg.noise.sigma0 == 0.5
    base = default_config()
    assert cfg.noise.depth_gain == base.noise.depth_gain
    assert cfg.n_phantoms == base.n_phantoms


def test_quota_sum_message_names_the_dimension():
    cfg = default_config()
    cfg.zone_quotas["apex"] = 51
    with pytest.raises(ConfigError, match=r"zone_quotas\.apex\+base"):
        cfg.validate()


def test_quotas_no_phantom_can_hold_are_a_config_error():
    cfg = default_config()
    cfg.zone_quotas = dict(UNSPLITTABLE_QUOTAS)
    with pytest.raises(ConfigError, match=r"^zone_quotas: zone quotas leave phantom 0 with negative Right count"):
        cfg.validate()


def test_validation_paths():
    cases = [
        (dict(seed=-1), "seed"),
        (dict(mode="sideways"), "mode"),
        (dict(seed=2**64), "seed"),
        (dict(n_phantoms=(1 << rng._FIELD_BITS) + 1), "n_phantoms"),
        (dict(n_seed_replicates=(1 << rng._FIELD_BITS) + 1), "n_seed_replicates"),
        (dict(needle_radius=0.0), "needle_radius"),
        ({"output": {"format": "xml"}}, "output.format"),
        ({"phantom": {"target_margin": 1.5}}, "phantom.target_margin"),
        # no two targets fit 100 mm apart in a gland 2 * 25 * 0.92 = 46 mm across
        ({"phantom": {"min_target_spacing": 100.0}}, "phantom.min_target_spacing"),
        ({"noise": {"degradation_per_needle": 0.5}}, "noise"),
        ({"convergence": {"max_corrections": 0}}, "convergence"),
        # a typo that would draw a block's observation budget of tens of GB
        ({"convergence": {"max_corrections": 10**6}}, "convergence"),
        ({"entry_region": {"x_min": 50.0, "x_max": -50.0}}, "entry_region.x_min"),
        # a disabled arch's capsules are checked as an enabled one's
        *(({"arch": {"enabled": enabled, "capsules": [dict(a=[0, 1, 2], b=[3, 4, 5], radius=radius)]}},
           "arch.capsules: arch capsule radii must be positive")
          for enabled in (True, False) for radius in (0.0, -1.0)),
    ]
    for data, path in cases:
        cfg = from_dict(data)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(exc.value).startswith(path), (data, str(exc.value))
    # configs built in Python get the same leaf checks as loaded ones
    python_cases = [
        ("robot", "stage_travel", math.nan),
        ("convergence", "depth_epsilon", math.nan),
        ("noise", "sigma0", math.inf),
        ("phantom", "pivot", (0.0, 16.0)),
        ("phantom", "left_bias_enabled", "false"),
    ]
    for section, key, value in python_cases:
        cfg = default_config()
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(exc.value).startswith(f"{section}.{key}:"), (key, str(exc.value))
    cfg = default_config()
    cfg.seed = math.inf
    with pytest.raises(ConfigError, match="^seed: out of range"):
        cfg.validate()
    # the largest values that still fit the random-stream keys are valid
    from_dict(dict(seed=2**64 - 1, n_seed_replicates=1 << rng._FIELD_BITS)).validate()
    # and the largest correction budget
    from_dict({"convergence": {"max_corrections": MAX_CORRECTIONS}}).validate()


def test_a_target_spacing_wider_than_the_gland_is_rejected():
    # the widest gap inside the default margin-scaled gland is 2 * 25 * 0.92
    widest = 2 * 25.0 * 0.92
    for data in (
        {"phantom": {"min_target_spacing": math.nextafter(widest, math.inf)}},
        {"phantom": {"min_target_spacing": 30.0, "target_margin": 0.5}},
        {"phantom": {"min_target_spacing": 40.0, "gland_semiaxes": [19.0, 18.0, 17.0]}},
    ):
        with pytest.raises(ConfigError, match=r"^phantom\.min_target_spacing: must be <= 2 \* max\(phantom\.gland_semiaxes\)"):
            from_dict(data).validate()
    from_dict({"phantom": {"min_target_spacing": widest}}).validate()
    # a phantom of one target has no pair to space
    one = {"n_phantoms": 2, "targets_per_phantom": 1, "phantom": {"min_target_spacing": 100.0}, "zone_quotas": {
        "apex": 1, "base": 1, "left": 1, "center": 0, "right": 1, "anterior": 1, "posterior": 1}}
    from_dict(one).validate()


def test_an_entry_plane_on_or_behind_the_gland_front_is_rejected():
    # the gland's apical pole is at z = -22 by default
    for data in (
        {"robot": {"front_plane_z": -22.0}},
        {"robot": {"front_plane_z": -10.0}},
        {"phantom": {"gland_semiaxes": [25.0, 20.0, 60.0]}},
    ):
        with pytest.raises(ConfigError, match=r"^robot\.front_plane_z: must be < -phantom\.gland_semiaxes\[2\]"):
            from_dict(data).validate()
    from_dict({"robot": {"front_plane_z": math.nextafter(-22.0, -math.inf)}}).validate()


def test_a_degradation_that_overflows_within_a_session_is_rejected():
    # the last of the default 10 needles observes with degradation_per_needle ** 9
    for value in (1e300, 1e40):
        with pytest.raises(ConfigError, match=r"^noise\.degradation_per_needle: overflows"):
            from_dict({"noise": {"degradation_per_needle": value}}).validate()
    from_dict({"noise": {"degradation_per_needle": 1e34}}).validate()


def test_malformed_values_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        from_dict({"motion": {"axial_gain": "fast"}})
    with pytest.raises(ConfigError, match="mapping"):
        from_dict([1, 2, 3])
    cases = [
        ("robot: {stage_travel: .nan}", "robot.stage_travel: must be finite"),
        ("convergence: {depth_epsilon: .nan}", "convergence.depth_epsilon: must be finite"),
        ("noise: {sigma0: .inf}", "noise.sigma0: must be finite"),
        ("needle_radius: -.inf", "needle_radius: must be finite"),
        ("seed: .inf", "seed: out of range"),
        (f"needle_radius: {10**400}", "needle_radius: out of range"),
        ("seed: .nan", "seed: malformed"),
        ("motion: [axial_gain]", "motion: must be a mapping"),
        ("phantom: 3", "phantom: must be a mapping"),
        ("arch: {capsules: {a: 1}}", "arch.capsules: must be a list"),
        ("arch: {capsules: [[0, 1, 2]]}", r"arch.capsules\[0\]: must be a mapping"),
        ("arch: {capsules: [{a: [0, 1, 2], b: [3, 4, 5]}]}", r"arch.capsules\[0\].radius: missing"),
        ("arch: {capsules: [{a: [0, 1], b: [3, 4, 5], radius: 2}]}", r"arch.capsules\[0\].a: must hold 3"),
        ('phantom: {left_bias_enabled: "false"}', "phantom.left_bias_enabled: must be true or false"),
        ("arch: {enabled: 1}", "arch.enabled: must be true or false"),
        ("phantom: {gland_semiaxes: [25.0]}", "phantom.gland_semiaxes: must hold 3 numbers, got 1"),
        ("phantom: {pivot: [0, 16, -14, 1]}", "phantom.pivot: must hold 3 numbers, got 4"),
        ("phantom: {pivot: 16}", "phantom.pivot: must be a list"),
        ("phantom: {pivot: [0, [16], -14]}", r"phantom.pivot\[1\]: malformed"),
        ("mode: [open_loop]", "mode: malformed"),
        ("output: {dir: }", "output.dir: malformed"),
        ("n_phantoms: true", "n_phantoms: malformed"),
        ("noise: {sigma0: false}", "noise.sigma0: malformed"),
    ]
    for text, match in cases:
        with pytest.raises(ConfigError, match="^" + match):
            from_dict(yaml.safe_load(text))


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    cfg = load_config(str(p))
    assert to_dict(cfg) == to_dict(default_config())


def test_load_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))


def test_arch_capsules_round_trip_and_validation():
    cfg = from_dict(
        {
            "arch": {
                "enabled": False,
                "capsules": [{"a": [0, 1, 2], "b": [3, 4, 5], "radius": 2.0}],
            }
        }
    )
    cfg.validate()
    assert to_dict(cfg)["arch"]["capsules"] == [{"a": [0.0, 1.0, 2.0], "b": [3.0, 4.0, 5.0], "radius": 2.0}]
    # a disabled arch is built with no capsules
    model = cfg.arch.build()
    assert (model.a.shape, model.b.shape, model.radius.shape) == ((0, 3), (0, 3), (0,))
    cfg.arch.capsules[0].pop("radius")
    with pytest.raises(ConfigError, match=r"arch\.capsules\[0\]\.radius"):
        cfg.validate()


def test_custom_quotas_must_cover_every_zone():
    total = 2 * 3
    quotas = dict(apex=3, base=3, left=2, center=2, right=2, anterior=4, posterior=2)
    cfg = from_dict(
        {"n_phantoms": 2, "targets_per_phantom": 3, "zone_quotas": quotas}
    )
    cfg.validate()
    assert sum(quotas[k] for k in ("apex", "base")) == total


def _schema_keys(node, out):
    if isinstance(node, dict):
        out.update(node)
        for value in node.values():
            _schema_keys(value, out)
    elif isinstance(node, list):
        for value in node:
            _schema_keys(value, out)
    return out


_SCHEMA = to_dict(default_config())
_KEYS = st.sampled_from(sorted(_schema_keys(_SCHEMA, set()))) | st.text(max_size=8)
_anything = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _shaped(node):
    """Data shaped like a schema node, with arbitrary data at any level."""
    if isinstance(node, dict):
        shaped = st.fixed_dictionaries({}, optional={k: _shaped(v) for k, v in node.items()})
    elif isinstance(node, list):
        shaped = st.lists(_shaped(node[0]), max_size=3)
    else:
        shaped = st.just(node) | st.from_type(type(node))
    return shaped | _anything


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_shaped(_SCHEMA))
def test_arbitrary_data_loads_or_fails_with_config_error(data):
    try:
        cfg = from_dict(data)
        cfg.validate()
    except ConfigError:
        return
    # whatever loads and validates round-trips through plain data unchanged
    assert to_dict(from_dict(to_dict(cfg))) == to_dict(cfg)
