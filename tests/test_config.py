"""Schema validation, canonicalization, hashing, and object building."""
from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navkit import (
    ConfigError,
    ErrorConvention,
    Frame,
    Grouping,
    Rest,
    SphericalGravity,
    Straight,
    Turn,
    UniformGravity,
    apply_overrides,
    build_autonomy_inputs,
    build_run_config,
    build_trajectory,
    config_hash,
    load_config,
    resolve,
)
from navkit.simulate import _shared_epochs


def _base():
    return {
        "schema_version": 1,
        "origin": {"latitude_deg": 45.0},
        "trajectory": {
            "segments": [{"type": "straight", "duration": 10.0, "speed": 5.0}]
        },
    }


def test_minimal_config_resolves_with_defaults():
    out = resolve(_base())
    assert out["frame"] == "w"
    assert out["grouping"] == "proposed"
    assert out["convention"] == "right"
    assert out["gravity"] == {"model": "spherical"}
    assert out["trajectory"]["imu_rate"] == 100.0
    assert out["sensors"]["odo_rate"] == 10.0
    assert out["sensors"]["bias_known"] is True
    assert out["filter"]["gate_sigma"] is None
    assert out["filter"]["integrator"] == "midpoint"
    assert out["monte_carlo"]["n_runs"] == 50
    assert out["seed"] == 0
    assert "autonomy" not in out


@pytest.mark.parametrize(
    "mutate, path_hint",
    [
        (lambda c: c.update(bogus=1), "$"),
        (lambda c: c.pop("schema_version"), "missing schema_version"),
        (lambda c: c.update(schema_version=2), "$.schema_version"),
        (lambda c: c.update(schema_version=True), "$.schema_version"),
        (lambda c: c.pop("origin"), "missing origin"),
        (lambda c: c.pop("trajectory"), "missing trajectory"),
        (lambda c: c.update(frame="n"), "$.frame"),
        (lambda c: c.update(grouping="other"), "$.grouping"),
        (lambda c: c.update(convention="up"), "$.convention"),
        (lambda c: c.update(seed=-1), "$.seed"),
        (lambda c: c.update(monte_carlo={"n_runs": 0}), "$.monte_carlo.n_runs"),
        (lambda c: c.update(monte_carlo={"runs": 3}), "$.monte_carlo"),
        (lambda c: c.update(sensors={"odo": 1.0}), "$.sensors"),
        (lambda c: c.update(sensors={"gyro_noise_psd": -1.0}), "$.sensors.gyro_noise_psd"),
        (lambda c: c.update(sensors={"bias_known": 1}), "$.sensors.bias_known"),
        (lambda c: c.update(sensors={"odo_noise_var": [1.0, 2.0]}), "$.sensors.odo_noise_var"),
        # A variance NoiseConfig would reject: the odometer covariance must be positive definite.
        (lambda c: c.update(sensors={"odo_noise_var": 0}),
         "$.sensors.odo_noise_var: odo_noise_cov must be positive definite"),
        (lambda c: c.update(sensors={"odo_noise_var": -1e-4}),
         "$.sensors.odo_noise_var: odo_noise_cov must be positive definite"),
        (lambda c: c.update(sensors={"odo_noise_var": [1e-4, -1e-4, 1e-4]}),
         "$.sensors.odo_noise_var: odo_noise_cov must be positive definite"),
        (lambda c: c.update(sensors={"odo_noise_var": [1e-4, 0.0, 1e-4]}),
         "$.sensors.odo_noise_var: odo_noise_cov must be positive definite"),
        (lambda c: c.update(filter={"integrator": "euler"}), "$.filter.integrator"),
        (lambda c: c.update(filter={"p0_att": "big"}), "$.filter.p0_att"),
        (lambda c: c.update(gravity={"model": "flat"}), "$.gravity.model"),
        (lambda c: c.update(gravity={"model": "spherical", "gamma0": [0, 0, 9.8]}), "$.gravity.gamma0"),
        (lambda c: c.update(gravity={"model": "uniform"}), "$.gravity"),
        (lambda c: c.update(origin={"latitude_deg": 95.0}), "$.origin.latitude_deg"),
        (lambda c: c.update(origin={"ecef": [1.0, 0.0, 0.0]}), "$.origin.ecef"),
        # Origins that pass a plain range check but cannot anchor the NED world frame.
        (lambda c: c.update(origin={"latitude_deg": 90.0}), "$.origin.latitude_deg"),
        (lambda c: c.update(origin={"ecef": [0.0, 0.0, 6.4e6]}), "$.origin.ecef"),
        (lambda c: c.update(origin={"ecef": [5e4, 0.0, 0.0]}), "$.origin.ecef"),
        # An odometer rate that does not divide the IMU rate, or exceeds it.
        (lambda c: c.update(sensors={"odo_rate": 7.0}), "$.sensors.odo_rate"),
        (lambda c: c.update(sensors={"odo_rate": 200.0}), "$.sensors.odo_rate"),
        (lambda c: c["trajectory"].update(imu_rate=5.0), "$.trajectory.imu_rate"),
        # Grids past the cap of an hour at 1 kHz: 1e303 Hz holds no array, 1e7 Hz is 1e8 intervals.
        (lambda c: c["trajectory"].update(imu_rate=1e303), "$.trajectory.imu_rate"),
        (lambda c: c["trajectory"].update(imu_rate=1e7), "$.trajectory.imu_rate"),
        (lambda c: c.update(origin={"ecef": [6.4e6, 0, 0], "latitude_deg": 45.0}), "$.origin"),
        (lambda c: c.update(origin={}), "$.origin"),
        (lambda c: c.update(trajectory={"segments": []}), "$.trajectory.segments"),
        (lambda c: c.update(trajectory={"segments": [{"type": "spiral", "duration": 1.0}]}),
         "$.trajectory.segments[0].type"),
        (lambda c: c.update(trajectory={"segments": [{"type": "turn", "duration": 1.0, "speed": 1.0}]}),
         "$.trajectory.segments[0].yaw_rate"),
        (lambda c: c.update(trajectory={"segments": [{"type": "rest", "duration": 1.0, "speed": 1.0}]}),
         "$.trajectory.segments[0]"),
        (lambda c: c.update(autonomy={"xi0": [0.0] * 8}), "$.autonomy.xi0"),
        (lambda c: c.update(autonomy={"speed": 2.0}), "$.autonomy"),
    ],
)
def test_schema_violations_name_the_json_path(mutate, path_hint):
    cfg = _base()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        resolve(cfg)
    assert path_hint in str(err.value)


def test_an_hour_at_1_khz_resolves():
    # The grid cap's edge: 3,600,000 intervals.  Resolved only, never flown.
    cfg = _base()
    cfg["trajectory"] = {"imu_rate": 1000.0, "segments": [{"type": "straight", "duration": 3600.0, "speed": 5.0}]}
    assert resolve(cfg)["trajectory"]["imu_rate"] == 1000.0


def test_odometer_off_and_dividing_rates_resolve():
    for rate in (0.0, 1.0, 25.0, 100.0):
        cfg = _base()
        cfg["sensors"] = {"odo_rate": rate}
        assert resolve(cfg)["sensors"]["odo_rate"] == rate


def test_latitude_and_equal_ecef_hash_identically():
    by_lat = resolve(_base())
    cfg = _base()
    cfg["origin"] = {"ecef": by_lat["origin"]["ecef"]}
    assert config_hash(resolve(cfg)) == config_hash(by_lat)


def test_longitude_shifts_origin():
    cfg = _base()
    cfg["origin"] = {"latitude_deg": 0.0, "longitude_deg": 90.0}
    out = resolve(cfg)
    x, y, z = out["origin"]["ecef"]
    assert abs(x) < 1.0 and abs(z) < 1.0
    assert y == pytest.approx(6378137.0)


def test_hash_ignores_key_order_but_not_values():
    a = resolve(_base())
    shuffled = dict(reversed(list(_base().items())))
    assert config_hash(resolve(shuffled)) == config_hash(a)
    cfg = _base()
    cfg["seed"] = 1
    assert config_hash(resolve(cfg)) != config_hash(a)


def test_apply_overrides_copies_and_validates():
    base = resolve(_base())
    before = copy.deepcopy(base)
    out = apply_overrides(base, seed=9, runs=3, variant="traditional-e", convention="left")
    assert base == before
    assert (out["seed"], out["monte_carlo"]["n_runs"]) == (9, 3)
    assert (out["grouping"], out["frame"], out["convention"]) == ("traditional", "e", "left")
    # resolve checks each override, naming its field as for the file's own value.
    with pytest.raises(ConfigError, match=r"^\$\.grouping: expected one of"):
        apply_overrides(base, variant="sideways-w")
    with pytest.raises(ConfigError, match=r"^variant: expected <grouping>-<frame>"):
        apply_overrides(base, variant="inertial")
    with pytest.raises(ConfigError, match=r"^\$\.convention: expected one of"):
        apply_overrides(base, convention="up")
    with pytest.raises(ConfigError, match=r"^\$\.monte_carlo\.n_runs: need at least 1 run, got 0$"):
        apply_overrides(base, runs=0)
    with pytest.raises(ConfigError, match=r"^\$\.seed: seed must lie in \[0, 2\*\*64\), got -4$"):
        apply_overrides(base, seed=-4)
    assert base == before


def test_build_run_config_maps_every_field():
    cfg = _base()
    cfg.update(
        frame="e",
        grouping="traditional",
        convention="left",
        gravity={"model": "uniform", "gamma0": [0.0, 0.0, 9.8]},
        sensors={
            "odo_noise_var": [1e-4, 2e-4, 3e-4],
            "gyro_bias": [1e-5, 0.0, 0.0],
            "bias_known": False,
            "odo_rate": 5.0,
        },
        filter={"p0_pos": 4.0, "gate_sigma": 3.0, "integrator": "rk4"},
        monte_carlo={"n_runs": 7},
        seed=12,
    )
    rc = build_run_config(resolve(cfg))
    assert rc.frame is Frame.E
    assert rc.grouping is Grouping.TRADITIONAL
    assert rc.convention is ErrorConvention.LEFT
    assert isinstance(rc.gravity, UniformGravity)
    assert np.allclose(rc.noise.odo_noise_cov, np.diag([1e-4, 2e-4, 3e-4]))
    assert np.array_equal(rc.gyro_bias, [1e-5, 0.0, 0.0])
    assert rc.bias_known is False
    assert rc.odo_rate == 5.0
    assert rc.p0_pos == 4.0
    assert rc.gate_sigma == 3.0
    assert rc.integrator == "rk4"
    assert rc.n_runs == 7
    assert rc.seed == 12
    assert np.linalg.norm(rc.origin_e) == pytest.approx(6378137.0)


def test_build_trajectory_kinds():
    traj = build_trajectory(
        resolve(
            {
                "schema_version": 1,
                "origin": {"latitude_deg": 0.0},
                "trajectory": {
                    "imu_rate": 200.0,
                    "segments": [
                        {"type": "rest", "duration": 1.0},
                        {"type": "turn", "duration": 2.0, "yaw_rate": 0.1, "speed": 3.0},
                    ],
                },
            }
        )["trajectory"]
    )
    assert traj.imu_rate == 200.0
    assert isinstance(traj.segments[0], Rest)
    assert isinstance(traj.segments[1], Turn)
    assert traj.segments[1].yaw_rate == 0.1


def test_autonomy_inputs_require_section_and_default_twin():
    with pytest.raises(ConfigError):
        build_autonomy_inputs(resolve(_base()))
    cfg = _base()
    cfg["autonomy"] = {"xi0": [0.01] * 9, "gyro_input_error": [1e-6, 0.0, 0.0]}
    variant, conv, traj_a, traj_b, xi0, settings = build_autonomy_inputs(resolve(cfg))
    assert variant.frame is Frame.W and variant.grouping is Grouping.PROPOSED
    assert conv is ErrorConvention.RIGHT
    # trajectory_b defaults to the primary trajectory
    assert isinstance(traj_b.segments[0], Straight)
    assert traj_b.total_duration == traj_a.total_duration
    assert np.array_equal(xi0, [0.01] * 9)
    assert np.array_equal(settings.gyro_input_error, [1e-6, 0.0, 0.0])
    assert isinstance(settings.gravity, SphericalGravity)


def test_autonomy_twin_override():
    cfg = _base()
    cfg["autonomy"] = {
        "trajectory_b": {"segments": [{"type": "rest", "duration": 10.0}]},
    }
    _, _, _, traj_b, xi0, _ = build_autonomy_inputs(resolve(cfg))
    assert isinstance(traj_b.segments[0], Rest)
    assert np.array_equal(xi0, np.zeros(9))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_base()))
    assert load_config(str(path)) == resolve(_base())
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(json.JSONDecodeError):
        load_config(str(bad))
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# property: arbitrary JSON raises only ConfigError

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _full():
    cfg = _base()
    cfg.update(
        frame="e", grouping="traditional", convention="left", seed=3,
        gravity={"model": "uniform", "gamma0": [0.0, 0.0, 9.8]},
        sensors={"gyro_bias": [1e-5, 0.0, 0.0], "odo_noise_var": [1e-4, 1e-4, 1e-4], "bias_known": False},
        filter={"gate_sigma": 3.0, "integrator": "rk4", "p0_att": 1e-6},
        monte_carlo={"n_runs": 2},
        autonomy={"xi0": [0.0] * 9, "trajectory_b": {"segments": [{"type": "rest", "duration": 1.0}]}},
    )
    cfg["trajectory"]["segments"].append({"type": "climb", "duration": 1.0, "pitch": 0.1, "speed": 2.0})
    return cfg


def _paths(node, path=()):
    """Every key path into node, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


_FULL_PATHS = list(_paths(_full()))


# Configs of the right JSON types that the runtime types refuse, by name:
# (path into _full(), the value put there, the JSON path of the fault).
_PROBES = {
    "duration 0": (("trajectory", "segments", 0, "duration"), 0.0, "$.trajectory.segments[0]"),
    "duration -1": (("trajectory", "segments", 0, "duration"), -1.0, "$.trajectory.segments[0]"),
    "3,710 s total": (("trajectory", "segments", 0, "duration"), 3709.0, "$.trajectory"),
    "1.6 rad climb": (("trajectory", "segments", 1, "pitch"), 1.6, "$.trajectory.segments[1]"),
    "0.05 s total": (("trajectory", "segments"), [{"type": "rest", "duration": 0.05}], "$.trajectory"),
    # 0.503 s against the primary's 11 s at 100 Hz: its end, 0.503 s, is the primary's 0.51 s epoch.
    "off-grid twin": (("autonomy", "trajectory_b"), {"segments": [{"type": "rest", "duration": 0.503}]},
                      "$.autonomy.trajectory_b"),
    "seed 2**64+5": (("seed",), 2**64 + 5, "$.seed"),  # Philox keys the seed modulo 2**64: seed 5's draws
    "seed 2**64": (("seed",), 2**64, "$.seed"),
    "no runs": (("monte_carlo", "n_runs"), 0, "$.monte_carlo.n_runs"),
    "odo_rate 7": (("sensors", "odo_rate"), 7.0, "$.sensors.odo_rate"),
    # The first odometer epoch past the grid's last: a decimation of 1e302, and no aiding at all.
    "odo_rate 1e-300": (("sensors", "odo_rate"), 1e-300, "$.sensors.odo_rate"),
    "0.2 Hz on 2 s": ((), {**_base(), "sensors": {"odo_rate": 0.2},
                           "trajectory": {"segments": [{"type": "straight", "duration": 2.0, "speed": 10.0}]}},
                      "$.sensors.odo_rate"),
    "negative psd": (("sensors", "gyro_noise_psd"), -1.0, "$.sensors.gyro_noise_psd"),
    "negative p0": (("filter", "p0_att"), -1e-6, "$.filter.p0_att"),
    "1e308 Hz": (("trajectory", "imu_rate"), 1e308, "$.trajectory.imu_rate"),  # 11 s: more samples than a float holds
}


def _replaced(path, value):
    """_full() with the subtree at path (or the whole of it) replaced by value."""
    if not path:
        return value
    raw = _full()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("probe", _PROBES)
def test_runtime_range_failures_name_the_json_path(probe):
    path, value, where = _PROBES[probe]
    with pytest.raises(ConfigError) as err:
        resolve(_replaced(path, value))
    assert str(err.value).startswith(f"{where}: "), str(err.value)


def test_seed_range_is_the_philox_key_word():
    assert resolve(_replaced(("seed",), 2**64 - 1))["seed"] == 2**64 - 1
    with pytest.raises(ConfigError, match=r"^\$\.seed: seed must lie in \[0, 2\*\*64\), got -1$"):
        resolve(_replaced(("seed",), -1))


def test_twin_without_a_rate_takes_the_primary_rate():
    cfg = _replaced(("trajectory", "imu_rate"), 200.0)
    assert resolve(cfg)["autonomy"]["trajectory_b"]["imu_rate"] == 200.0
    # A rate of its own that differs is refused: its grid leaves the primary's.
    cfg["autonomy"]["trajectory_b"]["imu_rate"] = 100.0
    with pytest.raises(ConfigError, match=r"^\$\.autonomy\.trajectory_b: autonomy trajectories must share"):
        resolve(cfg)


def test_a_section_reports_its_first_bad_key_in_schema_order():
    # Two bad sensors keys: odo_rate is checked before bias_known, whatever order the file gives.
    cfg = _replaced(("sensors",), {"bias_known": 1, "odo_rate": "fast"})
    with pytest.raises(ConfigError, match=r"^\$\.sensors\.odo_rate: expected a number, got str$"):
        resolve(cfg)


def test_twin_grid_is_checked_before_the_input_errors():
    path, value, where = _PROBES["off-grid twin"]
    cfg = _replaced(path, value)
    cfg["autonomy"]["gyro_input_error"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match=r"^\$\.autonomy\.trajectory_b: autonomy trajectories must share"):
        resolve(cfg)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(_FULL_PATHS), value=_JSON)
@example(path=("frame",), value=[])
@example(path=("trajectory", "segments", 0, "type"), value={})
@example(path=("gravity", "model"), value=[1])
@example(path=("filter", "integrator"), value=["rk4"])
@example(path=("seed",), value=10**400)
@example(path=("trajectory", "imu_rate"), value=10**400)
@example(path=("trajectory", "imu_rate"), value=200.0)  # trajectory_b gives no rate: it takes 200 Hz
@example(path=("trajectory", "imu_rate"), value=1e308)
@example(path=_PROBES["duration 0"][0], value=_PROBES["duration 0"][1])
@example(path=_PROBES["duration -1"][0], value=_PROBES["duration -1"][1])
@example(path=_PROBES["3,710 s total"][0], value=_PROBES["3,710 s total"][1])
@example(path=_PROBES["1.6 rad climb"][0], value=_PROBES["1.6 rad climb"][1])
@example(path=_PROBES["0.05 s total"][0], value=_PROBES["0.05 s total"][1])
@example(path=_PROBES["off-grid twin"][0], value=_PROBES["off-grid twin"][1])
@example(path=_PROBES["seed 2**64+5"][0], value=_PROBES["seed 2**64+5"][1])
@example(path=_PROBES["odo_rate 1e-300"][0], value=_PROBES["odo_rate 1e-300"][1])
@example(path=_PROBES["0.2 Hz on 2 s"][0], value=_PROBES["0.2 Hz on 2 s"][1])
def test_resolve_on_arbitrary_json_raises_only_config_error(path, value):
    # A valid config with one subtree (or the whole of it) replaced by any
    # JSON value either resolves or raises ConfigError naming a path; a
    # config it accepts builds every runtime type a command builds.
    try:
        out = resolve(_replaced(path, value))
    except ConfigError as exc:
        assert str(exc).startswith("$")
    else:
        json.dumps(out, allow_nan=False)  # the resolved form is plain, finite JSON
        build_run_config(out)
        if "autonomy" in out:
            _, _, traj_a, traj_b, _, _ = build_autonomy_inputs(out)
            _shared_epochs(traj_a, traj_b)


# ---------------------------------------------------------------------------
# resolve is idempotent: overrides re-resolve a resolved config


def _readme():
    """The example config of README.md's "Config file" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def _gated_rk4():
    """The cli_single benchmark's config: e frame, traditional, left, gated rk4."""
    cfg = _base()
    cfg.update(frame="e", grouping="traditional", convention="left", filter={"gate_sigma": 3.0, "integrator": "rk4"})
    cfg["trajectory"] = {"imu_rate": 100.0, "segments": [
        {"type": "straight", "duration": 40.0, "speed": 30.0},
        {"type": "turn", "duration": 30.0, "yaw_rate": 0.02, "speed": 30.0},
        {"type": "climb", "duration": 20.0, "pitch": 0.05, "speed": 30.0},
        {"type": "turn", "duration": 20.0, "yaw_rate": -0.02, "speed": 30.0},
        {"type": "rest", "duration": 10.0},
    ]}
    cfg["sensors"] = {"gyro_bias": [1e-5, -5e-6, 8e-6], "accel_bias": [1e-4, -2e-4, 5e-5]}
    return cfg


def _default_twin():
    """An autonomy section whose twin defaults to the primary trajectory; a zero gate."""
    cfg = _base()
    cfg.update(origin={"latitude_deg": -33.0, "longitude_deg": 151.0}, filter={"gate_sigma": 0},
               sensors={"odo_noise_var": 2e-4}, autonomy={"accel_input_error": [1e-3, 0, 0]})
    return cfg


@pytest.mark.parametrize("make", [_readme, _gated_rk4, _full, _default_twin])
def test_resolve_is_idempotent(make):
    once = resolve(make())
    twice = resolve(copy.deepcopy(once))
    assert twice == once
    assert config_hash(twice) == config_hash(once)
    assert apply_overrides(once) == once
