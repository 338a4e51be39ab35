"""Schema-checked JSON run configuration.

A config file is a single JSON object with a required integer
``schema_version`` (currently 1).  Unknown keys anywhere in the object are
rejected, every value is type-checked, and defaults are filled in, yielding
a fully resolved plain dict.  The resolved dict (after any command-line
overrides) is what gets hashed into output files, so two runs with the
same hash saw exactly the same settings.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from .earth import EarthParams, SphericalGravity, UniformGravity
from .error_models import ErrorConvention
from .lgekf import NoiseConfig
from .mechanization import Frame, Grouping
from .simulate import (
    AutonomySettings,
    Climb,
    Rest,
    RunConfig,
    Straight,
    TrajectorySpec,
    Turn,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file failed schema validation; str() names the JSON path."""


def _fail(path, problem):
    raise ConfigError(f"{path}: {problem}")


def _expect_obj(value, path):
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj, path, allowed):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key '{key}' (allowed: {', '.join(sorted(allowed))})")


def _expect_num(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = np.inf
    if not np.isfinite(value):
        _fail(path, "expected a finite number")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    return value


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    return value


def _expect_bool(value, path):
    if not isinstance(value, bool):
        _fail(path, f"expected true/false, got {type(value).__name__}")
    return value


def _expect_choice(value, path, options):
    if not isinstance(value, str) or value not in options:
        _fail(path, f"expected one of {sorted(options)}, got {value!r}")
    return value


def _expect_vec(value, path, n):
    if not isinstance(value, list) or len(value) != n:
        _fail(path, f"expected a list of {n} numbers")
    return [_expect_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


# ---------------------------------------------------------------------------
# section validators; each returns the resolved (defaults-filled) form


def _resolve_origin(raw, path):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, {"latitude_deg", "longitude_deg", "ecef"})
    if "ecef" in obj:
        if "latitude_deg" in obj or "longitude_deg" in obj:
            _fail(path, "give either ecef or latitude_deg, not both")
        vec = _expect_vec(obj["ecef"], f"{path}.ecef", 3)
        if np.linalg.norm(vec) < 1e3:
            _fail(f"{path}.ecef", "origin must be away from the earth center")
        return {"ecef": vec}
    if "latitude_deg" not in obj:
        _fail(path, "needs latitude_deg (with optional longitude_deg) or ecef")
    lat = _expect_num(obj["latitude_deg"], f"{path}.latitude_deg")
    if abs(lat) > 90.0:
        _fail(f"{path}.latitude_deg", "must be within [-90, 90]")
    lon = _expect_num(obj.get("longitude_deg", 0.0), f"{path}.longitude_deg")
    re = EarthParams().re
    phi, lam = np.radians(lat), np.radians(lon)
    ecef = re * np.array([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)])
    return {"ecef": [float(x) for x in ecef]}


_SEGMENT_KEYS = {
    "straight": {"type", "duration", "speed"},
    "turn": {"type", "duration", "yaw_rate", "speed"},
    "climb": {"type", "duration", "pitch", "speed"},
    "rest": {"type", "duration"},
}


def _resolve_segment(raw, path):
    obj = _expect_obj(raw, path)
    kind = _expect_choice(obj.get("type"), f"{path}.type", set(_SEGMENT_KEYS))
    _check_keys(obj, path, _SEGMENT_KEYS[kind])
    out = {"type": kind, "duration": _expect_num(obj.get("duration"), f"{path}.duration")}
    if kind != "rest":
        out["speed"] = _expect_num(obj.get("speed"), f"{path}.speed", minimum=0.0)
    if kind == "turn":
        out["yaw_rate"] = _expect_num(obj.get("yaw_rate"), f"{path}.yaw_rate")
    if kind == "climb":
        out["pitch"] = _expect_num(obj.get("pitch"), f"{path}.pitch")
    return out


def _resolve_trajectory(raw, path):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, {"imu_rate", "segments"})
    segments = obj.get("segments")
    if not isinstance(segments, list) or not segments:
        _fail(f"{path}.segments", "expected a non-empty list of segments")
    return {
        "imu_rate": _expect_num(obj.get("imu_rate", 100.0), f"{path}.imu_rate"),
        "segments": [
            _resolve_segment(s, f"{path}.segments[{i}]") for i, s in enumerate(segments)
        ],
    }


def _resolve_gravity(raw, path):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, {"model", "gamma0"})
    model = _expect_choice(obj.get("model"), f"{path}.model", {"spherical", "uniform"})
    if model == "spherical":
        if "gamma0" in obj:
            _fail(f"{path}.gamma0", "only meaningful for the uniform model")
        return {"model": "spherical"}
    if "gamma0" not in obj:
        _fail(path, "uniform model needs gamma0 (3-vector, frame of use)")
    return {"model": "uniform", "gamma0": _expect_vec(obj["gamma0"], f"{path}.gamma0", 3)}


_SENSOR_DEFAULTS = {
    "gyro_noise_psd": 1e-8,
    "accel_noise_psd": 1e-5,
    "gyro_bias_rw_psd": 1e-12,
    "accel_bias_rw_psd": 1e-9,
    "odo_noise_var": 1e-4,
    "odo_rate": 10.0,
    "gyro_bias": [0.0, 0.0, 0.0],
    "accel_bias": [0.0, 0.0, 0.0],
    "bias_known": True,
}


def _resolve_sensors(raw, path):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, set(_SENSOR_DEFAULTS))
    given = {**_SENSOR_DEFAULTS, **obj}
    out = {}
    for key in ("gyro_noise_psd", "accel_noise_psd", "gyro_bias_rw_psd", "accel_bias_rw_psd"):
        out[key] = _expect_num(given[key], f"{path}.{key}", minimum=0.0)
    var = given["odo_noise_var"]
    if isinstance(var, list):
        out["odo_noise_var"] = _expect_vec(var, f"{path}.odo_noise_var", 3)
    else:
        out["odo_noise_var"] = _expect_num(var, f"{path}.odo_noise_var", minimum=0.0)
    out["odo_rate"] = _expect_num(given["odo_rate"], f"{path}.odo_rate", minimum=0.0)
    for key in ("gyro_bias", "accel_bias"):
        out[key] = _expect_vec(given[key], f"{path}.{key}", 3)
    out["bias_known"] = _expect_bool(given["bias_known"], f"{path}.bias_known")
    return out


_FILTER_DEFAULTS = {
    "p0_att": 1e-6,
    "p0_vel": 1e-2,
    "p0_pos": 1.0,
    "p0_gyro_bias": 4e-10,
    "p0_accel_bias": 9e-8,
    "gate_sigma": None,
    "integrator": "midpoint",
}


def _resolve_filter(raw, path):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, set(_FILTER_DEFAULTS))
    given = {**_FILTER_DEFAULTS, **obj}
    out = {}
    for key in ("p0_att", "p0_vel", "p0_pos", "p0_gyro_bias", "p0_accel_bias"):
        out[key] = _expect_num(given[key], f"{path}.{key}", minimum=0.0)
    gate = given["gate_sigma"]
    out["gate_sigma"] = None if gate is None else _expect_num(gate, f"{path}.gate_sigma", minimum=0.0)
    out["integrator"] = _expect_choice(given["integrator"], f"{path}.integrator", {"midpoint", "rk4"})
    return out


def _resolve_autonomy(raw, path, trajectory):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, {"xi0", "trajectory_b", "gyro_input_error", "accel_input_error"})
    out = {"xi0": _expect_vec(obj.get("xi0", [0.0] * 9), f"{path}.xi0", 9)}
    if "trajectory_b" in obj:
        out["trajectory_b"] = _resolve_trajectory(obj["trajectory_b"], f"{path}.trajectory_b")
    else:
        out["trajectory_b"] = copy.deepcopy(trajectory)
    for key in ("gyro_input_error", "accel_input_error"):
        out[key] = _expect_vec(obj.get(key, [0.0] * 3), f"{path}.{key}", 3)
    return out


_TOP_KEYS = {
    "schema_version",
    "frame",
    "grouping",
    "convention",
    "gravity",
    "origin",
    "trajectory",
    "sensors",
    "filter",
    "monte_carlo",
    "seed",
    "autonomy",
}


def resolve(raw):
    """Validate a parsed JSON object and fill in every default.

    Returns a plain dict ready for config_hash / build_run_config; raises
    ConfigError naming the offending JSON path otherwise.
    """
    obj = _expect_obj(raw, "$")
    _check_keys(obj, "$", _TOP_KEYS)
    if "schema_version" not in obj:
        _fail("$", "missing schema_version")
    version = _expect_int(obj["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        _fail("$.schema_version", f"unsupported version {version} (expected {SCHEMA_VERSION})")
    if "origin" not in obj:
        _fail("$", "missing origin")
    if "trajectory" not in obj:
        _fail("$", "missing trajectory")

    out = {"schema_version": version}
    out["frame"] = _expect_choice(obj.get("frame", "w"), "$.frame", {"i", "e", "w"})
    out["grouping"] = _expect_choice(
        obj.get("grouping", "proposed"), "$.grouping", {"traditional", "proposed"}
    )
    out["convention"] = _expect_choice(
        obj.get("convention", "right"), "$.convention", {"left", "right"}
    )
    out["gravity"] = _resolve_gravity(obj.get("gravity", {"model": "spherical"}), "$.gravity")
    out["origin"] = _resolve_origin(obj["origin"], "$.origin")
    out["trajectory"] = _resolve_trajectory(obj["trajectory"], "$.trajectory")
    out["sensors"] = _resolve_sensors(obj.get("sensors", {}), "$.sensors")
    out["filter"] = _resolve_filter(obj.get("filter", {}), "$.filter")
    mc = _expect_obj(obj.get("monte_carlo", {}), "$.monte_carlo")
    _check_keys(mc, "$.monte_carlo", {"n_runs"})
    out["monte_carlo"] = {"n_runs": _expect_int(mc.get("n_runs", 50), "$.monte_carlo.n_runs", 1)}
    out["seed"] = _expect_int(obj.get("seed", 0), "$.seed", minimum=0)
    if "autonomy" in obj:
        out["autonomy"] = _resolve_autonomy(obj["autonomy"], "$.autonomy", out["trajectory"])
    return out


def load_config(path):
    """Parse and resolve a config file.

    json.JSONDecodeError (with line/column) propagates to the caller;
    schema problems raise ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return resolve(raw)


def apply_overrides(resolved, seed=None, runs=None, variant=None, convention=None):
    """Fold command-line overrides into a resolved config (returns a copy)."""
    out = copy.deepcopy(resolved)
    if seed is not None:
        if seed < 0:
            raise ConfigError("$.seed: must be >= 0")
        out["seed"] = int(seed)
    if runs is not None:
        if runs < 1:
            raise ConfigError("$.monte_carlo.n_runs: must be >= 1")
        out["monte_carlo"]["n_runs"] = int(runs)
    if variant is not None:
        parts = variant.split("-")
        if len(parts) != 2 or parts[0] not in ("traditional", "proposed") or parts[1] not in (
            "i",
            "e",
            "w",
        ):
            raise ConfigError(
                "variant: expected <grouping>-<frame> like proposed-w or traditional-e"
            )
        out["grouping"], out["frame"] = parts
    if convention is not None:
        if convention not in ("left", "right"):
            raise ConfigError("convention: expected left or right")
        out["convention"] = convention
    return out


def config_hash(resolved):
    """sha256 over the canonical JSON form of a resolved config."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# resolved dict -> runtime objects


def _build_segment(seg):
    kind = seg["type"]
    if kind == "straight":
        return Straight(seg["duration"], seg["speed"])
    if kind == "turn":
        return Turn(seg["duration"], seg["yaw_rate"], seg["speed"])
    if kind == "climb":
        return Climb(seg["duration"], seg["pitch"], seg["speed"])
    return Rest(seg["duration"])


def build_trajectory(resolved_traj):
    return TrajectorySpec(
        tuple(_build_segment(s) for s in resolved_traj["segments"]),
        imu_rate=resolved_traj["imu_rate"],
    )


def _build_gravity(resolved_grav):
    if resolved_grav["model"] == "spherical":
        return SphericalGravity()
    return UniformGravity(np.array(resolved_grav["gamma0"], dtype=float))


def build_run_config(resolved):
    """Materialize the RunConfig a resolved config describes."""
    sens = resolved["sensors"]
    var = sens["odo_noise_var"]
    odo_cov = np.diag(var if isinstance(var, list) else [var] * 3).astype(float)
    noise = NoiseConfig(
        gyro_noise_psd=sens["gyro_noise_psd"],
        accel_noise_psd=sens["accel_noise_psd"],
        gyro_bias_rw_psd=sens["gyro_bias_rw_psd"],
        accel_bias_rw_psd=sens["accel_bias_rw_psd"],
        odo_noise_cov=odo_cov,
    )
    filt = resolved["filter"]
    return RunConfig(
        traj=build_trajectory(resolved["trajectory"]),
        origin_e=np.array(resolved["origin"]["ecef"], dtype=float),
        frame=Frame(resolved["frame"]),
        grouping=Grouping(resolved["grouping"]),
        convention=ErrorConvention(resolved["convention"]),
        gravity=_build_gravity(resolved["gravity"]),
        noise=noise,
        gyro_bias=np.array(sens["gyro_bias"], dtype=float),
        accel_bias=np.array(sens["accel_bias"], dtype=float),
        odo_rate=sens["odo_rate"],
        p0_att=filt["p0_att"],
        p0_vel=filt["p0_vel"],
        p0_pos=filt["p0_pos"],
        p0_gyro_bias=filt["p0_gyro_bias"],
        p0_accel_bias=filt["p0_accel_bias"],
        seed=resolved["seed"],
        gate_sigma=filt["gate_sigma"],
        n_runs=resolved["monte_carlo"]["n_runs"],
        bias_known=sens["bias_known"],
        integrator=filt["integrator"],
    )


def build_autonomy_inputs(resolved):
    """(variant, convention, traj_a, traj_b, xi0, settings) for a twin test."""
    if "autonomy" not in resolved:
        raise ConfigError("$: an autonomy section is required for this command")
    auto = resolved["autonomy"]
    from .error_models import ModelVariant

    variant = ModelVariant(Frame(resolved["frame"]), Grouping(resolved["grouping"]))
    settings = AutonomySettings(
        origin_e=np.array(resolved["origin"]["ecef"], dtype=float),
        gravity=_build_gravity(resolved["gravity"]),
        gyro_input_error=np.array(auto["gyro_input_error"], dtype=float),
        accel_input_error=np.array(auto["accel_input_error"], dtype=float),
    )
    return (
        variant,
        ErrorConvention(resolved["convention"]),
        build_trajectory(resolved["trajectory"]),
        build_trajectory(auto["trajectory_b"]),
        np.array(auto["xi0"], dtype=float),
        settings,
    )
