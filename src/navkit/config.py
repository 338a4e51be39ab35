"""Schema-checked JSON run configuration.

A config file is a single JSON object with a required integer
``schema_version`` (currently 1).  Unknown keys anywhere in the object are
rejected, every value is type-checked, and defaults are filled in, yielding
a fully resolved plain dict.  Command-line overrides go into a copy of
it that resolve checks again, as it checks a file (a resolved dict
resolves to itself).  The resolved dict (after any overrides) is what gets
hashed into output files, so two runs with the same hash saw exactly the
same settings.

The schema is read off the runtime types it builds: the defaults are the
field defaults of RunConfig, NoiseConfig (odo_noise_var is its odometer
covariance's diagonal), TrajectorySpec and AutonomySettings; the frame,
grouping and convention choices are the values of Frame, Grouping and
ErrorConvention; the integrator choices are mechanization's integration
methods; and a segment type's keys are its dataclass's fields.  Each of the
sensors, filter, monte_carlo and autonomy sections is one table of keys,
defaults and JSON checks, and resolves through one walk of it, so a key is
allowed, defaulted and checked in one place.  Only JSON types are checked
here: resolve builds the runtime types, whose own checks own every value
range, so it accepts exactly the configs the runtime runs.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import MISSING, fields
from functools import partial

import numpy as np

from .earth import EarthParams, SphericalGravity, UniformGravity, ned_world
from .error_models import ErrorConvention, ModelVariant
from .lgekf import NoiseConfig, SpecInvalid
from .mechanization import _INTEGRATORS, Frame, Grouping
from .simulate import (
    AutonomySettings,
    Climb,
    Rest,
    RunConfig,
    Straight,
    TrajectorySpec,
    Turn,
    _shared_epochs,
)

__all__ = [
    "ConfigError",
    "resolve",
    "load_config",
    "apply_overrides",
    "config_hash",
    "build_trajectory",
    "build_run_config",
    "build_autonomy_inputs",
]

SCHEMA_VERSION = 1


def _defaults(cls):
    """A dataclass's field defaults by name (MISSING for a required field)."""
    return {f.name: f.default if f.default_factory is MISSING else f.default_factory() for f in fields(cls)}


_RUN = _defaults(RunConfig)
_MODEL_ENUMS = {"frame": Frame, "grouping": Grouping, "convention": ErrorConvention}


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


def _expect_num(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = np.inf
    if not np.isfinite(value):
        _fail(path, "expected a finite number")
    return value


def _expect_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
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


def _guard(path, check, *args):
    """The runtime's own check(*args) decides; its ValueError fails path, or
    the field under path a SpecInvalid names (its key there in _JSON_KEYS)."""
    try:
        check(*args)
    except ValueError as exc:
        field = exc.field if isinstance(exc, SpecInvalid) else None
        _fail(path if field is None else f"{path}.{_JSON_KEYS.get(field, field)}", str(exc))


def _resolve_origin(raw, path):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, {"latitude_deg", "longitude_deg", "ecef"})
    if "ecef" in obj:
        if "latitude_deg" in obj or "longitude_deg" in obj:
            _fail(path, "give either ecef or latitude_deg, not both")
        vec = _expect_vec(obj["ecef"], f"{path}.ecef", 3)
        _guard(f"{path}.ecef", ned_world, np.array(vec))  # every run anchors its world frame there
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
    _guard(f"{path}.latitude_deg", ned_world, ecef)
    return {"ecef": [float(x) for x in ecef]}


_SEGMENTS = {"straight": Straight, "turn": Turn, "climb": Climb, "rest": Rest}


def _resolve_segment(raw, path):
    obj = _expect_obj(raw, path)
    kind = _expect_choice(obj.get("type"), f"{path}.type", set(_SEGMENTS))
    names = [f.name for f in fields(_SEGMENTS[kind])]
    _check_keys(obj, path, {"type", *names})
    out = {"type": kind}
    for name in names:
        out[name] = _expect_num(obj.get(name), f"{path}.{name}")
    return out


def _resolve_trajectory(raw, path, imu_rate):
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, {"imu_rate", "segments"})
    segments = obj.get("segments")
    if not isinstance(segments, list):
        _fail(f"{path}.segments", "expected a list of segments")
    out = {
        "imu_rate": _expect_num(obj.get("imu_rate", imu_rate), f"{path}.imu_rate"),
        "segments": [_resolve_segment(s, f"{path}.segments[{i}]") for i, s in enumerate(segments)],
    }
    _guard(path, build_trajectory, out)
    return out


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


_NOISE_PSDS = ("gyro_noise_psd", "accel_noise_psd", "gyro_bias_rw_psd", "accel_bias_rw_psd")
_NOISE = NoiseConfig()
_vec3 = partial(_expect_vec, n=3)


def _num_or_vec3(value, path):
    return _vec3(value, path) if isinstance(value, list) else _expect_num(value, path)


# Each section's table: key -> (default, check(value, path) -> resolved value), walked in
# order.  The keys are RunConfig and NoiseConfig field names, but for odo_noise_var, the
# diagonal of NoiseConfig's odo_noise_cov.
_SECTIONS = {
    "sensors": {
        **{key: (getattr(_NOISE, key), _expect_num) for key in _NOISE_PSDS},
        "odo_noise_var": (float(_NOISE.odo_noise_cov[0, 0]), _num_or_vec3),
        "odo_rate": (_RUN["odo_rate"], _expect_num),
        **{key: (_RUN[key].tolist(), _vec3) for key in ("gyro_bias", "accel_bias")},
        "bias_known": (_RUN["bias_known"], _expect_bool),
    },
    "filter": {
        **{key: (_RUN[key], _expect_num) for key in ("p0_att", "p0_vel", "p0_pos", "p0_gyro_bias", "p0_accel_bias")},
        "gate_sigma": (_RUN["gate_sigma"], lambda value, path: None if value is None else _expect_num(value, path)),
        "integrator": (_RUN["integrator"], partial(_expect_choice, options=_INTEGRATORS)),
    },
    "monte_carlo": {"n_runs": (_RUN["n_runs"], _expect_int)},
}
# The JSON key under $ of each RunConfig and NoiseConfig field that a range check names.
_JSON_KEYS = {"odo_noise_cov": "sensors.odo_noise_var",
              **{key: f"{name}.{key}" for name, table in _SECTIONS.items() for key in table}}


def _autonomy(trajectory):
    """The autonomy section's table.  trajectory_b is the primary trajectory by default, and
    takes the primary's rate, the only one whose grid it can share, unless it gives its own."""

    def twin(raw, path):
        out = _resolve_trajectory(raw, path, trajectory["imu_rate"])
        _guard(path, _shared_epochs, build_trajectory(trajectory), build_trajectory(out))
        return out

    errors = _defaults(AutonomySettings)
    return {"xi0": ([0.0] * 9, partial(_expect_vec, n=9)), "trajectory_b": (trajectory, twin),
            **{key: (errors[key].tolist(), _vec3) for key in ("gyro_input_error", "accel_input_error")}}


def _walk(raw, path, table):
    """A section resolved through its table: each key's value, its default when absent, checked in table order."""
    obj = _expect_obj(raw, path)
    _check_keys(obj, path, table)
    return {key: check(obj.get(key, default), f"{path}.{key}") for key, (default, check) in table.items()}


_TOP_KEYS = {"schema_version", *_MODEL_ENUMS, "gravity", "origin", "trajectory", *_SECTIONS, "seed", "autonomy"}


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
    for key, enum in _MODEL_ENUMS.items():
        out[key] = _expect_choice(obj.get(key, _RUN[key].value), f"$.{key}", {m.value for m in enum})
    out["gravity"] = _resolve_gravity(obj.get("gravity", {"model": "spherical"}), "$.gravity")
    out["origin"] = _resolve_origin(obj["origin"], "$.origin")
    out["trajectory"] = _resolve_trajectory(obj["trajectory"], "$.trajectory", _defaults(TrajectorySpec)["imu_rate"])
    for name, table in _SECTIONS.items():
        out[name] = _walk(obj.get(name, {}), f"$.{name}", table)
    out["seed"] = _expect_int(obj.get("seed", _RUN["seed"]), "$.seed")
    _guard("$", build_run_config, out)
    if "autonomy" in obj:
        out["autonomy"] = _walk(obj["autonomy"], "$.autonomy", _autonomy(out["trajectory"]))
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
    """Fold command-line overrides into a copy of a resolved config and resolve it."""
    out = copy.deepcopy(resolved)
    if seed is not None:
        out["seed"] = seed
    if runs is not None:
        out["monte_carlo"]["n_runs"] = runs
    if variant is not None:
        parts = variant.split("-")
        if len(parts) != 2:
            raise ConfigError("variant: expected <grouping>-<frame> like proposed-w or traditional-e")
        out["grouping"], out["frame"] = parts
    if convention is not None:
        out["convention"] = convention
    return resolve(out)


def config_hash(resolved):
    """sha256 over the canonical JSON form of a resolved config."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# resolved dict -> runtime objects


def build_trajectory(resolved_traj):
    segments = []
    for seg in resolved_traj["segments"]:
        params = dict(seg)
        segments.append(_SEGMENTS[params.pop("type")](**params))
    return TrajectorySpec(tuple(segments), imu_rate=resolved_traj["imu_rate"])


def _build_gravity(resolved_grav):
    if resolved_grav["model"] == "spherical":
        return SphericalGravity()
    return UniformGravity(np.array(resolved_grav["gamma0"], dtype=float))


def build_run_config(resolved):
    """Materialize the RunConfig a resolved config describes."""
    sens = resolved["sensors"]
    var = sens["odo_noise_var"]
    noise = NoiseConfig(
        **{key: sens[key] for key in _NOISE_PSDS},
        odo_noise_cov=np.diag(var if isinstance(var, list) else [var] * 3).astype(float),
    )
    return RunConfig(
        traj=build_trajectory(resolved["trajectory"]),
        origin_e=np.array(resolved["origin"]["ecef"], dtype=float),
        **{key: enum(resolved[key]) for key, enum in _MODEL_ENUMS.items()},
        gravity=_build_gravity(resolved["gravity"]),
        noise=noise,
        gyro_bias=np.array(sens["gyro_bias"], dtype=float),
        accel_bias=np.array(sens["accel_bias"], dtype=float),
        odo_rate=sens["odo_rate"],
        bias_known=sens["bias_known"],
        seed=resolved["seed"],
        n_runs=resolved["monte_carlo"]["n_runs"],
        **resolved["filter"],  # the filter section's keys are RunConfig's field names
    )


def build_autonomy_inputs(resolved):
    """(variant, convention, traj_a, traj_b, xi0, settings) for a twin test."""
    if "autonomy" not in resolved:
        raise ConfigError("$: an autonomy section is required for this command")
    auto = resolved["autonomy"]
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
