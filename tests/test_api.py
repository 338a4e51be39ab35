"""The package's public API: navkit re-exports each module's __all__."""

import inspect
from dataclasses import fields

import navkit
from navkit import config, earth, error_models, lgekf, mechanization, rng, se23, simulate

MODULES = (se23, earth, mechanization, error_models, lgekf, rng, simulate, config)


def test_package_exports_each_modules_public_names():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared public by two modules"
    assert set(navkit.__all__) == set(declared)
    star = {}
    exec("from navkit import *", star)
    assert set(star) - {"__builtins__"} == set(declared)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(navkit, name) is obj, (module.__name__, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):  # declared by its defining module
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_failure_types_import_from_the_package():
    from navkit import ConfigError, KernelDomainError, NewtonNotConverged, SpecInvalid

    assert issubclass(lgekf.SingularInnovation, KernelDomainError)
    assert (ConfigError, NewtonNotConverged, SpecInvalid) == (
        config.ConfigError, simulate.NewtonNotConverged, simulate.SpecInvalid,
    )


def test_run_draws_have_no_second_config_type():
    # A run's draws are made from its RunConfig alone (simulate._RunDraws):
    # the per-run error record and the one-caller helpers it fed are not API.
    for name in ("SensorErrors", "true_bias_series", "draw_biases"):
        assert not hasattr(navkit, name) and not hasattr(simulate, name), name


def test_a_run_draws_through_one_object():
    # One _RunDraws per run holds its draws and streams; the sensor-stream
    # holder, the draw tuple and the odometer closure are gone, and so are the
    # fields nothing reads: the raw innovation and the truth's IMU rate.
    for name in ("_SensorStreams", "_run_draws", "_odometer"):
        assert not hasattr(simulate, name), name
    assert "innovation" not in {f.name for f in fields(simulate.RunResult)}
    assert "imu_rate" not in {f.name for f in fields(simulate.TruthSeries)}
    assert list(inspect.signature(simulate.corrupt).parameters) == ["imu", "cfg", "k", "bias0", "streams"]


def test_a_run_streams_its_own_scenario():
    # A filter run streams its scenario from its RunConfig (simulate._scenario_blocks):
    # the whole-grid scenario, its draws and odometer track have no second path.
    for name in ("gen_odometer", "_scenario", "_run_inputs"):
        assert not hasattr(navkit, name) and not hasattr(simulate, name), name
    for fn in (simulate.run_single, simulate.run_monte_carlo, simulate._run_lockstep, simulate._scenario_blocks):
        assert not {"truth", "imu_true"} & set(inspect.signature(fn).parameters), fn.__name__


def test_frame_velocity_is_the_models_alone():
    # physical_from_nav reads NavModel.frame_velocity; the one-caller wrapper is not API.
    assert "frame_velocity" not in navkit.__all__
    assert not hasattr(navkit, "frame_velocity") and not hasattr(mechanization, "frame_velocity")


def test_frame_map_has_no_second_public_face():
    # The conversions and NavModel read earth._frame_map; the unused (C, o) wrapper is not API.
    assert "frame_transform" not in navkit.__all__ and "frame_transform" not in earth.__all__
    assert not hasattr(navkit, "frame_transform") and not hasattr(earth, "frame_transform")


def test_step_is_integrates_one_sample_case():
    # integrate checks and sets up every step and step forms its one-sample
    # view, with the signatures unchanged; the separate dt guard is gone.
    assert not hasattr(mechanization, "_check_dt")
    for fn, returns in ((mechanization.step, "NavState"), (mechanization.integrate, "np.ndarray")):
        sig = inspect.signature(fn)
        assert list(sig.parameters) == ["state", "imu", "model", "method"], fn.__name__
        assert sig.parameters["method"].default == "midpoint", fn.__name__
        assert sig.return_annotation == returns, fn.__name__
