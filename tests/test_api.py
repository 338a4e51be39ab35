"""The package's public API: navkit re-exports each module's __all__."""

import inspect

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
    # A run's draws are made from its RunConfig alone (simulate._run_inputs):
    # the per-run error record and the one-caller helpers it fed are not API.
    for name in ("SensorErrors", "true_bias_series", "draw_biases"):
        assert not hasattr(navkit, name) and not hasattr(simulate, name), name
