"""navkit: SE2(3) Lie-group inertial navigation toolkit.

Each module's ``__all__`` declares its public names, and the package
re-exports every one of them, so ``navkit.X`` is ``navkit.<module>.X``.
"""
from .se23 import *
from .earth import *
from .mechanization import *
from .error_models import *
from .lgekf import *
from .rng import *
from .simulate import *
from .config import *
from . import config, earth, error_models, lgekf, mechanization, rng, se23, simulate

__all__ = [
    name
    for module in (se23, earth, mechanization, error_models, lgekf, rng, simulate, config)
    for name in module.__all__
]

__version__ = "0.1.0"
