"""fdrates: a numerical laboratory for sharp fast-diffusion decay rates.

Closed-form exponents and spectra of the linearized fast-diffusion operator,
discretized Hardy-Poincare verification, a radial solver for the rescaled
nonlinear Fokker-Planck flow, and entropy-method instrumentation.

Submodules are loaded on first access, so that a closed-form computation
does not pay for numpy and the flow solvers.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "entropy",
    "exponents",
    "flow",
    "numerics",
    "profiles",
    "scalar",
    "spectral",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
