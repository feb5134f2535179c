"""Matter-wave diffraction of absorptive molecules and nanoparticles at
standing-wave laser gratings: measurement-operator grating transforms,
Talbot coefficients, near-field (KDTLI) and far-field interferograms, and
dynamical master-equation models.

The names below are re-exported from their modules on first access
(PEP 562), so importing the package, or only the CLI, loads no physics
layer it does not use."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "params": ("BeamSetup", "GratingParameters", "InterferometerScales", "derive_grating",
               "derive_n0", "derive_phi0", "derive_scales"),
    "grating": ("MeasurementProfile", "absorption_probability", "m_ell"),
    "talbot": ("conditional_rows", "unconditional_rows"),
    "nearfield": ("FringeSignal", "KdtliConfig", "kdtli_signal", "sinusoidal_visibility"),
    "farfield": ("FarFieldConfig", "ScreenDensity", "farfield_densities"),
    "dynamics": ("ladder_analytic",),
    "rabi": ("RabiConfig", "rabi_solve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
