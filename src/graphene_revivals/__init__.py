"""Wave-packet dynamics of Dirac electrons in monolayer graphene under a
perpendicular magnetic field: autocorrelation revivals, classical cyclotron
currents, zitterbewegung, and their degradation under Landau-level broadening.

The public names and the submodules load on first access (PEP 562), so
``import graphene_revivals`` imports neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "constants": ("HBAR", "E_CHARGE", "FERMI_VELOCITY_DEFAULT", "FieldParams",
                  "magnetic_length", "omega", "convert"),
    "spectrum": ("SpectrumModel", "TimeScales", "landau_energy", "spectrum_derivatives",
                 "timescales"),
    "wavepacket": ("PacketSpec", "WeightTable", "truncation_range", "build_weights"),
    "observables": ("TimeGrid", "ObservableSeries", "BroadeningModel", "autocorrelation",
                    "current_single_band", "current_two_band", "currents", "damped",
                    "total_current_both_valleys", "abs_squared"),
    "eigenstates": ("Eigenspinor", "hermite_function", "eigenspinor"),
    "analysis": ("Peak", "StationResult", "RevivalReport", "find_peaks", "detect_revivals",
                 "measure_period", "dominant_period", "estimate_gamma_max",
                 "default_gamma_criterion", "station_visible_log"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "_kernels", "_format")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    # Nothing is stored in this module's namespace: every access reads the
    # submodule's current attribute, so a name patched there (and restored)
    # is seen here as it is at that moment.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
