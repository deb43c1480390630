"""Wave-packet dynamics of Dirac electrons in monolayer graphene under a
perpendicular magnetic field: autocorrelation revivals, classical cyclotron
currents, zitterbewegung, and their degradation under Landau-level broadening.
"""

from .constants import (E_CHARGE, FERMI_VELOCITY_DEFAULT, HBAR, FieldParams,
                        convert, magnetic_length, omega)
from .spectrum import (SpectrumModel, TimeScales, landau_energy,
                       spectrum_derivatives, timescales)
from .wavepacket import PacketSpec, WeightTable, build_weights, truncation_range
from .observables import (BroadeningModel, ObservableSeries, TimeGrid,
                          abs_squared, autocorrelation, current_single_band,
                          current_two_band, currents, damped,
                          total_current_both_valleys)
from .eigenstates import Eigenspinor, eigenspinor, hermite_function
from .analysis import (Peak, RevivalReport, StationResult,
                       default_gamma_criterion, detect_revivals,
                       dominant_period, estimate_gamma_max, find_peaks,
                       measure_period, station_visible_log)

__version__ = "0.1.0"

__all__ = [
    "HBAR", "E_CHARGE", "FERMI_VELOCITY_DEFAULT", "FieldParams",
    "magnetic_length", "omega", "convert",
    "SpectrumModel", "TimeScales", "landau_energy", "spectrum_derivatives",
    "timescales",
    "PacketSpec", "WeightTable", "truncation_range", "build_weights",
    "TimeGrid", "ObservableSeries", "BroadeningModel", "autocorrelation",
    "current_single_band", "current_two_band", "currents", "damped",
    "total_current_both_valleys",
    "abs_squared",
    "Eigenspinor", "hermite_function", "eigenspinor",
    "Peak", "StationResult", "RevivalReport", "find_peaks", "detect_revivals",
    "measure_period", "dominant_period", "estimate_gamma_max",
    "default_gamma_criterion", "station_visible_log",
    "__version__",
]
