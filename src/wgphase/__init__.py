"""Forward and inverse modeling of single-emitter nonlinear phase shifts in
photonic waveguides: steady-state transmission of a driven two-level emitter
(isotropic and chiral coupling), Mach-Zehnder fringe synthesis, and recovery
of emitter parameters from fringe data."""

from .emitter import (ChiralThresholds, EmitterParams, PhaseExtremum, chiral_thresholds,
                      critical_photon_flux, phase_extrema_analytic, transmission)
from .extraction import (ExtractionConfig, NoFringeError, PhasorSeries, WindowFits,
                         estimate_path_length_fft, extract_phasor_series, window_phasors)
from .interferometer import (EnvPhase, FringeTrace, InterferometerConfig, apply_shot_noise,
                             expected_rate, fringe_trace, lock_loop_residual)
from .lm import FitResult, lm_minimize
from .spectra import (Spectrum, fit_saturation_series, fit_two_dipole_spectra,
                      initial_guess, predict_phase_vs_power, two_dipole_model)

__version__ = "0.1.0"

__all__ = [
    "ChiralThresholds", "EmitterParams", "EnvPhase", "ExtractionConfig", "FitResult",
    "FringeTrace",
    "InterferometerConfig", "NoFringeError", "PhaseExtremum", "PhasorSeries",
    "Spectrum", "WindowFits",
    "apply_shot_noise", "chiral_thresholds", "critical_photon_flux",
    "estimate_path_length_fft", "expected_rate", "extract_phasor_series",
    "fit_saturation_series", "fit_two_dipole_spectra", "fringe_trace", "initial_guess",
    "lm_minimize", "lock_loop_residual", "phase_extrema_analytic", "predict_phase_vs_power",
    "transmission", "two_dipole_model", "window_phasors",
]
