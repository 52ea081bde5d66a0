"""Fringe-to-phasor extraction and FFT path-length estimation.

A window slides across the on/off fringe pair; inside each window both
traces are fitted against the known fringe carrier ``theta(f) =
2*pi*f*delta_l/c`` so that every window yields an offset, a fringe
amplitude and a fringe phase per trace.  The on/off ratios of those
quantities are the measured transmission phasor: the phase shift, |t| from
the amplitude ratio and I_t from the offset ratio.

The per-window model is a local polynomial phasor

    counts(f) = sum_k a_k*u^k + Re[ (sum_k z_k*u^k) * exp(i*theta(f)) ]

with ``u = f - f_center``; it is linear in the coefficients, so each window
is one small linear least-squares solve.  ``poly_order=0`` reduces to the
plain ``a + b*cos(theta + psi)`` sinusoid fit.  Points are Kaiser-weighted
inside the window: a window only a few fringe periods wide leaves the
polynomial baseline and the carrier columns strongly correlated, and a
smooth taper suppresses the spectral leakage between them by orders of
magnitude.  The residual systematic error is the local-polynomial
truncation bias, which shrinks with the ratio of window span to spectral
feature width (i.e. with larger path imbalance or higher ``poly_order``).
On the uniform grid the extraction requires, all windows share one weighted
projector, so the solves of a trace are done together, and the on and off
traces of a pair share one window layout.  The settings are one
:class:`ExtractionConfig`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .interferometer import FringeTrace
from .units import C_M_PER_S, smooth_length, wrap_angle

_LOW_CONTRAST_SNR = 5.0
_PEAK_FLOOR_RATIO = 5.0
_TIE_RATIO = 0.99


class NoFringeError(ValueError):
    """No dominant non-DC component found in the fringe spectrum."""


class TraceMetaError(ValueError):
    """The off trace's metadata lacks a value the extraction needs, or says
    the trace was taken with the emitter on."""


@dataclass(frozen=True)
class ExtractionConfig:
    """The window settings, under the names of the run config's ``extraction``
    block: window width and step in fringe periods (``hop_periods`` None: the
    width, so windows do not overlap), the order of the local polynomial, the
    Kaiser taper ``weight_beta`` and the path-length imbalance ``delta_l_m``
    in m (None: the FFT estimate, see :meth:`with_path_length`)."""

    window_periods: float = 3.0
    hop_periods: Optional[float] = None
    poly_order: int = 2
    weight_beta: float = 12.0
    delta_l_m: Optional[float] = None

    def __post_init__(self):
        for name in ("delta_l_m", "hop_periods"):  # None is no value to check
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name}: must be finite and > 0, got {value}")
        if self.poly_order < 0:
            raise ValueError(f"poly_order: must be >= 0, got {self.poly_order}")
        if not (np.isfinite(self.window_periods) and self.window_periods >= 1.0):
            raise ValueError(f"window_periods: must be finite and cover at least one fringe "
                             f"period, got {self.window_periods}")
        if not np.isfinite(self.weight_beta):
            raise ValueError(f"weight_beta: must be finite, got {self.weight_beta}")

    def with_path_length(self, trace: FringeTrace) -> ExtractionConfig:
        """This record, a None ``delta_l_m`` set to the (checked) estimate from ``trace``."""
        if self.delta_l_m is not None:
            return self
        return replace(self, delta_l_m=estimate_path_length_fft(trace))


@dataclass(frozen=True)
class WindowFits:
    """Offset / amplitude / phase of each window of one trace, as arrays."""

    freq: np.ndarray
    offset: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray
    var_offset: np.ndarray
    var_amplitude: np.ndarray
    var_phase: np.ndarray
    n_points: int

    def __len__(self) -> int:
        return self.freq.size


@dataclass(frozen=True)
class PhasorSeries:
    """On/off fringe comparison, one array entry per window, fields in the
    column order of the phasor CSV.

    phase_shift : on minus off fringe phase, wrapped to (-pi, pi]
    amp_ratio : on/off fringe amplitude, estimates |t|
    offset_ratio : background-corrected on/off mean level, estimates I_t
    low_contrast : bool mask, fringe amplitude below the local noise floor;
        the window is kept and its uncertainties carry the information
    """

    freq: np.ndarray
    phase_shift: np.ndarray
    phase_err: np.ndarray
    amp_ratio: np.ndarray
    amp_err: np.ndarray
    offset_ratio: np.ndarray
    offset_err: np.ndarray
    low_contrast: np.ndarray

    def __len__(self) -> int:
        return self.freq.size


def estimate_path_length_fft(trace: FringeTrace) -> float:
    """Estimate the interferometer path-length imbalance from a fringe trace.

    Mean-subtracted, Hann-windowed FFT of counts vs laser frequency,
    zero-padded to the smallest 2*3*5-smooth length >= 8x the trace; the
    dominant non-DC magnitude peak is refined by parabolic interpolation on
    the log magnitude and converted via delta_l = c * tau.

    Raises :class:`NoFringeError` when no peak rises above 5x the median
    magnitude.  If a competing peak is within 1% of the winner, the smaller
    path length is returned with a warning.
    """
    freq = trace.freq
    if freq.size < 16:
        raise ValueError("trace too short for a spectral estimate")
    df = _uniform_spacing(freq)

    signal = trace.intensity - np.mean(trace.intensity)
    n = signal.size
    windowed = signal * np.hanning(n)
    n_fft = smooth_length(8 * n)
    mag = np.abs(np.fft.rfft(windowed, n=n_fft))
    tau = np.fft.rfftfreq(n_fft, d=df * 1e9)  # conjugate variable, seconds

    # Hann leakage from DC spans ~2 original bins = 2*n_fft/n padded bins
    dc_guard = int(2 * n_fft / n) + 1
    search = mag.copy()
    search[:dc_guard] = 0.0
    floor = np.median(mag[dc_guard:])
    peak = int(np.argmax(search))
    if search[peak] <= _PEAK_FLOOR_RATIO * floor or search[peak] == 0.0:
        raise NoFringeError("no fringe detected: no non-DC peak above 5x median magnitude")

    peak = _resolve_tie(search, peak)
    delta = _parabolic_offset(mag, peak)
    return C_M_PER_S * (peak + delta) * (tau[1] - tau[0])


def _resolve_tie(mag: np.ndarray, peak: int) -> int:
    """Prefer the lower-delta_l peak when two local maxima are within 1%."""
    interior = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])
    candidates = np.nonzero(interior)[0] + 1
    candidates = candidates[mag[candidates] >= _TIE_RATIO * mag[peak]]
    separated = candidates[np.abs(candidates - peak) > 16]
    if separated.size:
        winner = min(int(separated.min()), peak)
        warnings.warn(
            "two fringe components within 1% magnitude; returning the smaller path length",
            RuntimeWarning, stacklevel=3)
        return winner
    return peak


def _parabolic_offset(mag: np.ndarray, i: int) -> float:
    if i <= 0 or i >= mag.size - 1:
        return 0.0
    with np.errstate(divide="ignore"):
        a, b, c = np.log(mag[i - 1]), np.log(mag[i]), np.log(mag[i + 1])
    if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(c)):
        return 0.0
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return 0.0
    return float(0.5 * (a - c) / denom)


class _Layout(NamedTuple):
    """The windows of one uniform grid under one config: the window length
    ``n`` and each window's first sample, the carrier phase there and its
    centre frequency; the shared design matrix, the weighted projector
    ``proj`` (coefficients = ``proj @ samples``), its covariance
    ``proj @ proj.T`` under unit noise, the residual dof ``||I - design @
    proj||_F**2``; and the coefficient index of the carrier's cosine
    (``i_p``) and sine (``i_q``) terms."""

    n: int
    starts: np.ndarray
    theta_start: np.ndarray
    centers: np.ndarray
    design: np.ndarray
    proj: np.ndarray
    cov_unit: np.ndarray
    dof: float
    i_p: int
    i_q: int


def _window_layout(freq: np.ndarray, cfg: ExtractionConfig) -> _Layout:
    """The windows of the grid ``freq`` at the path length ``cfg.delta_l_m``."""
    delta_l, poly_order = cfg.delta_l_m, cfg.poly_order
    hop_periods = cfg.window_periods if cfg.hop_periods is None else cfg.hop_periods
    df = _uniform_spacing(freq)
    period_ghz = C_M_PER_S / delta_l / 1e9
    min_pts = 2 * 3 * (poly_order + 1)
    with np.errstate(over="ignore"):  # a length that overflows is longer than any trace
        width, step = (periods * period_ghz / df for periods in (cfg.window_periods, hop_periods))
    n = max(int(round(min(width, freq.size + 1))), min_pts)
    hop = max(int(round(min(step, freq.size))), 1)
    if n > freq.size:
        raise ValueError(f"trace of {freq.size} points is shorter than one extraction window: "
                         f"extraction.window_periods {cfg.window_periods:g} at delta_l_m "
                         f"{delta_l:g} m takes at least {n} points")
    # the largest carrier phase of theta_start and of a window, in their order of operations
    reach = max(abs(float(freq[0])), abs(float(freq[-1])), (n - 1) * df)
    if not math.isfinite(2.0 * np.pi * reach * 1e9 * float(delta_l) / C_M_PER_S):
        raise ValueError(f"extraction.delta_l_m {delta_l:g} over [{freq[0]:g}, {freq[-1]:g}] GHz: "
                         f"the carrier phase 2*pi*f*delta_l_m/c overflows")
    if period_ghz < 2.0 * df:  # Nyquist: a shorter fringe period aliases to another carrier
        raise ValueError(f"extraction.delta_l_m {delta_l:g} m: the fringe period c/delta_l_m "
                         f"{period_ghz:g} GHz is under two grid steps ({2.0 * df:g} GHz)")
    starts = np.arange(0, freq.size - n + 1, hop)
    theta_start = 2.0 * np.pi * freq[starts] * 1e9 * delta_l / C_M_PER_S

    half = 0.5 * (n - 1)
    u = (np.arange(n) - half) / half
    carrier = 2.0 * np.pi * np.arange(n) * df * 1e9 * delta_l / C_M_PER_S
    powers = u[:, None] ** np.arange(poly_order + 1)
    design = np.hstack([powers, np.cos(carrier)[:, None] * powers,
                        -np.sin(carrier)[:, None] * powers])
    w = np.clip(np.kaiser(n, cfg.weight_beta), 0.0, None)
    sw = np.sqrt(w)
    proj = np.linalg.pinv(design * sw[:, None]) * sw

    # unit noise on y gives proj @ y the covariance proj @ proj.T and the residual
    # leave @ y the mean square sum ||leave||_F**2 >= rank(leave) = n - k, leave idempotent
    leave = np.eye(n) - design @ proj
    centers = 0.5 * (freq[starts] + freq[starts + n - 1])
    return _Layout(n=n, starts=starts, theta_start=theta_start, centers=centers, design=design,
                   proj=proj, cov_unit=proj @ proj.T, dof=float(np.sum(leave * leave)),
                   i_p=poly_order + 1, i_q=2 * (poly_order + 1))


def window_phasors(trace: FringeTrace, cfg: ExtractionConfig, *,
                   _layout: _Layout | None = None) -> WindowFits:
    """Fit the local polynomial phasor model in sliding windows of one trace,
    at the path length ``cfg.delta_l_m`` (None: the estimate from ``trace``).

    The grid must be uniform: every window then has the same design matrix
    in its own coordinates (``u`` from the sample index, carrier ``theta -
    theta[start]``), so one weighted projector ``proj`` serves all windows,
    and the noise, taken as uniform within a window, gives its coefficients
    the covariance ``sigma2 * proj @ proj.T`` with ``sigma2`` its residual sum
    of squares over ``||I - design @ proj||_F**2``.  A window's local phasor
    ``z = p + i*q`` is rotated back by ``exp(-i*theta[start])``; the amplitude
    and phase variances are rotation-invariant and are evaluated in the local
    frame.  ``_layout``, that of ``trace.freq`` under ``cfg``, is passed by a
    caller that fits several traces on one grid.
    """
    lay = _window_layout(trace.freq, cfg.with_path_length(trace)) if _layout is None else _layout
    samples = np.lib.stride_tricks.sliding_window_view(trace.intensity, lay.n)[lay.starts]
    coef = samples @ lay.proj.T
    resid = samples - coef @ lay.design.T
    sigma2 = np.einsum("ij,ij->i", resid, resid) / lay.dof

    i_p, i_q, cov_unit = lay.i_p, lay.i_q, lay.cov_unit
    p, q = coef[:, i_p], coef[:, i_q]
    amp = np.hypot(p, q)
    phase = np.angle((p + 1j * q) * np.exp(-1j * lay.theta_start))
    cpp, cqq, cpq = cov_unit[i_p, i_p], cov_unit[i_q, i_q], cov_unit[i_p, i_q]
    var_offset = sigma2 * cov_unit[0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        var_amp = np.where(
            amp > 0,
            np.maximum(sigma2 * (p * p * cpp + q * q * cqq + 2 * p * q * cpq) / amp**2, 0.0),
            sigma2 * max(cpp, cqq))
        var_phase = np.where(
            amp > 0,
            np.maximum(sigma2 * (q * q * cpp + p * p * cqq - 2 * p * q * cpq) / amp**4, 0.0),
            np.inf)
    return WindowFits(freq=lay.centers, offset=coef[:, 0], amplitude=amp, phase=phase,
                      var_offset=var_offset, var_amplitude=var_amp, var_phase=var_phase,
                      n_points=lay.n)


def _uniform_spacing(freq: np.ndarray) -> float:
    """Spacing of a uniform frequency grid; ValueError when it is not uniform."""
    if freq.size < 2:
        raise ValueError("frequency grid needs at least two points")
    spacing = np.diff(freq)
    df = float(np.mean(spacing))
    if not np.allclose(spacing, df, rtol=1e-6, atol=0.0):
        raise ValueError("frequency grid must be uniform (spacings differ by more than 1e-6)")
    return df


def extract_phasor_series(on: FringeTrace, off: FringeTrace,
                          cfg: ExtractionConfig = ExtractionConfig()) -> PhasorSeries:
    """Windowed on/off comparison of a fringe pair.

    A None ``cfg.delta_l_m`` is the FFT estimate from the off trace; the
    local-oscillator background is the one recorded in the off-trace
    metadata.  Windows whose fringe amplitude falls below 5x its
    own fitted uncertainty are flagged low-contrast but never dropped.
    TraceMetaError for an off trace whose metadata says ``qd_on: true``, as
    in a swapped or an on/on pair; an off/off pair is the null comparison.
    """
    if (off.meta or {}).get("qd_on") is True:
        raise TraceMetaError("qd_on: true, but the off trace must be taken with the emitter off")
    if on.freq.shape != off.freq.shape or not np.array_equal(on.freq, off.freq):
        raise ValueError(
            "on/off traces must share a frequency grid: "
            f"on spans [{on.freq[0]:.6g}, {on.freq[-1]:.6g}] GHz with {on.freq.size} points, "
            f"off spans [{off.freq[0]:.6g}, {off.freq[-1]:.6g}] GHz with {off.freq.size} points"
        )
    cfg = cfg.with_path_length(off)
    background = _background_counts(off)

    # one window layout for both traces, each fitted through the module global
    layout = _window_layout(on.freq, cfg)
    won = window_phasors(on, cfg, _layout=layout)
    woff = window_phasors(off, cfg, _layout=layout)

    with np.errstate(divide="ignore", invalid="ignore"):
        amp_ratio = np.where(woff.amplitude > 0, won.amplitude / woff.amplitude, np.inf)
        off_on = won.offset - background
        off_off = woff.offset - background
        offset_ratio = np.where(off_off != 0, off_on / off_off, np.inf)
        amp_err = _ratio_err(won.amplitude, won.var_amplitude,
                             woff.amplitude, woff.var_amplitude)
        offset_err = _ratio_err(off_on, won.var_offset, off_off, woff.var_offset)
    low = ((won.amplitude < _LOW_CONTRAST_SNR * np.sqrt(won.var_amplitude))
           | (woff.amplitude < _LOW_CONTRAST_SNR * np.sqrt(woff.var_amplitude)))
    return PhasorSeries(freq=won.freq, phase_shift=wrap_angle(won.phase - woff.phase),
                        amp_ratio=amp_ratio, offset_ratio=offset_ratio,
                        phase_err=np.sqrt(won.var_phase + woff.var_phase),
                        amp_err=amp_err, offset_err=offset_err, low_contrast=low)


def _ratio_err(num, var_num, den, var_den):
    """Propagated error of num/den per entry, sqrt(var_num + (num/den)**2 * var_den) / |den|;
    inf where den == 0."""
    return np.where(den == 0, np.inf, np.sqrt(var_num + (num / den) ** 2 * var_den) / np.abs(den))


def _background_counts(off: FringeTrace) -> float:
    interf = (off.meta or {}).get("interferometer", {})
    p_lo, t_int = interf.get("p_lo_cps"), interf.get("integration_time_s")
    if p_lo is None or t_int is None:
        raise TraceMetaError("interferometer must give the p_lo_cps and integration_time_s "
                             "of the local-oscillator background")
    return float(p_lo) * float(t_int)

