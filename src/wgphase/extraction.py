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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .interferometer import FringeTrace
from .units import C_M_PER_S, wrap_angle

DEFAULT_WINDOW_PERIODS = 3.0
DEFAULT_POLY_ORDER = 2
DEFAULT_WEIGHT_BETA = 12.0

_LOW_CONTRAST_SNR = 5.0
_PEAK_FLOOR_RATIO = 5.0
_TIE_RATIO = 0.99


class NoFringeError(ValueError):
    """No dominant non-DC component found in the fringe spectrum."""


@dataclass(frozen=True)
class WindowPhasor:
    """Offset / amplitude / phase of one trace inside one window."""

    freq: float
    offset: float
    amplitude: float
    phase: float
    var_offset: float
    var_amplitude: float
    var_phase: float
    n_points: int


@dataclass(frozen=True)
class PhasorPoint:
    """On/off fringe comparison at one frequency.

    phase_shift : on minus off fringe phase, wrapped to (-pi, pi]
    amp_ratio : on/off fringe amplitude, estimates |t|
    offset_ratio : background-corrected on/off mean level, estimates I_t
    low_contrast : fringe amplitude below the local noise floor; the point
        is kept and its uncertainties carry the information
    """

    freq: float
    phase_shift: float
    amp_ratio: float
    offset_ratio: float
    phase_err: float
    amp_err: float
    offset_err: float
    low_contrast: bool = False


def estimate_path_length_fft(trace: FringeTrace) -> float:
    """Estimate the interferometer path-length imbalance from a fringe trace.

    Mean-subtracted, Hann-windowed, zero-padded (x8) FFT of counts vs laser
    frequency; the dominant non-DC magnitude peak is refined by parabolic
    interpolation on the log magnitude and converted via delta_l = c * tau.

    Raises :class:`NoFringeError` when no peak rises above 5x the median
    magnitude.  If a competing peak is within 1% of the winner, the smaller
    path length is returned with a warning.
    """
    freq = trace.freq
    if freq.size < 16:
        raise ValueError("trace too short for a spectral estimate")
    spacing = np.diff(freq)
    df = float(np.mean(spacing))
    if not np.allclose(spacing, df, rtol=1e-6, atol=0.0):
        raise ValueError("frequency grid must be uniform for the FFT estimate")

    signal = trace.intensity - np.mean(trace.intensity)
    n = signal.size
    windowed = signal * np.hanning(n)
    n_fft = 8 * n
    mag = np.abs(np.fft.rfft(windowed, n=n_fft))
    tau = np.fft.rfftfreq(n_fft, d=df * 1e9)  # conjugate variable, seconds

    # Hann leakage from DC spans ~2 original bins = 16 padded bins
    dc_guard = 17
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


def window_phasors(trace: FringeTrace, delta_l: float,
                   window_periods: float = DEFAULT_WINDOW_PERIODS,
                   hop_periods: Optional[float] = None,
                   poly_order: int = DEFAULT_POLY_ORDER,
                   weight_beta: float = DEFAULT_WEIGHT_BETA) -> List[WindowPhasor]:
    """Fit the local polynomial phasor model in sliding windows of one trace.

    ``hop_periods`` defaults to the window width (non-overlapping windows,
    so points carry independent noise).
    """
    if window_periods < 1.0:
        raise ValueError("window must cover at least one fringe period")
    if hop_periods is None:
        hop_periods = window_periods
    freq = trace.freq
    counts = trace.intensity
    period_ghz = C_M_PER_S / delta_l / 1e9
    df = float(np.mean(np.diff(freq)))
    min_pts = 2 * 3 * (poly_order + 1)
    pts_per_window = max(int(round(window_periods * period_ghz / df)), min_pts)
    hop = max(int(round(hop_periods * period_ghz / df)), 1)
    theta = 2.0 * np.pi * freq * 1e9 * delta_l / C_M_PER_S

    out = []
    start = 0
    while start + pts_per_window <= freq.size:
        sl = slice(start, start + pts_per_window)
        out.append(_fit_window(freq[sl], counts[sl], theta[sl], poly_order, weight_beta))
        start += hop
    if not out:
        raise ValueError("trace shorter than one extraction window")
    return out


def _fit_window(freq, counts, theta, poly_order, weight_beta) -> WindowPhasor:
    center = 0.5 * (freq[0] + freq[-1])
    u = freq - center
    u = u / max(np.max(np.abs(u)), 1e-30)
    cols = [u**k for k in range(poly_order + 1)]
    cols += [np.cos(theta) * u**k for k in range(poly_order + 1)]
    cols += [-np.sin(theta) * u**k for k in range(poly_order + 1)]
    design = np.column_stack(cols)
    w = np.clip(np.kaiser(len(freq), weight_beta), 0.0, None)
    sw = np.sqrt(w)
    coef, _, _, _ = np.linalg.lstsq(design * sw[:, None], counts * sw, rcond=None)

    n, k = design.shape
    resid = counts - design @ coef
    # sandwich covariance for uniform per-point noise under design weights w;
    # the residual dof accounts for the oblique projector of the weighted fit
    a_mat = design.T @ (design * w[:, None])
    b_mat = design.T @ (design * (w * w)[:, None])
    c_mat = design.T @ design
    a_inv = np.linalg.pinv(a_mat)
    dof = max(n - 2 * k + float(np.trace(a_inv @ c_mat @ a_inv @ b_mat)), 1.0)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * (a_inv @ b_mat @ a_inv)

    i_a, i_p, i_q = 0, poly_order + 1, 2 * (poly_order + 1)
    a0, p, q = coef[i_a], coef[i_p], coef[i_q]
    amp = float(np.hypot(p, q))
    phase = float(np.arctan2(q, p))
    var_a = max(cov[i_a, i_a], 0.0)
    cpp, cqq, cpq = cov[i_p, i_p], cov[i_q, i_q], cov[i_p, i_q]
    if amp > 0:
        var_amp = max((p * p * cpp + q * q * cqq + 2 * p * q * cpq) / amp**2, 0.0)
        var_phase = max((q * q * cpp + p * p * cqq - 2 * p * q * cpq) / amp**4, 0.0)
    else:
        var_amp = max(cpp, cqq)
        var_phase = np.inf
    return WindowPhasor(freq=float(center), offset=float(a0), amplitude=amp, phase=phase,
                        var_offset=float(var_a), var_amplitude=float(var_amp),
                        var_phase=float(var_phase), n_points=n)


def extract_phasor_series(on: FringeTrace, off: FringeTrace,
                          window_periods: float = DEFAULT_WINDOW_PERIODS,
                          delta_l: Optional[float] = None,
                          hop_periods: Optional[float] = None,
                          poly_order: int = DEFAULT_POLY_ORDER,
                          weight_beta: float = DEFAULT_WEIGHT_BETA,
                          p_lo_counts: Optional[float] = None) -> List[PhasorPoint]:
    """Windowed on/off comparison of a fringe pair.

    ``delta_l`` defaults to the FFT estimate from the off trace, and the
    local-oscillator background ``p_lo_counts`` to the value recorded in the
    off-trace metadata.  Windows whose fringe amplitude falls below 5x its
    own fitted uncertainty are flagged low-contrast but never dropped.
    """
    if on.freq.shape != off.freq.shape or not np.array_equal(on.freq, off.freq):
        raise ValueError(
            "on/off traces must share a frequency grid: "
            f"on spans [{on.freq[0]:.6g}, {on.freq[-1]:.6g}] GHz with {on.freq.size} points, "
            f"off spans [{off.freq[0]:.6g}, {off.freq[-1]:.6g}] GHz with {off.freq.size} points"
        )
    if delta_l is None:
        delta_l = estimate_path_length_fft(off)
    if p_lo_counts is None:
        p_lo_counts = _background_counts(off)

    won = window_phasors(on, delta_l, window_periods, hop_periods, poly_order, weight_beta)
    woff = window_phasors(off, delta_l, window_periods, hop_periods, poly_order, weight_beta)

    points = []
    for w_on, w_off in zip(won, woff):
        dphi = wrap_angle(w_on.phase - w_off.phase)
        amp_ratio = w_on.amplitude / w_off.amplitude if w_off.amplitude > 0 else np.inf
        off_on = w_on.offset - p_lo_counts
        off_off = w_off.offset - p_lo_counts
        offset_ratio = off_on / off_off if off_off != 0 else np.inf

        phase_err = float(np.sqrt(w_on.var_phase + w_off.var_phase))
        amp_err = _ratio_err(w_on.amplitude, w_on.var_amplitude,
                             w_off.amplitude, w_off.var_amplitude)
        offset_err = _ratio_err(off_on, w_on.var_offset, off_off, w_off.var_offset)
        low = (w_on.amplitude < _LOW_CONTRAST_SNR * np.sqrt(w_on.var_amplitude)
               or w_off.amplitude < _LOW_CONTRAST_SNR * np.sqrt(w_off.var_amplitude))
        points.append(PhasorPoint(freq=w_on.freq, phase_shift=float(dphi),
                                  amp_ratio=float(amp_ratio), offset_ratio=float(offset_ratio),
                                  phase_err=phase_err, amp_err=float(amp_err),
                                  offset_err=float(offset_err), low_contrast=bool(low)))
    return points


def _ratio_err(num, var_num, den, var_den):
    if den == 0:
        return np.inf
    r = num / den
    return abs(r) * np.sqrt(var_num / max(num**2, 1e-300) + var_den / den**2)


def _background_counts(off: FringeTrace) -> float:
    meta = off.meta or {}
    interf = meta.get("interferometer", {})
    p_lo = interf.get("p_lo_cps")
    t_int = interf.get("integration_time_s")
    if p_lo is None or t_int is None:
        raise ValueError("trace metadata lacks p_lo/integration time; pass p_lo_counts")
    return float(p_lo) * float(t_int)

