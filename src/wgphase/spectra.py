"""Spectral models and fits for extracted phasor data.

Channels are (frequency, value, sigma) triples tagged by what they measure:

* ``phase``     : on/off fringe phase shift, modeled as arg t + phi0
* ``intensity`` : background-corrected offset ratio, modeled as I_t
* ``amplitude`` : fringe amplitude ratio, modeled as |t|

Each dipole is modeled as an isolated resonance on its own detuning axis;
a product-of-transmissions combination is available for overlapping lines.
The joint two-dipole fit shares the pure dephasing rate and the constant
phase offset between dipoles; the saturation fit ties the Rabi frequency of
every power level to one calibration constant k through omega_r**2 = k*P.

Phase and |t| constrain the parameters only through beta*gamma/2 and
gamma2, so a fit fed nothing else cannot split the coupling from the decay
rate; the transmitted-intensity channel (I_t != |t|**2 once dephasing or
saturation is present) is what restores full identifiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import emitter
from .emitter import EmitterParams, transmission
from .extraction import PhasorSeries
from .lm import FitResult, lm_minimize
from .units import TWO_PI, detuning_angular, is_number, wrap_angle

PHASE = "phase"
INTENSITY = "intensity"
AMPLITUDE = "amplitude"

_MIN_POINTS_PER_CHANNEL = 5
_MIN_GAMMA = 1e-9  # a fit's gamma is clipped up to this


@dataclass
class SpectrumChannel:
    """One measured spectrum: values with uncertainties on a frequency grid."""

    freq: np.ndarray
    values: np.ndarray
    sigma: np.ndarray
    kind: str = PHASE
    dipole: int = 1

    def __post_init__(self):
        self.freq = np.asarray(self.freq, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.kind not in (PHASE, INTENSITY, AMPLITUDE):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not (self.freq.shape == self.values.shape == self.sigma.shape):
            raise ValueError("freq, values and sigma must have matching shapes")
        if self.freq.size < _MIN_POINTS_PER_CHANNEL:
            raise ValueError(
                f"channel needs >= {_MIN_POINTS_PER_CHANNEL} points for identifiability, "
                f"got {self.freq.size}")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative")


@dataclass
class SpectrumDataset:
    """A set of channels measured at one drive power."""

    channels: List[SpectrumChannel]
    power: Optional[float] = None

    def dipoles(self) -> List[int]:
        return sorted({ch.dipole for ch in self.channels})

    @classmethod
    def from_phasors(cls, series: PhasorSeries, dipole: int = 1,
                     power: Optional[float] = None, intensity_from: str = "offset",
                     freq_window=None) -> "SpectrumDataset":
        """Build phase + intensity channels from an extracted phasor series.

        ``intensity_from`` selects the offset ratio (I_t) or the amplitude
        ratio (|t|) as the intensity-like channel.  ``freq_window`` is an
        optional (lo, hi) restriction in GHz.
        """
        if intensity_from == "offset":
            vals, errs, kind = series.offset_ratio, series.offset_err, INTENSITY
        elif intensity_from == "amplitude":
            vals, errs, kind = series.amp_ratio, series.amp_err, AMPLITUDE
        else:
            raise ValueError("intensity_from must be 'offset' or 'amplitude'")
        keep = slice(None)
        if freq_window is not None:
            lo, hi = freq_window
            keep = (lo <= series.freq) & (series.freq <= hi)
        channels = [SpectrumChannel(freq=series.freq[keep], values=v[keep], sigma=e[keep],
                                    kind=k, dipole=dipole)
                    for v, e, k in ((series.phase_shift, series.phase_err, PHASE),
                                    (vals, errs, kind))]
        return cls(channels=channels, power=power)


class _Points:
    """The channels of a fit as one grid: their points concatenated in order."""

    def __init__(self, channels):
        sizes = [ch.freq.size for ch in channels]
        self.freq = np.concatenate([ch.freq for ch in channels])
        self.values = np.concatenate([ch.values for ch in channels])
        self.sigma = np.concatenate([ch.sigma for ch in channels])
        kinds = np.repeat([ch.kind for ch in channels], sizes)
        self.phase = kinds == PHASE
        self.amplitude = kinds == AMPLITUDE
        dipole = np.repeat([ch.dipole for ch in channels], sizes)
        self.of_dipole = {d: np.flatnonzero(dipole == d) for d in set(dipole.tolist())}


def _model(points: _Points, factors, phi0, product=False, jac=None) -> np.ndarray:
    """Model values on ``points``; with ``jac`` given, an array of zeros with
    one row per point, their derivatives are added into it.

    Each factor ``(p, sel, omega_r, chain)`` is an emitter whose
    transmission covers the points ``sel``, driven at ``omega_r`` (a scalar
    or one value per selected point).  Under ``product`` the factors all
    cover every point and their transmissions multiply; otherwise their
    points are disjoint.  The product t is projected on each point's
    channel kind: arg t + phi0, |t| or I_t.  ``chain`` lists
    ``(column, row, scale)``: parameter ``column`` of ``jac`` moves the
    emitter's ``DERIVATIVE_ORDER[row]`` by ``scale`` (a scalar or one value
    per selected point) per unit.  The phi0 column is the caller's.
    """
    t = np.empty(points.freq.size, dtype=complex)
    i_t = np.empty(points.freq.size)
    parts = []
    for k, (p, sel, omega_r, _) in enumerate(factors):
        delta = detuning_angular(points.freq[sel], p.f0)
        t_e, i_e = transmission(p, delta, omega_r)
        if product and k:
            t[sel] *= t_e
            i_t[sel] *= i_e
        else:
            t[sel], i_t[sel] = t_e, i_e
        parts.append((delta, t_e, i_e))
    values = np.where(points.phase, np.angle(t) + phi0,
                      np.where(points.amplitude, np.abs(t), i_t))
    if jac is None:
        return values
    for k, ((p, sel, omega_r, chain), (delta, t_e, i_e)) in enumerate(zip(factors, parts)):
        dt, di = emitter.transmission_derivatives(p, delta, omega_r)
        # d ln t = sum of the factors' dt/t: its imaginary part moves arg t, its
        # real part ln|t|; I_t differentiates by the product rule
        # (a zero t, where arg t has no derivative, contributes none)
        dlog = dt * np.divide(1.0, t_e, out=np.zeros_like(t_e), where=t_e != 0)
        rows = di
        if product:
            for j, (_, _, i_other) in enumerate(parts):
                if j != k:
                    rows *= i_other
        np.copyto(rows, dlog.imag, where=points.phase[sel])
        amplitude = points.amplitude[sel]
        if amplitude.any():
            np.copyto(rows, np.abs(t[sel]) * dlog.real, where=amplitude)
        for column, row, scale in chain:
            jac[sel, column] += scale * rows[row]
    return values


_BETA, _GAMMA, _GAMMA_DP, _DELTA, _W = range(len(emitter.DERIVATIVE_ORDER))


def _rate_chain(columns, beta, gamma, gamma_dp):
    """``(column, row, 1)`` for each of beta, gamma and gamma_dp that is not
    past the clip of :func:`_clipped_emitter`; a clipped one has a zero
    column, and one on its clip is differentiated from the feasible side."""
    inside = (0.0 <= beta <= 1.0, gamma >= _MIN_GAMMA, gamma_dp >= 0.0)
    return [(column, row, 1.0)
            for column, row, ok in zip(columns, (_BETA, _GAMMA, _GAMMA_DP), inside) if ok]


def channel_model(ch: SpectrumChannel, params, omega_r=0.0) -> np.ndarray:
    """Model values for one channel, every emitter driven at ``omega_r``.

    ``params`` is one :class:`EmitterParams`, or a sequence of them whose
    transmissions multiply (overlapping resonances in series); the product
    is projected onto the channel kind, with the phase offset of the first.
    """
    if isinstance(params, EmitterParams):
        params = (params,)
    return _model(_Points([ch]), [(p, slice(None), omega_r, ()) for p in params],
                  params[0].phi0, product=True)


def two_dipole_model(data: SpectrumDataset, x, combine: str = "isolated") -> np.ndarray:
    """Model values of the channels of ``data``, concatenated in order, at a
    parameter vector of :func:`fit_two_dipole_spectra`.

    ``x`` holds (beta_d, gamma_d, f0_d) for each dipole of ``data`` in
    ascending order, then the shared gamma_dp and phi0; beta is clipped to
    [0, 1] and the rates to their physical range, as in the fit.  The
    ``product`` combination applies only when two dipoles are present.
    """
    return _two_dipole(_Points(data.channels), data.dipoles(), x, combine)


def _two_dipole(points: _Points, dipoles, x, combine, jac=None) -> np.ndarray:
    """:func:`two_dipole_model` on ``points``, and its Jacobian into ``jac``."""
    if combine not in ("isolated", "product"):
        raise ValueError(f"combine must be 'isolated' or 'product', got {combine!r}")
    product = combine == "product" and len(dipoles) == 2
    gamma_dp, phi0 = x[-2], x[-1]
    factors = []
    for i, d in enumerate(dipoles):
        beta, gamma, f0 = x[3 * i: 3 * i + 3]
        chain = _rate_chain((3 * i, 3 * i + 1, len(x) - 2), beta, gamma, gamma_dp)
        chain.append((3 * i + 2, _DELTA, -TWO_PI))  # delta = 2*pi*(freq - f0)
        factors.append((_clipped_emitter(beta, gamma, f0, gamma_dp, phi0),
                        slice(None) if product else points.of_dipole[d], 0.0, chain))
    values = _model(points, factors, phi0, product, jac)
    if jac is not None:
        jac[points.phase, -1] = 1.0
    return values


def _clipped_emitter(beta, gamma, f0, gamma_dp, phi0) -> EmitterParams:
    """The isotropic emitter at a fit's parameter values, beta clipped to
    [0, 1] and the rates to their physical range."""
    return EmitterParams.isotropic(gamma=max(gamma, _MIN_GAMMA),
                                   beta=float(np.clip(beta, 0, 1)),
                                   gamma_dp=max(gamma_dp, 0.0), f0=f0, phi0=phi0)


def initial_guess(dataset: SpectrumDataset, dipole: int) -> dict:
    """Deterministic starting point for one dipole from its own channels.

    gamma2 comes from the intensity-dip full width, beta from the dip depth
    (assuming no dephasing), gamma_dp from the shortfall of the observed
    phase extremum against the dephasing-free prediction, and phi0 from the
    far-detuned mean of the phase channel.
    """
    phase_ch = _find_channel(dataset, PHASE, dipole)
    int_ch = _find_channel(dataset, INTENSITY, dipole) or _find_channel(dataset, AMPLITUDE, dipole)
    src = int_ch if int_ch is not None else phase_ch
    if src is None:
        raise ValueError(f"no channels for dipole {dipole}")

    if int_ch is not None:
        vals = int_ch.values if int_ch.kind == INTENSITY else int_ch.values**2
        i_dip = int(np.argmin(vals))
        f0 = float(int_ch.freq[i_dip])
        depth = float(np.clip(1.0 - vals[i_dip], 1e-3, 0.999))
        half = 1.0 - depth / 2.0
        below = vals <= half
        if np.any(below):
            fwhm_ghz = float(int_ch.freq[below][-1] - int_ch.freq[below][0])
        else:
            fwhm_ghz = float(int_ch.freq[-1] - int_ch.freq[0]) / 4.0
        gamma2 = max(TWO_PI * fwhm_ghz / 2.0, 1e-3)
    else:
        i_dip = int(np.argmax(np.abs(phase_ch.values - np.median(phase_ch.values))))
        f0 = float(phase_ch.freq[i_dip])
        depth = 0.5
        gamma2 = max(TWO_PI * (phase_ch.freq[-1] - phase_ch.freq[0]) / 8.0, 1e-3)

    beta = float(np.clip(1.0 - np.sqrt(1.0 - depth), 0.05, 1.0))
    gamma = 2.0 * gamma2
    gamma_dp = 0.0

    phi0 = 0.0
    if phase_ch is not None:
        n_edge = max(phase_ch.freq.size // 10, 2)
        edges = np.r_[phase_ch.values[:n_edge], phase_ch.values[-n_edge:]]
        phi0 = float(np.mean(edges))
        # dephasing shrinks the phase extremum below the gamma_dp = 0 value
        observed = float(np.max(np.abs(phase_ch.values - phi0)))
        s = beta * gamma / 2.0
        if observed > 1e-6:
            tan_obs = np.tan(min(observed, np.pi / 2 - 1e-6))
            g2_eff = 0.5 * s * (1.0 + np.sqrt(1.0 + 1.0 / tan_obs**2))
            gamma_dp = float(np.clip(g2_eff - gamma / 2.0, 0.0, None))
    return {"beta": beta, "gamma": gamma, "gamma_dp": gamma_dp, "f0": f0, "phi0": phi0}


def _find_channel(dataset: SpectrumDataset, kind: str, dipole: int):
    for ch in dataset.channels:
        if ch.kind == kind and ch.dipole == dipole:
            return ch
    return None


def check_fit_values(init: Optional[dict] = None, bounds: Optional[dict] = None):
    """ValueError naming ``fit.init.<key>`` for a start that is not a finite
    number, or ``fit.bounds.<key>`` for a bound that is not a [lo, hi] pair of
    numbers or nulls with lo <= hi.  Which keys are parameters, the fit checks."""
    for key, value in (init or {}).items():
        if not is_number(value):
            raise ValueError(f"fit.init.{key}: must be a finite number, got {value!r}")
    for key, pair in (bounds or {}).items():
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(b is None or is_number(b) for b in pair)
                and (None in pair or pair[0] <= pair[1])):
            raise ValueError(f"fit.bounds.{key}: must be a [lo, hi] pair of numbers or nulls "
                             f"with lo <= hi, got {pair!r}")


def _start(defaults: dict, init: Optional[dict], aliases: dict) -> dict:
    """``defaults`` updated from ``init`` by key; an ``aliases`` key sets the
    keys it lists, except those ``init`` also sets by name.  ValueError
    naming ``fit.init.<key>`` for an unknown key or a non-finite value."""
    check_fit_values(init=init)
    start = dict(defaults)
    # alias keys first, so that a key given by name wins
    for key, value in sorted((init or {}).items(), key=lambda item: item[0] in defaults):
        if key not in defaults and key not in aliases:
            raise ValueError(f"fit.init.{key}: not a parameter of this fit, which takes "
                             f"{', '.join([*defaults, *aliases])}")
        start.update(dict.fromkeys(aliases.get(key, [key]), value))
    return start


def _fit(points: _Points, model, names, start, lo, hi, bounds, max_iter) -> FitResult:
    """Weighted least-squares fit of ``points`` to ``model(x, jac)``, which
    returns the model values and adds their derivatives into ``jac``, an
    array of zeros with one row per point and one column per name.
    ``bounds`` replaces the box ``lo``, ``hi`` (None: open) of a parameter of
    ``names`` in place, and ``start`` is projected into the box.  ValueError
    naming ``fit.bounds.<key>`` for an unknown key or a value that is not a
    [lo, hi] pair of numbers or nulls with lo <= hi."""
    check_fit_values(bounds=bounds)
    for key, pair in (bounds or {}).items():
        if key not in names:
            raise ValueError(f"fit.bounds.{key}: not a parameter of this fit, which takes "
                             f"{', '.join(names)}")
        lo[names.index(key)], hi[names.index(key)] = pair
    x0 = [min(max(v, l if l is not None else -np.inf), h if h is not None else np.inf)
          for v, l, h in zip(start, lo, hi)]
    values, sigma, phase = points.values, points.sigma, points.phase
    # inverse-variance; low-contrast points keep their (large) fitted sigma
    used = np.isfinite(values) & np.isfinite(sigma) & (sigma > 0)
    weights = np.where(used, 1.0 / np.where(used, sigma, 1.0), 0.0)

    def fun(x):
        jac = np.zeros((values.size, len(names)))
        diff = model(x, jac) - values
        diff[phase] = wrap_angle(diff[phase])  # whose derivative is 1
        jac *= weights[:, None]
        jac[~used] = 0.0
        return np.where(used, diff * weights, 0.0), jac

    return lm_minimize(fun, x0, bounds=(lo, hi), names=names, max_iter=max_iter)


def fit_two_dipole_spectra(data: SpectrumDataset, init: Optional[dict] = None,
                           bounds: Optional[dict] = None, combine: str = "isolated",
                           max_iter: int = 500) -> FitResult:
    """Joint weighted fit of phase and intensity spectra of up to two dipoles.

    Free parameters are (beta_i, gamma_i, f0_i) per present dipole plus the
    shared gamma_dp and phi0, named beta1, gamma1, f01, ..., gamma_dp, phi0
    in ``init`` and ``bounds``; ``init`` may also set beta, gamma or f0 of
    every dipole at once.  With channels for a single dipole present the
    fit reduces to a single-resonance fit.  Returns ``converged=False``
    with a flat-direction diagnostic for non-identifiable inputs.
    """
    dipoles = data.dipoles()
    if not dipoles:
        raise ValueError("dataset has no channels")

    guesses = {d: initial_guess(data, d) for d in dipoles}
    defaults = {f"{key}{d}": guesses[d][key] for d in dipoles for key in ("beta", "gamma", "f0")}
    defaults.update((key, guesses[dipoles[0]][key]) for key in ("gamma_dp", "phi0"))
    start = _start(defaults, init, {key: [f"{key}{d}" for d in dipoles]
                                    for key in ("beta", "gamma", "f0")})
    f0s = [start[f"f0{d}"] for d in dipoles]
    lo = [b for f0 in f0s for b in (0.0, 1e-6, f0 - 50.0)] + [0.0, -np.pi]
    hi = [b for f0 in f0s for b in (1.0, None, f0 + 50.0)] + [None, np.pi]
    names = list(defaults)
    points = _Points(data.channels)
    result = _fit(points, lambda x, jac: _two_dipole(points, dipoles, x, combine, jac), names,
                  [start[n] for n in names], lo, hi, bounds, max_iter)
    if result.flat_directions:
        result.converged = False
        result.message += "; non-identifiable: flat directions " + ", ".join(result.flat_directions)
    return result


def fit_saturation_series(datasets: Sequence[SpectrumDataset], init: Optional[dict] = None,
                          bounds: Optional[dict] = None, max_iter: int = 500) -> FitResult:
    """Global fit of spectra taken at several drive powers.

    Parameters (beta, gamma, gamma_dp, phi0, k) are shared across datasets;
    dataset j is driven at omega_r = sqrt(k * P_j).  ``init`` may also set
    the resonance f0, which the fit holds fixed.  Needs >= 3 power levels,
    otherwise k is not identifiable.
    """
    datasets = list(datasets)
    powers = [ds.power for ds in datasets]
    if any(pw is None for pw in powers):
        raise ValueError("every dataset needs a recorded power level")
    if len({float(pw) for pw in powers}) < 3:
        raise ValueError(
            "k is unidentifiable: need >= 3 distinct power levels, "
            f"got {sorted({float(pw) for pw in powers})}")

    lowest = min(range(len(datasets)), key=lambda i: powers[i])
    guess = initial_guess(datasets[lowest], datasets[lowest].dipoles()[0])
    start = _start({**guess, "k": 0.0}, init, {})
    names = ["beta", "gamma", "gamma_dp", "phi0", "k"]
    lo = [0.0, 1e-6, 0.0, -np.pi, 0.0]

    points = _Points([ch for ds in datasets for ch in ds.channels])
    power = np.repeat([float(ds.power) for ds in datasets],
                      [sum(ch.freq.size for ch in ds.channels) for ds in datasets])

    def model(x, jac):
        # every dataset in one call, at its own omega_r**2 = k*P; f0 is held
        beta, gamma, gamma_dp, phi0, k = x
        chain = _rate_chain((0, 1, 2), beta, gamma, gamma_dp)
        if k >= 0.0:
            chain.append((4, _W, power))
        p = _clipped_emitter(beta, gamma, start["f0"], gamma_dp, phi0)
        values = _model(points, [(p, slice(None), np.sqrt(max(k, 0.0) * power), chain)], phi0,
                        jac=jac)
        jac[points.phase, 3] = 1.0
        return values

    result = _fit(points, model, names, [start[n] for n in names], lo,
                  [1.0, None, None, np.pi, None], bounds, max_iter)
    if lo[4] is not None and result["k"] <= lo[4] + 1e-12:
        result.message += "; k pinned at lower bound (series shows no saturation)"
        if "k" not in result.flat_directions:
            result.flat_directions.append("k")
    return result


def predict_phase_vs_power(p: EmitterParams, k: float, powers) -> np.ndarray:
    """Signed extremal phase shift versus drive power, omega_r = sqrt(k*P)."""
    if k <= 0:
        raise ValueError(f"calibration constant k must be > 0, got {k}")
    omega_r = np.sqrt(k * np.asarray(powers, dtype=float))
    return emitter.phase_extrema_analytic(p, omega_r=omega_r).phi_plus
