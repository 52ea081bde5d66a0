"""Spectral models and fits for extracted phasor data.

A :class:`Spectrum` holds what was measured on one frequency grid: for each
channel kind it carries, one value and one sigma per frequency.

* ``phase``     : on/off fringe phase shift, modeled as arg t + phi0
* ``intensity`` : background-corrected offset ratio, modeled as I_t
* ``amplitude`` : fringe amplitude ratio, modeled as |t|

Each dipole is modeled as an isolated resonance on its own detuning axis;
a product-of-transmissions combination is available for overlapping lines.
Both fits are :func:`fit_two_dipole_spectra`: (beta, gamma, f0) per dipole,
the shared pure dephasing rate and phase offset, and a drive calibration k
(omega_r**2 = k*P at a spectrum's power P), held at 0 for spectra without
one: the saturation fit is the case of one dipole at several powers.  Each
fit starts from :func:`initial_guess`, whose linear solves give the truth on
noiseless spectra.

Phase and |t| constrain the parameters only through beta*gamma/2 and
gamma2, so a fit fed nothing else cannot split the coupling from the decay
rate; the transmitted-intensity channel (I_t != |t|**2 once dephasing or
saturation is present) is what restores full identifiability.

Both fits, :func:`two_dipole_model` and :func:`channel_model` evaluate the
model through one kernel in real arithmetic.  It computes Re t, Im t and I_t
of each emitter once per row of a spectrum's grid, projects them on every
channel kind that a point reads, and hands each point the value of its kind
at its row, so the phase and the intensity point of one window share one
evaluation.  An emitter reads its fields (beta, gamma, gamma_dp, f0 and the
drive calibration k) by position from one list of values: a fit's parameter
vector followed by the values it holds.  For a fit the kernel also computes
the derivatives by the parameters, each field's a fixed linear combination of
a few per-row arrays, added into the row of the position it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import emitter
# transmission is looked up here by the benchmark's tracer test; the fits use the kernel below
from .emitter import EmitterParams, transmission  # noqa: F401
from .extraction import PhasorSeries
from .lm import FitResult, lm_minimize
from .units import TWO_PI, is_number, wrap_angle

PHASE = "phase"
INTENSITY = "intensity"
AMPLITUDE = "amplitude"
# a kind's index here is its code, as in the channel column of residuals.csv
KINDS = (PHASE, INTENSITY, AMPLITUDE)

_MIN_POINTS_PER_CHANNEL = 5


@dataclass
class Spectrum:
    """Spectra of ``dipole`` measured on one frequency grid at drive
    ``power``: ``channels`` maps each kind it carries to its (values,
    sigma), one of each per frequency, and is kept in the order of
    :data:`KINDS`."""

    freq: np.ndarray
    channels: Dict[str, Tuple[np.ndarray, np.ndarray]]
    dipole: int = 1
    power: Optional[float] = None

    def __post_init__(self):
        self.freq = np.asarray(self.freq, dtype=float)
        for kind in self.channels:
            if kind not in KINDS:
                raise ValueError(f"unknown channel kind {kind!r}")
        self.channels = {kind: tuple(np.asarray(a, dtype=float) for a in self.channels[kind])
                         for kind in KINDS if kind in self.channels}
        if not all(self.freq.shape == values.shape == sigma.shape
                   for values, sigma in self.channels.values()):
            raise ValueError("freq, values and sigma must have matching shapes")
        if self.freq.size < _MIN_POINTS_PER_CHANNEL:
            raise ValueError(
                f"channel needs >= {_MIN_POINTS_PER_CHANNEL} points for identifiability, "
                f"got {self.freq.size}")
        if any(np.any(sigma < 0) for _, sigma in self.channels.values()):
            raise ValueError("sigma must be non-negative")
        if not np.all(np.isfinite(self.freq)):
            raise ValueError("freq must be finite")

    @classmethod
    def from_phasors(cls, series: PhasorSeries, dipole: int = 1,
                     power: Optional[float] = None, freq_window=None) -> "Spectrum":
        """The phase and offset-ratio (I_t) channels of an extracted phasor
        series; ``freq_window`` is an optional (lo, hi) restriction in GHz."""
        keep = slice(None)
        if freq_window is not None:
            lo, hi = freq_window
            keep = (lo <= series.freq) & (series.freq <= hi)
        return cls(series.freq[keep], {
            PHASE: (series.phase_shift[keep], series.phase_err[keep]),
            INTENSITY: (series.offset_ratio[keep], series.offset_err[keep])}, dipole, power)

    def has_usable_point(self) -> bool:
        """Whether a fit can read any point of this spectrum (see :func:`_usable`)."""
        return any(_usable(values, sigma).any() for values, sigma in self.channels.values())


def _usable(values, sigma) -> np.ndarray:
    """The points a fit reads, its start included: finite, with a finite sigma > 0."""
    return np.isfinite(values) & np.isfinite(sigma) & (sigma > 0)


class _Points:
    """The points of ``spectra`` as one grid: spectrum after spectrum, and
    within a spectrum its channels in the order of :data:`KINDS`.  Each point
    has its ``kind`` (an index into KINDS) and ``row``, the index of its
    frequency among the spectra's rows laid end to end; ``row_dipole`` holds
    each row's dipole, ``phase`` the phase points and ``kinds`` the kinds
    that any point reads.  ``row_drive`` holds each row's spectrum's
    ``power``, 0 without one; an emitter evaluated there sees
    omega_r**2 = k*row_drive for its own k.
    """

    def __init__(self, spectra: Sequence[Spectrum]):
        blocks = [(j, kind) for j, s in enumerate(spectra) for kind in s.channels]
        first = np.cumsum([0] + [s.freq.size for s in spectra])
        self.row_freq = np.concatenate([s.freq for s in spectra])
        self.row_drive = np.repeat([s.power or 0.0 for s in spectra], np.diff(first))
        self.row_dipole = np.repeat([s.dipole for s in spectra], np.diff(first))
        self.row = np.concatenate([np.arange(first[j], first[j + 1]) for j, _ in blocks])
        self.kind = np.repeat([KINDS.index(kind) for _, kind in blocks],
                              [spectra[j].freq.size for j, _ in blocks])
        self.values, self.sigma = (np.concatenate([spectra[j].channels[kind][i]
                                                   for j, kind in blocks]) for i in (0, 1))
        self.phase = np.flatnonzero(self.kind == KINDS.index(PHASE))
        read = np.bincount(self.kind, minlength=len(KINDS)) > 0
        self.kinds = [kind for kind, r in zip(KINDS, read) if r]
        # where each point finds its value in a (kinds, rows) table, flattened
        self._at = (np.cumsum(read) - 1)[self.kind] * self.row_freq.size + self.row

    def model(self, groups, x, phi0, jac=None) -> np.ndarray:
        """Model values at every point, at the values ``x``; with ``jac``
        given, an array of zeros with one row per parameter and one column
        per point, their derivatives are added into it, the derivative by
        ``x[i]`` into row i for every i below ``jac.shape[0]``, phi0's among them.

        ``groups`` lists ``(rows, emitters)``: a slice of the rows, all groups
        together covering each row once, and the :class:`_Emitter` list whose
        product t holds there.  Each emitter is evaluated once per row of its
        group, and t is projected on each of ``kinds`` (arg t + phi0, |t|,
        I_t), phi0 being ``x[phi0]``.
        """
        n_params = 0 if jac is None else jac.shape[0]
        table = np.zeros((1 + n_params, len(self.kinds), self.row_freq.size))
        for rows, emitters in groups:
            responses = [_site_response(e, x, self.row_freq[rows], self.row_drive[rows],
                                        self.kinds, n_params) for e in emitters]
            re, im, i_t, _ = responses[0]
            for re_k, im_k, i_k, _ in responses[1:]:
                re, im, i_t = re * re_k - im * im_k, re * im_k + im * re_k, i_t * i_k
            projected = np.array([np.arctan2(im, re) + x[phi0] if kind == PHASE
                                  else np.hypot(re, im) if kind == AMPLITUDE else i_t
                                  for kind in self.kinds])
            table[0, :, rows] = projected
            if n_params:
                # d|t| = |t| d ln|t_k|, and I_t differentiates by the product rule
                for k, (*_, (coef, basis)) in enumerate(responses):
                    for slot, kind in enumerate(self.kinds):
                        if kind == AMPLITUDE:
                            basis[:, slot] *= projected[slot]
                        elif kind == INTENSITY:
                            for j, (_, _, i_j, _) in enumerate(responses):
                                if j != k:
                                    basis[:, slot] *= i_j
                    part = coef @ basis.reshape(7, -1)
                    table[1:, :, rows] += part.reshape(n_params, *basis.shape[1:])
        if n_params:
            jac += table[1:].reshape(n_params, -1).take(self._at, axis=1)
            jac[phi0, self.phase] = 1.0
        return table[0].take(self._at)


def point_columns(spectra: Sequence[Spectrum]):
    """Frequency, kind (an index into :data:`KINDS`), dipole and value of
    every point of ``spectra``, in the order the fits and
    :func:`two_dipole_model` take them."""
    points = _Points(spectra)
    return (points.row_freq[points.row], points.kind, points.row_dipole[points.row],
            points.values)


# the fields of an emitter, which the kernel differentiates by in this order:
# the detuning is delta = 2*pi*(freq - f0) and the drive omega_r**2 = k*drive
DERIVATIVE_ORDER = ("beta", "gamma", "gamma_dp", "f0", "k")


class _Emitter(NamedTuple):
    """An emitter as :meth:`_Points.model` evaluates it at a list of values ``x``:
    field ``DERIVATIVE_ORDER[i]`` is ``x[at[i]]``; isotropic unless ``chiral``."""

    at: Sequence[int]
    chiral: bool = False


def _site_response(e: _Emitter, x, freq, drive, kinds, jac_rows=0):
    """Re t, Im t and I_t of ``e`` at the values ``x`` and the rows ``freq``,
    ``drive``, in real arithmetic; with ``jac_rows`` > 0, also ``(coef,
    basis)``, whose product holds the derivatives of what each of ``kinds``
    reads (arg t, ln|t| or I_t) by ``x[:jac_rows]``, zero for a value that
    sets none of ``e``'s fields: ``basis`` has shape (7, len(kinds), rows).

    The values are :func:`~wgphase.emitter.transmission`'s, from its s, gamma2,
    A and D at omega_r**2 = k*drive; derivatives cover isotropic coupling.
    """
    beta, gamma, gamma_dp, f0, k = (x[i] for i in e.at)
    s, g2, a = emitter._rates(beta, gamma, gamma_dp, e.chiral)
    delta = TWO_PI * (freq - f0)
    re, im, i_t, inv = emitter._response(s, g2, a, gamma, delta, k * drive)
    if not jac_rows:
        return re, im, i_t, None
    q_re, q_im = g2 * inv, delta * inv  # t = 1 - s*(q_re + i*q_im)
    half_inv = 0.5 * inv

    # Each row's derivative of D is d0 + d1*drive + d2*delta; with those of s,
    # gamma2, delta and A it is linear in per-row arrays whose coefficients
    # are the row's (d0, d1, d2, ds, dgamma2, ddelta, dA):
    #   arg t : (Re t dIm t - Im t dRe t)/|t|**2 = (q_im*e - c*(Re t ddelta - Im t dgamma2))/|t|**2
    #   ln|t| : (Re t dRe t + Im t dIm t)/|t|**2 = (v*e - c*(Re t dgamma2 + Im t ddelta))/|t|**2
    #   I_t   : (A*dD/D - dA)/(2*D)
    # with c = s/D, e = c*dD - ds and v = q_re - s*(q_re**2 + q_im**2)
    rows = ((0.0, 0.0, 0.0, gamma / 2.0, 0.0, 0.0, gamma * g2 * (2.0 - 2.0 * beta)),
            (g2, -4.0 * gamma_dp * k / (gamma * gamma), 0.0, beta / 2.0, 0.5, 0.0,
             beta * (2.0 - beta) * (g2 + gamma / 2.0)),
            (2.0 * g2, 4.0 * k / gamma, 0.0, 0.0, 1.0, 0.0, beta * gamma * (2.0 - beta)),
            (0.0, 0.0, -2.0 * TWO_PI, 0.0, 0.0, -TWO_PI, 0.0),
            (0.0, 4.0 * g2 / gamma, 0.0, 0.0, 0.0, 0.0, 0.0))  # in DERIVATIVE_ORDER
    coef = np.zeros((jac_rows, 7))
    for i, row in zip(e.at, rows):
        if i < jac_rows:
            coef[i] += row
    c = s * inv
    basis = np.zeros((7, len(kinds), delta.size))
    if any(kind != INTENSITY for kind in kinds):
        # a zero t, where arg t has no derivative, contributes none
        abs2 = re * re + im * im
        inv_abs2 = 1.0 / np.where(abs2 > 0.0, abs2, np.inf)
        c_abs2 = c * inv_abs2
        c_re, c_im = c_abs2 * re, c_abs2 * im
    for slot, kind in enumerate(kinds):
        b = basis[:, slot]
        if kind == PHASE:
            np.multiply(q_im, inv_abs2, out=b[3])
            np.multiply(c, b[3], out=b[0])
            np.negative(b[3], out=b[3])
            b[4] = c_im
            np.negative(c_re, out=b[5])
        elif kind == AMPLITUDE:
            np.multiply(q_re - s * (q_re * q_re + q_im * q_im), inv_abs2, out=b[3])
            np.multiply(c, b[3], out=b[0])
            np.negative(b[3], out=b[3])
            np.negative(c_re, out=b[4])
            np.negative(c_im, out=b[5])
        else:
            np.multiply(a * inv, half_inv, out=b[0])
            np.negative(half_inv, out=b[6])
        np.multiply(b[0], drive, out=b[1])
        np.multiply(b[0], delta, out=b[2])
    return re, im, i_t, (coef, basis)


def channel_model(spectrum: Spectrum, params, omega_r=0.0) -> np.ndarray:
    """Model values for the channels of one spectrum, concatenated in order,
    every emitter driven at ``omega_r`` (a scalar or one value per row).

    ``params`` is one :class:`EmitterParams`, or a sequence of them whose
    transmissions multiply (overlapping resonances in series); the product
    is projected onto each channel kind, with the phase offset of the first.
    """
    if isinstance(params, EmitterParams):
        params = (params,)
    # five values per emitter, k = 1 since the drive holds each row's omega_r**2
    x = [v for p in params for v in (p.beta, p.gamma, p.gamma_dp, p.f0, 1.0)] + [params[0].phi0]
    emitters = [_Emitter(range(5 * i, 5 * i + 5), p.is_chiral) for i, p in enumerate(params)]
    points = _Points([spectrum])
    points.row_drive = np.broadcast_to(emitter._rabi_squared(omega_r), points.row_freq.shape)
    return points.model([(slice(None), emitters)], x, len(x) - 1)


def two_dipole_model(spectra: Sequence[Spectrum], x, combine: str = "isolated") -> np.ndarray:
    """Model values of the channels of ``spectra``, concatenated in order, at
    a parameter vector of :func:`fit_two_dipole_spectra`.

    ``x`` holds (beta_d, gamma_d, f0_d) for each dipole of ``spectra`` in
    ascending order, then gamma_dp, phi0 and, for spectra with powers, k.
    Under ``product`` every dipole's transmission multiplies into every
    channel.  ValueError naming the parameter for a beta outside [0, 1], a
    gamma that is not positive or a negative gamma_dp.
    """
    x = np.asarray(x, dtype=float)
    dipoles = sorted({s.dipole for s in spectra})
    for i, d in enumerate(dipoles):
        if not 0.0 <= x[3 * i] <= 1.0:
            raise ValueError(f"beta{d} must be in [0, 1], got {x[3 * i]}")
        if not x[3 * i + 1] > 0.0:
            raise ValueError(f"gamma{d} must be > 0, got {x[3 * i + 1]}")
    gamma_dp = 3 * len(dipoles)
    if not x[gamma_dp] >= 0.0:
        raise ValueError(f"gamma_dp must be >= 0, got {x[gamma_dp]}")
    points = _Points(spectra)
    return points.model(_dipole_groups(points, dipoles, combine), [*x.tolist(), 0.0], gamma_dp + 1)


def _dipole_groups(points: _Points, dipoles, combine):
    """The groups of :meth:`_Points.model` for the parameter vector of
    :func:`fit_two_dipole_spectra` followed by k: one per run of rows of one
    dipole, or under ``product`` one where every dipole's emitter covers all."""
    if combine not in ("isolated", "product"):
        raise ValueError(f"combine must be 'isolated' or 'product', got {combine!r}")
    n = len(dipoles)
    emitters = [_Emitter((3 * i, 3 * i + 1, 3 * n, 3 * i + 2, 3 * n + 2)) for i in range(n)]
    starts = np.r_[0, np.flatnonzero(np.diff(points.row_dipole)) + 1].tolist()
    return ([(slice(None), emitters)] if combine == "product" else
            [(slice(a, b), [emitters[dipoles.index(points.row_dipole[a])]])
             for a, b in zip(starts, [*starts[1:], None])])


def initial_guess(spectra: Sequence[Spectrum], dipole: int) -> dict:
    """Closed-form start for one dipole from the usable points of its own
    spectra, k among it for spectra with powers: the truth on noiseless spectra.

    With s = beta*gamma/2, A = 2*s*gamma2*(2 - beta) and D = delta**2 +
    gamma2**2 + W*P, W = 4*(gamma2/gamma)*k, 1/(1 - I_t) = 2*D/A is linear in
    (f**2, f, 1, P), solved over the dip points (1 - I_t >= 5 sigma) with
    weights (1 - I_t)**2/sigma for f0, A, gamma2 and W.  s*delta*cos(phi) +
    (D - s*gamma2)*sin(phi) = 0 at phi = phase - phi0 is then solved for s and
    a unit (cos phi0, sin phi0), cos(phi) >= 0 on the whole; beta = 2 -
    A/(2*s*gamma2) is clipped into [s/gamma2, 1], so gamma_dp >= 0.  |t|**2
    stands in for a missing I_t.  Short of dip points the phase alone, about
    its mean phasor's phi0, gives f0, s, W and gamma2*(gamma2 - s); without
    phase phi0 is 0.  Either alone takes gamma_dp = 0; neither, f0 mid-span,
    gamma2 an eighth of the span and beta 1/2.
    """
    own = [spec for spec in spectra if spec.dipole == dipole]
    if not own:
        raise ValueError(f"no usable points for dipole {dipole}")
    guess = _start(_Points(own), dipole)
    if all(spec.power is None for spec in own):
        del guess["k"]
    return guess


def _start(points: _Points, dipole: int) -> dict:
    """:func:`initial_guess` of ``dipole`` from the points of its rows in ``points``, k among it."""
    used = _usable(points.values, points.sigma) & (points.row_dipole[points.row] == dipole)

    def usable(kind):  # freq, values, sigma and power of the usable points of kind
        at = np.flatnonzero(used & (points.kind == KINDS.index(kind)))
        rows = points.row[at]
        return points.row_freq[rows], points.values[at], points.sigma[at], points.row_drive[rows]

    (f, v, sigma, p), phase = usable(INTENSITY), usable(PHASE)
    if not f.size:  # |t|**2 for I_t
        f, v, sigma, p = usable(AMPLITUDE)
        v, sigma = v * v, (2.0 * np.abs(v) + sigma) * sigma
    span = np.concatenate((f, phase[0]))
    if not span.size:
        raise ValueError(f"no usable points for dipole {dipole}")
    lo, hi = span.min(), span.max()
    f0, g2, w, phi0, dip_fit = (lo + hi) / 2.0, max(TWO_PI * (hi - lo) / 8.0, 1e-3), 0.0, 0.0, False
    a, s = 1.5 * g2 * g2, g2 / 2.0  # beta = 1/2 at gamma_dp = 0
    dip = np.flatnonzero(1.0 - v >= 5.0 * sigma)
    fit_w = dip.size > 0 and np.ptp(p[dip]) > 0.0
    if dip.size > 3 + fit_w:  # 2*D/A = (8*pi**2/A)*((f - f0)**2 + (gamma2/(2*pi))**2) + (2*W/A)*P
        o, sg, fc = 1.0 - v[dip], sigma[dip], f[dip[np.argmin(v[dip])]]
        x = f[dip] - fc
        cols = np.column_stack([x * x, x, np.ones_like(x), p[dip]][:3 + fit_w])
        c = np.linalg.lstsq(cols * (o * o / sg)[:, None], o / sg, rcond=None)[0]
        if dip_fit := c[0] > 0.0 and c[2] / c[0] > (c[1] / (2.0 * c[0]))**2:
            x0 = -c[1] / (2.0 * c[0])
            a, f0, g2 = 8.0 * np.pi**2 / c[0], fc + x0, TWO_PI * np.sqrt(c[2] / c[0] - x0 * x0)
            w = max(c[3:].sum(), 0.0) * a / 2.0  # 0 without a P column
            s = g2 * (1.0 - np.sqrt(max(1.0 - a / (2.0 * g2 * g2), 0.0)))  # gamma_dp = 0
    f, ph, sg, p = phase
    if ph.size and dip_fit:  # m @ (cos phi0, sin phi0, s*cos phi0, s*sin phi0) = 0
        delta = TWO_PI * (f - f0)
        d = delta * delta + g2 * g2 + w * p
        cos, sin = np.cos(ph) / (sg * d), np.sin(ph) / (sg * d)
        m = np.column_stack((d * sin, -d * cos, delta * cos - g2 * sin, delta * sin + g2 * cos))
        g = m.T @ m  # eliminate the last two: r = the first two's Schur complement
        proj = np.linalg.lstsq(g[2:, 2:], g[2:, :2], rcond=None)[0]
        (r00, r01), (_, r11) = g[:2, :2] - g[:2, 2:] @ proj
        angle = 0.5 * np.arctan2(2.0 * r01, r00 - r11) + np.pi / 2.0  # smaller eigenvalue's vector
        u = np.array([np.cos(angle), np.sin(angle)])
        u = u if u @ [cos.sum(), sin.sum()] >= 0.0 else -u
        phi0, s = np.arctan2(u[1], u[0]), max(-u @ proj @ u, 0.0) or s
    elif ph.size:  # 2*pi*s, -2*pi*s*x0, -8*pi**2*x0, c + 4*pi**2*x0**2 and W, about lo
        phi0 = np.arctan2(np.sin(ph).sum(), np.cos(ph).sum())
        x, cos, sin = f - lo, np.cos(ph - phi0) / sg, np.sin(ph - phi0) / sg
        cols = np.column_stack([x * cos, cos, x * sin, sin, p * sin][:4 + (np.ptp(p) > 0.0)])
        c = np.linalg.lstsq(cols, -4.0 * np.pi**2 * x * x * sin, rcond=None)[0]
        s_ph, x0 = c[0] / TWO_PI, -c[2] / (8.0 * np.pi**2)
        g2_sq = c[3] - 4.0 * np.pi**2 * x0 * x0 + s_ph * s_ph / 4.0  # (gamma2 - s/2)**2
        if s_ph > 0.0 and g2_sq > 0.0:  # gamma_dp = 0
            f0, g2, s, w = lo + x0, s_ph / 2.0 + np.sqrt(g2_sq), s_ph, max(c[4:].sum(), 0.0)
            a = 2.0 * s * (2.0 * g2 - s)
    s = min(max(s, 1e-9 * g2), g2)
    beta = min(max(2.0 - a / (2.0 * s * g2), s / g2), 1.0)
    gamma = 2.0 * s / beta
    guess = {"beta": beta, "gamma": gamma, "gamma_dp": max(g2 - gamma / 2.0, 0.0),
             "f0": min(max(f0, lo), hi), "phi0": phi0, "k": max(w * gamma / (4.0 * g2), 0.0)}
    return {key: float(value) for key, value in guess.items()}


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


def fit_two_dipole_spectra(spectra: Sequence[Spectrum], init: Optional[dict] = None,
                           bounds: Optional[dict] = None, combine: str = "isolated",
                           max_iter: int = 500) -> FitResult:
    """Joint weighted fit of phase and intensity spectra of any number of dipoles.

    Free parameters are (beta_i, gamma_i, f0_i) per dipole, in ascending
    order, then the shared gamma_dp and phi0, named beta1, gamma1, f01, ...,
    gamma_dp, phi0 in ``init`` and ``bounds``; spectra with powers are a
    power series of one dipole, which fits k too and numbers no name.  Each
    dipole starts from :func:`initial_guess` of its own spectra, k among it;
    ``init`` overrides a start by name, its beta, gamma or f0 that of every
    dipole no numbered key names.  The start is projected into the box: beta
    in [0, 1], gamma >= 1e-6, f0 within 50 GHz of its start, gamma_dp and k
    >= 0, phi0 in [-pi, pi], each side narrowed by a non-null side of
    ``bounds``.  Each usable point weighs 1/sigma.  A flat direction leaves
    the fit unconverged, except a k on the floor 0, which joins the flat
    directions; one on a higher ``bounds`` floor is named.  Bad ``init`` or
    ``bounds`` keys and values, a ``bounds`` pair that leaves nothing of the
    box among them, are ValueErrors naming them.
    """
    check_fit_values(init, bounds)
    dipoles = sorted({s.dipole for s in spectra})
    if not dipoles:
        raise ValueError("no spectra to fit")
    powered = any(s.power is not None for s in spectra)
    if powered and len(dipoles) > 1:
        raise ValueError(f"a power series is of one dipole, got dipoles {dipoles}")
    points = _Points(spectra)
    guesses = {d: _start(points, d) for d in dipoles}
    tags = ["" if powered else str(d) for d in dipoles]
    keys = ("beta", "gamma", "f0")
    defaults = {f"{key}{tag}": guesses[d][key] for d, tag in zip(dipoles, tags) for key in keys}
    shared = ("gamma_dp", "phi0", "k")[:2 + powered]  # k for a power series
    defaults.update((key, guesses[dipoles[0]][key]) for key in shared)
    names, start = list(defaults), dict(defaults)
    shorthand = {key: [f"{key}{tag}" for tag in tags] for key in keys if key not in defaults}
    # shorthand keys first, so that a key given by name wins
    for key, value in sorted((init or {}).items(), key=lambda item: item[0] in defaults):
        if key not in defaults and key not in shorthand:
            raise ValueError(f"fit.init.{key}: not a parameter of this fit, which takes "
                             f"{', '.join([*defaults, *shorthand])}")
        start.update(dict.fromkeys(shorthand.get(key, [key]), value))
    f0s = [start[f"f0{tag}"] for tag in tags]
    lo = [b for f0 in f0s for b in (0.0, 1e-6, f0 - 50.0)] + [0.0, -np.pi, 0.0]
    hi = [b for f0 in f0s for b in (1.0, np.inf, f0 + 50.0)] + [np.inf, np.pi, np.inf]
    del lo[len(names):], hi[len(names):]  # k's box, when k is held
    for key, pair in (bounds or {}).items():
        if key not in names:
            raise ValueError(f"fit.bounds.{key}: not a parameter of this fit, which takes "
                             f"{', '.join(names)}")
        i = names.index(key)
        box = lo[i], hi[i]
        lo[i] = box[0] if pair[0] is None else max(box[0], pair[0])
        hi[i] = box[1] if pair[1] is None else min(box[1], pair[1])
        if lo[i] > hi[i]:
            raise ValueError(f"fit.bounds.{key}: {pair!r} leaves nothing of the parameter's "
                             f"range [{box[0]:g}, {box[1]:g}]")
    x0 = [min(max(start[n], l), h) for n, l, h in zip(names, lo, hi)]
    groups, held = _dipole_groups(points, dipoles, combine), [] if powered else [0.0]
    used = _usable(points.values, points.sigma)
    # inverse-variance; low-contrast points keep their (large) fitted sigma
    weights = np.where(used, 1.0 / np.where(used, points.sigma, 1.0), 0.0)
    values = np.where(used, points.values, 0.0)  # an unused inf would warn in wrap_angle
    phase, phi0 = points.phase, names.index("phi0")
    unused = np.flatnonzero(~used)

    def fun(x):
        jac = np.zeros((len(names), values.size))
        diff = points.model(groups, [*x.tolist(), *held], phi0, jac) - values
        diff[phase] = wrap_angle(diff[phase])  # whose derivative is 1
        jac *= weights
        if unused.size:
            jac[:, unused] = 0.0
        return np.where(used, diff * weights, 0.0), jac.T

    result = lm_minimize(fun, x0, bounds=(lo, hi), names=names, max_iter=max_iter)
    if result.flat_directions:
        result.converged = False
        result.message += "; non-identifiable: flat directions " + ", ".join(result.flat_directions)
    if powered and result["k"] <= lo[-1] + 1e-12:
        if lo[-1] > 0.0:  # a fit.bounds.k floor
            result.message += f"; k held at its fit.bounds.k floor {lo[-1]:g}"
        else:
            result.message += "; k pinned at lower bound (series shows no saturation)"
            if "k" not in result.flat_directions:
                result.flat_directions.append("k")
    return result


def fit_saturation_series(spectra: Sequence[Spectrum], init: Optional[dict] = None,
                          bounds: Optional[dict] = None, max_iter: int = 500) -> FitResult:
    """Global fit of spectra of one dipole at several drive powers, spectrum j
    driven at omega_r = sqrt(k * P_j), P_j its ``power``: :func:`fit_two_dipole_spectra`
    of the series.  Needs >= 3 power levels, otherwise k is not identifiable."""
    if any(s.power is None for s in spectra):
        raise ValueError("every spectrum needs a recorded power level")
    levels = sorted({float(s.power) for s in spectra})
    if len(levels) < 3:
        raise ValueError(f"k is unidentifiable: need >= 3 distinct power levels, got {levels}")
    return fit_two_dipole_spectra(spectra, init, bounds, "isolated", max_iter)


def predict_phase_vs_power(p: EmitterParams, k: float, powers) -> np.ndarray:
    """Signed extremal phase shift versus drive power, omega_r = sqrt(k*P)."""
    if k <= 0:
        raise ValueError(f"calibration constant k must be > 0, got {k}")
    omega_r = np.sqrt(k * np.asarray(powers, dtype=float))
    return emitter.phase_extrema_analytic(p, omega_r=omega_r).phi_plus
