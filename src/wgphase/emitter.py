"""Steady-state response of a driven two-level emitter in a waveguide.

The complex transmission coefficient of the emitter-waveguide system for
isotropic and chiral (directional) coupling, in closed form from the steady
state of the optical Bloch equations, the closed-form phase-shift extremum
(with a numeric search kept as its test oracle), the critical photon flux,
and the chiral switching thresholds.  t and I_t are written once, in real
arithmetic (``_rates``, ``_response``): :func:`transmission` and the kernel
of the spectral fits in :mod:`wgphase.spectra` evaluate them, the kernel
with their exact derivatives (its ``DERIVATIVE_ORDER`` names their rows).

Conventions: rates (``gamma``, ``gamma_dp``, ``omega_r``) and detunings are
angular frequencies in rad/ns.  The total coherence decay rate is
``gamma2 = gamma/2 + gamma_dp``.  The saturation denominator used throughout
is ``D = gamma2**2 + delta**2 + 4*(gamma2/gamma)*omega_r**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

ISOTROPIC = "isotropic"
CHIRAL = "chiral"

_GRID_POINTS = 2001
_GRID_HALF_WIDTH = 20.0  # in power-broadened linewidths
_GOLDEN_REL_TOL = 1e-10


@dataclass(frozen=True)
class EmitterParams:
    """Static emitter and coupling parameters.

    Parameters
    ----------
    gamma : float
        Total decay rate, rad/ns.  Must be positive.
    gamma_dp : float
        Pure dephasing rate, rad/ns.  Must be non-negative.
    coupling : str
        ``"isotropic"`` (bidirectional emission, fraction ``beta`` into the
        guided mode) or ``"chiral"`` (``beta`` is the fraction emitted into
        the forward, transmitted mode).
    beta : float
        Coupling efficiency in [0, 1].  Interpreted per ``coupling``.
    f0 : float
        Transition frequency on the laser scan axis, GHz.
    phi0 : float
        Constant phase offset added to observed spectra, rad.  Applied only
        at the presentation layer; every function here returns raw arg(t).
    """

    gamma: float
    gamma_dp: float = 0.0
    coupling: str = ISOTROPIC
    beta: float = 1.0
    f0: float = 0.0
    phi0: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "gamma_dp", "beta", "f0", "phi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)!r}")
        if self.gamma <= 0:
            raise ValueError(f"gamma: must be > 0, got {self.gamma}")
        if self.gamma_dp < 0:
            raise ValueError(f"gamma_dp: must be >= 0, got {self.gamma_dp}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta: must be in [0, 1], got {self.beta}")
        if self.coupling not in (ISOTROPIC, CHIRAL):
            raise ValueError(f"coupling: must be 'isotropic' or 'chiral', got {self.coupling!r}")

    @classmethod
    def isotropic(cls, gamma, beta=1.0, gamma_dp=0.0, f0=0.0, phi0=0.0):
        return cls(gamma=gamma, gamma_dp=gamma_dp, coupling=ISOTROPIC, beta=beta, f0=f0, phi0=phi0)

    @classmethod
    def chiral(cls, gamma, beta_dir=1.0, gamma_dp=0.0, f0=0.0, phi0=0.0):
        return cls(gamma=gamma, gamma_dp=gamma_dp, coupling=CHIRAL, beta=beta_dir, f0=f0, phi0=phi0)

    @property
    def gamma2(self) -> float:
        """Total coherence decay rate gamma/2 + gamma_dp, rad/ns."""
        return self.gamma / 2.0 + self.gamma_dp

    @property
    def is_chiral(self) -> bool:
        return self.coupling == CHIRAL

    @property
    def coupling_rate(self) -> float:
        """s = beta*gamma (chiral) or beta*gamma/2 (isotropic): emission into the probe's mode."""
        return _rates(self.beta, self.gamma, self.gamma_dp, self.is_chiral)[0]

    def with_(self, **kwargs) -> "EmitterParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class PhaseExtremum:
    """Closed-form extremal |arg t| over detuning and where it is reached.

    Fields are floats, or arrays shaped like the ``omega_r`` they were
    evaluated at.
    """

    delta_plus: float
    delta_minus: float
    phi_max: float

    @property
    def phi_plus(self):
        """Signed arg t at delta_plus: arg t(-delta) = -arg t(delta), and the
        positive-detuning branch is the one the program reports."""
        return -self.phi_max


@dataclass(frozen=True)
class NumericExtremum:
    """Result of the numeric |arg t| maximization over detuning (test oracle)."""

    delta: float
    phi: float
    flat: bool = False

    @property
    def phi_abs(self) -> float:
        return abs(self.phi)


@dataclass(frozen=True)
class ChiralThresholds:
    """Drive, dephasing and coupling values where the resonant chiral
    transmission crosses zero (the pi -> 0 phase jump)."""

    omega_c: float
    gamma_dp_c: float
    beta_dir_c: float


def _rabi_squared(omega_r):
    """omega_r**2 by the C ``pow`` per element, the rounding of ``float ** 2``,
    so an array gives the bits of its elements' scalar calls."""
    return np.float_power(np.asarray(omega_r, dtype=float), 2.0)


def transmission(p: EmitterParams, delta, omega_r=0.0):
    """Complex transmission t and normalized intensity I_t on a detuning grid.

    Isotropic coupling:
        t   = 1 - (beta*gamma/2)*(gamma2 + i*delta)/D
        I_t = 1 - beta*gamma*gamma2*(2 - beta)/(2*D)
    Chiral coupling (beta is the directional fraction):
        t   = 1 - beta*gamma*(gamma2 + i*delta)/D
        I_t = 1 + 2*beta*gamma*gamma2*(beta - 1)/D

    I_t >= |t|**2 always; the excess is the incoherently scattered light and
    vanishes only for gamma_dp = 0 in the linear-response limit omega_r = 0.

    Broadcasts over ``delta`` and ``omega_r``; scalars give scalars.

    Returns
    -------
    (t, i_t) : complex ndarray (or scalar), float ndarray (or scalar)
    """
    delta_arr = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta_arr)):
        raise ValueError("delta must be finite")
    re, im, i_t, _ = _response(*_rates(p.beta, p.gamma, p.gamma_dp, p.is_chiral), p.gamma,
                               delta_arr, _rabi_squared(omega_r))
    if np.ndim(re) == 0:
        return complex(re, im), float(i_t)
    return re + 1j * im, i_t


def _rates(beta, gamma, gamma_dp, chiral):
    """s, gamma2 and A = 2*D*(1 - I_t) of an emitter, for :func:`_response`."""
    g2 = gamma / 2.0 + gamma_dp
    if chiral:
        return beta * gamma, g2, 4.0 * beta * gamma * g2 * (1.0 - beta)
    return beta * gamma / 2.0, g2, beta * gamma * g2 * (2.0 - beta)


def _response(s, g2, a, gamma, delta, w):
    """Re t, Im t, I_t and 1/D of :func:`transmission` at omega_r**2 = ``w``:
    t = 1 - s*(gamma2 + i*delta)/D and I_t = 1 - A/(2*D), in real arithmetic."""
    d = g2 * g2 + delta * delta + 4.0 * (g2 / gamma) * w
    inv = 1.0 / d
    # 0 - x: a zero Im t is +0, so arg t is +pi, not -pi, where Re t < 0
    return 1.0 - (s * g2) * inv, 0.0 - (s * delta) * inv, 1.0 - 0.5 * (a / d), inv


def phase_extrema_analytic(p: EmitterParams, omega_r=0.0) -> PhaseExtremum:
    """Extremal |arg t| over detuning, for every coupling, dephasing and drive.

    With s = beta*gamma (chiral) or beta*gamma/2 (isotropic) and
    W = 4*(gamma2/gamma)*omega_r**2 (omega_r = 0 is linear response),
    arg t = -atan2(s*delta, delta**2 + c) with c = gamma2*(gamma2 - s) + W:

    * c > 0: delta_pm = +/- sqrt(c), |phi|_max = atan(s/(2*sqrt(c)))
    * c = 0: delta_pm = 0, |phi|_max = pi/2 (approached as delta -> 0)
    * c < 0: delta_pm = 0, |phi|_max = pi (reached on resonance)

    At zero power without dephasing an isotropic emitter gives
    delta_pm = +/- gamma*sqrt(1 - beta)/2 and
    |phi|_max = arctan(beta/(2*sqrt(1 - beta))).  c is kept in factored
    form, so the algebraic zeros (isotropic beta = 1, chiral beta_dir = 1/2,
    both at zero power without dephasing) are exact zeros.  Broadcasts over
    an ``omega_r`` array; a scalar ``omega_r`` gives float fields.
    """
    return _phase_extrema(p.coupling_rate, p.gamma, p.gamma2, omega_r)


def _phase_extrema(s, gamma, gamma2, omega_r) -> PhaseExtremum:
    """:func:`phase_extrema_analytic` at coupling rate ``s``; broadcasts over
    ``gamma2`` and ``omega_r``, each element the bits of its scalar call."""
    omega_r = np.asarray(omega_r, dtype=float)
    w = 4.0 * (gamma2 / gamma) * omega_r * omega_r
    c = gamma2 * (gamma2 - s) + w
    root = np.sqrt(np.maximum(c, 0.0))
    phi = np.where(c > 0, np.arctan(s / (2.0 * np.where(c > 0, root, 1.0))),
                   np.where(c == 0, np.pi / 2.0, np.pi))
    if phi.ndim == 0:
        return PhaseExtremum(delta_plus=float(root), delta_minus=-float(root), phi_max=float(phi))
    return PhaseExtremum(delta_plus=root, delta_minus=-root, phi_max=phi)


def _golden_max(fun, lo, hi, rel_tol=_GOLDEN_REL_TOL):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    scale = max(abs(lo), abs(hi), 1e-30)
    while (b - a) > rel_tol * scale:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def phase_extrema_numeric(p: EmitterParams, omega_r=0.0) -> NumericExtremum:
    """Locate the detuning that maximizes |arg t| by direct search.

    The test oracle for :func:`phase_extrema_analytic`, as the integrated
    Bloch equations are for :func:`transmission`: no production code calls
    it, and it uses none of the closed form's algebra.  A 2001-point grid
    scan over delta in [-20*L, 20*L] brackets the maximum, with
    L = sqrt(gamma2**2 + W) the power-broadened linewidth
    (W = 4*(gamma2/gamma)*omega_r**2); every optimum lies within L of
    resonance.  Golden-section refinement then narrows the bracket to 1e-10 relative
    width.  For a flat response (beta = 0) the result carries ``flat=True``.
    When the response is symmetric the positive-detuning extremum is
    returned.
    """
    g2 = p.gamma2  # the width is sqrt(D) on resonance
    width = math.sqrt(float(g2 * g2 + 4.0 * (g2 / p.gamma) * _rabi_squared(omega_r)))
    grid = np.linspace(-_GRID_HALF_WIDTH * width, _GRID_HALF_WIDTH * width, _GRID_POINTS)
    t, _ = transmission(p, grid, omega_r)
    phi = np.abs(np.angle(t))
    if np.max(phi) < 1e-15:
        return NumericExtremum(delta=0.0, phi=0.0, flat=True)
    # last argmax prefers the positive-detuning branch on symmetric responses
    idx = int(len(phi) - 1 - np.argmax(phi[::-1]))
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]

    def objective(delta):
        t_val, _ = transmission(p, float(delta), omega_r)
        return abs(np.angle(t_val))

    delta_star = _golden_max(objective, lo, hi)
    if objective(delta_star) < phi[idx]:
        # a cusp exactly on a grid point (the resonant pi jump) beats any
        # refinement, which stops a bracket width short of it; the grid point
        # may be delta = 0 exactly, where the sign of arg t is rounding, so
        # the positive-branch sign is set here
        return NumericExtremum(delta=abs(float(grid[idx])), phi=-float(phi[idx]))
    # arg t(-delta) = -arg t(delta) for every parameter set, so the extremum
    # is reported on the positive-detuning branch for determinism
    delta_star = abs(delta_star)
    t_star, _ = transmission(p, delta_star, omega_r)
    return NumericExtremum(delta=float(delta_star), phi=float(np.angle(t_star)))


def critical_photon_flux(p: EmitterParams) -> float:
    """Mean photon number per lifetime at which the response saturates.

    n_c = (1 + 2*gamma_dp/gamma) / (4*beta**2), isotropic coupling only.
    """
    if p.is_chiral:
        raise ValueError("critical photon flux is defined for isotropic coupling")
    if p.beta == 0.0:
        raise ValueError("critical photon flux diverges at beta = 0 (no coupling)")
    return (1.0 + 2.0 * p.gamma_dp / p.gamma) / (4.0 * p.beta**2)


def chiral_thresholds(p: EmitterParams) -> ChiralThresholds:
    """Thresholds at which the resonant chiral transmission changes sign.

    Starting from the ideal directional emitter (t = -1 on resonance), the
    resonant transmission crosses zero, and the phase jumps from pi to 0,
    once any of these is reached: omega_r >= gamma/(2*sqrt(2)) (saturation),
    gamma_dp >= gamma/2 (dephasing), or beta_dir <= 1/2 (coupling).
    """
    if not p.is_chiral:
        raise ValueError("thresholds apply to chiral coupling")
    return ChiralThresholds(
        omega_c=p.gamma / (2.0 * math.sqrt(2.0)),
        gamma_dp_c=p.gamma / 2.0,
        beta_dir_c=0.5,
    )
