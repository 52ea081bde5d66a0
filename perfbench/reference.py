"""Closed-form references the benchmark checks wgphase against.

Written from the physics summary of the paper alone and deliberately free of
any ``wgphase`` import, so a defect in the program cannot also sit in its
own check.  Rates and detunings are angular frequencies in rad/ns.

With ``gamma2 = gamma/2 + gamma_dp``, ``s = beta*gamma/2`` (isotropic) or
``s = beta*gamma`` (chiral) and ``W = 4*(gamma2/gamma)*omega_r**2``:

    t   = 1 - s*(gamma2 + i*delta)/D,   D = gamma2**2 + delta**2 + W
    arg t = -atan2(s*delta, delta**2 + c),   c = gamma2*(gamma2 - s) + W

so the extremal phase on the positive-detuning branch is
``atan(s/(2*sqrt(c)))`` at ``delta* = sqrt(c)`` for c > 0, pi/2 for c = 0
(approached as delta -> 0) and pi for c < 0 (reached on resonance).  The
extremum jumps from pi/2 to pi as c crosses 0, so where c is zero only to
within double rounding (a scan point placed exactly on a switching
threshold) the value is not determined by the inputs; there
:func:`phase_extremum_range` accepts anything between the two sides.
"""

from __future__ import annotations

import numpy as np

#: half-width of the detuning grid the program's numeric extremum search
#: scans, in units of gamma2; an optimum beyond it cannot be found there
PROGRAM_SEARCH_HALF_WIDTH = 20.0


def coupling_strength(beta, gamma, chiral: bool):
    """s = beta*gamma for chiral coupling, beta*gamma/2 for isotropic."""
    beta = np.asarray(beta, dtype=float)
    return beta * gamma if chiral else beta * gamma / 2.0


def extremum_c(gamma, gamma_dp, beta, omega_r, chiral: bool):
    """c = gamma2*(gamma2 - s) + 4*(gamma2/gamma)*omega_r**2 (array-safe).

    Factored so that c is exactly 0 where the algebra says so (an isotropic
    emitter with beta = 1, or a chiral one with beta_dir = 1/2, both at zero
    power and without dephasing).
    """
    g2 = gamma / 2.0 + np.asarray(gamma_dp, dtype=float)
    s = coupling_strength(beta, gamma, chiral)
    omega_r = np.asarray(omega_r, dtype=float)
    return g2 * (g2 - s) + 4.0 * (g2 / gamma) * omega_r * omega_r


def phase_extremum_abs(gamma, gamma_dp, beta, omega_r, chiral: bool):
    """|phi|_max over detuning: all three branches of the closed form."""
    c = extremum_c(gamma, gamma_dp, beta, omega_r, chiral)
    s = coupling_strength(beta, gamma, chiral)
    s, c = np.broadcast_arrays(s, c)
    root = np.sqrt(np.where(c > 0, c, 1.0))
    phi = np.where(c > 0, np.arctan(s / (2.0 * root)), np.where(c == 0, np.pi / 2.0, np.pi))
    return phi if phi.ndim else float(phi)


def phase_extremum_range(gamma, gamma_dp, beta, omega_r, chiral: bool):
    """(lo, hi) bounds on |phi|_max: both equal the closed form, except
    where c vanishes to within rounding, which gives (pi/2, pi)."""
    c = extremum_c(gamma, gamma_dp, beta, omega_r, chiral)
    g2 = gamma / 2.0 + np.asarray(gamma_dp, dtype=float)
    s = coupling_strength(beta, gamma, chiral)
    w = 4.0 * (g2 / gamma) * np.asarray(omega_r, dtype=float) ** 2
    # c sums terms of size g2**2, s*g2 and W: 16 ulps of those is rounding
    at_threshold = np.abs(c) <= 16.0 * np.finfo(float).eps * (g2 * g2 + s * g2 + w)
    phi = np.asarray(phase_extremum_abs(gamma, gamma_dp, beta, omega_r, chiral))
    return (np.where(at_threshold, np.pi / 2.0, phi), np.where(at_threshold, np.pi, phi))


def optimum_inside_program_grid(gamma, gamma_dp, beta, omega_r, chiral: bool):
    """True where the optimum detuning sqrt(c) lies inside the program's
    documented search grid of +/- 20*gamma2 (always for c <= 0)."""
    c = extremum_c(gamma, gamma_dp, beta, omega_r, chiral)
    g2 = gamma / 2.0 + np.asarray(gamma_dp, dtype=float)
    limit = PROGRAM_SEARCH_HALF_WIDTH * g2
    return c <= limit * limit


def transmission(delta, gamma, gamma_dp, beta, omega_r, chiral: bool):
    """Complex transmission t and transmitted intensity I_t on a detuning grid.

    Isotropic: I_t = 1 - beta*gamma*gamma2*(2 - beta)/(2*D);
    chiral:    I_t = 1 + 2*beta*gamma*gamma2*(beta - 1)/D.
    """
    delta = np.asarray(delta, dtype=float)
    g2 = gamma / 2.0 + gamma_dp
    d = g2 * g2 + delta * delta + 4.0 * (g2 / gamma) * omega_r * omega_r
    s = coupling_strength(beta, gamma, chiral)
    t = 1.0 - s * (g2 + 1j * delta) / d
    if chiral:
        i_t = 1.0 + 2.0 * beta * gamma * g2 * (beta - 1.0) / d
    else:
        i_t = 1.0 - beta * gamma * g2 * (2.0 - beta) / (2.0 * d)
    return t, i_t


def wrap_angle(phi):
    """Wrap to the interval (-pi, pi]."""
    wrapped = np.pi - np.mod(np.pi - np.asarray(phi, dtype=float), 2.0 * np.pi)
    return wrapped if wrapped.ndim else float(wrapped)


def synth_phasors(freq_ghz, gamma, gamma_dp, beta, phi0, omega_r, sigmas, rng):
    """Noisy isotropic phasor spectrum at one drive level.

    Returns (phase, amp_ratio, offset_ratio) with Gaussian noise of the given
    (phase, amplitude, offset) standard deviations added to arg t + phi0,
    |t| and I_t.  The line centre sits at 0 GHz.
    """
    delta = 2.0 * np.pi * np.asarray(freq_ghz, dtype=float)
    t, i_t = transmission(delta, gamma, gamma_dp, beta, omega_r, chiral=False)
    n = delta.size
    phase = wrap_angle(np.angle(t) + phi0 + rng.normal(0.0, sigmas[0], n))
    amp = np.abs(t) + rng.normal(0.0, sigmas[1], n)
    offset = i_t + rng.normal(0.0, sigmas[2], n)
    return phase, amp, offset
