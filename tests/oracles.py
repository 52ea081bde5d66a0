"""Test oracles: time-domain integration of the optical Bloch equations,
the step-by-step PID lock loop of :mod:`wgphase.interferometer`, and the
line-by-line CSV reader of :mod:`wgphase.io`.

Independent cross-check for the closed-form transmission in
:mod:`wgphase.emitter`: the rotating-frame master equation with decay
``gamma`` and pure dephasing ``gamma_dp`` is integrated from the ground
state with fixed-step classical Runge-Kutta until the state stops moving,
and the input-output relations of :func:`input_output` turn the steady
state into the transmission t and intensity I_t of the waveguide.

Sign convention matches the closed form: the drive enters with a negative
amplitude so that rho_ge -> -omega_r*(i*gamma2 + delta)/D.

State layout is ``[rho_ee, Re(rho_ge), Im(rho_ge)]``:

    d(rho_ee)/dt = -2*omega_r*Im(rho_ge) - gamma*rho_ee
    d(rho_ge)/dt = i*omega_r*(2*rho_ee - 1) - (gamma2 + i*delta)*rho_ge

Because the system is affine in the state, the steady state is an exact
fixed point of the Runge-Kutta map; the step size only controls stability
and how fast the transient decays.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

import numpy as np

from wgphase.emitter import EmitterParams

_REL_CHANGE_TOL = 1e-12
_CHECK_EVERY = 16


class BlochConvergenceError(RuntimeError):
    """Raised when the integration does not settle within the horizon."""

    def __init__(self, residual: float, horizon: float):
        self.residual = residual
        self.horizon = horizon
        super().__init__(
            f"Bloch integration did not converge within horizon {horizon:g} ns; "
            f"last relative change per step {residual:.3e}"
        )


def _derivative(state, gamma, gamma2, omega, delta):
    ee, re, im = state
    d_ee = -2.0 * omega * im - gamma * ee
    d_re = -gamma2 * re + delta * im
    d_im = omega * (2.0 * ee - 1.0) - gamma2 * im - delta * re
    return np.stack([d_ee, d_re, d_im])


def integrate_steady_states(gamma, gamma_dp, omega_r, delta, dt=None, horizon=None):
    """Vectorized RK4 relaxation to steady state for batches of parameters.

    All parameter arrays broadcast to a common shape.  Returns
    ``(rho_ee, rho_ge, converged, residual)`` where ``residual`` is the last
    relative change per step for each system.
    """
    gamma, gamma_dp, omega_r, delta = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (gamma, gamma_dp, omega_r, delta))
    )
    if np.any(gamma <= 0) or np.any(gamma_dp < 0) or np.any(omega_r < 0):
        raise ValueError("require gamma > 0, gamma_dp >= 0, omega_r >= 0")
    if not all(np.all(np.isfinite(a)) for a in (gamma, gamma_dp, omega_r, delta)):
        raise ValueError("non-finite parameter in Bloch integration")
    gamma2 = gamma / 2.0 + gamma_dp

    # fastest system scale bounds the spectral radius; 0.5/scale keeps RK4
    # well inside its stability region
    scale = np.maximum.reduce([gamma, gamma2, omega_r, np.abs(delta), np.ones_like(gamma)])
    if dt is None:
        dt_arr = 0.5 / scale
    else:
        dt_arr = np.full_like(gamma, float(dt))
    if horizon is None:
        horizon_arr = 120.0 / np.minimum(gamma, gamma2)
    else:
        horizon_arr = np.full_like(gamma, float(horizon))
    max_steps = int(np.max(np.ceil(horizon_arr / dt_arr)))

    state = np.zeros((3,) + gamma.shape)
    converged = np.zeros(gamma.shape, dtype=bool)
    residual = np.full(gamma.shape, np.inf)
    h = dt_arr

    for step in range(1, max_steps + 1):
        prev = state
        k1 = _derivative(state, gamma, gamma2, omega_r, delta)
        k2 = _derivative(state + 0.5 * h * k1, gamma, gamma2, omega_r, delta)
        k3 = _derivative(state + 0.5 * h * k2, gamma, gamma2, omega_r, delta)
        k4 = _derivative(state + h * k3, gamma, gamma2, omega_r, delta)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % _CHECK_EVERY == 0 or step == max_steps:
            change = np.max(np.abs(state - prev), axis=0)
            norm = np.maximum(np.max(np.abs(state), axis=0), 1e-30)
            rel = change / norm
            newly = (rel < _REL_CHANGE_TOL) & ~converged
            residual = np.where(converged, residual, rel)
            converged |= newly
            if np.all(converged):
                break

    rho_ee = state[0]
    rho_ge = state[1] + 1j * state[2]
    return rho_ee, rho_ge, converged, residual


def bloch_oracle_integrate(p: EmitterParams, delta, omega_r, horizon=None):
    """``(rho_ee, rho_ge)`` of one system integrated to steady state; raises
    on non-convergence.

    The step is 0.5 / (fastest rate in the problem) and ``horizon``
    defaults to 120 / min(gamma, gamma2), far beyond the transient lifetime.
    """
    rho_ee, rho_ge, converged, residual = integrate_steady_states(
        p.gamma, p.gamma_dp, omega_r, delta, horizon=horizon
    )
    if not bool(converged[0]):
        hz = horizon if horizon is not None else 120.0 / min(p.gamma, p.gamma2)
        raise BlochConvergenceError(float(residual[0]), hz)
    return float(rho_ee[0]), complex(rho_ge[0])


def input_output(s, gamma, omega_r, rho_ee, rho_ge):
    """Transmission t and intensity I_t of the waveguide from the emitter's
    steady state at a drive omega_r > 0 (array-safe).

    ``s`` is the emission rate into the forward mode: beta*gamma for chiral
    coupling, beta*gamma/2 for isotropic.  The forward field is the probe
    plus the coherently emitted field; the forward intensity counts the
    emitted flux s**2*rho_ee/omega_r**2 in full, incoherent part included,
    and the steady state gamma*rho_ee = -2*omega_r*Im(rho_ge) rewrites the
    interference term:

        t   = 1 + i*s*conj(rho_ge)/omega_r
        I_t = 1 - s*(gamma - s)*rho_ee/omega_r**2
    """
    t = 1.0 + 1j * s * np.conj(rho_ge) / omega_r
    i_t = 1.0 - s * (gamma - s) * rho_ee / omega_r**2
    return t, i_t


def lock_loop_reference(drift, gains, dt):
    """The residual of a discrete-time PID lock tracking ``drift``, one step at a
    time: the loop ``wgphase.interferometer.lock_loop_residual`` ran before it
    became a convolution with the loop's impulse response, without its limit on
    the residual.  Each step observes ``e = drift - correction``, records it, and
    sets ``correction = kp*e + ki*integral(e dt) + kd*de/dt``.  A residual that
    grows runs on to inf and nan: Python floats raise no warning."""
    kp, ki, kd = (float(gains.get(key, 0.0)) for key in ("kp", "ki", "kd"))
    residual = []
    correction = integral = prev_err = 0.0
    # Python floats take the same IEEE steps as numpy scalars, at a fraction of the cost
    for value in np.asarray(drift, dtype=float).tolist():
        err = value - correction
        residual.append(err)
        integral += err * dt
        derivative = (err - prev_err) / dt
        correction = kp * err + ki * integral + kd * derivative
        prev_err = err
    return np.array(residual, dtype=float)


class TraceParseError(ValueError):
    """Raised by the reader oracle where wgphase.io raises its namesake."""


# The CSV reader of wgphase.io before it checked a file's structure on its
# bytes: it splits the text into lines, and converts a file whose every line
# holds the header's field count in one cast of the comma-joined lines, any
# other file line by line.  Its columns, line numbers and error messages are
# what the reader must reproduce for every input.
def _read_csv(path: Path, header: str):
    """The non-blank rows under the exact ``header`` as a float array of shape
    (columns, rows), and the line number of each row."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path}: not valid UTF-8 ({exc})") from exc
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty file>"
        raise TraceParseError(f"{path}:1: expected header {header!r}, found {found!r}")
    n_fields = header.count(",") + 1
    body = lines[1:]
    # fast path: every line holds n_fields fields (so none is blank, or the
    # cast fails on it) and all of them convert in one cast, numpy's str ->
    # float accepting exactly what float() accepts; any other file takes the
    # per-line pass, which names the bad line
    if body and set(map(str.count, body, repeat(","))) == {n_fields - 1}:
        try:
            values = np.array(",".join(body).split(","), dtype=float)
        except ValueError:
            pass
        else:
            return values.reshape(-1, n_fields).T.copy(), list(range(2, len(lines) + 1))
    linenos = [n for n, raw in enumerate(body, start=2) if raw.strip()]
    values = []
    for lineno in linenos:
        parts = lines[lineno - 1].split(",")
        if len(parts) != n_fields:
            raise TraceParseError(f"{path}:{lineno}: expected {n_fields} comma-separated "
                                  f"fields, got {len(parts)}")
        try:
            values += map(float, parts)
        except ValueError as exc:
            raise TraceParseError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    if not values:
        raise TraceParseError(f"{path}: no data rows")
    return np.array(values).reshape(-1, n_fields).T.copy(), linenos
