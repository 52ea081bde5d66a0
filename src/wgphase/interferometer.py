"""Mach-Zehnder fringe synthesis for the emitter-waveguide system.

The signal arm passes the emitter (transmission ``t``), the reference arm is
a local oscillator.  The expected detector rate at laser frequency ``f`` is
the full two-beam interference expression

    rate(f) = p_lo + p_sig*I_t(f) + dark
              + 2*v*sqrt(p_lo*p_sig)*|t(f)|*cos(2*pi*f*delta_l/c
                                                + phi_env + phi0 + arg t(f))

with ``t = 1, I_t = 1, phi0 = 0`` when the emitter is switched off.  The
coherent term carries |t| while the background carries I_t; the two differ
by the incoherently scattered light, and the inverse pipeline relies on
that distinction.  Traces store expected (or Poisson-sampled) counts per
bin, i.e. rate times integration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emitter import EmitterParams, transmission
from .units import C_M_PER_S, detuning_angular

SCHEMA_TRACE = "wgphase.trace.v1"

# bins per shot-noise random stream; changing it changes every seeded draw
_NOISE_BLOCK = 1024


@dataclass(frozen=True)
class InterferometerConfig:
    """Interferometer geometry, powers and acquisition settings.

    delta_l : path-length imbalance, m
    visibility : fringe contrast v in [0, 1]
    p_lo, p_sig : local-oscillator and signal-arm photon rates, counts/s
    integration_time : s per frequency sample
    dark_rate : detector dark counts/s, default 0
    """

    delta_l: float = 2.78
    visibility: float = 0.65
    p_lo: float = 1e6
    p_sig: float = 1e4
    integration_time: float = 0.1
    dark_rate: float = 0.0

    def __post_init__(self):
        if self.delta_l < 0:
            raise ValueError(f"delta_l must be >= 0, got {self.delta_l}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        for name in ("p_lo", "p_sig", "dark_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.integration_time <= 0:
            raise ValueError(f"integration_time must be > 0, got {self.integration_time}")


@dataclass
class FringeTrace:
    """Sampled interferometer intensity versus laser frequency.

    ``freq`` is the strictly increasing laser grid in GHz and ``intensity``
    the counts per bin (expected values until shot noise is applied).
    ``meta`` carries the full synthesis context.
    """

    freq: np.ndarray
    intensity: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.freq = np.asarray(self.freq, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.freq.shape != self.intensity.shape:
            raise ValueError("freq and intensity must have the same shape")
        if self.freq.size and np.any(np.diff(self.freq) <= 0):
            raise ValueError("freq must be strictly increasing")
        if not np.all(np.isfinite(self.intensity) & (self.intensity >= 0)):
            raise ValueError("intensity must be finite and non-negative")


def expected_rate(cfg: InterferometerConfig, p: EmitterParams, freq_ghz, qd_on: bool,
                  omega_r: float = 0.0, phi_env=0.0):
    """Expected detector rate (counts/s) on a laser frequency grid, with the
    emitter driven at Rabi frequency ``omega_r`` (rad/ns; 0 is linear
    response) and the environmental phase ``phi_env`` (rad; a scalar or one
    value per point)."""
    freq_ghz = np.asarray(freq_ghz, dtype=float)
    if freq_ghz.size == 0:
        raise ValueError("frequency grid is empty")
    if not np.all(np.isfinite(freq_ghz)):
        raise ValueError("frequency grid contains non-finite values")
    if np.any(np.diff(freq_ghz) <= 0):
        raise ValueError("frequency grid must be strictly increasing")

    phi_env = np.broadcast_to(np.asarray(phi_env, dtype=float), freq_ghz.shape)

    if qd_on:
        t, i_t = transmission(p, detuning_angular(freq_ghz, p.f0), omega_r)
        phi_qd = np.angle(t) + p.phi0
        amp = np.abs(t)
    else:
        i_t = np.ones_like(freq_ghz)
        phi_qd = np.zeros_like(freq_ghz)
        amp = np.ones_like(freq_ghz)

    geometric = 2.0 * np.pi * freq_ghz * 1e9 * cfg.delta_l / C_M_PER_S
    coherent = 2.0 * cfg.visibility * np.sqrt(cfg.p_lo * cfg.p_sig) * amp
    return (cfg.p_lo + cfg.p_sig * i_t + cfg.dark_rate
            + coherent * np.cos(geometric + phi_env + phi_qd))


def fringe_trace(cfg: InterferometerConfig, p: EmitterParams, sweep, qd_on: bool,
                 omega_r: float = 0.0, phi_env=0.0) -> FringeTrace:
    """Synthesize a noiseless fringe trace over a laser sweep (GHz).

    The sweep sets the laser-emitter detuning of every point; ``omega_r`` is
    the Rabi frequency of the drive, rad/ns, and the default 0 is the
    linear-response limit.  The metadata records the ``omega_r`` applied.
    ``phi_env`` is the environmental phase, as in :func:`expected_rate`.
    """
    sweep = np.asarray(sweep, dtype=float)
    rate = expected_rate(cfg, p, sweep, qd_on, omega_r=omega_r, phi_env=phi_env)
    counts = rate * cfg.integration_time
    meta = {
        "schema": SCHEMA_TRACE,
        "qd_on": bool(qd_on),
        "units": "expected_counts",
        "interferometer": _config_meta(cfg),
        "emitter": _emitter_meta(p),
        "drive": {"omega_r": float(omega_r)},
    }
    return FringeTrace(freq=sweep, intensity=counts, meta=meta)


def apply_shot_noise(trace: FringeTrace, seed: int) -> FringeTrace:
    """Replace each bin by a Poisson draw with that bin's expected count.

    Counter-based seeding: the bins are split into consecutive blocks of
    ``_NOISE_BLOCK``, and block ``b`` draws all of its bins in order from one
    Philox stream with key ``seed`` and counter ``[0, b, 0, 0]``.  The block
    index sits in the second counter word, so the streams of different blocks
    are 2**64 Philox blocks apart and never overlap.  A bin's draw depends on
    the seed, on its index and on the expected counts of the earlier bins in
    its block (a Poisson draw consumes a count-dependent number of random
    words), never on a later bin: a trace's draws are a prefix of the draws
    of any longer trace that starts with the same expected counts.
    """
    means = trace.intensity
    counts = np.empty_like(means)
    key = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    for block, start in enumerate(range(0, means.size, _NOISE_BLOCK)):
        bit_gen = np.random.Philox(key=key, counter=[0, block, 0, 0])
        sl = slice(start, start + _NOISE_BLOCK)
        counts[sl] = np.random.Generator(bit_gen).poisson(means[sl])
    meta = dict(trace.meta)
    meta.update({"units": "counts", "shot_noise_seed": int(seed)})
    return FringeTrace(freq=trace.freq.copy(), intensity=counts, meta=meta)


class UnstableLoopError(RuntimeError):
    """PID gains drove the residual beyond 10x the drift amplitude."""


def lock_loop_residual(drift, gains, dt: float) -> np.ndarray:
    """Residual phase left by a discrete-time PID tracking a drift series.

    Each step the controller observes the current error
    ``e = drift - correction``, updates the actuator

        correction <- kp*e + ki*integral(e dt) + kd*de/dt

    and the residual recorded for that step is ``e``.  The residual series
    is the environmental phase :func:`fringe_trace` takes.

    Raises :class:`UnstableLoopError` when |residual| grows beyond 10x the
    drift amplitude.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    drift = np.asarray(drift, dtype=float)
    kp = float(gains.get("kp", 0.0))
    ki = float(gains.get("ki", 0.0))
    kd = float(gains.get("kd", 0.0))
    amplitude = float(np.max(np.abs(drift))) if drift.size else 0.0
    limit = 10.0 * amplitude if amplitude > 0 else np.inf

    residual = []
    correction = 0.0
    integral = 0.0
    prev_err = 0.0
    # Python floats take the same IEEE steps as numpy scalars, at a fraction of the cost
    for i, value in enumerate(drift.tolist()):
        err = value - correction
        residual.append(err)
        if abs(err) > limit:
            raise UnstableLoopError(
                f"lock residual {err:.3g} rad exceeded 10x drift amplitude "
                f"{amplitude:.3g} rad at step {i} (unstable gains?)"
            )
        integral += err * dt
        derivative = (err - prev_err) / dt
        correction = kp * err + ki * integral + kd * derivative
        prev_err = err
    return np.array(residual, dtype=float)


def lock_loop_radius(gains, dt: float) -> float:
    """Largest |root| of the characteristic polynomial of :func:`lock_loop_residual`,
    ``z^3 + (kp + ki*dt + kd/dt - 1)*z^2 - (kp + 2*kd/dt)*z + kd/dt``; above 1
    the loop is unstable.  With ``ki = 0`` a harmless root sits at exactly z = 1."""
    kp, ki, kd = (float(gains.get(key, 0.0)) for key in ("kp", "ki", "kd"))
    roots = np.roots([1.0, kp + ki * dt + kd / dt - 1.0, -(kp + 2.0 * kd / dt), kd / dt])
    return float(np.max(np.abs(roots)))


def _config_meta(cfg: InterferometerConfig) -> dict:
    return {
        "delta_l_m": cfg.delta_l,
        "visibility": cfg.visibility,
        "p_lo_cps": cfg.p_lo,
        "p_sig_cps": cfg.p_sig,
        "integration_time_s": cfg.integration_time,
        "dark_cps": cfg.dark_rate,
    }


def _emitter_meta(p: EmitterParams) -> dict:
    return {
        "gamma": p.gamma, "gamma_dp": p.gamma_dp, "coupling": p.coupling,
        "beta": p.beta, "f0_ghz": p.f0, "phi0": p.phi0,
    }
