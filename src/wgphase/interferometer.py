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
bin, i.e. rate times integration time.  :class:`InterferometerConfig` is the
run config's ``interferometer`` block, its :class:`EnvPhase` the default ``phi_env``.
A ``locked_drift`` phase is refused as it is built unless every pole of the
lock residual's recurrence lies strictly inside the unit circle
(:func:`lock_loop_radius`): a pole on the circle rings or grows.  The lock
residual is the drift convolved with the loop's impulse response h, so no
drift of n samples leaves a residual past ||h[:n]||_1 times its amplitude;
:func:`lock_loop_impulse` refuses gains that put that norm above 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .emitter import EmitterParams, transmission
from .units import C_M_PER_S, detuning_angular, smooth_length

SCHEMA_TRACE = "wgphase.trace.v1"

# bins per shot-noise random stream; changing it changes every seeded draw
_NOISE_BLOCK = 1024

#: the largest mean numpy's ``Generator.poisson`` draws, 2**63 - 1 - 10*sqrt(2**63 - 1)
POISSON_MEAN_MAX = 9.223372006484771e18


@dataclass(frozen=True)
class EnvPhase:
    """The environmental phase between the arms, as the recipe of its series."""

    kind: str = "constant"        # constant | random_walk | sinusoid | locked_drift
    value_rad: float = 0.0        # constant
    sigma_rad: float = 0.05       # random_walk / locked_drift step
    amplitude_rad: float = 0.0    # sinusoid
    frequency_hz: float = 0.0     # sinusoid
    kp: float = 0.6               # locked_drift PID gains
    ki: float = 4.0
    kd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "random_walk", "sinusoid", "locked_drift"):
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        for name in ("sigma_rad", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")

    def series(self, n: int, dt: float) -> np.ndarray:
        """The environmental phase of ``n`` samples ``dt`` s apart, rad.  The
        walk is seeded by ``seed`` alone; ``locked_drift`` is the residual the
        lock loop leaves of it."""
        if self.kind == "constant":
            return np.full(n, self.value_rad)
        if self.kind == "sinusoid":
            times = np.arange(n) * dt
            return self.amplitude_rad * np.sin(2.0 * np.pi * self.frequency_hz * times)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x7761]))
        walk = np.cumsum(rng.normal(0.0, self.sigma_rad, n))
        if self.kind == "random_walk":
            return walk
        return lock_loop_residual(walk, {"kp": self.kp, "ki": self.ki, "kd": self.kd}, dt)


@dataclass(frozen=True)
class InterferometerConfig:
    """Interferometer geometry, powers and acquisition settings: the
    ``interferometer`` block of a run config, under the same names.

    delta_l_m : path-length imbalance, m
    visibility : fringe contrast v in [0, 1]
    p_lo_cps, p_sig_cps : local-oscillator and signal-arm photon rates, counts/s
    integration_time_s : s per frequency sample
    dark_cps : detector dark counts/s, default 0
    env_phase : the environmental phase, one sample per integration time;
        :func:`fringe_trace` applies its series unless given ``phi_env``
    """

    delta_l_m: float = 2.78
    visibility: float = 0.65
    p_lo_cps: float = 1e6
    p_sig_cps: float = 1e4
    integration_time_s: float = 0.1
    dark_cps: float = 0.0
    env_phase: EnvPhase = field(default_factory=EnvPhase)

    def __post_init__(self):
        for name in ("delta_l_m", "p_lo_cps", "p_sig_cps", "dark_cps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility: must be in [0, 1], got {self.visibility}")
        if self.integration_time_s <= 0:
            raise ValueError(f"integration_time_s: must be > 0, got {self.integration_time_s}")
        if not np.isfinite(self.peak_counts):
            raise ValueError(f"p_lo_cps {self.p_lo_cps:g}, p_sig_cps {self.p_sig_cps:g} and "
                             f"dark_cps {self.dark_cps:g} over integration_time_s "
                             f"{self.integration_time_s:g}: expected counts overflow")
        env = self.env_phase
        if env.kind == "locked_drift":  # the loop runs one step per integration time
            radius = lock_loop_radius(vars(env), self.integration_time_s)  # reads kp, ki, kd
            # np.roots splits a multiple root on the unit circle around it, leaving one
            # copy within rounding of the circle or outside it; 1e-9 clears that
            # rounding, and a loop that close to it takes 1e9 steps to settle
            if radius > 1.0 - 1e-9:
                raise ValueError(
                    f"env_phase: PID gains kp={env.kp:g}, ki={env.ki:g}, kd={env.kd:g} at "
                    f"integration_time_s {self.integration_time_s:g} make an unstable lock "
                    f"loop (largest pole radius {radius:.4g}, not below 1)")

    @property
    def peak_counts(self) -> float:
        """((sqrt(p_lo) + sqrt(p_sig))**2 + dark)*T, the most counts a bin expects."""
        with np.errstate(over="ignore"):
            return float((self.p_lo_cps + self.p_sig_cps + self.dark_cps + 2.0 * np.sqrt(
                self.p_lo_cps * self.p_sig_cps)) * self.integration_time_s)


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
    else:  # broadcast against the grid below
        i_t, phi_qd, amp = 1.0, 0.0, 1.0

    geometric = 2.0 * np.pi * freq_ghz * 1e9 * cfg.delta_l_m / C_M_PER_S
    coherent = 2.0 * cfg.visibility * np.sqrt(cfg.p_lo_cps * cfg.p_sig_cps) * amp
    return (cfg.p_lo_cps + cfg.p_sig_cps * i_t + cfg.dark_cps
            + coherent * np.cos(geometric + phi_env + phi_qd))


def fringe_trace(cfg: InterferometerConfig, p: EmitterParams, sweep, qd_on: bool,
                 omega_r: float = 0.0, phi_env=None) -> FringeTrace:
    """Synthesize a noiseless fringe trace over a laser sweep (GHz).

    The sweep sets the laser-emitter detuning of every point; ``omega_r`` is
    the Rabi frequency of the drive, rad/ns, and the default 0 is the
    linear-response limit.  The metadata records the ``omega_r`` applied.
    ``phi_env`` is the environmental phase, as in :func:`expected_rate`; None
    is ``cfg.env_phase``'s series.  One series passed to two traces runs one lock loop.
    """
    sweep = np.asarray(sweep, dtype=float)
    if phi_env is None:
        phi_env = cfg.env_phase.series(sweep.size, cfg.integration_time_s)
    rate = expected_rate(cfg, p, sweep, qd_on, omega_r=omega_r, phi_env=phi_env)
    counts = rate * cfg.integration_time_s
    meta = {
        "schema": SCHEMA_TRACE,
        "qd_on": bool(qd_on),
        "units": "expected_counts",
        "interferometer": {f.name: getattr(cfg, f.name) for f in fields(cfg)
                           if f.name != "env_phase"},
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
    of any longer trace that starts with the same expected counts.  numpy
    draws no mean above :data:`POISSON_MEAN_MAX` and raises ValueError there.
    """
    means = trace.intensity
    counts = np.empty_like(means)
    key = np.uint64(int(seed))  # OverflowError outside [0, 2**64)
    for block, start in enumerate(range(0, means.size, _NOISE_BLOCK)):
        bit_gen = np.random.Philox(key=key, counter=[0, block, 0, 0])
        sl = slice(start, start + _NOISE_BLOCK)
        counts[sl] = np.random.Generator(bit_gen).poisson(means[sl])
    meta = dict(trace.meta)
    meta.update({"units": "counts", "shot_noise_seed": int(seed)})
    return FringeTrace(freq=trace.freq.copy(), intensity=counts, meta=meta)


def lock_loop_impulse(gains, dt: float, n: int) -> np.ndarray:
    """h[:n], the residual of :func:`lock_loop_residual` to a unit impulse: a drift d steps
    the state x = (correction, integral, last error) to A x + b d and leaves d - c x, with
    c = (1, 0, 0), so h[m > 0] = -c A^(m-1) b; the rows c A^m for m in [k, 2k) are those
    for [0, k) times A^k, and once A^k underflows to all zeros, so do they and every later
    row.  Raises ValueError when ||h[:n]||_1, the most an n-sample drift's residual
    reaches over its amplitude, is above 10 or not finite."""
    kp, ki, kd = (float(gains.get(key, 0.0)) for key in ("kp", "ki", "kd"))
    g = kp + ki * dt + kd / dt
    rows, power = np.array([[1.0, 0.0, 0.0]]), np.array(
        [[-g, ki, -kd / dt], [-dt, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):  # gains past the pole rule overflow
        while len(rows) < n and np.count_nonzero(power):
            rows, power = np.vstack((rows, rows[:n - len(rows)] @ power)), power @ power
        h = np.zeros(n)
        h[:len(rows) + 1] = np.concatenate(([1.0], rows @ [-g, -dt, -1.0]))[:n]
        if not (gain := float(np.fmin(np.sum(np.abs(h)), np.inf))) <= 10.0:  # nan reads inf
            raise ValueError(f"PID gains kp={kp:g}, ki={ki:g}, kd={kd:g} let the lock residual "
                             f"reach {gain:.4g}x the drift (its impulse response's l1 norm > 10)")
    return h


def lock_loop_residual(drift, gains, dt: float) -> np.ndarray:
    """Residual phase left by a discrete-time PID tracking a drift series.

    Each step the controller observes the current error
    ``e = drift - correction``, updates the actuator

        correction <- kp*e + ki*integral(e dt) + kd*de/dt

    and the residual recorded for that step is ``e``.  The residual series is
    the environmental phase :func:`fringe_trace` takes: the drift convolved by
    FFT with :func:`lock_loop_impulse`, whose ValueError it raises.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    drift = np.asarray(drift, dtype=float)
    h = lock_loop_impulse(gains, dt, drift.size)
    # scaled by a power of two, exactly, so that the transforms' sums cannot overflow
    exp, size = int(np.frexp(np.max(np.abs(drift), initial=0.0))[1]), smooth_length(2 * h.size - 1)
    spectrum = np.fft.rfft(np.ldexp(drift, -exp), size) * np.fft.rfft(h, size)
    return np.ldexp(np.fft.irfft(spectrum, size)[:h.size], exp)


def lock_loop_radius(gains, dt: float) -> float:
    """Largest |pole| of the residual's recurrence in :func:`lock_loop_residual`:
    the roots of ``z^3 + (kp + ki*dt + kd/dt - 1)*z^2 - (kp + 2*kd/dt)*z + kd/dt``.
    With ``ki = 0`` its root z = 1, the integrator's, cancels the residual's zero
    there and is divided out, leaving ``z^2 + (kp + kd/dt)*z - kd/dt``.  The
    residual of any drift settles only if every pole lies inside the unit circle:
    at radius 1 (kp = 1, ki = 0, a pole at -1) it rings undamped, and a double
    pole there (kp = -1, ki = 40 at dt = 0.1) grows without bound."""
    kp, ki, kd = (float(gains.get(key, 0.0)) for key in ("kp", "ki", "kd"))
    coeffs = ([1.0, kp + kd / dt, -kd / dt] if ki == 0.0 else
              [1.0, kp + ki * dt + kd / dt - 1.0, -(kp + 2.0 * kd / dt), kd / dt])
    return float(np.max(np.abs(np.roots(coeffs))))


def _emitter_meta(p: EmitterParams) -> dict:
    return {
        "gamma": p.gamma, "gamma_dp": p.gamma_dp, "coupling": p.coupling,
        "beta": p.beta, "f0_ghz": p.f0, "phi0": p.phi0,
    }
