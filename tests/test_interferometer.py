from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import lock_loop_reference
from wgphase.emitter import EmitterParams, transmission
from wgphase.interferometer import (EnvPhase, FringeTrace, InterferometerConfig,
                                    apply_shot_noise, expected_rate, fringe_trace,
                                    lock_loop_impulse, lock_loop_radius, lock_loop_residual)
from wgphase.units import C_M_PER_S

GAINS = {"kp": 0.6, "ki": 4.0, "kd": 0.0}


def make_cfg(**kwargs):
    defaults = dict(delta_l_m=2.78, visibility=1.0, p_lo_cps=100.0, p_sig_cps=100.0,
                    integration_time_s=0.1)
    defaults.update(kwargs)
    return InterferometerConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(visibility=1.2)
    with pytest.raises(ValueError):
        make_cfg(delta_l_m=-1.0)
    with pytest.raises(ValueError):
        make_cfg(p_lo_cps=-5.0)
    with pytest.raises(ValueError):
        make_cfg(integration_time_s=0.0)


def test_config_checks_lock_gains_and_env_phase():
    # the library record checks what the config loader checks: no run needed
    with pytest.raises(ValueError, match=r"env_phase: .*unstable"):
        InterferometerConfig(env_phase=EnvPhase(kind="locked_drift", kp=5.0))
    with pytest.raises(ValueError, match="env_phase: .*unstable"):
        InterferometerConfig(integration_time_s=0.01,
                             env_phase=EnvPhase(kind="locked_drift", kd=0.02))
    InterferometerConfig(env_phase=EnvPhase(kind="random_walk", kp=5.0))  # no loop to check
    with pytest.raises(ValueError, match="kind: unknown kind"):
        EnvPhase(kind="volcano")
    with pytest.raises(ValueError, match="sigma_rad: must be >= 0"):
        EnvPhase(sigma_rad=-1.0)


def test_trace_validation():
    with pytest.raises(ValueError):
        FringeTrace(freq=np.array([1.0, 0.5]), intensity=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FringeTrace(freq=np.array([0.0, 1.0]), intensity=np.array([1.0, -1.0]))
    for bad in (np.nan, np.inf):  # a trace the CSV reader would refuse
        with pytest.raises(ValueError, match="finite"):
            FringeTrace(freq=np.array([0.0, 1.0]), intensity=np.array([1.0, bad]))


def test_ideal_two_beam_span_and_period():
    cfg = make_cfg()
    freq = np.linspace(-15, 15, 12001)
    trace = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4), freq, qd_on=False)
    rates = trace.intensity / cfg.integration_time_s
    assert rates.min() == pytest.approx(0.0, abs=1e-2)
    assert rates.max() == pytest.approx(400.0, abs=1e-2)
    period = C_M_PER_S / cfg.delta_l_m / 1e9
    assert period == pytest.approx(0.1078, abs=2e-4)  # ~107.8 MHz
    shifted = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4), freq + period, qd_on=False)
    np.testing.assert_allclose(shifted.intensity, trace.intensity, rtol=0, atol=1e-6)


def test_sin_squared_shape_recovered():
    # v = 1, p_lo = p_sig, t = 1, phi0 = 0: counts = offset + scale*sin^2(dphi/2)
    cfg = make_cfg()
    freq = np.linspace(-3, 3, 4001)
    trace = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4, phi0=0.0), freq, qd_on=False)
    dphi = 2 * np.pi * freq * 1e9 * cfg.delta_l_m / C_M_PER_S
    scale = 4 * cfg.p_lo_cps * cfg.integration_time_s
    model = scale - scale * np.sin(dphi / 2) ** 2
    np.testing.assert_allclose(trace.intensity, model, atol=1e-12 * scale)


def test_contrast_collapses_at_extinction():
    # ideal isotropic emitter at resonance: |t| = 0, oscillating term vanishes
    p = EmitterParams.isotropic(gamma=12.3, beta=1.0)
    cfg = make_cfg(p_lo_cps=1e6, p_sig_cps=1e4, visibility=0.65)
    rate = expected_rate(cfg, p, np.array([1e-9]), qd_on=True)
    t, i_t = transmission(p, 2 * np.pi * 1e-9, 0.0)
    assert rate[0] == pytest.approx(cfg.p_lo_cps + cfg.p_sig_cps * i_t, rel=1e-9)


def test_fringe_envelope_matches_abs_t():
    # local fringe amplitude on/off ratio equals |t(f)| pointwise; the
    # amplitude at fixed f is read out exactly from two quadrature samples
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    cfg = make_cfg(p_lo_cps=1e6, p_sig_cps=1e4, visibility=0.65)
    freq = np.linspace(-4, 4, 101)
    quad = np.full(freq.size, -np.pi / 2)
    amps = {}
    for qd_on in (True, False):
        r0 = expected_rate(cfg, p, freq, qd_on=qd_on, phi_env=np.zeros(freq.size))
        r90 = expected_rate(cfg, p, freq, qd_on=qd_on, phi_env=quad)
        t, i_t = (transmission(p, 2 * np.pi * freq, 0.0) if qd_on
                  else (np.ones(freq.size), np.ones(freq.size)))
        bg = cfg.p_lo_cps + cfg.p_sig_cps * i_t
        amps[qd_on] = np.hypot(r0 - bg, r90 - bg)
    t_on, _ = transmission(p, 2 * np.pi * freq, 0.0)
    np.testing.assert_allclose(amps[True] / amps[False], np.abs(t_on), atol=1e-9)


def test_phase_additivity():
    p = EmitterParams.isotropic(gamma=12.3, beta=0.9, phi0=-0.25)
    freq = np.linspace(-2, 2, 2001)
    base = expected_rate(make_cfg(), p, freq, qd_on=True)
    shifted = expected_rate(make_cfg(), p, freq, qd_on=True, phi_env=0.7)
    # a scalar is the same phase at every point
    ref = expected_rate(make_cfg(), p, freq, qd_on=True, phi_env=np.full(freq.size, 0.7))
    np.testing.assert_array_equal(shifted, ref)
    assert not np.allclose(shifted, base)


def test_fringe_trace_applies_the_records_env_phase():
    # phi_env=None is the series of cfg.env_phase; an explicit phi_env wins
    p = EmitterParams.isotropic(gamma=12.3, beta=0.9, phi0=-0.25)
    freq = np.linspace(-2, 2, 5)
    cfg = make_cfg(env_phase=EnvPhase(value_rad=0.3))
    for qd_on in (True, False):
        got = fringe_trace(cfg, p, freq, qd_on=qd_on)
        want = fringe_trace(make_cfg(), p, freq, qd_on=qd_on, phi_env=0.3)
        np.testing.assert_array_equal(got.intensity, want.intensity)
        assert not np.array_equal(got.intensity,
                                  fringe_trace(make_cfg(), p, freq, qd_on=qd_on).intensity)
        np.testing.assert_array_equal(
            fringe_trace(cfg, p, freq, qd_on=qd_on, phi_env=0.0).intensity,
            fringe_trace(make_cfg(), p, freq, qd_on=qd_on).intensity)
    drift = make_cfg(env_phase=EnvPhase(kind="locked_drift", seed=2))
    np.testing.assert_array_equal(
        fringe_trace(drift, p, freq, qd_on=True).intensity,
        fringe_trace(drift, p, freq, qd_on=True,
                     phi_env=drift.env_phase.series(freq.size, 0.1)).intensity)


def test_env_phase_models():
    assert np.all(EnvPhase(value_rad=0.3).series(5, 0.1) == 0.3)
    walk = EnvPhase(kind="random_walk", sigma_rad=0.1, seed=3)
    np.testing.assert_array_equal(walk.series(100, 0.1), walk.series(100, 0.1))
    sin = EnvPhase(kind="sinusoid", amplitude_rad=0.5, frequency_hz=1.0).series(11, 0.1)
    assert sin[0] == pytest.approx(0.0)
    assert np.max(np.abs(sin)) <= 0.5 + 1e-12


# sha256 of the float64 bytes of each kind's series (257 samples, dt 0.1 s),
# as the per-kind phase classes this block replaced generated them; the
# locked_drift series is the FFT convolution's, at most 5.5e-16 rad from the
# step-by-step loop, which still gives the loop's old pin
_SERIES_SHA256 = {
    "constant": "702bf2b4c270242ed3e525eb04b1ffdf8b8b14e2ab5378eaa3e5e555c355b1c3",
    "random_walk": "e9e08d71c0d5b91d36e7625c20d08ea892e6e7facf5df6c2579d51d78772906c",
    "sinusoid": "12613b1abf8bf45045732013cca3abb619303f81bda4a5868d934da2b5cfe2d3",
    "locked_drift": "d6d32ebda4c63bc092a582237b1c289a662b08b3806e1be6e865b2a64c5379b4",
}
_LOOP_SHA256 = "72c7912124126ed60a22388b4f1ca487982496b3cbd639ef12caa36f116bf651"


@pytest.mark.parametrize("kind", sorted(_SERIES_SHA256))
def test_env_phase_series_bytes_pinned(kind):
    block = EnvPhase(kind=kind, value_rad=0.3, sigma_rad=0.05, amplitude_rad=0.4,
                     frequency_hz=0.7, kp=0.5, ki=3.0, kd=0.005, seed=5)
    series = block.series(257, 0.1)
    assert hashlib.sha256(series.tobytes()).hexdigest() == _SERIES_SHA256[kind]


def test_lock_loop_oracle_keeps_the_loops_pin():
    # the oracle is the loop the convolution replaced, its arithmetic unchanged
    walk = EnvPhase(kind="random_walk", sigma_rad=0.05, seed=5).series(257, 0.1)
    loop = lock_loop_reference(walk, {"kp": 0.5, "ki": 3.0, "kd": 0.005}, 0.1)
    assert hashlib.sha256(loop.tobytes()).hexdigest() == _LOOP_SHA256
    locked = EnvPhase(kind="locked_drift", sigma_rad=0.05, kp=0.5, ki=3.0, kd=0.005, seed=5)
    np.testing.assert_allclose(locked.series(257, 0.1), loop, rtol=0, atol=1e-15)


def test_shot_noise_zero_rate():
    trace = FringeTrace(freq=np.arange(5.0), intensity=np.zeros(5))
    noisy = apply_shot_noise(trace, seed=1)
    assert np.all(noisy.intensity == 0)


def test_shot_noise_deterministic():
    cfg = make_cfg(p_lo_cps=1e6, p_sig_cps=1e4)
    freq = np.linspace(-1, 1, 400)
    trace = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4), freq, qd_on=False)
    a = apply_shot_noise(trace, seed=42)
    b = apply_shot_noise(trace, seed=42)
    c = apply_shot_noise(trace, seed=43)
    np.testing.assert_array_equal(a.intensity, b.intensity)
    assert not np.array_equal(a.intensity, c.intensity)
    assert a.meta["shot_noise_seed"] == 42


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_shot_noise_seed_outside_key_range_raises(seed):
    # a Philox key holds 64 bits; such a seed was folded onto one inside the range
    trace = FringeTrace(freq=np.arange(3.0), intensity=np.full(3, 5.0))
    with pytest.raises(OverflowError):
        apply_shot_noise(trace, seed=seed)


def test_shot_noise_relative_spread():
    # mean 1e6 counts: relative std ~ 1e-3 across bins
    trace = FringeTrace(freq=np.arange(4000.0), intensity=np.full(4000, 1e6))
    noisy = apply_shot_noise(trace, seed=9)
    rel = np.std(noisy.intensity) / 1e6
    assert rel == pytest.approx(1e-3, rel=0.15)


def test_shot_noise_preserves_mean():
    # ensemble over seeds stays within 3 sigma of the expected count per bin
    means = np.array([50.0, 400.0, 3e3, 2e4, 1e5])
    trace = FringeTrace(freq=np.arange(5.0), intensity=means)
    n_seeds = 10_000
    acc = np.zeros_like(means)
    for seed in range(n_seeds):
        acc += apply_shot_noise(trace, seed=seed).intensity
    avg = acc / n_seeds
    tol = 3 * np.sqrt(means / n_seeds)
    assert np.all(np.abs(avg - means) <= tol)


def test_shot_noise_neighbouring_bins_uncorrelated():
    # each bin's draw must come from random words no neighbour reuses; two
    # neighbours reading one stream a Philox block apart give a lag-1
    # correlation of ~0.1 at mean 3, 20x the bound
    n = 40_000
    for mean in (3.0, 1e5):
        trace = FringeTrace(freq=np.arange(float(n)), intensity=np.full(n, mean))
        for seed in (1, 2):
            z = (apply_shot_noise(trace, seed=seed).intensity - mean) / np.sqrt(mean)
            lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
            assert abs(lag1) <= 4 / np.sqrt(n), (mean, seed, lag1)


def test_shot_noise_prefix_stable_across_block_boundary():
    # a bin's draw never depends on a later bin, so a shorter trace draws a
    # prefix of a longer one, also past the first block of bins
    cfg = make_cfg(p_lo_cps=1e4, p_sig_cps=1e3)
    freq = np.linspace(-5, 5, 3000)
    long = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4), freq, qd_on=True)
    short = FringeTrace(freq=long.freq[:1500], intensity=long.intensity[:1500])
    np.testing.assert_array_equal(apply_shot_noise(short, seed=5).intensity,
                                  apply_shot_noise(long, seed=5).intensity[:1500])


def test_lock_zero_drift():
    res = lock_loop_residual(np.zeros(500), GAINS, dt=0.1)
    assert np.all(res == 0)


def test_lock_step_drift_integral_action():
    drift = np.ones(4000)
    res = lock_loop_residual(drift, GAINS, dt=0.1)
    assert abs(res[-1]) < 1e-10


def test_lock_slow_sinusoid_attenuation():
    # 0.01 Hz drift sampled at 10 Hz with the default gains; the attenuation
    # level is frozen from a reference run of this configuration
    t = np.arange(5000) * 0.1
    drift = 0.5 * np.sin(2 * np.pi * 0.01 * t)
    res = lock_loop_residual(drift, GAINS, dt=0.1)
    atten = np.max(np.abs(res[1000:])) / 0.5
    assert atten < 0.10
    assert atten == pytest.approx(0.0157, abs=0.002)


def test_lock_unstable_gains_detected():
    drift = np.ones(2000)
    with pytest.raises(ValueError, match=r"PID gains kp=25, ki=0, kd=0 .* reach infx the drift"):
        lock_loop_residual(drift, {"kp": 25.0, "ki": 0.0, "kd": 0.0}, dt=0.1)


def _impulse(n):
    impulse = np.zeros(n)
    impulse[0] = 1.0
    return impulse


def _oracle_gain(gains, dt, n):
    """||h[:n]||_1 of the oracle loop's own impulse response; inf once it overflows."""
    h = np.abs(lock_loop_reference(_impulse(n), gains, dt))
    return float(np.sum(h)) if np.all(np.isfinite(h)) else np.inf


@pytest.mark.parametrize("gains", [GAINS, {"kp": 0.3, "ki": 2.0, "kd": 0.01},
                                   {"kp": 25.0, "ki": 0.0, "kd": 0.0}])
def test_lock_loop_matches_scalar_reference(gains):
    # the convolution agrees with the step-by-step loop to rounding of the
    # transforms; gains whose residual can pass 10x the drift are refused,
    # and the loop's own residual of this walk does pass it
    drift = np.cumsum(np.random.default_rng(4).normal(0.0, 0.05, 3000))
    want, amplitude = lock_loop_reference(drift, gains, 0.1), np.max(np.abs(drift))
    gain = _oracle_gain(gains, 0.1, drift.size)
    if gain > 10.0:
        with pytest.raises(ValueError, match=f"PID gains kp={gains['kp']:g}, "):
            lock_loop_residual(drift, gains, dt=0.1)
        assert not np.all(np.abs(want) <= 10.0 * amplitude)
    else:
        np.testing.assert_allclose(lock_loop_residual(drift, gains, dt=0.1), want, rtol=0,
                                   atol=1e-12 * gain * amplitude)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(kp=st.floats(-1.5, 2.5), ki=st.floats(0.0, 20.0), kd=st.sampled_from([0.0, 0.002, 0.03]),
       dt=st.sampled_from([0.01, 0.1, 0.5]), n=st.integers(1, 600), seed=st.integers(0, 2**16))
def test_lock_loop_residual_matches_the_oracle_loop(kp, ki, kd, dt, n, seed):
    # over stable gains, the FFT convolution is the step-by-step loop within
    # 1e-12 of the bound ||h[:n]||_1 * max|drift|, the norm taken from the
    # oracle's own impulse response; past 10 the gains are refused instead
    gains = {"kp": kp, "ki": ki, "kd": kd}
    assume(lock_loop_radius(gains, dt) < 1.0 - 1e-9)
    gain = _oracle_gain(gains, dt, n)
    assume(abs(gain - 10.0) > 1e-9)  # the two sums of |h| round apart at the edge
    drift = np.cumsum(np.random.default_rng(seed).normal(0.0, 0.05, n))
    if gain > 10.0:
        with pytest.raises(ValueError, match=f"PID gains kp={kp:g}, ki={ki:g}, kd={kd:g} "):
            lock_loop_residual(drift, gains, dt)
        return
    want = lock_loop_reference(drift, gains, dt)
    np.testing.assert_allclose(lock_loop_residual(drift, gains, dt), want, rtol=0,
                               atol=1e-12 * gain * np.max(np.abs(drift)))
    np.testing.assert_allclose(np.sum(np.abs(lock_loop_impulse(gains, dt, n))), gain, rtol=1e-12)


def test_lock_loop_residual_scales_exactly_without_overflow():
    # the drift is scaled by a power of two before its transform, so a walk
    # near the float ceiling has the residual of a small walk, scaled, and no
    # sum of the transforms overflows
    drift = np.cumsum(np.random.default_rng(8).normal(0.0, 0.05, 4501))
    small = lock_loop_residual(drift, GAINS, 0.1)
    np.testing.assert_array_equal(lock_loop_residual(np.ldexp(drift, 1015), GAINS, 0.1),
                                  np.ldexp(small, 1015))
    np.testing.assert_array_equal(lock_loop_residual(np.zeros(0), GAINS, 0.1), np.zeros(0))


def test_lock_loop_gain_bounds_every_drift():
    # ||h[:n]||_1 is the most the residual reaches over the drift's amplitude,
    # and the drift sign(h) reversed in time reaches it at the last step
    gains, n = {"kp": -0.814, "ki": 0.01}, 4501
    h = lock_loop_impulse(gains, 0.1, n)
    gain = np.sum(np.abs(h))
    assert 9.9 < gain <= 10.0
    worst = lock_loop_residual(np.sign(h)[::-1], gains, 0.1)
    assert worst[-1] == pytest.approx(gain, rel=1e-12)
    assert np.max(np.abs(worst)) <= gain * (1.0 + 1e-12)
    with pytest.raises(ValueError, match=r"kp=-0\.99, ki=0\.01, kd=0 .* reach 127\.6x the drift"):
        lock_loop_impulse({"kp": -0.99, "ki": 0.01}, 0.1, n)
    # the bound grows with the length of the drift: the same gains pass at 10 samples
    assert np.sum(np.abs(lock_loop_impulse({"kp": -0.99, "ki": 0.01}, 0.1, 10))) < 10.0


def test_lock_loop_radius_matches_impulse_response():
    # a seeded draw of gain sets, a quarter with ki = 0 (the integrator's pole
    # at z = 1, divided out); the loop's response to a unit impulse either
    # blows up (passes 10) or decays, and the load rule on the pole radius
    # must say which.  A set within reach of the unit circle does neither in
    # 3000 steps and is left out
    rng = np.random.default_rng(17)
    verdicts = set()
    for k in range(120):
        dt = float(rng.choice([0.01, 0.1, 0.5]))
        gains = {"kp": rng.uniform(0.0, 2.5), "ki": 0.0 if k % 4 == 0 else rng.uniform(0.0, 10.0),
                 "kd": rng.uniform(0.0, 0.05) if k % 3 == 0 else 0.0}
        residual = np.abs(lock_loop_reference(_impulse(3000), gains, dt))
        blew_up = not np.all(residual <= 10.0)
        if not blew_up and np.max(residual[-200:]) >= 1e-9:
            continue
        assert (lock_loop_radius(gains, dt) > 1.0 - 1e-9) == blew_up, (gains, dt)
        verdicts.add((blew_up, gains["ki"] == 0.0))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}
    assert lock_loop_radius(GAINS, 0.1) == pytest.approx(0.7746, abs=1e-4)


@pytest.mark.parametrize("gains, radius, residual", [
    ({"kp": -1.0, "ki": 40.0}, 1.0, "grows"),    # z*(z + 1)**2
    ({"kp": 1.0, "ki": 0.0}, 1.0, "rings"),      # z*(z + 1), once z = 1 is divided out
    ({"kp": 0.5, "ki": 0.0}, 0.5, "settles"),    # z*(z + 0.5)
    ({"kp": 0.0, "ki": 0.0}, 0.0, "settles"),    # no loop: the residual is the drift
])
def test_lock_loop_on_the_unit_circle_is_refused(gains, radius, residual):
    assert lock_loop_radius(gains, 0.1) == radius
    env = EnvPhase(kind="locked_drift", **gains)
    if residual == "settles":
        InterferometerConfig(env_phase=env)
    else:
        with pytest.raises(ValueError, match=r"env_phase: .*unstable lock loop .*not below 1"):
            InterferometerConfig(env_phase=env)
    # a unit impulse's residual grows past 10, rings undamped or settles; the
    # library refuses the first two, whose impulse responses sum past 10
    impulse = _impulse(400)
    if residual == "settles":
        tail = np.abs(lock_loop_residual(impulse, gains, 0.1)[-100:])
        assert np.max(tail) < 1e-12
        return
    with pytest.raises(ValueError, match=f"PID gains kp={gains['kp']:g}, "):
        lock_loop_residual(impulse, gains, 0.1)
    tail = np.abs(lock_loop_reference(impulse, gains, 0.1)[-100:])
    assert (np.min(tail) == 1.0) if residual == "rings" else (np.min(tail) > 10.0)


def test_lock_residual_feeds_fringe_trace():
    drift = 0.3 * np.sin(2 * np.pi * 0.01 * np.arange(2001) * 0.1)
    res = lock_loop_residual(drift, GAINS, dt=0.1)
    cfg = make_cfg()
    p = EmitterParams.isotropic(gamma=9.4)
    freq = np.linspace(-1, 1, 2001)
    rate = expected_rate(cfg, p, freq, qd_on=False, phi_env=res)
    assert np.all(np.isfinite(rate))


def test_fringe_trace_rejects_bad_grid():
    cfg = make_cfg()
    p = EmitterParams.isotropic(gamma=9.4)
    with pytest.raises(ValueError):
        fringe_trace(cfg, p, np.array([0.0, np.nan, 1.0]), qd_on=False)
    with pytest.raises(ValueError):
        fringe_trace(cfg, p, np.array([]), qd_on=False)
    with pytest.raises(ValueError):
        fringe_trace(cfg, p, np.array([0.0, 1.0, 0.5]), qd_on=False)


def test_impulse_response_of_a_long_sweep_is_a_short_one_padded_with_zeros():
    # the default gains' power A^4096 underflows to zeros, so no row is formed past it:
    # h[:10**6] is h[:4501] followed by zeros, bit for bit
    short = lock_loop_impulse(GAINS, 0.1, 4501)
    long = lock_loop_impulse(GAINS, 0.1, 10**6)
    assert np.flatnonzero(short).max() < 4000
    assert long.tobytes() == np.concatenate((short, np.zeros(long.size - short.size))).tobytes()
