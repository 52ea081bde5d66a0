from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from wgphase.emitter import EmitterParams, transmission
from wgphase.config import EnvPhaseBlock
from wgphase.interferometer import (FringeTrace, InterferometerConfig, UnstableLoopError,
                                    apply_shot_noise, expected_rate, fringe_trace,
                                    lock_loop_radius, lock_loop_residual)
from wgphase.units import C_M_PER_S

GAINS = {"kp": 0.6, "ki": 4.0, "kd": 0.0}


def make_cfg(**kwargs):
    defaults = dict(delta_l=2.78, visibility=1.0, p_lo=100.0, p_sig=100.0,
                    integration_time=0.1)
    defaults.update(kwargs)
    return InterferometerConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(visibility=1.2)
    with pytest.raises(ValueError):
        make_cfg(delta_l=-1.0)
    with pytest.raises(ValueError):
        make_cfg(p_lo=-5.0)
    with pytest.raises(ValueError):
        make_cfg(integration_time=0.0)


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
    rates = trace.intensity / cfg.integration_time
    assert rates.min() == pytest.approx(0.0, abs=1e-2)
    assert rates.max() == pytest.approx(400.0, abs=1e-2)
    period = C_M_PER_S / cfg.delta_l / 1e9
    assert period == pytest.approx(0.1078, abs=2e-4)  # ~107.8 MHz
    shifted = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4), freq + period, qd_on=False)
    np.testing.assert_allclose(shifted.intensity, trace.intensity, rtol=0, atol=1e-6)


def test_sin_squared_shape_recovered():
    # v = 1, p_lo = p_sig, t = 1, phi0 = 0: counts = offset + scale*sin^2(dphi/2)
    cfg = make_cfg()
    freq = np.linspace(-3, 3, 4001)
    trace = fringe_trace(cfg, EmitterParams.isotropic(gamma=9.4, phi0=0.0), freq, qd_on=False)
    dphi = 2 * np.pi * freq * 1e9 * cfg.delta_l / C_M_PER_S
    scale = 4 * cfg.p_lo * cfg.integration_time
    model = scale - scale * np.sin(dphi / 2) ** 2
    np.testing.assert_allclose(trace.intensity, model, atol=1e-12 * scale)


def test_contrast_collapses_at_extinction():
    # ideal isotropic emitter at resonance: |t| = 0, oscillating term vanishes
    p = EmitterParams.isotropic(gamma=12.3, beta=1.0)
    cfg = make_cfg(p_lo=1e6, p_sig=1e4, visibility=0.65)
    rate = expected_rate(cfg, p, np.array([1e-9]), qd_on=True)
    t, i_t = transmission(p, 2 * np.pi * 1e-9, 0.0)
    assert rate[0] == pytest.approx(cfg.p_lo + cfg.p_sig * i_t, rel=1e-9)


def test_fringe_envelope_matches_abs_t():
    # local fringe amplitude on/off ratio equals |t(f)| pointwise; the
    # amplitude at fixed f is read out exactly from two quadrature samples
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    cfg = make_cfg(p_lo=1e6, p_sig=1e4, visibility=0.65)
    freq = np.linspace(-4, 4, 101)
    quad = np.full(freq.size, -np.pi / 2)
    amps = {}
    for qd_on in (True, False):
        r0 = expected_rate(cfg, p, freq, qd_on=qd_on, phi_env=np.zeros(freq.size))
        r90 = expected_rate(cfg, p, freq, qd_on=qd_on, phi_env=quad)
        t, i_t = (transmission(p, 2 * np.pi * freq, 0.0) if qd_on
                  else (np.ones(freq.size), np.ones(freq.size)))
        bg = cfg.p_lo + cfg.p_sig * i_t
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


def test_env_phase_models():
    assert np.all(EnvPhaseBlock(value_rad=0.3).series(5, 0.1) == 0.3)
    walk = EnvPhaseBlock(kind="random_walk", sigma_rad=0.1, seed=3)
    np.testing.assert_array_equal(walk.series(100, 0.1), walk.series(100, 0.1))
    sin = EnvPhaseBlock(kind="sinusoid", amplitude_rad=0.5, frequency_hz=1.0).series(11, 0.1)
    assert sin[0] == pytest.approx(0.0)
    assert np.max(np.abs(sin)) <= 0.5 + 1e-12


# sha256 of the float64 bytes of each kind's series (257 samples, dt 0.1 s),
# as the per-kind phase classes this block replaced generated them
_SERIES_SHA256 = {
    "constant": "702bf2b4c270242ed3e525eb04b1ffdf8b8b14e2ab5378eaa3e5e555c355b1c3",
    "random_walk": "e9e08d71c0d5b91d36e7625c20d08ea892e6e7facf5df6c2579d51d78772906c",
    "sinusoid": "12613b1abf8bf45045732013cca3abb619303f81bda4a5868d934da2b5cfe2d3",
    "locked_drift": "72c7912124126ed60a22388b4f1ca487982496b3cbd639ef12caa36f116bf651",
}


@pytest.mark.parametrize("kind", sorted(_SERIES_SHA256))
def test_env_phase_series_bytes_pinned(kind):
    block = EnvPhaseBlock(kind=kind, value_rad=0.3, sigma_rad=0.05, amplitude_rad=0.4,
                          frequency_hz=0.7, kp=0.5, ki=3.0, kd=0.005, seed=5)
    series = block.series(257, 0.1)
    assert hashlib.sha256(series.tobytes()).hexdigest() == _SERIES_SHA256[kind]


def test_shot_noise_zero_rate():
    trace = FringeTrace(freq=np.arange(5.0), intensity=np.zeros(5))
    noisy = apply_shot_noise(trace, seed=1)
    assert np.all(noisy.intensity == 0)


def test_shot_noise_deterministic():
    cfg = make_cfg(p_lo=1e6, p_sig=1e4)
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
    cfg = make_cfg(p_lo=1e4, p_sig=1e3)
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
    with pytest.raises(UnstableLoopError):
        lock_loop_residual(drift, {"kp": 25.0, "ki": 0.0, "kd": 0.0}, dt=0.1)


def _lock_loop_reference(drift, gains, dt):
    # the loop over numpy scalars that lock_loop_residual replaced; same IEEE steps
    kp, ki, kd = gains["kp"], gains["ki"], gains["kd"]
    limit = 10.0 * np.max(np.abs(drift))
    residual = np.empty_like(drift)
    correction = integral = prev_err = 0.0
    for i, value in enumerate(drift):
        err = value - correction
        residual[i] = err
        if abs(err) > limit:
            raise UnstableLoopError(
                f"lock residual {err:.3g} rad exceeded 10x drift amplitude "
                f"{limit / 10.0:.3g} rad at step {i} (unstable gains?)")
        integral += err * dt
        correction = kp * err + ki * integral + kd * ((err - prev_err) / dt)
        prev_err = err
    return residual


@pytest.mark.parametrize("gains", [GAINS, {"kp": 0.3, "ki": 2.0, "kd": 0.01},
                                   {"kp": 25.0, "ki": 0.0, "kd": 0.0}])
def test_lock_loop_matches_scalar_reference(gains):
    drift = np.cumsum(np.random.default_rng(4).normal(0.0, 0.05, 3000))
    try:
        want = _lock_loop_reference(drift, gains, 0.1)
    except UnstableLoopError as exc:
        with pytest.raises(UnstableLoopError, match=re.escape(str(exc))):
            lock_loop_residual(drift, gains, dt=0.1)
    else:
        assert lock_loop_residual(drift, gains, dt=0.1).tobytes() == want.tobytes()


def test_lock_loop_radius_matches_impulse_response():
    # a seeded draw of gain sets, a quarter with ki = 0 (a spurious pole at
    # exactly z = 1); the loop's response to a unit impulse either blows up
    # (UnstableLoopError) or decays, and the pole radius must say which.  A
    # set within reach of the unit circle does neither in 3000 steps and is
    # left out
    rng = np.random.default_rng(17)
    impulse = np.zeros(3000)
    impulse[0] = 1.0
    verdicts = set()
    for k in range(120):
        dt = float(rng.choice([0.01, 0.1, 0.5]))
        gains = {"kp": rng.uniform(0.0, 2.5), "ki": 0.0 if k % 4 == 0 else rng.uniform(0.0, 10.0),
                 "kd": rng.uniform(0.0, 0.05) if k % 3 == 0 else 0.0}
        try:
            decayed = np.max(np.abs(lock_loop_residual(impulse, gains, dt)[-200:])) < 1e-9
        except UnstableLoopError:
            blew_up = True
        else:
            if not decayed:
                continue
            blew_up = False
        assert (lock_loop_radius(gains, dt) > 1.0 + 1e-9) == blew_up, (gains, dt)
        verdicts.add((blew_up, gains["ki"] == 0.0))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}
    assert lock_loop_radius(GAINS, 0.1) == pytest.approx(0.7746, abs=1e-4)


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
