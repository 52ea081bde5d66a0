from __future__ import annotations

import numpy as np
import pytest

from wgphase import lm
from wgphase.emitter import EmitterParams, transmission
from wgphase.lm import fd_step, jacobian_fd, lm_minimize
from wgphase.units import detuning_angular


def fd(residual):
    """``residual`` as the ``x -> (r, J)`` callable ``lm_minimize`` takes,
    with the finite-difference Jacobian."""
    def fun(x):
        r = np.asarray(residual(x), dtype=float)
        return r, jacobian_fd(residual, x, r)
    return fun


def test_exact_linear_fit():
    x = np.linspace(0, 10, 40)
    y = 2.5 * x - 1.25

    res = lm_minimize(fd(lambda p: p[0] * x + p[1] - y), [0.0, 0.0], names=["a", "b"])
    assert res.converged
    assert res["a"] == pytest.approx(2.5, abs=1e-12)
    assert res["b"] == pytest.approx(-1.25, abs=1e-12)
    assert res.chi2 == pytest.approx(0.0, abs=1e-18)


def test_exact_sinusoid_fit():
    x = np.linspace(0, 4, 60)
    omega = 3.0
    y = 0.7 + 1.9 * np.cos(omega * x + 0.4)

    res = lm_minimize(fd(lambda p: p[0] + p[1] * np.cos(omega * x + p[2]) - y),
                      [0.5, 1.0, 0.0])
    assert res.converged
    np.testing.assert_allclose(res.params, [0.7, 1.9, 0.4], atol=1e-10)


def test_recovers_emitter_from_noiseless_spectrum():
    # single-resonance phase + intensity data generated at the second dipole's
    # fitted values; the round trip must be exact
    truth = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    freq = np.linspace(-6, 6, 61)
    t, i_t = transmission(truth, detuning_angular(freq, 0.0), 0.0)
    phase = np.angle(t) + truth.phi0

    def residual(x):
        p = EmitterParams.isotropic(gamma=x[1], beta=min(max(x[0], 0.0), 1.0),
                                    gamma_dp=max(x[2], 0.0), phi0=x[3])
        tm, im = transmission(p, detuning_angular(freq, 0.0), 0.0)
        return np.concatenate([np.angle(tm) + p.phi0 - phase, im - i_t])

    res = lm_minimize(fd(residual), [0.8, 10.0, 2.0, 0.0],
                      bounds=([0.0, 1.0, 0.0, -np.pi], [1.0, 40.0, 20.0, np.pi]),
                      names=["beta", "gamma", "gamma_dp", "phi0"])
    assert res.converged
    for name, val in (("beta", 1.0), ("gamma", 12.3), ("gamma_dp", 3.9), ("phi0", -0.25)):
        assert res[name] == pytest.approx(val, rel=1e-6)


def test_jacobian_against_five_point_stencil():
    rng = np.random.default_rng(17)
    a_mat = rng.normal(size=(7, 4))

    def fun(x):
        return a_mat @ np.array([np.sin(x[0]), x[1] ** 3, np.exp(0.3 * x[2]),
                                 x[3] * x[0]]) + x**2 @ np.ones((4, 7))

    for _ in range(5):
        x = rng.normal(size=4)
        jac = jacobian_fd(fun, x)
        steps = fd_step(x)
        five = np.empty_like(jac)
        for j in range(4):
            h = steps[j]
            shifts = []
            for mult in (-2, -1, 1, 2):
                xs = x.copy()
                xs[j] += mult * h
                shifts.append(np.asarray(fun(xs)))
            five[:, j] = (shifts[0] - 8 * shifts[1] + 8 * shifts[2] - shifts[3]) / (12 * h)
        scale = np.maximum(np.abs(five), 1.0)
        assert np.max(np.abs(jac - five) / scale) < 1e-6


def test_bounds_are_respected():
    x = np.linspace(0, 1, 20)
    y = 3.0 * x  # truth outside the box

    res = lm_minimize(fd(lambda p: p[0] * x - y), [0.5], bounds=([0.0], [2.0]))
    assert res.params[0] == pytest.approx(2.0)


def test_clipped_steps_evaluate_each_point_once():
    # the first steps run into the bound on p[0] and are re-solved for p[1];
    # each trial evaluates one point, the re-solved one, and is accepted
    x = np.linspace(0, 1, 20)
    y = 5.0 * x + 1.0
    seen = []

    def fun(p):
        seen.append(tuple(p))
        return fd(lambda q: q[0] * x + q[1] - y)(p)

    res = lm_minimize(fun, [0.0, 0.0], bounds=([None, None], [2.0, None]))
    assert res.params[0] == pytest.approx(2.0)
    assert len(seen) == len(set(seen))
    assert len(seen) == res.n_iter + 1


def test_init_outside_bounds_rejected():
    with pytest.raises(ValueError):
        lm_minimize(fd(lambda p: p), [5.0], bounds=([0.0], [1.0]))


def test_nonfinite_initial_residual_rejected():
    with pytest.raises(ValueError):
        lm_minimize(fd(lambda p: np.array([np.nan])), [1.0])


def test_max_iteration_exhaustion_flagged():
    x = np.linspace(0.1, 3, 25)
    y = np.exp(-1.7 * x) + 0.3 * np.sin(5 * x)

    res = lm_minimize(fd(lambda p: np.exp(p[0] * x) + p[1] * np.sin(p[2] * x) - y),
                      [0.5, 1.0, 1.0], max_iter=2)
    assert not res.converged
    assert "max iterations" in res.message


def test_covariance_symmetric_psd_and_scaled():
    rng = np.random.default_rng(2)
    x = np.linspace(0, 5, 80)
    sigma = 0.05
    y = 1.3 * x + 0.4 + rng.normal(0, sigma, x.size)

    res = lm_minimize(fd(lambda p: (p[0] * x + p[1] - y) / sigma), [0.0, 0.0])
    cov = res.covariance
    np.testing.assert_allclose(cov, cov.T, atol=1e-9)
    eig = np.linalg.eigvalsh(cov)
    assert np.all(eig >= -1e-9)
    # 1-sigma errors should be in the right ballpark for this noise level
    assert res.uncertainties[0] == pytest.approx(sigma * np.sqrt(12 / x.size) / 5, rel=0.5)


def test_flat_direction_diagnostic():
    res = lm_minimize(fd(lambda p: np.array([p[0] - 1.0, 2.0 * p[0] + 1.0])), [0.0, 0.5],
                      names=["used", "unused"])
    assert res.flat_directions == ["unused"]
    assert res.uncertainties[1] == 0.0 or not np.isfinite(res.uncertainties[1])


def test_singular_normal_equations_ridge_warning(monkeypatch):
    # duplicated columns with zero initial damping force the ridge path
    def residual(p):
        return np.array([p[0] + p[1] - 1.0, 2 * (p[0] + p[1]) - 2.0])

    monkeypatch.setattr(lm, "_LAMBDA_START", 0.0)
    with pytest.warns(RuntimeWarning, match="ridge"):
        res = lm_minimize(fd(residual), [0.0, 0.0])
    assert np.isfinite(res.chi2)


def test_damping_past_1e14_ends_the_search(monkeypatch):
    # a Jacobian of the wrong sign makes every step uphill; from a damping of 1e3 the
    # 37th rejected trial doubles it past 1e14, 3 trials before the limit of 40
    calls = []

    def uphill(x):
        calls.append(x.copy())
        return x.copy(), -np.eye(1)

    monkeypatch.setattr(lm, "_LAMBDA_START", 1e3)
    res = lm_minimize(uphill, [1.0])
    assert len(calls) == 1 + 37
    assert res.n_iter == 1 and res.params[0] == 1.0
    assert res.message == "no downhill step found (stationary point)"


def test_jacobian_of_zeros_leaves_every_direction_flat():
    res = lm_minimize(lambda x: (np.array([1.0, 2.0]), np.zeros((2, 2))), [0.5, 0.5],
                      names=["a", "b"])
    assert res.flat_directions == ["a", "b"]
    assert np.all(res.covariance == np.inf)
