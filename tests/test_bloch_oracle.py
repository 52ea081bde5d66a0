from __future__ import annotations

import numpy as np
import pytest
from oracles import BlochConvergenceError, bloch_oracle_integrate, integrate_steady_states

from wgphase.emitter import DriveState, EmitterParams, steady_state_bloch


def test_undriven_relaxes_to_ground():
    p = EmitterParams.isotropic(gamma=5.0, gamma_dp=1.0)
    ss = bloch_oracle_integrate(p, DriveState(delta=7.0, omega_r=0.0))
    assert ss.rho_ee == pytest.approx(0.0, abs=1e-12)
    assert abs(ss.rho_ge) == pytest.approx(0.0, abs=1e-12)


def test_matches_closed_form_at_half_gamma():
    p = EmitterParams.isotropic(gamma=9.4)
    ss = bloch_oracle_integrate(p, DriveState(delta=0.0, omega_r=4.7))
    assert ss.rho_ee == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert ss.rho_ge.imag == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_random_draw_agreement():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        p = EmitterParams.isotropic(gamma=rng.uniform(1, 30), gamma_dp=rng.uniform(0, 10))
        d = DriveState(delta=rng.uniform(-50, 50), omega_r=rng.uniform(0, 20))
        closed = steady_state_bloch(p, d)
        integ = bloch_oracle_integrate(p, d)
        assert integ.rho_ee == pytest.approx(closed.rho_ee, abs=1e-8)
        assert integ.rho_ge.real == pytest.approx(closed.rho_ge.real, abs=1e-8)
        assert integ.rho_ge.imag == pytest.approx(closed.rho_ge.imag, abs=1e-8)


def test_batch_agreement():
    rng = np.random.default_rng(7)
    n = 200
    gamma = rng.uniform(1, 30, n)
    gamma_dp = rng.uniform(0, 10, n)
    omega = rng.uniform(0, 20, n)
    delta = rng.uniform(-50, 50, n)
    rho_ee, rho_ge, converged, _ = integrate_steady_states(gamma, gamma_dp, omega, delta)
    assert converged.all()
    gamma2 = gamma / 2 + gamma_dp
    denom = gamma2**2 + delta**2 + 4 * (gamma2 / gamma) * omega**2
    np.testing.assert_allclose(rho_ee, 2 * gamma2 * omega**2 / (gamma * denom), atol=1e-8)
    np.testing.assert_allclose(rho_ge, -omega * (1j * gamma2 + delta) / denom, atol=1e-8)


def test_nonconvergence_reports_residual():
    p = EmitterParams.isotropic(gamma=1.0)
    with pytest.raises(BlochConvergenceError) as err:
        bloch_oracle_integrate(p, DriveState(delta=0.0, omega_r=0.5), horizon=0.5)
    assert err.value.residual > 0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        integrate_steady_states(-1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_steady_states(1.0, 0.0, 1.0, np.nan)
