from __future__ import annotations

import numpy as np
import pytest
from oracles import (BlochConvergenceError, bloch_oracle_integrate, input_output,
                     integrate_steady_states)

from wgphase.emitter import EmitterParams, transmission


def test_undriven_relaxes_to_ground():
    p = EmitterParams.isotropic(gamma=5.0, gamma_dp=1.0)
    rho_ee, rho_ge = bloch_oracle_integrate(p, 7.0, 0.0)
    assert rho_ee == pytest.approx(0.0, abs=1e-12)
    assert abs(rho_ge) == pytest.approx(0.0, abs=1e-12)


def test_matches_closed_form_at_half_gamma():
    # delta = 0, gamma_dp = 0, omega = gamma/2: D = 3*gamma^2/4, and an
    # isotropic beta = 1 emitter transmits t = I_t = 2/3
    p = EmitterParams.isotropic(gamma=9.4)
    rho_ee, rho_ge = bloch_oracle_integrate(p, 0.0, 4.7)
    assert rho_ee == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rho_ge.imag == pytest.approx(-1.0 / 3.0, abs=1e-9)
    t, i_t = input_output(9.4 / 2, 9.4, 4.7, rho_ee, rho_ge)
    assert t == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert i_t == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_random_draw_agreement():
    # transmission against the integrated steady state through the
    # input-output relations, both couplings, at drives that reach the
    # nonlinear terms of t and I_t
    rng = np.random.default_rng(1234)
    n = 200
    gamma = rng.uniform(1, 30, n)
    gamma_dp = rng.uniform(0, 10, n)
    omega = rng.uniform(0.5, 20, n)
    delta = rng.uniform(-50, 50, n)
    beta = rng.uniform(0, 1, n)
    rho_ee, rho_ge, converged, _ = integrate_steady_states(gamma, gamma_dp, omega, delta)
    assert converged.all()
    for coupling, s in (("isotropic", beta * gamma / 2), ("chiral", beta * gamma)):
        t_oracle, i_oracle = input_output(s, gamma, omega, rho_ee, rho_ge)
        t, i_t = map(np.array, zip(*(
            transmission(EmitterParams(gamma=g, gamma_dp=g_dp, coupling=coupling, beta=b), d, om)
            for g, g_dp, b, d, om in zip(gamma, gamma_dp, beta, delta, omega))))
        assert np.all(np.abs(t - t_oracle) <= 1e-8 * s / omega + 1e-12)
        assert np.all(np.abs(i_t - i_oracle) <= 1e-8 * s * np.abs(gamma - s) / omega**2 + 1e-12)


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
        bloch_oracle_integrate(p, 0.0, 0.5, horizon=0.5)
    assert err.value.residual > 0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        integrate_steady_states(-1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_steady_states(1.0, 0.0, 1.0, np.nan)
