from __future__ import annotations

import numpy as np
import pytest

from wgphase import emitter
from wgphase.emitter import (EmitterParams, chiral_thresholds, critical_photon_flux,
                             phase_extrema_analytic, phase_extrema_numeric, transmission)


def test_params_validation():
    with pytest.raises(ValueError):
        EmitterParams(gamma=0.0)
    with pytest.raises(ValueError):
        EmitterParams(gamma=1.0, gamma_dp=-0.1)
    with pytest.raises(ValueError):
        EmitterParams(gamma=1.0, beta=1.2)
    with pytest.raises(ValueError):
        EmitterParams(gamma=np.nan)
    with pytest.raises(ValueError):
        EmitterParams(gamma=1.0, coupling="sideways")
    p = EmitterParams(gamma=2.0, gamma_dp=0.5)
    assert p.gamma2 == pytest.approx(1.5)


def test_half_gamma_drive_transmission():
    # delta = 0, gamma_dp = 0, omega_r = gamma/2: D = 3*gamma^2/4, so an
    # isotropic beta = 1 emitter transmits t = I_t = 1 - 1/3
    p = EmitterParams.isotropic(gamma=9.4)
    t, i_t = transmission(p, 0.0, 4.7)
    assert t == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert i_t == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_resonant_extinction():
    p = EmitterParams.isotropic(gamma=9.4, beta=1.0)
    t, i_t = transmission(p, 0.0)
    assert t == pytest.approx(0.0, abs=1e-15)
    assert i_t == pytest.approx(0.0, abs=1e-15)


def test_half_linewidth_transmission():
    p = EmitterParams.isotropic(gamma=9.4, beta=1.0)
    t, i_t = transmission(p, 4.7)
    assert t == pytest.approx((1 - 1j) / 2, abs=1e-14)
    assert np.angle(t) == pytest.approx(-np.pi / 4, abs=1e-14)
    assert i_t == pytest.approx(0.5, abs=1e-14)
    assert i_t == pytest.approx(abs(t) ** 2, abs=1e-14)


def test_ideal_chiral_resonance():
    p = EmitterParams.chiral(gamma=9.4, beta_dir=1.0)
    t, i_t = transmission(p, 0.0)
    assert t == pytest.approx(-1.0, abs=1e-15)
    assert np.angle(t) == pytest.approx(np.pi)
    assert i_t == pytest.approx(1.0, abs=1e-15)


def test_chiral_isotropic_correspondence():
    # beta_dir = 1/2 coincides with isotropic beta = 1 at every drive point
    rng = np.random.default_rng(5)
    for _ in range(200):
        gamma = rng.uniform(1, 30)
        gamma_dp = rng.uniform(0, 10)
        omega = rng.uniform(0, 20)
        delta = rng.uniform(-50, 50)
        chi = EmitterParams.chiral(gamma=gamma, beta_dir=0.5, gamma_dp=gamma_dp)
        iso = EmitterParams.isotropic(gamma=gamma, beta=1.0, gamma_dp=gamma_dp)
        tc, ic = transmission(chi, delta, omega)
        ti, ii = transmission(iso, delta, omega)
        assert tc == pytest.approx(ti, abs=1e-12)
        assert ic == pytest.approx(ii, abs=1e-12)


def test_detuning_symmetry():
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=0.9)
    delta = np.linspace(0.1, 60, 200)
    t_pos, i_pos = transmission(p, delta, 2.0)
    t_neg, i_neg = transmission(p, -delta, 2.0)
    np.testing.assert_allclose(np.angle(t_pos), -np.angle(t_neg), atol=1e-14)
    np.testing.assert_allclose(i_pos, i_neg, atol=1e-14)


def test_high_power_transparency():
    for p in (EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9),
              EmitterParams.chiral(gamma=12.3, beta_dir=0.8)):
        t, i_t = transmission(p, 0.0, 1e7)
        assert t == pytest.approx(1.0, abs=1e-9)
        assert i_t == pytest.approx(1.0, abs=1e-9)


def test_coherent_scattering_equality():
    # gamma_dp = 0, omega -> 0: transmitted light is fully coherent
    delta = np.linspace(-80, 80, 401)
    for p in (EmitterParams.isotropic(gamma=9.4, beta=0.94),
              EmitterParams.chiral(gamma=9.4, beta_dir=0.7)):
        t, i_t = transmission(p, delta, 1e-6 * p.gamma)
        assert np.max(np.abs(i_t - np.abs(t) ** 2)) <= 1e-9


def test_incoherent_excess_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(500):
        kwargs = dict(gamma=rng.uniform(1, 30), gamma_dp=rng.uniform(0, 10))
        p = (EmitterParams.isotropic(beta=rng.uniform(0, 1), **kwargs)
             if rng.uniform() < 0.5 else
             EmitterParams.chiral(beta_dir=rng.uniform(0, 1), **kwargs))
        t, i_t = transmission(p, rng.uniform(-50, 50), rng.uniform(0, 20))
        assert i_t - abs(t) ** 2 >= -1e-12


def test_analytic_extrema_zero_coupling():
    ext = phase_extrema_analytic(EmitterParams.isotropic(gamma=9.4, beta=0.0))
    assert ext.phi_max == 0.0


def test_analytic_extrema_unit_beta_limit():
    ext = phase_extrema_analytic(EmitterParams.isotropic(gamma=9.4, beta=1.0))
    assert ext.phi_max == pytest.approx(np.pi / 2)
    assert ext.delta_plus == 0.0


def test_analytic_extrema_reference_point():
    # beta = 0.94, gamma = 9.4: closed form evaluated by hand
    ext = phase_extrema_analytic(EmitterParams.isotropic(gamma=9.4, beta=0.94))
    assert ext.delta_plus == pytest.approx(1.1512601791080943, abs=1e-12)
    assert ext.delta_minus == pytest.approx(-1.1512601791080943, abs=1e-12)
    assert ext.phi_max == pytest.approx(1.0903580550443291, abs=1e-12)


def _extremum_c(p, omega_r):
    """(s, c, rounding): c = gamma2*(gamma2 - s) + W and its rounding error."""
    s = p.beta * p.gamma if p.is_chiral else p.beta * p.gamma / 2
    w = 4 * (p.gamma2 / p.gamma) * omega_r**2
    scale = p.gamma2**2 + s * p.gamma2 + w
    return s, p.gamma2 * (p.gamma2 - s) + w, 16 * np.finfo(float).eps * scale


def test_analytic_extrema_domain():
    # closed form vs the direct-search oracle over the whole domain: both
    # couplings, dephasing up to 10*gamma, drive deep into saturation, beta = 0,
    # and draws placed exactly on a switching threshold (c = 0)
    rng = np.random.default_rng(20261018)
    cases = [(EmitterParams.chiral(gamma=0.93, beta_dir=0.77), 12.5)]
    while len(cases) < 3000:
        gamma = rng.uniform(0.1, 30.0)
        mode = rng.random()
        if mode < 0.05:
            # thresholds: isotropic beta = 1 or chiral beta_dir = 1/2 at zero
            # power, chiral beta_dir = 1 at gamma_dp = gamma/2 or omega_r = omega_c
            p, omega_r = [(EmitterParams.isotropic(gamma=gamma), 0.0),
                          (EmitterParams.chiral(gamma=gamma, beta_dir=0.5), 0.0),
                          (EmitterParams.chiral(gamma=gamma, gamma_dp=gamma / 2), 0.0),
                          (EmitterParams.chiral(gamma=gamma),
                           gamma / (2 * np.sqrt(2)))][rng.integers(4)]
            cases.append((p, omega_r))
            continue
        beta = 0.0 if mode < 0.1 else rng.uniform(0.0, 1.0)
        gamma_dp = gamma * rng.uniform(0.0, 10.0) if rng.random() < 0.7 else 0.0
        omega_r = gamma * rng.uniform(0.0, 20.0) if rng.random() < 0.7 else 0.0
        coupling = "chiral" if rng.random() < 0.5 else "isotropic"
        p = EmitterParams(gamma=gamma, gamma_dp=gamma_dp, coupling=coupling, beta=beta)
        # one draw in ten is linear response, the drive omega_r = 0
        cases.append((p, 0.0 if rng.random() < 0.1 else omega_r))
    # the first case's optimum sqrt(c) = 17.7 lies past 20*gamma2 = 9.3; the
    # oracle's grid scales with the power-broadened linewidth, so it finds it
    p, omega_r = cases[0]
    ana, num = phase_extrema_analytic(p, omega_r), phase_extrema_numeric(p, omega_r)
    assert ana.delta_plus > 20 * p.gamma2
    assert num.delta == pytest.approx(ana.delta_plus, rel=1e-6)
    # a resonant pi shift (c < 0) is reported with the positive-branch sign
    assert phase_extrema_numeric(EmitterParams.chiral(gamma=9.4), 0.0).phi < 0
    worst = 0.0
    n_threshold = 0
    for p, omega_r in cases:
        ana = phase_extrema_analytic(p, omega_r)
        num = phase_extrema_numeric(p, omega_r)
        s, c, rounding = _extremum_c(p, omega_r)
        if abs(c) <= rounding:
            # the extremum jumps from pi/2 to pi as c crosses 0; on the c > 0
            # side atan(s/(2*sqrt(c))) >= pi/2 - 2*sqrt(c)/s
            n_threshold += 1
            lo = np.pi / 2 - 2 * np.sqrt(rounding) / s - 1e-12
            assert lo <= ana.phi_max <= np.pi
            assert lo <= num.phi_abs <= np.pi + 1e-12
        else:
            worst = max(worst, abs(num.phi_abs - ana.phi_max))
    assert n_threshold > 50
    assert worst <= 1e-9


def test_analytic_extrema_broadcasts_over_drive():
    # low drive gives c < 0 (resonant pi shift), high drive c > 0
    p = EmitterParams.chiral(gamma=12.3, beta_dir=0.9, gamma_dp=1.0)
    omegas = np.linspace(0.0, 30.0, 7)
    ext = phase_extrema_analytic(p, omega_r=omegas)
    assert ext.phi_max.shape == ext.delta_plus.shape == omegas.shape
    assert ext.phi_max[0] == np.pi and ext.phi_max[-1] < np.pi / 2
    for i, om in enumerate(omegas):
        one = phase_extrema_analytic(p, omega_r=float(om))
        assert all(type(v) is float for v in (one.delta_plus, one.delta_minus, one.phi_max))
        assert (one.delta_plus, one.delta_minus, one.phi_max) == (
            ext.delta_plus[i], ext.delta_minus[i], ext.phi_max[i])
    np.testing.assert_array_equal(ext.phi_plus, -ext.phi_max)


def _bits(ext):
    return np.array([ext.delta_plus, ext.delta_minus, ext.phi_max]).view(np.uint64)


@pytest.mark.parametrize("coupling", ["chiral", "isotropic"])
def test_closed_form_broadcasts_bit_for_bit(coupling):
    # predict-chiral evaluates each whole axis in one call; every element must
    # carry the bits of the scalar call, so the tables keep their bytes
    rng = np.random.default_rng(1203)
    branches = set()
    for gamma in rng.uniform(0.5, 30.0, 3):
        for beta in (0.0, 0.5, 1.0, rng.uniform()):
            p = EmitterParams(gamma=gamma, coupling=coupling, beta=beta)
            # gamma_dp = 0 and gamma/2 are exact zeros of c (chiral 1/2 and 1, isotropic 1)
            gdps = np.concatenate([[0.0, gamma / 2.0], rng.uniform(0.0, 2.0 * gamma, 40)])
            ext = emitter._phase_extrema(p.coupling_rate, gamma, gamma / 2.0 + gdps, 0.0)
            one = [phase_extrema_analytic(p.with_(gamma_dp=float(g))) for g in gdps]
            assert np.array_equal(_bits(ext), np.stack([_bits(e) for e in one], axis=1))
            branches.update(np.sign(np.pi / 2 - ext.phi_max).tolist())  # c > 0 is +1
            omegas = np.concatenate([[0.0], rng.uniform(0.0, 3.0 * gamma, 40)])
            ext = phase_extrema_analytic(p, omegas)
            one = [phase_extrema_analytic(p, float(om)) for om in omegas]
            assert np.array_equal(_bits(ext), np.stack([_bits(e) for e in one], axis=1))
    # chiral coupling reaches c < 0 (a resonant pi); isotropic never does
    assert branches == ({1.0, 0.0, -1.0} if coupling == "chiral" else {1.0, 0.0})


def test_numeric_matches_analytic():
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.94, 0.99):
        p = EmitterParams.isotropic(gamma=9.4, beta=beta)
        ana = phase_extrema_analytic(p)
        num = phase_extrema_numeric(p)
        assert abs(num.phi) == pytest.approx(ana.phi_max, abs=1e-6)
        assert abs(num.delta) == pytest.approx(ana.delta_plus, abs=1e-6)


def test_numeric_extremum_dipole2():
    # maximize tan(phi) = (beta*gamma/2)*delta / (gamma2^2 + delta^2 - (beta*gamma/2)*gamma2)
    # by hand: delta* = sqrt(gamma2*(gamma2 - beta*gamma/2)), phi = atan(s/(2*sqrt(c)))
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0)
    num = phase_extrema_numeric(p)
    assert abs(num.delta) == pytest.approx(6.260591026412762, abs=1e-6)
    assert num.phi_abs == pytest.approx(0.456556824053906, abs=1e-9)
    assert num.phi_abs == pytest.approx(0.4565, abs=1e-3)
    assert num.delta > 0 and num.phi < 0


def test_numeric_extremum_flat():
    num = phase_extrema_numeric(EmitterParams.isotropic(gamma=9.4, beta=0.0))
    assert num.flat and num.phi == 0.0


def test_numeric_extremum_monotone_in_power_and_dephasing():
    p = EmitterParams.isotropic(gamma=12.3, beta=1.0)
    phis = [phase_extrema_numeric(p, omega_r=om).phi_abs for om in np.linspace(0, 10, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))
    phis = [phase_extrema_numeric(p.with_(gamma_dp=g)).phi_abs for g in np.linspace(0, 10, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(phis, phis[1:]))


def test_critical_photon_flux_values():
    assert critical_photon_flux(EmitterParams.isotropic(gamma=1.0, beta=1.0)) == pytest.approx(0.25)
    assert critical_photon_flux(
        EmitterParams.isotropic(gamma=1.0, beta=1.0, gamma_dp=0.25)) == pytest.approx(0.375)
    assert critical_photon_flux(
        EmitterParams.isotropic(gamma=12.6, beta=0.99, gamma_dp=3.4)) == pytest.approx(
            0.3927360829717732, abs=1e-9)


def test_critical_photon_flux_domain():
    with pytest.raises(ValueError):
        critical_photon_flux(EmitterParams.isotropic(gamma=1.0, beta=0.0))
    with pytest.raises(ValueError):
        critical_photon_flux(EmitterParams.chiral(gamma=1.0, beta_dir=0.5))


def test_chiral_thresholds_values():
    th = chiral_thresholds(EmitterParams.chiral(gamma=1.0))
    assert th.omega_c == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)
    th = chiral_thresholds(EmitterParams.chiral(gamma=12.3))
    assert th.gamma_dp_c == pytest.approx(6.15)
    assert th.beta_dir_c == 0.5
    with pytest.raises(ValueError):
        chiral_thresholds(EmitterParams.isotropic(gamma=1.0))


def test_chiral_resonant_sign_change_in_beta_dir():
    # Re(t) at resonance changes sign exactly at beta_dir = 1/2
    gamma = 12.3
    betas = np.linspace(0.05, 0.95, 181)
    signs = []
    for bd in betas:
        p = EmitterParams.chiral(gamma=gamma, beta_dir=bd)
        t, _ = transmission(p, 0.0, 0.0)
        signs.append(np.sign(t.real))
    signs = np.array(signs)
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    assert betas[flips[0]] < 0.5 <= betas[flips[0] + 1]


def test_chiral_phase_family_monotone_with_jump():
    # directional-coupling family: |phi|max stays near pi below the
    # saturation threshold and drops past it, never increasing with drive
    gamma = 12.3
    omegas = np.linspace(0.0, 10.0, 21)
    for bd in (1.0, 0.9, 0.7, 0.5):
        p = EmitterParams.chiral(gamma=gamma, beta_dir=bd)
        phis = [phase_extrema_numeric(p, omega_r=float(om)).phi_abs for om in omegas]
        assert all(a >= b - 1e-9 for a, b in zip(phis, phis[1:])), bd
    ideal = [phase_extrema_numeric(EmitterParams.chiral(gamma=gamma), omega_r=float(om)).phi_abs
             for om in omegas]
    omega_c = gamma / (2 * np.sqrt(2))
    below = omegas < omega_c - 0.3
    above = omegas > omega_c + 0.3
    assert np.all(np.abs(np.array(ideal)[below] - np.pi) < 1e-6)
    assert np.all(np.array(ideal)[above] < np.pi / 2)


def test_chiral_phase_family_monotone_in_dephasing():
    gamma = 12.3
    gdps = np.linspace(0.0, 10.0, 21)
    for bd in (1.0, 0.9, 0.7, 0.5):
        phis = [phase_extrema_numeric(EmitterParams.chiral(gamma=gamma, beta_dir=bd,
                                                           gamma_dp=float(g))).phi_abs
                for g in gdps]
        assert all(a >= b - 1e-9 for a, b in zip(phis, phis[1:])), bd
