from __future__ import annotations

import functools

import numpy as np
import pytest

from wgphase import spectra
from wgphase.emitter import (EmitterParams, critical_photon_flux, phase_extrema_numeric,
                             transmission)
from wgphase.extraction import ExtractionConfig, extract_phasor_series
from wgphase.interferometer import (InterferometerConfig, apply_shot_noise,
                                    fringe_trace)
from wgphase.spectra import (Spectrum, channel_model, fit_saturation_series,
                             fit_two_dipole_spectra, initial_guess, predict_phase_vs_power)
from wgphase.units import detuning_angular

DIPOLE1 = EmitterParams.isotropic(gamma=9.4, gamma_dp=3.9, beta=0.94, f0=0.0, phi0=-0.25)
DIPOLE2 = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, f0=15.0, phi0=-0.25)


def synth_spectrum(p, freq, dipole, sigma_phase=1e-3, sigma_int=1e-3, rng=None, omega=0.0,
                   power=None):
    t, i_t = transmission(p, detuning_angular(freq, p.f0), omega)
    phase = np.angle(t) + p.phi0
    intensity = i_t
    if rng is not None:
        phase = phase + rng.normal(0, sigma_phase, freq.size)
        intensity = intensity + rng.normal(0, sigma_int, freq.size)
    return Spectrum(freq, {"phase": (phase, np.full(freq.size, sigma_phase)),
                           "intensity": (intensity, np.full(freq.size, sigma_int))},
                    dipole, power)


def test_channel_validation():
    with pytest.raises(ValueError):
        Spectrum(np.arange(3.0), {"phase": (np.arange(3.0), np.ones(3))})  # too few points
    with pytest.raises(ValueError):
        Spectrum(np.arange(6.0), {"magic": (np.arange(6.0), np.ones(6))})
    with pytest.raises(ValueError, match="freq must be finite"):
        Spectrum(np.r_[np.arange(5.0), np.nan], {"phase": (np.arange(6.0), np.ones(6))})


def test_single_dipole_noiseless_roundtrip():
    ds = [synth_spectrum(DIPOLE2, np.linspace(9, 21, 41), 2)]
    res = fit_two_dipole_spectra(ds)
    assert res.converged
    assert res["beta2"] == pytest.approx(1.0, abs=1e-6)
    assert res["gamma2"] == pytest.approx(12.3, rel=1e-6)
    assert res["gamma_dp"] == pytest.approx(3.9, rel=1e-6)
    assert res["f02"] == pytest.approx(15.0, abs=1e-6)
    assert res["phi0"] == pytest.approx(-0.25, abs=1e-6)


def test_joint_two_dipole_noiseless_roundtrip():
    res = fit_two_dipole_spectra([synth_spectrum(DIPOLE1, np.linspace(-6, 6, 41), 1),
                                  synth_spectrum(DIPOLE2, np.linspace(9, 21, 41), 2)])
    assert res.converged
    for name, want in [("beta1", 0.94), ("gamma1", 9.4), ("f01", 0.0),
                       ("beta2", 1.0), ("gamma2", 12.3), ("f02", 15.0),
                       ("gamma_dp", 3.9), ("phi0", -0.25)]:
        assert res[name] == pytest.approx(want, rel=1e-6, abs=1e-6), name


def test_unusable_points_are_no_degrees_of_freedom():
    # 91 unusable rows (nan values, a nan, zero or inf sigma) appended to a
    # noisy 91-row spectrum leave chi2 and every sigma as they were; counted
    # as residuals, they shrank every sigma by sqrt(177/359) = 0.702
    freq = np.linspace(-6.0, 6.0, 91)
    noisy = synth_spectrum(DIPOLE1, freq, 1, sigma_phase=0.02, sigma_int=0.02,
                           rng=np.random.default_rng(12))
    extra = np.linspace(6.5, 15.0, 91)
    bad_sigma = np.resize([np.nan, 0.0, np.inf], 91)
    padded = Spectrum(np.r_[freq, extra], {
        "phase": (np.r_[noisy.channels["phase"][0], np.full(91, np.nan)],
                  np.r_[noisy.channels["phase"][1], np.full(91, 0.02)]),
        "intensity": (np.r_[noisy.channels["intensity"][0], np.full(91, 0.5)],
                      np.r_[noisy.channels["intensity"][1], bad_sigma])}, 1)
    want, got = fit_two_dipole_spectra([noisy]), fit_two_dipole_spectra([padded])
    assert want.converged and got.converged
    assert got.chi2 == pytest.approx(want.chi2, rel=1e-12)
    np.testing.assert_allclose(got.params, want.params, rtol=1e-12)
    np.testing.assert_allclose(got.uncertainties, want.uncertainties, rtol=1e-12)


def test_dipole2_only_reduces_to_single_fit():
    ds2 = [synth_spectrum(DIPOLE2, np.linspace(9, 21, 41), 2)]
    res = fit_two_dipole_spectra(ds2)
    assert sorted(res.names) == ["beta2", "f02", "gamma2", "gamma_dp", "phi0"]


def test_product_model_roundtrip():
    # overlapping resonances synthesized and fitted with the product rule
    p1 = DIPOLE1.with_(f0=-1.5)
    p2 = DIPOLE2.with_(f0=1.5)
    freq = np.linspace(-8, 8, 81)
    t1, i1 = transmission(p1, detuning_angular(freq, p1.f0), 0.0)
    t2, i2 = transmission(p2, detuning_angular(freq, p2.f0), 0.0)
    phase = np.angle(t1 * t2) + p1.phi0
    inten = i1 * i2
    sigma = np.full(freq.size, 1e-3)
    chs = [Spectrum(freq, {"phase": (phase, sigma), "intensity": (inten, sigma)}, d)
           for d in (1, 2)]
    init = {"beta1": 0.9, "gamma1": 10.0, "f01": -1.4, "beta2": 0.95, "gamma2": 12.0,
            "f02": 1.6, "gamma_dp": 3.0, "phi0": -0.2}
    res = fit_two_dipole_spectra(chs, init=init, combine="product")
    assert res.converged
    assert res["gamma1"] == pytest.approx(9.4, rel=1e-4)
    assert res["gamma2"] == pytest.approx(12.3, rel=1e-4)
    assert res["f01"] == pytest.approx(-1.5, abs=1e-4)
    assert res["f02"] == pytest.approx(1.5, abs=1e-4)


def test_three_dipole_product_roundtrip():
    # every dipole's transmission multiplies into every channel: the product
    # of three was fitted as three isolated lines, far from the truth
    emitters = [DIPOLE1.with_(f0=-4.0), DIPOLE2.with_(f0=0.0, beta=0.9),
                DIPOLE1.with_(f0=4.0, gamma=11.0, beta=0.97)]
    freq = np.linspace(-12, 12, 121)
    t, i_t = 1.0, 1.0
    for p in emitters:
        t_p, i_p = transmission(p, detuning_angular(freq, p.f0), 0.0)
        t, i_t = t * t_p, i_t * i_p
    sigma = np.full(freq.size, 1e-3)
    chs = [Spectrum(freq, {"phase": (np.angle(t) + DIPOLE1.phi0, sigma),
                           "intensity": (i_t, sigma)}, d) for d in (1, 2, 3)]
    init = {"gamma_dp": 3.0, "phi0": -0.2}
    for d, p in enumerate(emitters, start=1):
        init.update({f"beta{d}": 0.9, f"gamma{d}": 10.0, f"f0{d}": p.f0 + 0.2})
    res = fit_two_dipole_spectra(chs, init=init, combine="product")
    assert res.converged
    for d, p in enumerate(emitters, start=1):
        for key in ("beta", "gamma", "f0"):
            assert res[f"{key}{d}"] == pytest.approx(getattr(p, key), rel=1e-6, abs=1e-6)
    assert res["gamma_dp"] == pytest.approx(3.9, rel=1e-6)


def _visited(monkeypatch):
    """Every parameter vector the fits hand to their residual function."""
    seen = []

    def recording_lm(fun, *args, **kwargs):
        def recorded(x):
            seen.append(np.array(x))
            return fun(x)
        return lm_minimize(recorded, *args, **kwargs)

    lm_minimize = spectra.lm_minimize
    monkeypatch.setattr(spectra, "lm_minimize", recording_lm)
    return seen


@pytest.mark.parametrize("fit", ["two_dipole", "saturation"])
def test_bounds_wider_than_physics_keep_the_default_box(monkeypatch, fit):
    # noisy data at beta = 1 and gamma_dp = 0: bounds that replaced the box
    # let the fits report beta > 1 and gamma_dp < 0, values the model never
    # used; bounds only narrow the box, so these fits are the default ones
    seen = _visited(monkeypatch)
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=0.0, beta=1.0, phi0=-0.25)
    rng = np.random.default_rng(6)
    if fit == "two_dipole":
        data = [synth_spectrum(p, np.linspace(-8, 8, 41), 1, 1e-2, 1e-2, rng)]
        physical = ["beta1", "gamma1", "gamma_dp"]
        wide = {"beta1": [-1, 2], "gamma_dp": [-5, None]}
        run = functools.partial(fit_two_dipole_spectra, data)
    else:
        om_sat2 = p.gamma * p.gamma2 / 4.0
        series = [synth_spectrum(p, np.linspace(-8, 8, 41), 1, 1e-2, 1e-2, rng,
                                 np.sqrt(scale * om_sat2), power=scale * om_sat2)
                  for scale in (0.1, 0.3, 1.0, 3.0, 10.0)]
        physical = ["beta", "gamma", "gamma_dp", "k"]
        wide = {"beta": [None, None], "gamma_dp": [-5, None], "k": [-1, None]}
        run = functools.partial(fit_saturation_series, series)
    default = run()
    seen.clear()
    res = run(bounds=wide)
    assert res.converged, res.message
    np.testing.assert_array_equal(res.params, default.params)
    xs = np.array(seen)[:, [res.names.index(name) for name in physical]]
    assert np.all((xs[:, 0] >= 0.0) & (xs[:, 0] <= 1.0))  # beta
    assert np.all(xs[:, 1] >= 1e-6) and np.all(xs[:, 2:] >= 0.0)  # gamma, gamma_dp, k


def test_intensity_only_near_unit_beta_not_identifiable():
    freq = np.linspace(9, 21, 41)
    _, i_t = transmission(DIPOLE2, detuning_angular(freq, 15.0), 0.0)
    ds = [Spectrum(freq, {"intensity": (i_t, np.full(freq.size, 1e-3))}, 2)]
    res = fit_two_dipole_spectra(ds)
    assert not res.converged
    assert "phi0" in res.flat_directions
    assert "non-identifiable" in res.message


def test_initial_guess_deterministic_and_sane():
    ds = [synth_spectrum(DIPOLE2, np.linspace(9, 21, 61), 2)]
    g1 = initial_guess(ds, 2)
    g2 = initial_guess(ds, 2)
    assert g1 == g2
    # the closed-form start of noiseless spectra is the truth
    for key in ("beta", "gamma", "gamma_dp", "f0", "phi0"):
        assert g1[key] == pytest.approx(getattr(DIPOLE2, key), rel=1e-9), key
    assert "k" not in g1  # no powers, no drive calibration


def test_phase_only_fit_starts_from_the_phase_and_finds_what_it_fixes(monkeypatch):
    # no intensity or |t| channel: initial_guess takes phi0 from the mean phasor
    # (exact on this grid, symmetric about f0), then f0, beta*gamma/2 and gamma2
    # from the phase, at gamma_dp = 0; phase alone fixes beta*gamma/2 and gamma2
    # but not how gamma2 splits into gamma and gamma_dp
    seen = _visited(monkeypatch)
    freq = np.linspace(9, 21, 41)
    t, _ = transmission(DIPOLE2, detuning_angular(freq, DIPOLE2.f0), 0.0)
    phase = np.angle(t) + DIPOLE2.phi0
    res = fit_two_dipole_spectra([Spectrum(freq, {"phase": (phase, np.full(freq.size, 1e-3))},
                                           2)])
    beta, gamma, f0, gamma_dp, phi0 = seen[0]
    assert beta * gamma / 2.0 == pytest.approx(12.3 / 2.0, rel=1e-9)
    assert gamma / 2.0 == pytest.approx(12.3 / 2.0 + 3.9, rel=1e-9)
    assert gamma_dp == pytest.approx(0.0, abs=1e-12)
    assert f0 == pytest.approx(15.0, rel=1e-12)
    assert phi0 == pytest.approx(-0.25, rel=1e-12)
    assert res.chi2 == pytest.approx(0.0, abs=1e-12)
    assert res["beta2"] * res["gamma2"] / 2.0 == pytest.approx(12.3 / 2.0, rel=1e-6)
    assert res["gamma2"] / 2.0 + res["gamma_dp"] == pytest.approx(12.3 / 2.0 + 3.9, rel=1e-6)
    assert res["phi0"] == pytest.approx(-0.25, abs=1e-6)
    assert not res.converged and "non-identifiable" in res.message


def test_dip_shallower_than_five_sigma_starts_from_the_phase(monkeypatch):
    # no point of a 4e-4 dip with sigma 1e-4 reaches the 5 sigma a dip point
    # needs: initial_guess reads the line from the phase alone, at gamma_dp = 0,
    # which is this line's
    seen = _visited(monkeypatch)
    p = EmitterParams.isotropic(gamma=9.4, gamma_dp=0.0, beta=2e-4, phi0=-0.25)
    freq = np.linspace(-6, 6, 41)
    t, i_t = transmission(p, detuning_angular(freq, p.f0), 0.0)
    assert 1.0 - i_t.min() < 5e-4
    sigma = np.full(freq.size, 1e-4)
    res = fit_two_dipole_spectra([Spectrum(freq, {"phase": (np.angle(t) + p.phi0, sigma),
                                                  "intensity": (i_t, sigma)})],
                                 max_iter=2000)  # a weak line's slow valley
    beta, gamma = seen[0][:2]
    assert beta == pytest.approx(2e-4, rel=1e-9)
    assert gamma == pytest.approx(9.4, rel=1e-9)
    assert res.converged, res.message
    assert res["beta1"] == pytest.approx(2e-4, rel=1e-6)
    assert res["gamma1"] == pytest.approx(9.4, rel=1e-6)


def _series(p, k, freq, rng=None, sigma=0.01, scales=(0.1, 0.3, 1.0, 3.0, 10.0)):
    """Spectra of ``p`` at powers scale*gamma*gamma2/4/k, so omega_r**2 = k*P."""
    om_sat2 = p.gamma * p.gamma2 / 4.0
    return [synth_spectrum(p, freq, 1, sigma, sigma, rng, np.sqrt(scale * om_sat2),
                           power=scale * om_sat2 / k) for scale in scales]


@pytest.mark.parametrize("case", ["one dipole", "isolated", "product", "power series"])
def test_start_is_the_truth_on_noiseless_spectra(monkeypatch, case):
    # phi0 is solved with s, not read from the wings, so the start is exact
    seen = _visited(monkeypatch)
    d1, d2 = DIPOLE1.with_(f0=0.4), DIPOLE2.with_(f0=14.3)  # f0 off each grid's centre
    truth = {"beta1": 0.94, "gamma1": 9.4, "f01": 0.4, "beta2": 1.0, "gamma2": 12.3,
             "f02": 14.3, "gamma_dp": 3.9, "phi0": -0.25}
    if case == "power series":
        p = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.8, f0=0.7, phi0=-0.26)
        truth = {"beta": 0.8, "gamma": 12.6, "f0": 0.7, "gamma_dp": 3.4, "phi0": -0.26, "k": 1.7}
        res = fit_saturation_series(_series(p, 1.7, np.linspace(-8, 8, 41)), max_iter=1)
    else:
        data = [synth_spectrum(d1, np.linspace(-6, 6, 41), 1),
                synth_spectrum(d2, np.linspace(9, 21, 41), 2)]
        if case == "one dipole":
            data, truth = data[:1], {key: value for key, value in truth.items() if "2" not in key}
        res = fit_two_dipole_spectra(data, combine="product" if case == "product" else "isolated",
                                     max_iter=1)
    assert sorted(res.names) == sorted(truth)
    for name, value in zip(res.names, seen[0]):
        assert value == pytest.approx(truth[name], rel=1e-6), name


def test_start_of_noisy_series_needs_few_iterations_and_finds_the_fit_from_the_truth():
    # from the old heuristic start a saturation fit took ~7 iterations; the
    # closed-form start takes ~4, and lands where a fit started at the truth does
    rng = np.random.default_rng(30)
    iterations = []
    for _ in range(20):
        beta, gamma, gamma_dp, phi0, scale = rng.uniform([0.6, 9, 1, -0.4, 0.5],
                                                         [0.95, 15, 4, 0.4, 2.0])
        p = EmitterParams.isotropic(gamma=gamma, gamma_dp=gamma_dp, beta=beta, phi0=phi0)
        k = p.gamma2 * gamma / 4.0 * scale
        series = _series(p, k, np.linspace(-15, 15, 91), rng)
        res = fit_saturation_series(series)
        ref = fit_saturation_series(series, init={"beta": beta, "gamma": gamma, "f0": 0.0,
                                                  "gamma_dp": gamma_dp, "phi0": phi0, "k": k})
        assert res.converged and ref.converged
        np.testing.assert_array_less(np.abs(res.params - ref.params), 1e-5 * ref.uncertainties)
        iterations.append(res.n_iter)
    assert np.mean(iterations) <= 4.5, iterations


@pytest.mark.parametrize("case", ["amplitude only", "intensity only", "no dip", "no line"])
def test_start_without_a_dip_or_a_channel_is_defined(case):
    # a RuntimeWarning fails the test (pyproject's filterwarnings)
    p = EmitterParams.isotropic(gamma=9.4, gamma_dp=0.0 if case == "amplitude only" else 3.9,
                                beta=0.94, f0=0.4, phi0=-0.25)
    freq, sigma, flat = np.linspace(-6, 6, 41), np.full(41, 1e-3), np.ones(41)
    t, i_t = transmission(p, detuning_angular(freq, p.f0), 0.0)
    channels = {"amplitude only": {"amplitude": (np.abs(t), sigma)},
                "intensity only": {"intensity": (i_t, sigma)},
                "no dip": {"intensity": (flat, sigma)},
                "no line": {"phase": (0.3 * flat, sigma), "intensity": (flat, sigma)}}
    guess = initial_guess([Spectrum(freq, channels[case])], 1)
    g2 = guess["gamma"] / 2.0 + guess["gamma_dp"]
    if case == "no dip":  # f0 mid-span, gamma2 an eighth of the span, beta 1/2
        want = {"beta": 0.5, "gamma": 2.0 * np.pi * 12.0 / 4.0, "gamma_dp": 0.0, "f0": 0.0,
                "phi0": 0.0}
        assert guess == pytest.approx(want, rel=1e-12, abs=1e-12)
    elif case == "no line":  # any start in the box
        assert 0.0 < guess["beta"] <= 1.0 and guess["gamma"] > 0.0 and guess["gamma_dp"] >= 0.0
        assert -6.0 <= guess["f0"] <= 6.0 and guess["phi0"] == pytest.approx(0.3, rel=1e-12)
    else:
        # |t|**2 is I_t at gamma_dp = 0; without phase the start takes gamma_dp = 0
        # and keeps A = beta*gamma*gamma2*(2 - beta) and gamma2
        assert guess["gamma_dp"] == pytest.approx(0.0, abs=1e-12) and guess["phi0"] == 0.0
        assert guess["f0"] == pytest.approx(0.4, rel=1e-9)
        assert g2 == pytest.approx(p.gamma2, rel=1e-9)
        a = guess["beta"] * guess["gamma"] * g2 * (2.0 - guess["beta"])
        assert a == pytest.approx(p.beta * p.gamma * p.gamma2 * (2.0 - p.beta), rel=1e-9)


def test_channel_model_isolated_vs_product_far_apart():
    freq = np.linspace(-4, 4, 21)
    ch = Spectrum(freq, {"phase": (np.zeros(21), np.ones(21))}, 1)
    p2_far = DIPOLE2.with_(f0=500.0)
    iso = channel_model(ch, DIPOLE1)
    prod = channel_model(ch, [DIPOLE1, p2_far])
    np.testing.assert_allclose(iso, prod, atol=5e-3)


def test_fit_rejects_unknown_combine():
    # an unknown combination used to fall back to "isolated" silently
    ds = [synth_spectrum(DIPOLE1, np.linspace(-4, 4, 21), 1)]
    with pytest.raises(ValueError, match="combine"):
        fit_two_dipole_spectra(ds, combine="prodcut")


def test_saturation_noiseless_roundtrip_and_flux_composition():
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.99, f0=0.0, phi0=-0.26)
    om_sat2 = truth.gamma * truth.gamma2 / 4.0
    datasets = []
    for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
        power = scale * om_sat2
        datasets.append(synth_spectrum(truth, np.linspace(-8, 8, 41), 1, omega=np.sqrt(power),
                                       power=power))
    res = fit_saturation_series(datasets)
    assert res.converged
    assert res["beta"] == pytest.approx(0.99, rel=1e-5)
    assert res["gamma"] == pytest.approx(12.6, rel=1e-5)
    assert res["gamma_dp"] == pytest.approx(3.4, rel=1e-5)
    assert res["phi0"] == pytest.approx(-0.26, rel=1e-5)
    assert res["k"] == pytest.approx(1.0, rel=1e-5)
    fitted = EmitterParams.isotropic(gamma=res["gamma"], beta=res["beta"],
                                     gamma_dp=res["gamma_dp"])
    assert critical_photon_flux(fitted) == pytest.approx(critical_photon_flux(truth), rel=1e-5)


def test_saturation_linear_series_pins_k():
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.99, phi0=-0.26)
    datasets = []
    for power in (1.0, 2.0, 4.0):
        datasets.append(synth_spectrum(truth, np.linspace(-8, 8, 41), 1, omega=0.0,
                                       power=power))
    res = fit_saturation_series(datasets)
    assert res["k"] == pytest.approx(0.0, abs=1e-9)
    assert "k" in res.flat_directions or "pinned" in res.message
    assert res["beta"] == pytest.approx(0.99, rel=1e-4)
    assert res["gamma"] == pytest.approx(12.6, rel=1e-4)
    assert res["gamma_dp"] == pytest.approx(3.4, rel=1e-4)


def test_saturation_k_on_a_bounds_floor_is_named_not_flat():
    # k held at a fit.bounds.k floor was reported as the physical floor k = 0:
    # "series shows no saturation", with k among the flat directions
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.99, f0=0.0, phi0=-0.26)
    om_sat2 = truth.gamma * truth.gamma2 / 4.0
    datasets = [synth_spectrum(truth, np.linspace(-8, 8, 41), 1, omega=np.sqrt(scale * om_sat2),
                               power=scale * om_sat2) for scale in (0.1, 0.3, 1.0, 3.0, 10.0)]
    res = fit_saturation_series(datasets, bounds={"k": [2, None]})
    assert res["k"] == pytest.approx(2.0, abs=1e-12)
    assert "k" not in res.flat_directions
    assert "no saturation" not in res.message
    assert "k held at its fit.bounds.k floor 2" in res.message


def test_saturation_k_on_a_bounds_floor_below_one_is_named():
    # a fit.bounds.k floor in (0, 1] is named as one above 1 is: data of k = 0.25
    # held at the floor 0.5 are not "no saturation", and k is not flat
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.99, f0=0.0, phi0=-0.26)
    om_sat2 = truth.gamma * truth.gamma2 / 4.0
    datasets = [synth_spectrum(truth, np.linspace(-8, 8, 41), 1, omega=np.sqrt(scale * om_sat2),
                               power=4.0 * scale * om_sat2) for scale in (0.1, 0.3, 1.0, 3.0, 10.0)]
    res = fit_saturation_series(datasets, bounds={"k": [0.5, None]})
    assert res["k"] == pytest.approx(0.5, abs=1e-12)
    assert "k" not in res.flat_directions
    assert "no saturation" not in res.message
    assert "k held at its fit.bounds.k floor 0.5" in res.message


def test_saturation_flat_direction_is_not_converged():
    # phase and |t| fix only beta*gamma/2, gamma2 and k*gamma2/gamma: this fit
    # returned converged=True with gamma and gamma_dp flat and beta 0.615
    truth = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    freq, rng, sigma = np.linspace(-10, 10, 81), np.random.default_rng(1), 0.01
    datasets = []
    for omega in (2.0, 4.0, 8.0):
        t, _ = transmission(truth, detuning_angular(freq, 0.0), omega)
        errs = np.full(freq.size, sigma)
        datasets.append(Spectrum(freq, {
            "phase": (np.angle(t) + truth.phi0 + rng.normal(0, sigma, freq.size), errs),
            "amplitude": (np.abs(t) + rng.normal(0, sigma, freq.size), errs)}, power=omega**2))
    res = fit_saturation_series(datasets, init={"f0": 0.0})
    assert not res.converged
    assert res.flat_directions == ["gamma", "gamma_dp"]
    assert "non-identifiable: flat directions gamma, gamma_dp" in res.message


def _drive_series(f0, seed=None, beta=1.0, p_sig_cps=1e4):
    """Spectra extracted from fringe pairs of the default emitter at ``f0``
    driven at omega_r 2, 4 and 8 rad/ns, each at power omega_r**2 (k = 1),
    as in CI's saturation step; with shot noise drawn from ``seed``."""
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=beta, f0=f0, phi0=-0.25)
    cfg = InterferometerConfig(p_sig_cps=p_sig_cps)
    freq = np.linspace(-15.0, 15.0, 4501)
    records = []
    for j, omega in enumerate((2.0, 4.0, 8.0)):
        on, off = (fringe_trace(cfg, p, freq, qd_on, omega_r=omega) for qd_on in (True, False))
        if seed is not None:
            on, off = apply_shot_noise(on, seed + 2 * j), apply_shot_noise(off, seed + 2 * j + 1)
        series = extract_phasor_series(on, off, ExtractionConfig().with_path_length(off))
        records.append(Spectrum.from_phasors(series, power=omega**2))
    return records


@pytest.mark.parametrize("f0", [0.05, 0.1, 0.15])
def test_saturation_series_fits_f0_off_every_window_centre(f0):
    # f0 was held at the window centre of the deepest offset ratio at the
    # lowest power: at f0 = 0.05 the fit exited converged with chi2 6.6e10
    records = _drive_series(f0)
    res = fit_saturation_series(records)
    assert res.converged
    assert res.chi2 <= 2.0 * fit_saturation_series(records, init={"f0": f0}).chi2
    truth = {"beta": 1.0, "gamma": 12.3, "f0": f0, "gamma_dp": 3.9, "phi0": -0.25, "k": 1.0}
    for name, want in truth.items():
        assert res[name] == pytest.approx(want, rel=1e-3), name


def test_saturation_series_under_shot_noise_has_reduced_chi2_near_one():
    # with f0 held at a window centre the reduced chi2 of these series was
    # 2.6-5.0, median 3.2
    reduced = []
    for seed in range(0, 40, 2):
        records = _drive_series(0.0, seed=100 * seed, beta=0.9, p_sig_cps=1e5)
        res = fit_saturation_series(records)
        n_points = sum(np.count_nonzero(np.isfinite(values) & (sigma > 0))
                       for r in records for values, sigma in r.channels.values())
        reduced.append(res.chi2 / (n_points - len(res.names)))
    assert np.median(reduced) <= 1.3, reduced


def test_fits_refuse_spectra_they_cannot_start_from():
    freq = np.linspace(-8, 8, 41)
    blank = Spectrum(freq, {"phase": (np.full(41, np.nan), np.ones(41))}, dipole=2)
    with pytest.raises(ValueError, match="no usable points for dipole 2"):
        fit_two_dipole_spectra([synth_spectrum(DIPOLE1, freq, 1), blank])
    with pytest.raises(ValueError, match="no spectra to fit"):
        fit_two_dipole_spectra([])
    series = [synth_spectrum(DIPOLE1, freq, 1, power=power) for power in (1.0, 2.0, 4.0)]
    with pytest.raises(ValueError, match="every spectrum needs a recorded power level"):
        fit_saturation_series([*series, synth_spectrum(DIPOLE1, freq, 1)])


def test_saturation_needs_three_powers():
    truth = EmitterParams.isotropic(gamma=12.6, beta=0.99)
    ds = synth_spectrum(truth, np.linspace(-8, 8, 41), 1, power=1.0)
    with pytest.raises(ValueError, match="unidentifiable"):
        fit_saturation_series([ds])


def test_saturation_series_of_two_dipoles_is_refused():
    # was fit as one emitter, the dipoles ignored
    truth = EmitterParams.isotropic(gamma=12.6, beta=0.99)
    ds = [synth_spectrum(truth, np.linspace(-8, 8, 41), d, power=power)
          for d, power in ((1, 1.0), (2, 2.0), (1, 4.0))]
    with pytest.raises(ValueError, match=r"one dipole, got dipoles \[1, 2\]"):
        fit_saturation_series(ds)


def test_predict_phase_vs_power_limits_and_monotonicity():
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0)
    powers = np.geomspace(1e-6, 400.0, 14)
    phi = predict_phase_vs_power(p, k=1.0, powers=powers)
    linear = phase_extrema_numeric(p).phi
    assert phi[0] == pytest.approx(linear, abs=1e-6)
    assert np.all(np.diff(np.abs(phi)) <= 1e-12)
    with pytest.raises(ValueError):
        predict_phase_vs_power(p, k=0.0, powers=powers)


def test_predict_phase_consistent_with_direct_extremum():
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0)
    k = 0.37
    power = 11.0
    phi = predict_phase_vs_power(p, k=k, powers=[power])[0]
    direct = phase_extrema_numeric(p, omega_r=np.sqrt(k * power)).phi
    assert phi == pytest.approx(direct, abs=1e-12)


def _pipeline_fit(delta_l, seeds=None, integration_time=0.1, span=9.0, points=9001):
    """fringe pair -> phasors -> single-dipole fit, optionally with shot noise."""
    p = DIPOLE2.with_(f0=0.0)
    cfg = InterferometerConfig(delta_l_m=delta_l, visibility=0.65, p_lo_cps=1e6, p_sig_cps=1e4,
                               integration_time_s=integration_time)
    freq = np.linspace(-span, span, points)
    on = fringe_trace(cfg, p, freq, qd_on=True)
    off = fringe_trace(cfg, p, freq, qd_on=False)
    results = []
    for seed in (seeds if seeds is not None else [None]):
        if seed is None:
            on_s, off_s = on, off
        else:
            on_s = apply_shot_noise(on, 2 * seed)
            off_s = apply_shot_noise(off, 2 * seed + 1)
        pts = extract_phasor_series(on_s, off_s, ExtractionConfig(delta_l_m=delta_l))
        ds = Spectrum.from_phasors(pts, dipole=2)
        results.append(fit_two_dipole_spectra([ds]))
    return results


def test_pipeline_noiseless_recovery():
    # fringe_trace -> extract_phasor_series -> fit on noiseless data
    res = _pipeline_fit(delta_l=25.0)[0]
    assert res.converged
    assert res["beta2"] == pytest.approx(1.0, rel=1e-5)
    assert res["gamma2"] == pytest.approx(12.3, rel=1e-5)
    assert res["gamma_dp"] == pytest.approx(3.9, rel=1e-5)
    assert res["f02"] == pytest.approx(0.0, abs=1e-5)
    assert res["phi0"] == pytest.approx(-0.25, rel=1e-5)


@pytest.mark.slow
def test_pipeline_noise_bias_shrinks_with_integration_time():
    # estimates converge toward truth when the integration time grows 100x:
    # the surviving bias must be under a tenth of the short-run spread
    truth = {"beta2": 1.0, "gamma2": 12.3, "gamma_dp": 3.9, "phi0": -0.25}
    seeds = list(range(12))
    short = _pipeline_fit(2.78, seeds=seeds, integration_time=0.1,
                          span=6.0, points=2401)
    long = _pipeline_fit(2.78, seeds=seeds, integration_time=10.0,
                         span=6.0, points=2401)
    for name, want in truth.items():
        short_vals = np.array([r[name] for r in short])
        long_vals = np.array([r[name] for r in long])
        sigma_short = short_vals.std(ddof=1)
        bias_long = abs(long_vals.mean() - want)
        sampling = 3 * sigma_short / np.sqrt(len(seeds)) / 10
        assert bias_long <= 0.1 * sigma_short + sampling, name


def test_covariance_one_sigma_coverage():
    # reported 1-sigma intervals cover truth in >= 60% of noisy refits
    # (interior-beta dipole so no parameter sits on a bound)
    rng_master = np.random.default_rng(99)
    freq = np.linspace(-6, 6, 41)
    truth = {"beta1": 0.94, "gamma1": 9.4, "gamma_dp": 3.9, "f01": 0.0, "phi0": -0.25}
    p = DIPOLE1
    hits = {name: 0 for name in truth}
    n_runs = 100
    for _ in range(n_runs):
        ds = synth_spectrum(p, freq, 1, sigma_phase=0.01, sigma_int=0.01, rng=rng_master)
        res = fit_two_dipole_spectra([ds])
        for name, want in truth.items():
            if abs(res[name] - want) <= res.error(name):
                hits[name] += 1
    for name, count in hits.items():
        assert count >= 60, (name, count)


def test_amplitude_channel_fit_constrains_coupling_linewidth_product():
    # phase and |t| depend on the parameters only through beta*gamma/2 and
    # gamma2, so they cannot split beta from gamma on their own (that is what
    # the intensity channel is for); the identifiable combinations and the
    # offset must still come out exact
    freq = np.linspace(-6, 6, 41)
    p = DIPOLE1
    t, i_t = transmission(p, detuning_angular(freq, p.f0), 0.0)
    assert np.max(np.abs(np.abs(t) ** 2 - i_t)) > 0.01
    sigma = np.full(freq.size, 1e-3)
    chs = {"phase": (np.angle(t) + p.phi0, sigma), "amplitude": (np.abs(t), sigma)}
    res = fit_two_dipole_spectra([Spectrum(freq, chs)])
    assert res.chi2 == pytest.approx(0.0, abs=1e-12)
    s_hat = res["beta1"] * res["gamma1"] / 2.0
    g2_hat = res["gamma1"] / 2.0 + res["gamma_dp"]
    assert s_hat == pytest.approx(0.94 * 9.4 / 2.0, rel=1e-6)
    assert g2_hat == pytest.approx(9.4 / 2.0 + 3.9, rel=1e-6)
    assert res["phi0"] == pytest.approx(-0.25, abs=1e-6)
    # adding the intensity channel restores full identifiability
    chs["intensity"] = (i_t, sigma)
    res2 = fit_two_dipole_spectra([Spectrum(freq, chs)])
    assert res2.converged
    assert res2["beta1"] == pytest.approx(0.94, rel=1e-5)
    assert res2["gamma1"] == pytest.approx(9.4, rel=1e-5)
    assert res2["gamma_dp"] == pytest.approx(3.9, rel=1e-5)


def test_from_phasors_amplitude_variant_and_window():
    from wgphase.extraction import PhasorSeries

    pts = PhasorSeries(freq=np.arange(10.0), phase_shift=np.full(10, 0.1),
                       amp_ratio=np.full(10, 0.9), offset_ratio=np.full(10, 0.8),
                       phase_err=np.full(10, 0.01), amp_err=np.full(10, 0.02),
                       offset_err=np.full(10, 0.03), low_contrast=np.zeros(10, dtype=bool))
    ds = Spectrum.from_phasors(pts, dipole=2, freq_window=(2.0, 8.0))
    kinds = sorted(ds.channels)
    assert kinds == ["intensity", "phase"]
    # the window is inclusive: both edge rows are kept
    np.testing.assert_array_equal(ds.freq, np.arange(2.0, 9.0))
