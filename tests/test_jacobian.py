"""The fits' analytic Jacobians against central finite differences, and the
evaluation budget that the analytic Jacobian buys."""

from __future__ import annotations

import numpy as np
import pytest

from wgphase import spectra
from wgphase.emitter import EmitterParams, transmission
from wgphase.lm import fd_step, jacobian_fd
from wgphase.spectra import Spectrum
from wgphase.units import detuning_angular

DIPOLE1 = EmitterParams.isotropic(gamma=9.4, gamma_dp=3.9, beta=0.94, f0=0.0, phi0=-0.25)
DIPOLE2 = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, f0=6.0, phi0=-0.25)
POWER_SCALES = (0.1, 0.3, 1.0, 3.0, 10.0)


def noisy_spectrum(p, freq, dipole, rng, omega=0.0, second="intensity", power=None):
    """Phase and an intensity-like channel of ``p`` with 1e-3 noise."""
    t, i_t = transmission(p, detuning_angular(freq, p.f0), omega)
    second_values = i_t if second == "intensity" else np.abs(t)
    sigma = np.full(freq.size, 1e-3)
    phase = np.angle(t) + p.phi0 + rng.normal(0, 1e-3, freq.size)
    return Spectrum(freq, {"phase": (phase, sigma),
                           second: (second_values + rng.normal(0, 1e-3, freq.size), sigma)},
                    dipole, power)


def saturation_datasets(rng, second="intensity"):
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.95, phi0=-0.26)
    om_sat2 = truth.gamma * truth.gamma2 / 4.0
    return [noisy_spectrum(truth, np.linspace(-8, 8, 41), 1, rng, omega=np.sqrt(scale * om_sat2),
                           second=second, power=scale * om_sat2)
            for scale in POWER_SCALES]


def two_dipole_dataset(rng, n_dipoles, second="intensity"):
    records = [noisy_spectrum(DIPOLE1, np.linspace(-6, 10, 41), 1, rng, second=second)]
    if n_dipoles == 2:
        records.append(noisy_spectrum(DIPOLE2, np.linspace(-2, 14, 41), 2, rng))
    return records


def product_dataset(rng):
    """Both dipoles' channels hold the product of the two transmissions."""
    freq = np.linspace(-8, 8, 81)
    t1, i1 = transmission(DIPOLE1.with_(f0=-1.5), detuning_angular(freq, -1.5), 0.0)
    t2, i2 = transmission(DIPOLE2.with_(f0=1.5), detuning_angular(freq, 1.5), 0.0)
    sigma = np.full(freq.size, 1e-3)
    return [Spectrum(freq, {kind: (values + rng.normal(0, 1e-3, freq.size), sigma)
                            for values, kind in ((np.angle(t1 * t2) + DIPOLE1.phi0, "phase"),
                                                 (i1 * i2, "intensity"))}, d)
            for d in (1, 2)]


class Captured(Exception):
    """Carries the callable a fit hands to the minimizer."""


def captured_fun(monkeypatch, fit, *args, **kwargs):
    """The ``fun`` that ``fit`` passes to ``lm_minimize``, which is not run."""
    def capture(fun, *_, **__):
        raise Captured(fun)

    monkeypatch.setattr(spectra, "lm_minimize", capture)
    with pytest.raises(Captured) as info:
        fit(*args, **kwargs)
    return info.value.args[0]


# fit, its intensity-like channel, combine; each case is checked at 50 seeded points
CASES = [
    ("saturation", "intensity", None),
    ("saturation", "amplitude", None),
    ("two_dipole_1", "amplitude", "isolated"),
    ("two_dipole_2", "intensity", "isolated"),
    ("two_dipole_2", "intensity", "product"),
]
POINTS_PER_CASE = 50
# a parameter of the fit, the box edge it is drawn near, and which side is inside
NEAR_BOUND = {"beta": (1.0, -1), "beta1": (1.0, -1), "beta2": (0.0, 1), "gamma_dp": (0.0, 1),
              "k": (0.0, 1)}


def _case(monkeypatch, rng, fit, second, combine):
    if fit == "saturation":
        return captured_fun(monkeypatch, spectra.fit_saturation_series,
                            saturation_datasets(rng, second))
    data = two_dipole_dataset(rng, 1 if fit.endswith("1") else 2, second)
    return captured_fun(monkeypatch, spectra.fit_two_dipole_spectra, data, combine=combine)


def _draw(rng, names, start):
    """A point around the data's truth; about half the points put one
    parameter within 1e-3 (but more than an FD step) inside a bound."""
    x = np.array(start) * rng.uniform(0.8, 1.2, len(start))
    for i, name in enumerate(names):
        if name.startswith("beta"):
            x[i] = rng.uniform(0.3, 0.99)
        elif name.startswith("f0"):
            x[i] = start[i] + rng.uniform(-0.5, 0.5)
    if rng.random() < 0.5:
        i = rng.choice([i for i, n in enumerate(names) if n in NEAR_BOUND])
        edge, inside = NEAR_BOUND[names[i]]
        x[i] = edge + inside * rng.uniform(1e-5, 1e-3)
    return x


@pytest.mark.parametrize("fit, second, combine", CASES)
def test_analytic_jacobian_matches_finite_differences(monkeypatch, fit, second, combine):
    rng = np.random.default_rng(11)
    fun = _case(monkeypatch, rng, fit, second, combine)
    names = (["beta", "gamma", "f0", "gamma_dp", "phi0", "k"] if fit == "saturation"
             else [f"{key}{d}" for d in range(1, 3 if fit.endswith("2") else 2)
                   for key in ("beta", "gamma", "f0")] + ["gamma_dp", "phi0"])
    truth = {"beta": 0.95, "gamma": 12.6, "f0": 0.0, "gamma_dp": 3.4, "phi0": -0.26, "k": 1.0,
             "beta1": 0.94, "gamma1": 9.4, "f01": 0.0, "beta2": 0.97, "gamma2": 12.3,
             "f02": 6.0}
    start = [truth[n] for n in names]
    for _ in range(POINTS_PER_CASE):
        x = _draw(rng, names, start)
        r, jac = fun(x)
        fd = jacobian_fd(lambda z: fun(z)[0], x, r)
        # the floor: FD roundoff, ~1e-13 in a model value over sigma = 1e-3, over
        # the step; and 1e-7 of the column's largest entry
        floor = 1e-7 * np.max(np.abs(fd), axis=0) + 1e-10 / fd_step(x)
        assert np.all(np.abs(jac - fd) <= 1e-6 * np.abs(fd) + floor), dict(zip(names, x))


@pytest.mark.parametrize("name", ["beta", "gamma_dp", "k"])
def test_parameter_on_its_bound_is_differentiated_from_inside(monkeypatch, name):
    # a central difference straddling the clip would give half of this
    fun = captured_fun(monkeypatch, spectra.fit_saturation_series,
                       saturation_datasets(np.random.default_rng(4)))
    names = ["beta", "gamma", "f0", "gamma_dp", "phi0", "k"]
    i = names.index(name)
    x = np.array([0.95, 12.6, 0.0, 3.4, -0.26, 1.0])
    edge, inside = NEAR_BOUND[name]
    x[i] = edge
    r, jac = fun(x)
    h = 1e-7
    x_in = x.copy()
    x_in[i] += inside * h
    one_sided = (fun(x_in)[0] - r) / (inside * h)
    np.testing.assert_allclose(jac[:, i], one_sided, rtol=1e-4,
                               atol=1e-4 * np.max(np.abs(one_sided)))


def test_transmission_over_drive_array_matches_scalar_calls():
    rng = np.random.default_rng(8)
    for p in (DIPOLE1, EmitterParams.chiral(gamma=7.0, beta_dir=0.8, gamma_dp=1.1)):
        delta = rng.uniform(-40.0, 40.0, 300)
        omega = rng.uniform(0.0, 30.0, 300)
        t, i_t = transmission(p, delta, omega)
        for j in range(delta.size):
            t_j, i_j = transmission(p, float(delta[j]), float(omega[j]))
            assert (t[j], i_t[j]) == (t_j, i_j)


def _count_evaluations(monkeypatch):
    runs = []

    def recording_lm(fun, *args, **kwargs):
        calls = []

        def counted(x):
            calls.append(1)
            return fun(x)

        result = lm_minimize(counted, *args, **kwargs)
        runs.append((len(calls), result))
        return result

    lm_minimize = spectra.lm_minimize
    monkeypatch.setattr(spectra, "lm_minimize", recording_lm)
    return runs


def test_fits_evaluate_each_iteration_a_few_times(monkeypatch):
    # the model and its Jacobian come from one call per trial point; a finite
    # difference Jacobian would take 2 calls per parameter per iteration
    runs = _count_evaluations(monkeypatch)
    rng = np.random.default_rng(21)
    spectra.fit_saturation_series(saturation_datasets(rng))
    # overlapping lines: initial_guess sees one merged dip, so the start is given
    spectra.fit_two_dipole_spectra(product_dataset(rng), combine="product", init={
        "beta1": 0.9, "gamma1": 10.0, "f01": -1.4, "beta2": 0.95, "gamma2": 12.0, "f02": 1.6,
        "gamma_dp": 3.0, "phi0": -0.2})
    assert len(runs) == 2
    for calls, result in runs:
        assert result.converged
        # one evaluation per trial, and fewer rejected trials than iterations
        assert calls <= 2 * result.n_iter + 1
