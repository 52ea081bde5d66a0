"""The fits' model values against direct projections of ``transmission``.

The fits evaluate each emitter once per row of a spectrum's grid and hand
that value to every channel the spectrum carries there.  These cases put
channels on one grid, on grids that share only some frequencies, and on
grids of different dipoles, so a point handed the value of another row shows
up as a mismatch with the closed form, projected as arg t + phi0, |t| or
I_t.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_jacobian import captured_fun

from wgphase import spectra
from wgphase.emitter import EmitterParams, transmission
from wgphase.extraction import PhasorSeries
from wgphase.spectra import Spectrum, channel_model, two_dipole_model
from wgphase.units import detuning_angular, wrap_angle

TOL = 1e-12
DIPOLE1 = EmitterParams.isotropic(gamma=9.4, gamma_dp=3.9, beta=0.94, f0=0.0, phi0=-0.25)
DIPOLE2 = EmitterParams.isotropic(gamma=12.3, gamma_dp=1.1, beta=0.8, f0=2.5, phi0=-0.25)


def closed_form(kind, emitters, freq, omega=0.0):
    """``kind``'s projection of the product of the emitters' transmissions."""
    t, i_t = 1.0, 1.0
    for p in emitters:
        t_p, i_p = transmission(p, detuning_angular(freq, p.f0), omega)
        t, i_t = t * t_p, i_t * i_p
    return {"phase": np.angle(t) + emitters[0].phi0, "amplitude": np.abs(t),
            "intensity": i_t}[kind]


def channel(kind, freq, dipole=1):
    return Spectrum(freq, {kind: (np.zeros(freq.size), np.ones(freq.size))}, dipole)


def by_channel(data, values):
    """``(kind, dipole, freq, values)`` of each channel of ``data``, whose
    concatenated channels ``values`` holds."""
    channels = [(kind, s.dipole, s.freq) for s in data for kind in s.channels]
    split = np.split(values, np.cumsum([freq.size for _, _, freq in channels])[:-1])
    return [(*ch, got) for ch, got in zip(channels, split)]


def dipole_params(x, i):
    """The emitter of dipole ``i`` (0-based) at a two-dipole parameter vector."""
    beta, gamma, f0 = x[3 * i: 3 * i + 3]
    return EmitterParams.isotropic(gamma=gamma, beta=beta, gamma_dp=x[-2], f0=f0, phi0=x[-1])


@pytest.mark.parametrize("kind", ["phase", "amplitude", "intensity"])
def test_channel_model_matches_closed_form(kind):
    freq = np.linspace(-9.0, 11.0, 57)
    omega = np.random.default_rng(3).uniform(0.0, 15.0, freq.size)  # one drive per point
    chiral = EmitterParams.chiral(gamma=7.0, beta_dir=0.8, gamma_dp=1.1, f0=1.0, phi0=0.3)
    for emitters, drive in [((DIPOLE1,), 0.0), ((DIPOLE1,), 6.0), ((DIPOLE1,), omega),
                            ((DIPOLE1, DIPOLE2), omega), ((chiral,), omega)]:
        got = channel_model(channel(kind, freq), list(emitters), drive)
        np.testing.assert_allclose(got, closed_form(kind, emitters, freq, drive),
                                   rtol=0, atol=TOL)


@pytest.mark.parametrize("combine", ["isolated", "product"])
def test_two_dipole_model_on_unshared_and_cut_grids_matches_closed_form(combine):
    # dipole 1: phase and |t| on different grids that share every other point;
    # dipole 2: phase and I_t of one phasor series cut to a frequency window
    grid1 = np.linspace(-6.0, 6.0, 41)
    series_freq = np.linspace(-4.0, 9.0, 53)
    zeros = np.zeros(series_freq.size)
    series = PhasorSeries(freq=series_freq, phase_shift=zeros, phase_err=zeros + 1.0,
                          amp_ratio=zeros, amp_err=zeros + 1.0, offset_ratio=zeros,
                          offset_err=zeros + 1.0, low_contrast=zeros.astype(bool))
    cut = Spectrum.from_phasors(series, dipole=2, freq_window=(0.5, 6.0))
    data = [channel("phase", grid1), channel("amplitude", grid1[::2]),
            channel("intensity", np.linspace(-5.0, 5.0, 23)), cut]
    assert cut.freq.size < series_freq.size
    x = np.array([0.94, 9.4, 0.0, 0.8, 12.3, 2.5, 3.9, -0.25])
    emitters = {1: [dipole_params(x, 0)], 2: [dipole_params(x, 1)]}
    if combine == "product":
        emitters = {d: [dipole_params(x, 0), dipole_params(x, 1)] for d in (1, 2)}
    for kind, dipole, freq, got in by_channel(data, two_dipole_model(data, x, combine)):
        np.testing.assert_allclose(got, closed_form(kind, emitters[dipole], freq),
                                   rtol=0, atol=TOL)


def test_two_dipole_model_multiplies_three_dipoles_under_product():
    # every channel holds the product of all three transmissions; the product
    # rule used to apply only to exactly two dipoles
    freq = np.linspace(-8.0, 8.0, 33)
    data = [Spectrum(freq, {kind: (np.zeros(freq.size), np.ones(freq.size))
                            for kind in ("phase", "intensity", "amplitude")}, d)
            for d in (1, 2, 3)]
    x = np.array([0.94, 9.4, -4.0, 0.8, 12.3, 0.0, 0.97, 11.0, 4.0, 3.9, -0.25])
    emitters = [dipole_params(x, i) for i in range(3)]
    for kind, _, freq, got in by_channel(data, two_dipole_model(data, x, "product")):
        np.testing.assert_allclose(got, closed_form(kind, emitters, freq), rtol=0, atol=TOL)


@pytest.mark.parametrize("at, value, named", [
    (0, 1.1, "beta1"), (3, -0.1, "beta2"), (4, 0.0, "gamma2"), (6, -0.5, "gamma_dp")])
def test_two_dipole_model_outside_the_physical_range_raises(at, value, named):
    # was clipped to the nearest physical value, in silence
    freq = np.linspace(-8.0, 8.0, 17)
    data = [channel("phase", freq, d) for d in (1, 2)]
    x = np.array([0.94, 9.4, 0.0, 0.8, 12.3, 2.5, 3.9, -0.25])
    x[at] = value
    with pytest.raises(ValueError, match=named):
        two_dipole_model(data, x)


def test_saturation_model_at_each_power_matches_closed_form(monkeypatch):
    # noiseless data at the truth: every residual is the model's difference
    # from the closed form at omega_r**2 = k*P, over sigma
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.95, phi0=-0.26)
    k, sigma = 1.7, 1e-3
    datasets = []
    for j, power in enumerate((0.5, 2.0, 8.0, 30.0)):
        phase_freq = np.linspace(-8.0, 8.0, 33)
        # the intensity grid shares only some sites with the phase grid
        int_freq = np.linspace(-8.0, 8.0, 17) + (0.25 if j % 2 else 0.0)
        omega = np.sqrt(k * power)
        datasets += [Spectrum(f, {kind: (closed_form(kind, [truth], f, omega),
                                         np.full(f.size, sigma))}, power=power)
                     for kind, f in (("phase", phase_freq), ("intensity", int_freq))]
    fun = captured_fun(monkeypatch, spectra.fit_saturation_series, datasets)
    x = np.array([truth.beta, truth.gamma, truth.f0, truth.gamma_dp, truth.phi0, k])
    r, _ = fun(x)
    assert np.max(np.abs(wrap_angle(r * sigma))) <= TOL
    # two_dipole_model takes the same vector, k included (it read phi0 as gamma_dp)
    data = np.concatenate([values for s in datasets for values, _ in s.channels.values()])
    assert np.max(np.abs(wrap_angle(two_dipole_model(datasets, x) - data))) <= TOL
