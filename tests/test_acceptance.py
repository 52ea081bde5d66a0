"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
Tolerances are fixed here, not tuned at runtime.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from oracles import input_output, integrate_steady_states

from wgphase.cli import EXIT_OK, main as cli_main
from wgphase.emitter import (EmitterParams, chiral_thresholds, critical_photon_flux,
                             phase_extrema_analytic, phase_extrema_numeric, transmission)
from wgphase.extraction import estimate_path_length_fft
from wgphase.interferometer import (InterferometerConfig, apply_shot_noise,
                                    fringe_trace)
from wgphase.spectra import (Spectrum, fit_saturation_series, fit_two_dipole_spectra,
                             predict_phase_vs_power)
from wgphase.units import detuning_angular


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    # closed-form steady state and transmission of both couplings vs RK4
    # integration, 1000 random draws, < 10 s
    rng = np.random.default_rng(20240917)
    n = 1000
    gamma = rng.uniform(1, 30, n)
    gamma_dp = rng.uniform(0, 10, n)
    omega = rng.uniform(0, 20, n)
    delta = rng.uniform(-50, 50, n)
    beta = rng.uniform(0, 1, n)
    start = time.perf_counter()
    rho_ee, rho_ge, converged, _ = integrate_steady_states(gamma, gamma_dp, omega, delta)
    elapsed = time.perf_counter() - start
    gamma2 = gamma / 2 + gamma_dp
    denominator = gamma2**2 + delta**2 + 4 * (gamma2 / gamma) * omega**2
    err_ee = np.max(np.abs(rho_ee - 2 * gamma2 * omega**2 / (gamma * denominator)))
    err_ge = np.max(np.abs(rho_ge - (-omega * (1j * gamma2 + delta) / denominator)))
    # the input-output relations amplify rho errors by s/omega and s*|gamma - s|/omega**2
    worst_t = worst_i = 0.0
    for coupling, s in (("isotropic", beta * gamma / 2), ("chiral", beta * gamma)):
        t_oracle, i_oracle = input_output(s, gamma, omega, rho_ee, rho_ge)
        t, i_t = map(np.array, zip(*(
            transmission(EmitterParams(gamma=g, gamma_dp=g_dp, coupling=coupling, beta=b), d, om)
            for g, g_dp, b, d, om in zip(gamma, gamma_dp, beta, delta, omega))))
        worst_t = max(worst_t, np.max(np.abs(t - t_oracle) / (1e-8 * s / omega + 1e-12)))
        worst_i = max(worst_i, np.max(np.abs(i_t - i_oracle)
                                      / (1e-8 * s * np.abs(gamma - s) / omega**2 + 1e-12)))
    ok = (converged.all() and err_ee < 1e-8 and err_ge < 1e-8 and worst_t <= 1.0
          and worst_i <= 1.0 and elapsed < 10.0)
    report("1 oracle equivalence", ok,
           f"max err ee {err_ee:.2e}, ge {err_ge:.2e}, t and I_t at {worst_t:.1e} and "
           f"{worst_i:.1e} of their bounds, {elapsed:.2f}s")


def test_criterion_2_analytic_extremum():
    worst_phi = worst_delta = 0.0
    for beta in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.94, 0.99):
        p = EmitterParams.isotropic(gamma=9.4, beta=beta)
        ana = phase_extrema_analytic(p)
        num = phase_extrema_numeric(p)
        worst_phi = max(worst_phi, abs(abs(num.phi) - ana.phi_max))
        worst_delta = max(worst_delta, abs(abs(num.delta) - ana.delta_plus))
    ok = worst_phi < 1e-6 and worst_delta < 1e-6
    report("2 analytic extremum", ok,
           f"worst |phi| err {worst_phi:.2e} rad, worst |delta| err {worst_delta:.2e}")


def test_criterion_3_chiral_identities():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        gamma = rng.uniform(1, 30)
        gamma_dp = rng.uniform(0, 10)
        omega = rng.uniform(0, 20)
        delta = rng.uniform(-50, 50)
        tc, ic = transmission(EmitterParams.chiral(gamma=gamma, beta_dir=0.5,
                                                   gamma_dp=gamma_dp), delta, omega)
        ti, ii = transmission(EmitterParams.isotropic(gamma=gamma, beta=1.0,
                                                      gamma_dp=gamma_dp), delta, omega)
        worst = max(worst, abs(tc - ti), abs(ic - ii))

    gamma = 12.3
    th = chiral_thresholds(EmitterParams.chiral(gamma=gamma, beta_dir=1.0))

    def re_t_at_omega(omega):
        t, _ = transmission(EmitterParams.chiral(gamma=gamma, beta_dir=1.0), 0.0, omega)
        return t.real

    def re_t_at_gdp(gdp):
        t, _ = transmission(EmitterParams.chiral(gamma=gamma, beta_dir=1.0, gamma_dp=gdp),
                            0.0, 0.0)
        return t.real

    omega_cross = _bisect(re_t_at_omega, 1e-6, gamma)
    gdp_cross = _bisect(re_t_at_gdp, 1e-6, gamma)
    err_omega = abs(omega_cross - th.omega_c)
    err_gdp = abs(gdp_cross - th.gamma_dp_c)
    ok = worst < 1e-12 and err_omega < 1e-9 and err_gdp < 1e-9
    report("3 chiral identities", ok,
           f"correspondence {worst:.2e}, omega_c err {err_omega:.2e}, "
           f"gamma_dp_c err {err_gdp:.2e}")


def _bisect(fun, lo, hi, tol=1e-12):
    flo = fun(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_criterion_4_path_length_recovery():
    # delta_l = 2.78 m, visibility 0.65, Poisson noise at 1e5 counts/bin
    cfg = InterferometerConfig(delta_l_m=2.78, visibility=0.65, p_lo_cps=1e6, p_sig_cps=1e4,
                               integration_time_s=0.1)
    freq = np.linspace(-15, 15, 4501)
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, phi0=-0.25)
    off = fringe_trace(cfg, p, freq, qd_on=False)
    assert 0.9e5 < float(np.mean(off.intensity)) < 1.3e5
    worst = 0.0
    for seed in range(50):
        noisy = apply_shot_noise(off, seed)
        est = estimate_path_length_fft(noisy)
        worst = max(worst, abs(est - 2.78) / 2.78)
    ok = worst < 0.005
    report("4 path-length recovery", ok, f"worst relative error {worst:.2e} over 50 seeds")


TRUTH_TABLE = {"beta1": 0.94, "gamma1": 9.4, "beta2": 1.0, "gamma2": 12.3,
               "gamma_dp": 3.9, "phi0": -0.25}
REF_SIGMA = {"beta1": 0.03, "gamma1": 0.2, "beta2": 0.03, "gamma2": 0.2,
                "gamma_dp": 0.1, "phi0": 0.02}


def test_criterion_5_table_round_trip():
    # per-point noise 0.02 rad / 0.02 puts every linearized parameter sigma at
    # or below its reference target (worst ratio ~0.85 for the decay rates);
    # REF_SIGMA for beta1 stands in for beta2, whose truth sits on the bound
    p1 = EmitterParams.isotropic(gamma=9.4, gamma_dp=3.9, beta=0.94, f0=0.0, phi0=-0.25)
    p2 = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, f0=15.0, phi0=-0.25)
    grids = {1: np.linspace(-6, 6, 41), 2: np.linspace(9, 21, 41)}
    sigma = 0.02

    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        records = []
        for p, dipole in ((p1, 1), (p2, 2)):
            freq = grids[dipole]
            t, i_t = transmission(p, detuning_angular(freq, p.f0), 0.0)
            phase = np.angle(t) + p.phi0 + rng.normal(0, sigma, freq.size)
            inten = i_t + rng.normal(0, sigma, freq.size)
            sig = np.full(freq.size, sigma)
            records.append(Spectrum(freq, {"phase": (phase, sig), "intensity": (inten, sig)},
                                    dipole))
        res = fit_two_dipole_spectra(records)
        good = res.converged
        for name, want in TRUTH_TABLE.items():
            if abs(res[name] - want) > 3 * REF_SIGMA[name]:
                good = False
        hits += good
    elapsed = time.perf_counter() - start
    ok = hits >= 90 and elapsed < 120.0
    report("5 table round trip", ok, f"{hits}/100 inside 3 sigma, {elapsed:.1f}s")


SAT_INTERVALS = {"beta": (0.57, 1.0), "gamma": (7.7, 17.4), "gamma_dp": (0.0, 7.4),
                 "phi0": (-0.31, -0.2)}


def test_criterion_6_saturation_round_trip():
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.99, f0=0.0, phi0=-0.26)
    om_sat2 = truth.gamma * truth.gamma2 / 4.0
    rng = np.random.default_rng(4)
    datasets = []
    for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
        power = scale * om_sat2
        freq = np.linspace(-8, 8, 41)
        t, i_t = transmission(truth, detuning_angular(freq, 0.0), np.sqrt(power))
        phase = np.angle(t) + truth.phi0 + rng.normal(0, 0.02, freq.size)
        inten = i_t + rng.normal(0, 0.02, freq.size)
        sigma = np.full(freq.size, 0.02)
        datasets.append(Spectrum(freq, {"phase": (phase, sigma), "intensity": (inten, sigma)},
                                 power=power))
    res = fit_saturation_series(datasets)
    inside = {name: lo <= res[name] <= hi for name, (lo, hi) in SAT_INTERVALS.items()}
    fitted = EmitterParams.isotropic(gamma=res["gamma"], beta=res["beta"],
                                     gamma_dp=res["gamma_dp"], phi0=res["phi0"])
    powers = np.geomspace(0.03 * om_sat2, 20 * om_sat2, 15)
    curve = predict_phase_vs_power(fitted, res["k"], powers)
    monotone = bool(np.all(np.diff(np.abs(curve)) <= 1e-12))
    ok = res.converged and all(inside.values()) and monotone
    detail = ", ".join(f"{k}={res[k]:.3f}" for k in SAT_INTERVALS)
    report("6 saturation round trip", ok, detail + f", monotone={monotone}")


def test_criterion_7_model_value_with_caveat():
    # low-power extremum at the second dipole's fitted parameters; the
    # closed-form target comes from maximizing tan(phi) by hand:
    # delta* = sqrt(g2*(g2 - s)), tan(phi*) = s/(2*sqrt(g2*(g2 - s))), s = beta*gamma/2.
    # Directly measured shifts larger than this value reflect inflated fitted
    # dephasing (slow spectral wander folded into gamma_dp), so no larger
    # target is asserted here.
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0)
    num = phase_extrema_numeric(p)
    hand = 0.456556824053906  # exact closed-form maximization
    ok = abs(num.phi_abs - 0.4565) < 1e-3 and abs(num.phi_abs - hand) < 1e-9
    report("7 model phase value", ok,
           f"|phi|max {num.phi_abs:.6f} rad = {num.phi_abs / np.pi:.4f} pi")


def test_criterion_8_critical_photon_flux():
    v1 = critical_photon_flux(EmitterParams.isotropic(gamma=1.0, beta=1.0))
    v2 = critical_photon_flux(EmitterParams.isotropic(gamma=1.0, beta=1.0, gamma_dp=0.25))
    v3 = critical_photon_flux(EmitterParams.isotropic(gamma=12.6, beta=0.99, gamma_dp=3.4))
    ok = (abs(v1 - 0.25) < 1e-12 and abs(v2 - 0.375) < 1e-12
          and abs(v3 - 0.3927360829717732) < 1e-9)
    report("8 critical photon flux", ok, f"0.25 -> {v1}, 0.375 -> {v2}, table -> {v3:.4f}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "emitter": {"gamma_rad_ns": 12.3, "gamma_dp_rad_ns": 3.9, "beta": 1.0,
                    "phi0_rad": -0.25},
        "sweep": {"start_ghz": -6.0, "stop_ghz": 6.0, "points": 1801},
        "noise": {"shot_noise": True, "seed": 77},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    manifests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["--config", str(cfg_path), "--out", str(out), "simulate"])
        assert code == EXIT_OK
        manifests.append(json.loads((out / "manifest.json").read_text())["files"])
    ok = manifests[0] == manifests[1]
    report("9 determinism", ok, f"{len(manifests[0])} files hash-identical")
