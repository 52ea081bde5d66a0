from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from wgphase import emitter, interferometer, spectra
from wgphase.cli import (EXIT_BAD_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main)
from wgphase.emitter import EmitterParams, transmission
from wgphase.extraction import PhasorSeries
from wgphase.io import parse_phasors_csv, parse_trace_csv, write_phasors_csv
from wgphase.units import detuning_angular, wrap_angle


def run_cli(*args):
    return main(list(args))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


NESTED_600 = json.loads("[" * 600 + "1" + "]" * 600)

BASE_CFG = {
    "emitter": {"gamma_rad_ns": 12.3, "gamma_dp_rad_ns": 3.9, "beta": 1.0,
                "f0_ghz": 0.0, "phi0_rad": -0.25},
    "interferometer": {"delta_l_m": 2.78, "visibility": 0.65, "p_lo_cps": 1e6,
                       "p_sig_cps": 1e4, "integration_time_s": 0.1},
    "sweep": {"start_ghz": -12.0, "stop_ghz": 12.0, "points": 3601},
}


def test_simulate_smoke(tmp_path):
    out = tmp_path / "sim"
    cfg = write_cfg(tmp_path, "cfg.json", BASE_CFG)
    assert run_cli("--config", cfg, "--out", str(out), "simulate") == EXIT_OK
    for name in ("config.json", "manifest.json", "model_spectrum.csv",
                 "trace_on.csv", "trace_off.csv"):
        assert (out / name).exists(), name
    trace = parse_trace_csv(out / "trace_on.csv")
    assert trace.meta["qd_on"] is True
    manifest = read_json(out / "manifest.json")
    assert "trace_on.csv" in manifest["files"]


def test_simulate_seed_reruns_byte_identical(tmp_path):
    cfg = dict(BASE_CFG)
    cfg["noise"] = {"shot_noise": True, "seed": 21}
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    manifests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("--config", cfg_path, "--out", str(out), "simulate") == EXIT_OK
        manifests.append(read_json(out / "manifest.json")["files"])
    assert manifests[0] == manifests[1]
    out_c = tmp_path / "c"
    assert run_cli("--config", cfg_path, "--out", str(out_c), "--seed", "22",
                   "simulate") == EXIT_OK
    assert read_json(out_c / "manifest.json")["files"] != manifests[0]


def test_largest_seed_runs(tmp_path):
    # 2**64 - 2 is the largest seed whose off trace, at seed + 1, has a 64-bit key
    top = 2**64 - 2
    noise = {"shot_noise": True, "seed": top}
    cfg_path = write_cfg(tmp_path, "cfg.json", {"sweep": {"points": 50}, "noise": noise})
    assert run_cli("--config", cfg_path, "--out", str(tmp_path / "a"), "simulate") == EXIT_OK
    noise["seed"] = 0
    flag_cfg = write_cfg(tmp_path, "flag.json", {"sweep": {"points": 50}, "noise": noise})
    assert run_cli("--config", flag_cfg, "--out", str(tmp_path / "b"), f"--seed={top}",
                   "simulate") == EXIT_OK
    manifests = [read_json(tmp_path / sub / "manifest.json") for sub in ("a", "b")]
    assert manifests[0] == manifests[1]
    assert parse_trace_csv(tmp_path / "b" / "trace_off.csv").meta["shot_noise_seed"] == top + 1


def test_simulate_ideal_isotropic_vs_chiral_curves(tmp_path):
    # ideal coupling, no dephasing: the chiral spectrum carries a pi phase at
    # resonance while the isotropic one shows full extinction there
    iso_cfg = {"emitter": {"gamma_rad_ns": 12.3, "gamma_dp_rad_ns": 0.0, "beta": 1.0,
                           "coupling": "isotropic", "phi0_rad": 0.0},
               "sweep": {"start_ghz": -10.0, "stop_ghz": 10.0, "points": 2001}}
    chi_cfg = json.loads(json.dumps(iso_cfg))
    chi_cfg["emitter"]["coupling"] = "chiral"

    curves = {}
    for label, cfg in (("iso", iso_cfg), ("chi", chi_cfg)):
        out = tmp_path / label
        assert run_cli("--config", write_cfg(tmp_path, f"{label}.json", cfg),
                       "--out", str(out), "simulate") == EXIT_OK
        rows = np.genfromtxt(out / "model_spectrum.csv", delimiter=",", names=True)
        curves[label] = rows
    i0 = np.argmin(np.abs(curves["iso"]["freq_ghz"]))
    assert curves["iso"]["i_t"][i0] == pytest.approx(0.0, abs=1e-12)
    assert curves["chi"]["phase_rad"][i0] == pytest.approx(np.pi, abs=1e-12)
    assert curves["chi"]["i_t"][i0] == pytest.approx(1.0, abs=1e-12)


def test_extract_roundtrip_and_offoff(tmp_path):
    cfg_path = write_cfg(tmp_path, "cfg.json", BASE_CFG)
    sim = tmp_path / "sim"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK

    ext = tmp_path / "ext"
    assert run_cli("--config", cfg_path, "--out", str(ext), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    summary = read_json(ext / "summary.json")
    assert summary["delta_l_m"] == pytest.approx(2.78, rel=1e-3)
    series = parse_phasors_csv(ext / "phasors.csv")
    assert summary["n_points"] == len(series) > 30
    # phases near resonance are clearly nonzero for the on/off pair
    assert max(abs(shift) for shift in series.phase_shift) > 0.3

    off2 = tmp_path / "offoff"
    assert run_cli("--config", cfg_path, "--out", str(off2), "extract",
                   str(sim / "trace_off.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    offoff = parse_phasors_csv(off2 / "phasors.csv")
    for shift, amp, offset in zip(offoff.phase_shift, offoff.amp_ratio, offoff.offset_ratio):
        assert shift == pytest.approx(0.0, abs=1e-9)
        assert amp == pytest.approx(1.0, abs=1e-9)
        assert offset == pytest.approx(1.0, abs=1e-9)


def test_extract_grid_mismatch_is_bad_input(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "cfg.json", BASE_CFG)
    sim = tmp_path / "sim"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    other = dict(BASE_CFG)
    other["sweep"] = {"start_ghz": -12.0, "stop_ghz": 12.0, "points": 1801}
    sim2 = tmp_path / "sim2"
    assert run_cli("--config", write_cfg(tmp_path, "cfg2.json", other),
                   "--out", str(sim2), "simulate") == EXIT_OK
    code = run_cli("--config", cfg_path, "--out", str(tmp_path / "x"), "extract",
                   str(sim / "trace_on.csv"), str(sim2 / "trace_off.csv"))
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "share a frequency grid" in err and "3601" in err and "1801" in err


@pytest.mark.parametrize("field, value, named", [
    ("delta_l_m", 0.0, "delta_l"),      # was exit 4 (ZeroDivisionError)
    ("delta_l_m", -2.78, "delta_l"),    # was exit 0 with nonsense phasors
    ("poly_order", -1, "poly_order"),   # was "need at least one array to concatenate"
    ("window_periods", np.inf, "window_periods"),  # was exit 4 (OverflowError)
    ("window_periods", np.nan, "window_periods"),  # was "cannot convert float NaN..."
    ("hop_periods", np.inf, "hop_periods"),        # was exit 4 (OverflowError)
    ("hop_periods", 0.0, "hop_periods"),           # was exit 0 with 3500+ windows
    ("hop_periods", -1.0, "hop_periods"),          # was exit 0 with 3500+ windows
])
def test_extract_bad_extraction_value_is_bad_input(tmp_path, capsys, field, value, named):
    sim = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "sim.json", BASE_CFG),
                   "--out", str(sim), "simulate") == EXIT_OK
    bad = dict(BASE_CFG, extraction={field: value})
    code = run_cli("--config", write_cfg(tmp_path, "bad.json", bad),
                   "--out", str(tmp_path / "x"), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv"))
    assert code == EXIT_BAD_INPUT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("drive", [
    {"omega_rad_ns": 20.0},                                # linear response: omega_r = 0
    {"omega_rad_ns": 20.0, "linear_response": True},
])
def test_simulate_drive_under_linear_response_is_bad_input(tmp_path, capsys, drive):
    # was exit 0 with the drive ignored and recorded in the trace sidecar
    cfg = write_cfg(tmp_path, "cfg.json", dict(BASE_CFG, drive=drive))
    assert run_cli("--config", cfg, "--out", str(tmp_path / "o"), "simulate") == EXIT_BAD_INPUT
    assert "drive.omega_rad_ns" in capsys.readouterr().err


@pytest.mark.parametrize("drive", [
    {"omega_rad_ns": -5.0},                                # was exit 0, drive ignored
    {"omega_rad_ns": -5.0, "linear_response": False},      # was exit 2 naming no field
    {"omega_rad_ns": np.inf, "linear_response": False},
    {"omega_rad_ns": np.nan, "linear_response": False},
])
def test_simulate_negative_or_nonfinite_drive_is_bad_input(tmp_path, capsys, drive):
    cfg = write_cfg(tmp_path, "cfg.json", dict(BASE_CFG, drive=drive))
    assert run_cli("--config", cfg, "--out", str(tmp_path / "o"), "simulate") == EXIT_BAD_INPUT
    assert "drive.omega_rad_ns" in capsys.readouterr().err


@pytest.mark.parametrize("drive, omega_r", [
    ({}, 0.0),
    ({"omega_rad_ns": 0.0, "linear_response": False}, 0.0),
    ({"omega_rad_ns": 8.0, "linear_response": False}, 8.0),
])
def test_simulate_trace_meta_records_applied_drive(tmp_path, drive, omega_r):
    cfg = dict(BASE_CFG, drive=drive)
    out = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", cfg),
                   "--out", str(out), "simulate") == EXIT_OK
    on = parse_trace_csv(out / "trace_on.csv")
    assert on.meta["drive"] == {"omega_r": omega_r}
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    freq = np.linspace(-12.0, 12.0, 3601)
    t, i_t = transmission(p, detuning_angular(freq, 0.0), omega_r)
    rows = np.genfromtxt(out / "model_spectrum.csv", delimiter=",", names=True)
    np.testing.assert_array_equal(rows["i_t"], i_t)


def test_simulate_runs_the_lock_loop_once(tmp_path, monkeypatch):
    # the on and off traces share one environmental-phase realisation
    calls = []
    loop = interferometer.lock_loop_residual
    monkeypatch.setattr(interferometer, "lock_loop_residual",
                        lambda *args, **kwargs: calls.append(1) or loop(*args, **kwargs))
    cfg = dict(BASE_CFG, interferometer={"env_phase": {"kind": "locked_drift"}},
               noise={"shot_noise": True, "seed": 3})
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", cfg),
                   "--out", str(tmp_path / "sim"), "simulate") == EXIT_OK
    assert len(calls) == 1


def test_extract_truncated_csv_is_bad_input(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "cfg.json", BASE_CFG)
    sim = tmp_path / "sim"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    bad = tmp_path / "trunc.csv"
    text = (sim / "trace_on.csv").read_text().splitlines()
    text[40] = text[40].split(",")[0]  # drop a field mid-file
    bad.write_text("\n".join(text), encoding="utf-8")
    code = run_cli("--config", cfg_path, "--out", str(tmp_path / "x"), "extract",
                   str(bad), str(sim / "trace_off.csv"))
    assert code == EXIT_BAD_INPUT
    assert "trunc.csv:41" in capsys.readouterr().err


def test_pathlength_command(tmp_path):
    cfg_path = write_cfg(tmp_path, "cfg.json", BASE_CFG)
    sim = tmp_path / "sim"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    out = tmp_path / "pl"
    assert run_cli("--out", str(out), "pathlength", str(sim / "trace_off.csv")) == EXIT_OK
    assert read_json(out / "summary.json")["delta_l_m"] == pytest.approx(2.78, rel=1e-3)


def test_fit_recovers_reference_values(tmp_path):
    cfg = dict(BASE_CFG)
    cfg["noise"] = {"shot_noise": True, "seed": 3}
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    sim = tmp_path / "sim"
    ext = tmp_path / "ext"
    fit = tmp_path / "fit"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    assert run_cli("--config", cfg_path, "--out", str(ext), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    assert run_cli("--config", cfg_path, "--out", str(fit), "fit",
                   str(ext / "phasors.csv")) == EXIT_OK
    payload = read_json(fit / "fit.json")
    assert payload["converged"] is True
    params = payload["params"]
    assert params["beta1"]["value"] == pytest.approx(1.0, abs=0.15)
    assert params["gamma1"]["value"] == pytest.approx(12.3, abs=1.5)
    assert params["gamma_dp"]["value"] == pytest.approx(3.9, abs=1.0)
    assert params["phi0"]["value"] == pytest.approx(-0.25, abs=0.03)
    assert (fit / "residuals.csv").exists()


def _noisy_phasor_file(path, p, freq, rng, sigma=0.01):
    t, i_t = transmission(p, detuning_angular(freq, p.f0), 0.0)
    noise = rng.normal(0.0, sigma, (3, freq.size))
    errs = np.full(freq.size, sigma)
    series = PhasorSeries(freq=freq, phase_shift=np.angle(t) + p.phi0 + noise[0],
                          amp_ratio=np.abs(t) + noise[1], offset_ratio=i_t + noise[2],
                          phase_err=errs, amp_err=errs, offset_err=errs,
                          low_contrast=np.zeros(freq.size, dtype=bool))
    write_phasors_csv(series, path)
    return str(path)


def _channel_residual(ch, model):
    # one channel's block of the fit residual, channel by channel: inverse-sigma
    # weights, wrapped phase, and 0 where a value or sigma is unusable
    sig = np.where(ch.sigma > 0, ch.sigma, np.inf)
    finite = np.isfinite(ch.values) & np.isfinite(sig)
    w = np.where(finite & (sig > 0), 1.0 / np.where(sig > 0, sig, 1.0), 0.0)
    diff = model - ch.values
    if ch.kind == "phase":
        diff = wrap_angle(diff)
    return np.where(w > 0, diff * w, 0.0)


@pytest.mark.parametrize("n_files,combine", [(1, "isolated"), (2, "isolated"), (2, "product")])
def test_fit_residuals_csv_reproduces_fit_residuals(tmp_path, monkeypatch, n_files, combine):
    # every row of residuals.csv carries its channel's dipole, and the model
    # column is the model the fit minimized, bit for bit
    fits = []

    def recording_lm(fun, *args, **kwargs):
        result = lm_minimize(fun, *args, **kwargs)
        fits.append((fun, result))
        return result

    lm_minimize = spectra.lm_minimize
    monkeypatch.setattr(spectra, "lm_minimize", recording_lm)
    rng = np.random.default_rng(5)
    emitters = [EmitterParams.isotropic(gamma=9.4, gamma_dp=3.9, beta=0.94, phi0=-0.25),
                EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, f0=6.0, phi0=-0.25)]
    files = [_noisy_phasor_file(tmp_path / f"p{d}.csv", p, np.linspace(p.f0 - 8, p.f0 + 8, 41),
                                rng) for d, p in enumerate(emitters[:n_files], start=1)]
    out = tmp_path / "fit"
    code = run_cli("--config", write_cfg(tmp_path, "c.json", {"fit": {"combine": combine}}),
                   "--out", str(out), "fit", *files)
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
    (fun, result), = fits
    channels = [ch for d, path in enumerate(files, start=1)
                for ch in spectra.SpectrumDataset.from_phasors(parse_phasors_csv(path),
                                                              dipole=d).channels]
    rows = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1)
    assert rows.shape == (sum(ch.freq.size for ch in channels), 5)
    start, blocks = 0, []
    for ch in channels:
        block = rows[start:start + ch.freq.size]
        start += ch.freq.size
        np.testing.assert_array_equal(block[:, 0], ch.freq)
        assert np.all(block[:, 2] == ch.dipole)
        np.testing.assert_array_equal(block[:, 3], ch.values)
        blocks.append(_channel_residual(ch, block[:, 4]))
    np.testing.assert_array_equal(np.concatenate(blocks), fun(result.params)[0])


def test_fit_missing_file_is_bad_input(tmp_path):
    code = run_cli("--out", str(tmp_path / "fit"), "fit", str(tmp_path / "nope.csv"))
    assert code == EXIT_BAD_INPUT


def test_fit_nonconvergence_exit_code(tmp_path):
    cfg = dict(BASE_CFG)
    cfg["fit"] = {"max_iter": 1, "init": {"beta": 0.2, "gamma": 30.0, "gamma_dp": 9.0}}
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    sim = tmp_path / "sim"
    ext = tmp_path / "ext"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    assert run_cli("--config", cfg_path, "--out", str(ext), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    code = run_cli("--config", cfg_path, "--out", str(tmp_path / "fit"), "fit",
                   str(ext / "phasors.csv"))
    assert code == EXIT_NO_CONVERGENCE
    # diagnostics still land in a finished bundle for inspection
    manifest = read_json(tmp_path / "fit" / "manifest.json")
    assert sorted(manifest["files"]) == ["config.json", "fit.json", "residuals.csv"]


def _saturation_files(tmp_path):
    """Noiseless phasor files at five drive powers (k = 1), the power in each sidecar."""
    truth = EmitterParams.isotropic(gamma=12.6, gamma_dp=3.4, beta=0.99, phi0=-0.26)
    om_sat2 = truth.gamma * truth.gamma2 / 4.0
    files = []
    powers = [0.1 * om_sat2, 0.5 * om_sat2, om_sat2, 3 * om_sat2, 10 * om_sat2]
    freq = np.linspace(-8, 8, 41)
    for i, power in enumerate(powers):
        t, i_t = transmission(truth, detuning_angular(freq, 0.0), np.sqrt(power))
        errs = np.full(freq.size, 0.01)
        series = PhasorSeries(freq=freq, phase_shift=np.angle(t) + truth.phi0,
                              amp_ratio=np.abs(t), offset_ratio=i_t,
                              phase_err=errs, amp_err=errs, offset_err=errs,
                              low_contrast=np.zeros(freq.size, dtype=bool))
        path = tmp_path / f"phasors_{i}.csv"
        write_phasors_csv(series, path, meta={"power": power})
        files.append(str(path))
    return files


def test_fit_saturation_summary_includes_k_and_flux(tmp_path):
    files = _saturation_files(tmp_path)
    out = tmp_path / "sat"
    assert run_cli("--out", str(out), "fit-saturation", *files) == EXIT_OK
    payload = read_json(out / "fit.json")
    assert payload["params"]["k"]["value"] == pytest.approx(1.0, rel=0.05)
    assert payload["n_c"] == pytest.approx(0.3927, abs=0.02)
    assert (out / "phase_vs_power.csv").exists()


def test_fit_saturation_zero_sidecar_power_is_bad_input(tmp_path, capsys):
    # was exit 2 from the phase-vs-power curve, after config.json and fit.json
    files = _saturation_files(tmp_path)
    (tmp_path / "phasors_0.csv.meta.json").write_text('{"power": 0}', encoding="utf-8")
    out = tmp_path / "sat"
    assert run_cli("--out", str(out), "fit-saturation", *files) == EXIT_BAD_INPUT
    assert "phasors_0.csv.meta.json:" in capsys.readouterr().err
    assert not out.exists()


def test_fit_saturation_requires_powers(tmp_path):
    ones, errs = np.ones(6), np.full(6, 0.01)
    series = PhasorSeries(freq=np.arange(6.0), phase_shift=np.zeros(6), amp_ratio=ones,
                          offset_ratio=ones, phase_err=errs, amp_err=errs, offset_err=errs,
                          low_contrast=np.zeros(6, dtype=bool))
    path = tmp_path / "p.csv"
    write_phasors_csv(series, path)
    assert run_cli("--out", str(tmp_path / "o"), "fit-saturation", str(path)) == EXIT_BAD_INPUT


CHIRAL_CFG = {"emitter": {"coupling": "chiral", "beta": 1.0, "gamma_rad_ns": 12.3,
                          "gamma_dp_rad_ns": 0.0},
              "chiral_scan": {"beta_dirs": [1.0, 0.7, 0.5], "points": 31,
                              "omega_max_rad_ns": 10.0, "gamma_dp_max_rad_ns": 10.0}}

# sha256 of the scan tables of CHIRAL_CFG, as one closed-form call per scan
# point wrote them before the scans were vectorised
_CHIRAL_SHA256 = {
    "phase_vs_omega.csv": "3e849d695bdc363edde28ec3e42bd951bb9e2efb4c2f9da5d3a4dce5125be20a",
    "phase_vs_dephasing.csv": "adefd356b6b3e375db888f317b3df3d005157cb3606d433e2fa2a3cd6388782d",
}


def test_predict_chiral_outputs(tmp_path):
    out = tmp_path / "chi"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", CHIRAL_CFG),
                   "--out", str(out), "predict-chiral") == EXIT_OK
    thresholds = read_json(out / "thresholds.json")
    assert thresholds["omega_c_rad_ns"] == pytest.approx(12.3 / (2 * np.sqrt(2)))
    assert thresholds["gamma_dp_c_rad_ns"] == pytest.approx(6.15)
    assert thresholds["beta_dir_c"] == 0.5
    rows = np.genfromtxt(out / "phase_vs_omega.csv", delimiter=",", names=True)
    # ideal chiral coupling holds the pi shift until the saturation threshold
    col = rows["phi_max_bdir_1"]
    omegas = rows["omega_rad_ns"]
    below = omegas < 12.3 / (2 * np.sqrt(2)) - 0.5
    above = omegas > 12.3 / (2 * np.sqrt(2)) + 0.5
    assert np.all(np.abs(np.abs(col[below]) - np.pi) < 1e-6)
    assert np.all(np.abs(col[above]) < np.pi / 2)


def test_predict_chiral_tables_bytes_pinned(tmp_path):
    out = tmp_path / "chi"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", CHIRAL_CFG),
                   "--out", str(out), "predict-chiral") == EXIT_OK
    for name, digest in _CHIRAL_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_predict_chiral_evaluates_whole_axes(tmp_path, monkeypatch):
    # each scan is one closed-form call per beta_dir on its whole axis, never
    # one call per point (121 here)
    calls = {"phase_extrema_analytic": 0, "_phase_extrema": 0}
    for name in calls:
        def counted(*args, _fn=getattr(emitter, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(emitter, name, counted)
    beta_dirs = [1.0, 0.9, 0.7, 0.5]
    cfg = {"chiral_scan": {"beta_dirs": beta_dirs, "points": 121}}
    assert run_cli("--config", write_cfg(tmp_path, "c.json", cfg),
                   "--out", str(tmp_path / "chi"), "predict-chiral") == EXIT_OK
    assert calls["_phase_extrema"] >= len(beta_dirs)  # the wrappers saw the scans
    for name, n in calls.items():
        assert n <= 2 * len(beta_dirs), (name, n)


@pytest.mark.parametrize("scan, named", [
    ({"points": 0}, "chiral_scan.points"),                          # was header-only tables
    ({"points": 1}, "chiral_scan.points"),
    ({"omega_max_rad_ns": -5.0}, "chiral_scan.omega_max_rad_ns"),   # was negative drives
    ({"omega_max_rad_ns": np.nan}, "chiral_scan.omega_max_rad_ns"),
    ({"gamma_dp_max_rad_ns": np.inf}, "chiral_scan.gamma_dp_max_rad_ns"),  # named no field
    ({"gamma_dp_max_rad_ns": -1.0}, "chiral_scan.gamma_dp_max_rad_ns"),
    ({"beta_dirs": [None]}, "chiral_scan.beta_dirs[0]"),           # was exit 4 (TypeError)
    ({"beta_dirs": [1.0, "a"]}, "chiral_scan.beta_dirs[1]"),        # named no field
    ({"beta_dirs": [True]}, "chiral_scan.beta_dirs[0]"),           # was a phi_max_bdir_1 curve
    ({"beta_dirs": []}, "chiral_scan.beta_dirs"),                  # was axis-only tables
])
def test_predict_chiral_bad_scan_is_bad_input(tmp_path, capsys, scan, named):
    cfg = write_cfg(tmp_path, "c.json", {"chiral_scan": scan})
    assert run_cli("--config", cfg, "--out", str(tmp_path / "o"),
                   "predict-chiral") == EXIT_BAD_INPUT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, named", [
    ("simulate", {"sweep": {"points": 1}}, "sweep.points"),
    ("simulate", {"emitter": {"beta": 2.0}}, "beta"),
    ("simulate", {"interferometer": {"visibility": 2.0}}, "visibility"),
    ("simulate", {"interferometer": {"env_phase": {"kind": "locked_drift", "kp": 5.0}}},
     "interferometer.env_phase"),                                   # was exit 4
    ("simulate", {"interferometer": {"env_phase": {"kind": "random_walk", "sigma_rad": -1.0}}},
     "interferometer.env_phase.sigma_rad"),                         # was "scale < 0"
    ("predict-chiral", {"chiral_scan": {"beta_dirs": [1.5]}}, "chiral_scan.beta_dirs[0]"),
    # was exit 4 (RecursionError copying the config into the bundle), leaving an empty bundle
    ("simulate", {"fit": {"init": {"x": NESTED_600}}}, "fit.init.x"),
    ("simulate", {"chiral_scan": {"beta_dirs": [NESTED_600]}}, "chiral_scan.beta_dirs[0]"),
    ("simulate", {"fit": {"bounds": {"beta1": "xy"}}}, "fit.bounds.beta1"),  # was exit 0
    # the drive is checked at load, not only by the commands that apply it
    ("predict-chiral", {"drive": {"omega_rad_ns": -1}}, "drive.omega_rad_ns"),  # was exit 0
    ("predict-chiral", {"drive": {"omega_rad_ns": 8.0}}, "drive.omega_rad_ns"),  # was exit 0
    ("simulate", {"drive": {"omega_rad_ns": -1, "linear_response": False}},
     "drive.omega_rad_ns"),                                         # wrote no bundle already
    # the scan grids are checked at load, not only by the command that uses them
    ("predict-chiral", {"sweep": {"points": 1}}, "sweep.points"),            # was exit 0
    ("predict-chiral", {"sweep": {"start_ghz": 5, "stop_ghz": -5}}, "stop_ghz"),  # was exit 0
    ("simulate", {"chiral_scan": {"points": 1}}, "chiral_scan.points"),      # was exit 0
    ("simulate", {"chiral_scan": {"beta_dirs": []}}, "chiral_scan.beta_dirs"),  # was exit 0
    ("simulate", {"sweep": {"stop_ghz": np.inf}}, "stop_ghz"),      # named no field
    ("predict-chiral", {"sweep": {"start_ghz": np.nan}}, "start_ghz"),       # was exit 0
    # non-finite floats are rejected at load; each wrote nan counts and exited 0
    ("simulate", {"interferometer": {"p_lo_cps": np.nan}}, "interferometer.p_lo_cps"),
    ("simulate", {"interferometer": {"delta_l_m": np.inf}}, "interferometer.delta_l_m"),
    ("simulate", {"interferometer": {"env_phase": {"value_rad": np.nan}}},
     "interferometer.env_phase.value_rad"),
    ("simulate", {"interferometer": {"env_phase": {"kind": "locked_drift", "kp": np.nan}}},
     "interferometer.env_phase.kp"),
    # every block is checked at load, not only by the commands that use it
    ("predict-chiral", {"interferometer": {"visibility": 2.0}}, "visibility"),  # was exit 0
    ("simulate", {"extraction": {"poly_order": -1}}, "poly_order"),             # was exit 0
    ("predict-chiral", {"interferometer": {"env_phase": {"kind": "volcano"}}},
     "interferometer.env_phase.kind"),                               # was exit 0
    ("simulate", {"interferometer": {"env_phase": {"kind": "random_walk", "seed": -1}}},
     "interferometer.env_phase.seed"),                               # named no field
    # unstable lock gains are found from the loop's poles at load, not by running it
    ("predict-chiral", {"interferometer": {"env_phase": {"kind": "locked_drift", "kp": 5.0}}},
     "interferometer.env_phase"),                                    # was exit 0
    # the off trace draws from seed + 1, and a Philox key holds 64 bits
    ("simulate", {"noise": {"shot_noise": True, "seed": -1}}, "noise.seed"),  # was exit 0
    ("simulate", {"noise": {"shot_noise": True, "seed": 2**64 - 1}}, "noise.seed"),
    ("simulate", {"noise": {"shot_noise": True, "seed": 2**64}}, "noise.seed"),  # was seed 0
    ("--seed=-1 simulate", {"noise": {"shot_noise": True}}, "--seed"),        # was exit 0
    (f"--seed={2**64 - 1} simulate", {"noise": {"shot_noise": True}}, "--seed"),
    (f"--seed={2**64} simulate", {"noise": {"shot_noise": True}}, "--seed"),  # was seed 0
])
def test_rejected_run_writes_no_bundle(tmp_path, capsys, command, payload, named):
    # ``command`` may lead with global options, such as "--seed=-1 simulate"
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", payload), "--out", str(out),
                   *command.split()) == EXIT_BAD_INPUT
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def lifecycle_inputs(tmp_path_factory):
    """A config, a simulated trace pair, its phasors and saturation phasor files."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    cfg_path = write_cfg(tmp_path, "cfg.json", BASE_CFG)
    sim, ext = tmp_path / "sim", tmp_path / "ext"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    assert run_cli("--config", cfg_path, "--out", str(ext), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    return {"cfg": cfg_path, "on": str(sim / "trace_on.csv"), "off": str(sim / "trace_off.csv"),
            "phasors": str(ext / "phasors.csv"), "saturation": _saturation_files(tmp_path)}


@pytest.mark.parametrize("command, operands", [
    ("simulate", []), ("extract", ["on", "off"]), ("pathlength", ["off"]),
    ("fit", ["phasors"]), ("fit-saturation", ["saturation"]), ("predict-chiral", []),
])
def test_manifest_lists_every_bundle_file(tmp_path, lifecycle_inputs, command, operands):
    # every command's bundle is finished the same way: config.json, then the manifest
    args = []
    for name in operands:
        value = lifecycle_inputs[name]
        args += value if isinstance(value, list) else [value]
    out = tmp_path / "o"
    assert run_cli("--config", lifecycle_inputs["cfg"], "--out", str(out),
                   command, *args) == EXIT_OK
    on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(read_json(out / "manifest.json")["files"]) == on_disk
    assert "config.json" in on_disk


def test_bad_log_level_is_bad_input(tmp_path, capsys, monkeypatch):
    # was a ValueError traceback from logging.basicConfig (exit 1) from a shell,
    # and exit 0 when the root logger already had a handler
    monkeypatch.setenv("WGPHASE_LOG", "bogus")
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "predict-chiral") == EXIT_BAD_INPUT
    assert "WGPHASE_LOG" in capsys.readouterr().err
    assert not out.exists()


def test_config_nested_too_deeply_is_bad_input(tmp_path, capsys):
    # was exit 4 (RecursionError from the JSON parser)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"a": ' * 5000 + "1" + "}" * 5000, encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("--config", str(cfg), "--out", str(out), "simulate") == EXIT_BAD_INPUT
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_config_integer_too_large_for_float_is_bad_input(tmp_path, capsys):
    # was exit 4 (OverflowError from float())
    cfg = tmp_path / "c.json"
    cfg.write_text('{"sweep": {"start_ghz": 1' + "0" * 400 + "}}", encoding="utf-8")
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"),
                   "simulate") == EXIT_BAD_INPUT
    assert "sweep.start_ghz" in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("p.csv.meta.json", b"[]"),                                # was exit 4 (AttributeError)
    ("p.csv.meta.json", b'{"low_contrast_freqs": 5}'),         # was exit 4 (TypeError)
    ("p.csv.meta.json", b'{"low_contrast_freqs": [0.0,'),      # named no file
    ("p.csv", b"freq_ghz,phase_rad,phase_err,amp_ratio,amp_err,offset_ratio,offset_err\n"
              b"\xff\xfe,0,1,1,1,1,1\n"),                         # named no file
    pytest.param("p.csv.meta.json", b"[" * 5000 + b"]" * 5000,  # was exit 4 (RecursionError)
                 id="p.csv.meta.json-nested"),
])
def test_fit_bad_phasor_file_is_bad_input(tmp_path, capsys, name, content):
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    path = _noisy_phasor_file(tmp_path / "p.csv", p, np.linspace(-8, 8, 41),
                              np.random.default_rng(0))
    (tmp_path / name).write_bytes(content)
    assert run_cli("--out", str(tmp_path / "fit"), "fit", path) == EXIT_BAD_INPUT
    assert f"{name}:" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_extract_bad_trace_sidecar_is_bad_input(tmp_path, capsys):
    # was exit 4 (AttributeError while reading the local-oscillator background)
    sim = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", BASE_CFG),
                   "--out", str(sim), "simulate") == EXIT_OK
    (sim / "trace_off.csv.meta.json").write_text('{"interferometer": 3}', encoding="utf-8")
    code = run_cli("--out", str(tmp_path / "x"), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv"))
    assert code == EXIT_BAD_INPUT
    assert "trace_off.csv.meta.json:" in capsys.readouterr().err


@pytest.mark.parametrize("command, fit, named", [
    ("fit", {"init": {"beta": "a"}}, "fit.init.beta"),                 # was exit 4 (TypeError)
    ("fit", {"init": {"gamma": None}}, "fit.init.gamma"),              # was exit 4 (TypeError)
    ("fit", {"init": {"beta1": np.nan}}, "fit.init.beta1"),            # named no field
    ("fit", {"init": {"nonsense": 1}}, "fit.init.nonsense"),           # was ignored, exit 0
    ("fit", {"init": {"k": 1.0}}, "fit.init.k"),                       # was ignored, exit 0
    ("fit", {"bounds": {"beta1": "xy"}}, "fit.bounds.beta1"),          # was exit 4 (TypeError)
    ("fit", {"bounds": {"beta1": [2, 1]}}, "fit.bounds.beta1"),        # named no field
    ("fit", {"bounds": {"gamma1": [0, None, 3]}}, "fit.bounds.gamma1"),  # was exit 4
    ("fit", {"bounds": {"beta": [2, 1]}}, "fit.bounds.beta"),          # was ignored, exit 0
    ("fit-saturation", {"bounds": {"f0": [-1, 1]}}, "fit.bounds.f0"),  # was ignored, exit 0
    ("fit-saturation", {"init": {"beta1": 0.5}}, "fit.init.beta1"),    # was ignored, exit 0
    ("fit", {"powers": [[1], [2], [3]]}, "fit.powers[0]"),             # was exit 4 (TypeError)
    ("fit-saturation", {"powers": ["a"]}, "fit.powers[0]"),            # named no field
    ("fit-saturation", {"powers": [1.0, np.inf, 3.0]}, "fit.powers[1]"),
    ("fit", {"dipole_windows_ghz": {"1": ["a", "b"]}}, "fit.dipole_windows_ghz.1"),  # was exit 4
    ("fit", {"dipole_windows_ghz": {"1": [1]}}, "fit.dipole_windows_ghz.1"),  # named no field
    ("fit", {"dipole_windows_ghz": {"1": [2, -2]}}, "fit.dipole_windows_ghz.1"),
    ("fit", {"dipole_windows_ghz": {"1": [-2, np.nan]}}, "fit.dipole_windows_ghz.1"),
    ("fit", {"dipole_windows_ghz": {"x": [-2, 2]}}, "fit.dipole_windows_ghz.x"),  # was ignored
    ("fit", {"max_iter": -3}, "fit.max_iter"),                         # was exit 3
    ("fit", {"max_iter": 0}, "fit.max_iter"),                          # was exit 3
    ("fit", {"model": "banana"}, "fit.model"),                         # was ignored, exit 0
    ("fit-saturation", {"powers": [0, 1, 2, 4, 8]}, "fit.powers[0]"),   # left config.json, fit.json
    ("fit-saturation", {"powers": [-1, 1, 2, 4, 8]}, "fit.powers[0]"),  # named no field
])
def test_bad_fit_block_is_bad_input(tmp_path, capsys, command, fit, named):
    if command == "fit":
        p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
        files = [_noisy_phasor_file(tmp_path / "p.csv", p, np.linspace(-8, 8, 41),
                                    np.random.default_rng(0))]
    else:
        files = _saturation_files(tmp_path)
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"fit": fit}), "--out", str(out),
                   command, *files) == EXIT_BAD_INPUT
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_fit_init_shorthand_held_f0_and_open_bounds_are_valid(tmp_path):
    # the shorthand init sets every dipole, the saturation fit holds init.f0,
    # either fit.model is accepted by either subcommand, and a null lower
    # bound on k was exit 4 (TypeError)
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    path = _noisy_phasor_file(tmp_path / "p.csv", p, np.linspace(-8, 8, 41),
                              np.random.default_rng(0))
    cfg = {"fit": {"model": "saturation", "init": {"beta": 0.9, "gamma": 11.0, "f0": 0.1},
                   "bounds": {"gamma1": [1, None]}}}
    assert run_cli("--config", write_cfg(tmp_path, "c.json", cfg), "--out",
                   str(tmp_path / "fit"), "fit", path) == EXIT_OK
    cfg = {"fit": {"model": "two_dipole", "init": {"f0": 0.0}, "bounds": {"k": [None, 100]}}}
    assert run_cli("--config", write_cfg(tmp_path, "s.json", cfg), "--out",
                   str(tmp_path / "sat"), "fit-saturation", *_saturation_files(tmp_path)) == EXIT_OK
    assert read_json(tmp_path / "sat" / "fit.json")["params"]["k"]["value"] == pytest.approx(
        1.0, rel=0.05)


@pytest.mark.parametrize("args", [
    ("fit", "{dir}"), ("pathlength", "{dir}"), ("extract", "{dir}", "{dir}"),
    ("--config", "{dir}", "simulate"),
    ("--out", "{dir}/file", "predict-chiral"),   # was exit 4 (FileExistsError)
])
def test_unusable_path_is_bad_input(tmp_path, capsys, args):
    # was exit 4 (IsADirectoryError); an unreadable file takes the same path
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("--out", str(out), *(a.format(dir=tmp_path) for a in args)) == EXIT_BAD_INPUT
    assert str(tmp_path) in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_is_bad_input(tmp_path, capsys):
    code = run_cli("--config", write_cfg(tmp_path, "bad.json", {"emiter": {}}),
                   "--out", str(tmp_path / "o"), "simulate")
    assert code == EXIT_BAD_INPUT
    assert "unknown key" in capsys.readouterr().err


def test_simulate_extract_fit_composed_noiseless(tmp_path):
    # the composed pipeline recovers the generating parameters at the
    # noiseless tolerance; the long path imbalance keeps extraction windows
    # narrow so the local-polynomial bias stays below the target
    cfg = {
        "emitter": {"gamma_rad_ns": 12.3, "gamma_dp_rad_ns": 3.9, "beta": 1.0,
                    "f0_ghz": 0.0, "phi0_rad": -0.25},
        "interferometer": {"delta_l_m": 25.0, "visibility": 0.65, "p_lo_cps": 1e6,
                           "p_sig_cps": 1e4, "integration_time_s": 0.1},
        "sweep": {"start_ghz": -7.0, "stop_ghz": 7.0, "points": 18667},
        "extraction": {"delta_l_m": 25.0},
    }
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    sim, ext, fit = tmp_path / "sim", tmp_path / "ext", tmp_path / "fit"
    assert run_cli("--config", cfg_path, "--out", str(sim), "simulate") == EXIT_OK
    assert run_cli("--config", cfg_path, "--out", str(ext), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    assert run_cli("--config", cfg_path, "--out", str(fit), "fit",
                   str(ext / "phasors.csv")) == EXIT_OK
    params = read_json(fit / "fit.json")["params"]
    assert params["beta1"]["value"] == pytest.approx(1.0, rel=1e-5)
    assert params["gamma1"]["value"] == pytest.approx(12.3, rel=1e-5)
    assert params["gamma_dp"]["value"] == pytest.approx(3.9, rel=1e-5)
    assert params["f01"]["value"] == pytest.approx(0.0, abs=1e-5)
    assert params["phi0"]["value"] == pytest.approx(-0.25, rel=1e-5)
