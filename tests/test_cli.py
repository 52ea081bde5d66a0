from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wgphase import emitter, interferometer, spectra
from wgphase.cli import (EXIT_BAD_INPUT, EXIT_NO_CONVERGENCE, EXIT_OK, main)
from wgphase.config import load_config
from wgphase.emitter import EmitterParams, transmission
from wgphase.extraction import PhasorSeries
from wgphase.io import (parse_phasors_csv, parse_trace_csv, phasor_file_meta,
                        write_phasors_csv)
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
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "manifest.json", "trace_off.csv", "trace_off.csv.meta.json",
        "trace_on.csv", "trace_on.csv.meta.json"]
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

    # the model at the emitter and drive each run records in its trace sidecar
    curves = {}
    for label, cfg in (("iso", iso_cfg), ("chi", chi_cfg)):
        out = tmp_path / label
        assert run_cli("--config", write_cfg(tmp_path, f"{label}.json", cfg),
                       "--out", str(out), "simulate") == EXIT_OK
        trace = parse_trace_csv(out / "trace_on.csv")
        e = dict(trace.meta["emitter"])
        p = EmitterParams(f0=e.pop("f0_ghz"), **e)
        assert p.coupling == cfg["emitter"]["coupling"]
        curves[label] = transmission(p, detuning_angular(trace.freq, p.f0),
                                     trace.meta["drive"]["omega_r"])
    i0 = np.argmin(np.abs(trace.freq))  # both runs share the sweep
    assert curves["iso"][1][i0] == pytest.approx(0.0, abs=1e-12)
    assert np.angle(curves["chi"][0][i0]) == pytest.approx(np.pi, abs=1e-12)
    assert curves["chi"][1][i0] == pytest.approx(1.0, abs=1e-12)


def test_readme_transmission_recipe(tmp_path, monkeypatch):
    # the README's recipe rebuilds, from a trace and its sidecar, the closed-form
    # model at the run's emitter, sweep and drive, bit for bit
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    recipe = readme[readme.index("* **Model spectrum**"):]
    recipe = recipe[recipe.index("```python\n") + 10:]
    recipe = textwrap.dedent(recipe[:recipe.index("```")])
    cfg = dict(BASE_CFG, drive={"omega_rad_ns": 8.0, "linear_response": False},
               emitter={"gamma_rad_ns": 12.3, "gamma_dp_rad_ns": 3.9, "beta": 0.9,
                        "coupling": "chiral", "f0_ghz": 0.5, "phi0_rad": -0.25})
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    monkeypatch.chdir(tmp_path)
    assert run_cli("--config", cfg_path, "--out", "sim", "simulate") == EXIT_OK
    scope = {}
    exec(recipe, scope)
    run = load_config(cfg_path)
    p = run.emitter.to_params()
    t, i_t = transmission(p, detuning_angular(run.sweep.grid(), p.f0), run.drive.omega_rad_ns)
    for name, want in (("phase_rad", np.angle(t)), ("abs_t", np.abs(t)), ("i_t", i_t)):
        np.testing.assert_array_equal(scope[name], want, err_msg=name)


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
    err = capsys.readouterr().err
    assert named in err and f"extraction.{field}: " in err


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


@pytest.mark.parametrize("rates, shot_noise, named", [
    # was "lam value too large"
    ({"p_lo_cps": 1e20}, True, "noise.shot_noise: interferometer.p_lo_cps 1e+20, p_sig_cps "
                               "10000 and dark_cps 0 over integration_time_s 0.1: expected "
                               "counts up to 1e+19 per bin are too large for a Poisson draw"),
    # was "intensity must be finite and non-negative"; refused at load since
    ({"p_lo_cps": 1e300, "p_sig_cps": 1e300}, False,
     "interferometer: p_lo_cps 1e+300, p_sig_cps 1e+300 and dark_cps 0 over "
     "integration_time_s 0.1: expected counts overflow"),
], ids=["poisson", "overflow"])
def test_simulate_huge_photon_rates_name_their_keys(tmp_path, capsys, rates, shot_noise, named):
    cfg = write_cfg(tmp_path, "cfg.json", {"interferometer": rates,
                                           "noise": {"shot_noise": shot_noise}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "simulate") == EXIT_BAD_INPUT
    assert f"error: {named}" in capsys.readouterr().err
    assert not out.exists()


OVERFLOW = ("interferometer: p_lo_cps", "expected counts overflow")
POISSON = ("noise.shot_noise: interferometer.p_lo_cps 1e+20", "too large for a Poisson draw")


@pytest.mark.parametrize("rates, shot_noise, command, named", [
    # was exit 4 from fringe_trace's overflow warning, raised as an error here
    ({"p_lo_cps": 1e10, "integration_time_s": 1e300}, False, ["simulate"], OVERFLOW),
    # was exit 0 with a bundle recording rates that simulate refuses
    ({"p_lo_cps": 1e300, "p_sig_cps": 1e300}, False, ["predict-chiral"], OVERFLOW),
    # each was exit 0 (only simulate refused counts above numpy's Poisson ceiling)
    ({"p_lo_cps": 1e20}, True, ["predict-chiral"], POISSON),
    ({"p_lo_cps": 1e20}, True, ["fit", "p.csv"], POISSON),
    ({"p_lo_cps": 1e20}, True, ["fit-saturation", "p.csv"], POISSON),
    ({"p_lo_cps": 1e20}, True, ["extract", "on.csv", "off.csv"], POISSON),
], ids=["rates0-simulate", "rates1-predict-chiral", "poisson-predict-chiral", "poisson-fit",
        "poisson-fit-saturation", "poisson-extract"])
def test_rates_whose_counts_overflow_are_bad_input_at_load(tmp_path, capsys, rates, shot_noise,
                                                           command, named):
    cfg = write_cfg(tmp_path, "cfg.json", {"interferometer": rates,
                                           "noise": {"shot_noise": shot_noise}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), *command) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert all(part in err for part in named)
    assert not out.exists()


@pytest.mark.parametrize("command, payload, named", [
    # each was exit 4 under the suite's RuntimeWarning filter, and without it
    # exit 2 naming nothing (the first three: NaN products) or exit 0 (the rest)
    ("simulate", {"sweep": {"start_ghz": -1e308, "stop_ghz": 1e308}},
     "sweep: the span from start_ghz -1e+308 to stop_ghz 1e+308 overflows"),
    ("simulate", {"interferometer": {"delta_l_m": 1e300}},
     "interferometer.delta_l_m 1e+300 over sweep.start_ghz -15 to stop_ghz 15: the carrier "
     "phase"),
    ("simulate", {"emitter": {"gamma_rad_ns": 1e300, "gamma_dp_rad_ns": 1e300}},
     "emitter: gamma_rad_ns 1e+300 and gamma_dp_rad_ns 1e+300 overflow the response"),
    ("simulate", {"drive": {"omega_rad_ns": 1e200, "linear_response": False}},
     "emitter.f0_ghz 0 over sweep.start_ghz -15 to stop_ghz 15 at drive.omega_rad_ns 1e+200: "
     "the emitter's response overflows"),
    ("simulate", {"emitter": {"f0_ghz": 1e300}},
     "emitter.f0_ghz 1e+300 over sweep.start_ghz -15 to stop_ghz 15 at drive.omega_rad_ns 0: "
     "the emitter's response overflows"),
    ("predict-chiral", {"chiral_scan": {"omega_max_rad_ns": 1e308, "gamma_dp_max_rad_ns": 1e308}},
     "chiral_scan: omega_max_rad_ns 1e+308 and gamma_dp_max_rad_ns 1e+308 at "
     "emitter.gamma_rad_ns 12.3 overflow the scan's c"),
    # the walk's cumsum overflowed: exit 4 under the filter, else exit 2 naming nothing
    # ("intensity must be finite"); predict-chiral, which walks none, exited 0
    ("simulate", {"interferometer": {"env_phase": {"kind": "random_walk", "sigma_rad": 1e308}}},
     "interferometer.env_phase.sigma_rad 1e+308 over sweep.points 4501: the walk's bound"),
    ("predict-chiral",
     {"interferometer": {"env_phase": {"kind": "locked_drift", "sigma_rad": 1e308}}},
     "interferometer.env_phase.sigma_rad 1e+308 over sweep.points 4501: the walk's bound"),
], ids=["sweep-span", "carrier-phase", "emitter-rates", "drive", "f0", "chiral-scan",
        "walk-sigma", "locked-walk-sigma"])
def test_values_whose_arithmetic_overflows_are_bad_input_at_load(tmp_path, capsys, command,
                                                                 payload, named):
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", payload), "--out", str(out),
                   command) == EXIT_BAD_INPUT
    assert f"error: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [
    # just inside the rules above: t -> 1 far off resonance, the phase -> 0 deep in
    # saturation, finite and without a warning
    ("simulate", {"emitter": {"f0_ghz": 1e150, "phi0_rad": 0.0}, "sweep": {"points": 11}}),
    ("simulate", {"emitter": {"phi0_rad": 0.0}, "sweep": {"points": 11},
                  "drive": {"omega_rad_ns": 1e150, "linear_response": False}}),
    ("predict-chiral", {"chiral_scan": {"omega_max_rad_ns": 1e150, "gamma_dp_max_rad_ns": 1e150,
                                        "points": 3}}),
], ids=["f0", "drive", "chiral-scan"])
def test_values_just_inside_the_overflow_rules_run(tmp_path, command, payload):
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", payload), "--out", str(out),
                   command) == EXIT_OK
    if command == "simulate":  # the emitter transmits as if absent: the on trace is the off one
        on, off = (parse_trace_csv(out / name) for name in ("trace_on.csv", "trace_off.csv"))
        np.testing.assert_allclose(on.intensity, off.intensity, rtol=1e-12)
    else:
        for name in ("phase_vs_omega.csv", "phase_vs_dephasing.csv"):
            rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
            assert np.all(np.isfinite(rows)) and np.all(np.abs(rows[-1, 1:]) < 1e-140)


def test_lock_loop_failing_at_run_time_is_bad_input(tmp_path, capsys, monkeypatch):
    # gains the load rule passes can still let a residual past 10x the drift
    def blows_up(*args, **kwargs):
        raise interferometer.UnstableLoopError("lock residual 40 rad exceeded 10x drift "
                                               "amplitude 3.6 rad at step 7")
    monkeypatch.setattr(interferometer, "lock_loop_residual", blows_up)
    payload = {"interferometer": {"env_phase": {"kind": "locked_drift"}}}
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", payload), "--out", str(out),
                   "simulate") == EXIT_BAD_INPUT
    assert ("error: interferometer.env_phase: lock residual 40 rad exceeded"
            in capsys.readouterr().err)
    assert not out.exists()


def test_missing_config_file_is_named(tmp_path, capsys):
    # was "config is not valid JSON: ...", naming neither the path nor the missing file
    out = tmp_path / "o"
    missing = str(tmp_path / "nosuch.json")
    assert run_cli("--config", missing, "--out", str(out), "predict-chiral") == EXIT_BAD_INPUT
    assert (f"error: {missing}: no such file, and the text is not valid JSON"
            in capsys.readouterr().err)
    assert not out.exists()
    # JSON text in place of a path still loads
    assert run_cli("--config", '{"chiral_scan": {"points": 3}}', "--out", str(out),
                   "predict-chiral") == EXIT_OK


def test_poisson_ceiling_applies_only_under_shot_noise(tmp_path):
    # the peak bound 1.0000002e19 is above numpy's ceiling 9.22e18; noiseless
    # counts that large are a valid trace
    cfg = write_cfg(tmp_path, "cfg.json", {"interferometer": {"p_lo_cps": 1e20},
                                           "sweep": {"points": 11}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "simulate") == EXIT_OK
    assert parse_trace_csv(out / "trace_off.csv").intensity.max() > 9.3e18


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
    # the noiseless counts are those of the model at the applied drive, bit for bit
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    icfg = interferometer.InterferometerConfig(delta_l_m=2.78, visibility=0.65, p_lo_cps=1e6,
                                               p_sig_cps=1e4, integration_time_s=0.1)
    freq = np.linspace(-12.0, 12.0, 3601)
    expected = interferometer.fringe_trace(icfg, p, freq, qd_on=True, omega_r=omega_r)
    np.testing.assert_array_equal(on.freq, freq)
    np.testing.assert_array_equal(on.intensity, expected.intensity)


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


# every extraction key away from its default but the estimated path length,
# and the sha256 of the extract bundle's config.json and phasors.csv, as the
# separate config block wrote them
EXTRACTION_CFG = dict(BASE_CFG, noise={"shot_noise": True, "seed": 4},
                      extraction={"window_periods": 4.0, "hop_periods": 2.0,
                                  "poly_order": 1, "weight_beta": 8.0})
_EXTRACT_SHA256 = {
    "config.json": "cd305501be7a22d244e8c4f94b14ad8001efe39b5d9bb5cb58da087566c4f48f",
    "phasors.csv": "35bcb294282c5b7825ae029be8a7f2aa06f3d735ceefce3b81f820b8dbbc9e01",
}


def test_extract_bundle_bytes_pinned(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", EXTRACTION_CFG)
    sim, ext = tmp_path / "sim", tmp_path / "ext"
    assert run_cli("--config", cfg, "--out", str(sim), "simulate") == EXIT_OK
    assert run_cli("--config", cfg, "--out", str(ext), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv")) == EXIT_OK
    for name, digest in _EXTRACT_SHA256.items():
        assert hashlib.sha256((ext / name).read_bytes()).hexdigest() == digest, name


# sha256 of simulate's trace pair with shot noise (integer counts) and
# noiseless (17-digit counts), as each trace was formatted on its own
_TRACE_SHA256 = {
    "shot_noise": {
        "trace_on.csv": "92dc9d8c6d40cac00a5cac87802283b72697c4221f1cb7ac8fe4c2fd7c526367",
        "trace_off.csv": "d39ff1903a37b900e1026fce5b965ff8c5edad51cf9237f3b482435979e3bb16"},
    "noiseless": {
        "trace_on.csv": "9a1260ea8fa0eb598993ea7355220a3881ce136e3ab815c58432bd5ab4703b04",
        "trace_off.csv": "84cf619b4683a8e1c937ee0007f047699695e540022f7ab1aa473e1207e99eba"},
}


@pytest.mark.parametrize("case", list(_TRACE_SHA256))
def test_simulate_trace_bytes_pinned(tmp_path, case):
    cfg = write_cfg(tmp_path, "cfg.json", EXTRACTION_CFG if case == "shot_noise" else BASE_CFG)
    assert run_cli("--config", cfg, "--out", str(tmp_path / "sim"), "simulate") == EXIT_OK
    for name, digest in _TRACE_SHA256[case].items():
        assert hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest() == digest, name


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


def _dipole_files(tmp_path, n_files):
    """Noisy phasor files of ``n_files`` dipoles, one file per dipole."""
    rng = np.random.default_rng(5)
    emitters = [EmitterParams.isotropic(gamma=9.4, gamma_dp=3.9, beta=0.94, phi0=-0.25),
                EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, f0=6.0, phi0=-0.25)]
    return [_noisy_phasor_file(tmp_path / f"p{d}.csv", p, np.linspace(p.f0 - 8, p.f0 + 8, 41),
                               rng) for d, p in enumerate(emitters[:n_files], start=1)]


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
    files = _dipole_files(tmp_path, n_files)
    out = tmp_path / "fit"
    code = run_cli("--config", write_cfg(tmp_path, "c.json", {"fit": {"combine": combine}}),
                   "--out", str(out), "fit", *files)
    assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
    (fun, result), = fits
    # the fit's points: file by file, the channels of each in spectra.KINDS order
    channels = [SimpleNamespace(freq=s.freq, values=values, sigma=sigma, kind=kind, dipole=d)
                for d, path in enumerate(files, start=1)
                for s in [spectra.Spectrum.from_phasors(parse_phasors_csv(path), dipole=d)]
                for kind, (values, sigma) in s.channels.items()]
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


# sha256 of the fit products of _dipole_files under each combine of
# test_fit_residuals_csv_reproduces_fit_residuals, as the fits wrote them when
# each fit found the points that share a frequency by sorting them, and of the
# five-power fit-saturation of _saturation_files, as it wrote them once it fit
# f0; each fit.json as it was written once it named the covariance's rows;
# all of them as written once the fits started from the closed-form start
_FIT_SHA256 = {
    (1, "isolated"): {
        "fit.json": "ea57607e3e58f3b4c404e911e1a1aa052b3e1df8aea0b4e1ce5cec52614fa75d",
        "residuals.csv": "74ee1250e39b09a62142fa11bc26d62592dfaf6eeb9ab6b6ce6c85b8d0a51952"},
    (2, "isolated"): {
        "fit.json": "5adf64f1bd5af2dc2e09dc3b7766872ff00182fb55290543603ca33349b264a5",
        "residuals.csv": "08dfcc515173bfa180b4009ded07f0748c2a3720118abcabe729f2ce133a4b4b"},
    (2, "product"): {
        "fit.json": "debbb014f9feae1925fee0e89a73288babbaef4eb6835485ea22a91ae6890668",
        "residuals.csv": "cb47fbae44278c0520b3dd4abd7c6148d6c5bc31efd1223c978e1f42afc4dedd"},
    "saturation": {
        "fit.json": "9b65271a634d7294159c0075004e845fbb0c45bfbf8165676e32d18e01c01482",
        "phase_vs_power.csv": "fe292a51930e4cf1fe89616990ef8742ae791d0accd059d17bfb07931bf52331"},
}


@pytest.mark.parametrize("case", list(_FIT_SHA256), ids=str)
def test_fit_bundle_bytes_pinned(tmp_path, case):
    out = tmp_path / "out"
    if case == "saturation":
        argv = ["fit-saturation", *_saturation_files(tmp_path)]
    else:
        n_files, combine = case
        argv = ["--config", write_cfg(tmp_path, "c.json", {"fit": {"combine": combine}}),
                "fit", *_dipole_files(tmp_path, n_files)]
    assert run_cli("--out", str(out), *argv) == EXIT_OK
    for name, digest in _FIT_SHA256[case].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("command", ["fit", "fit-saturation"])
def test_fit_json_names_the_covariance_rows(tmp_path, command):
    # the rows followed the fit's order unnamed, while params is written key-sorted
    out = tmp_path / "out"
    assert run_cli("--out", str(out), command, *_fit_files(tmp_path, command)) == EXIT_OK
    fit = read_json(out / "fit.json")
    names = fit["covariance_names"]
    assert sorted(names) == sorted(fit["params"])
    for i, name in enumerate(names):
        assert np.sqrt(max(fit["covariance"][i][i], 0.0)) == fit["params"][name]["sigma"]


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
    # each table is one closed-form call on its whole grid of beta_dirs by axis
    # points, never one call per beta_dir (4 here) or per point (121)
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
    # phase_extrema_analytic calls _phase_extrema too, so this counts every call
    assert calls["_phase_extrema"] == 2, calls


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
    # a pole on the unit circle: (z + 1)**2, whose residual simulate refused at step
    # 239 (predict-chiral ran), and an undamped pole at -1, whose residual rang
    *((command, {"interferometer": {"env_phase": {"kind": "locked_drift", **gains}}},
       f"interferometer.env_phase: PID gains {named} at integration_time_s 0.1 make an "
       f"unstable lock loop (largest pole radius 1, not below 1)")
      for command in ("simulate", "predict-chiral")
      for gains, named in (({"kp": -1.0, "ki": 40.0}, "kp=-1, ki=40, kd=0"),
                           ({"kp": 1.0, "ki": 0.0}, "kp=1, ki=0, kd=0"))),
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
    entries = read_json(out / "manifest.json")["files"]
    assert sorted(entries) == on_disk
    assert "config.json" in on_disk
    # the digests are taken from the bytes as written; they must be those on disk
    for name, entry in entries.items():
        data = (out / name).read_bytes()
        assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}, name


def test_out_default_reads_wgphase_out_on_every_run(tmp_path, monkeypatch):
    # the parser is reused across calls, so the default must not be fixed when it is built
    monkeypatch.chdir(tmp_path)
    for name in ("first", "second"):
        monkeypatch.setenv("WGPHASE_OUT", name)
        assert run_cli("predict-chiral") == EXIT_OK
        assert (tmp_path / name / "manifest.json").exists()
    monkeypatch.delenv("WGPHASE_OUT")
    assert run_cli("predict-chiral") == EXIT_OK
    assert (tmp_path / "wgphase_out" / "manifest.json").exists()


def test_usage_error_leaves_the_parser_usable(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("--out", "bad", "fit") == EXIT_BAD_INPUT  # no phasor files
    assert "phasor_files" in capsys.readouterr().err
    assert run_cli("--out", "good", "predict-chiral") == EXIT_OK
    assert not (tmp_path / "bad").exists()
    assert (tmp_path / "good" / "manifest.json").exists()


@pytest.mark.parametrize("argv, code, printed", [
    (["--help"], EXIT_OK, "usage: wgphase"),                    # was SystemExit(0)
    (["--seed", "abc", "simulate"], EXIT_BAD_INPUT, "--seed"),  # was SystemExit(2)
])
def test_command_line_parse_returns_its_exit_code(tmp_path, monkeypatch, capsys, argv, code,
                                                  printed):
    # main returns every exit code, the parser's included, and writes no bundle
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert printed in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


def test_main_builds_the_parser_once(tmp_path, monkeypatch, lifecycle_inputs):
    assert run_cli("--out", str(tmp_path / "a"), "predict-chiral") == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = lifecycle_inputs["cfg"]
    assert run_cli("--config", cfg, "--out", str(tmp_path / "b"), "pathlength",
                   lifecycle_inputs["off"]) == EXIT_OK
    assert run_cli("--config", cfg, "--out", str(tmp_path / "c"), "fit",
                   lifecycle_inputs["phasors"]) == EXIT_OK
    assert run_cli("--out", str(tmp_path / "d"), "predict-chiral") == EXIT_OK
    assert built == []


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


def test_extract_trace_shorter_than_a_window_names_files_and_key(tmp_path, capsys):
    # named neither: "trace shorter than one extraction window"
    sim = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", BASE_CFG),
                   "--out", str(sim), "simulate") == EXIT_OK
    for name in ("trace_on.csv", "trace_off.csv"):  # the header and 29 rows
        lines = (sim / name).read_text(encoding="utf-8").splitlines(keepends=True)
        (sim / name).write_text("".join(lines[:30]), encoding="utf-8")
    out = tmp_path / "x"
    code = run_cli("--out", str(out), "extract", str(sim / "trace_on.csv"),
                   str(sim / "trace_off.csv"))
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert str(sim / "trace_on.csv") in err and str(sim / "trace_off.csv") in err
    assert "extraction.window_periods" in err and "29 points" in err
    assert not out.exists()


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


@pytest.mark.parametrize("meta", [
    {"qd_on": False},                                        # no interferometer object
    {"interferometer": {}},
    {"interferometer": {"p_lo_cps": 1e6}},
    None,                                                    # no sidecar at all
])
def test_extract_trace_without_background_names_the_sidecar(tmp_path, capsys, meta):
    # named no file: "trace metadata lacks p_lo/integration time"
    sim = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", BASE_CFG),
                   "--out", str(sim), "simulate") == EXIT_OK
    sidecar = sim / "trace_off.csv.meta.json"
    if meta is None:
        sidecar.unlink()
    else:
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
    out = tmp_path / "x"
    code = run_cli("--out", str(out), "extract",
                   str(sim / "trace_on.csv"), str(sim / "trace_off.csv"))
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{sidecar}:" in err and "p_lo_cps" in err
    assert not out.exists()
    # the path-length estimate needs no background: the same trace is good input
    assert run_cli("--out", str(tmp_path / "len"), "pathlength",
                   str(sim / "trace_off.csv")) == EXIT_OK


@pytest.mark.parametrize("on, off", [
    ("trace_off.csv", "trace_on.csv"),  # swapped: was exit 0, and fit converged to beta 1.0
    ("trace_on.csv", "trace_on.csv"),   # was exit 0
])
def test_extract_off_trace_taken_with_the_emitter_names_the_sidecar(tmp_path, capsys, on, off):
    # an off/off pair stays the null comparison (test_extract_roundtrip_and_offoff)
    sim = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", BASE_CFG),
                   "--out", str(sim), "simulate") == EXIT_OK
    files = [str(sim / on), str(sim / off)]
    out = tmp_path / "x"
    assert run_cli("--out", str(out), "extract", *files) == EXIT_BAD_INPUT
    assert f"{files[1]}.meta.json: qd_on: true" in capsys.readouterr().err
    assert not out.exists()
    # sidecars without the key pass, as a lab CSV's would
    for name in {on, off}:
        sidecar = sim / f"{name}.meta.json"
        meta = read_json(sidecar)
        del meta["qd_on"]
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
    assert run_cli("--out", str(out), "extract", *files) == EXIT_OK


def test_extract_string_qd_on_names_the_sidecar(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run_cli("--config", write_cfg(tmp_path, "cfg.json", BASE_CFG),
                   "--out", str(sim), "simulate") == EXIT_OK
    sidecar = sim / "trace_on.csv.meta.json"
    sidecar.write_text(json.dumps({**read_json(sidecar), "qd_on": "true"}), encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli("--out", str(out), "extract", str(sim / "trace_on.csv"),
                   str(sim / "trace_off.csv")) == EXIT_BAD_INPUT
    assert f"{sidecar}: qd_on must be true or false" in capsys.readouterr().err
    assert not out.exists()


def _damaged_trace(tmp_path, source, damage):
    """A copy of the trace CSV ``source``: 10 rows, a row dropped, or flat counts."""
    lines = Path(source).read_text(encoding="utf-8").splitlines(keepends=True)
    if damage == "short":
        lines = lines[:11]
    elif damage == "drop_row":
        del lines[5]
    else:
        lines = lines[:1] + [line.split(",")[0] + ",5000\n" for line in lines[1:]]
    path = tmp_path / f"{damage}.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("damage, message", [
    ("drop_row", "frequency grid must be uniform"),
    ("flat", "no fringe detected"),
])
def test_extract_off_trace_without_a_path_length_names_it(tmp_path, capsys, lifecycle_inputs,
                                                          damage, message):
    # named neither trace: the estimate ran outside the handler that names them
    off = _damaged_trace(tmp_path, lifecycle_inputs["off"], damage)
    out = tmp_path / "x"
    assert run_cli("--out", str(out), "extract", lifecycle_inputs["on"],
                   str(off)) == EXIT_BAD_INPUT
    assert f"error: {off}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extraction, message", [
    # was exit 4 under the suite's filter (theta_start overflowed), and without it
    # exit 2 with "SVD did not converge", naming no key
    ({"delta_l_m": 1e300}, "extraction.delta_l_m 1e+300 over [-12, 12] GHz: the carrier phase"),
    # each was exit 4 (OverflowError rounding a window length that overflowed)
    ({"delta_l_m": 1e-300}, "extraction.window_periods 3 at delta_l_m 1e-300 m takes at least "
                            "3602 points"),
    ({"delta_l_m": 2.78, "window_periods": 1e308}, "extraction.window_periods 1e+308 at "
                                                   "delta_l_m 2.78 m takes at least 3602 points"),
], ids=["carrier-phase", "tiny-path-length", "huge-window"])
def test_extract_window_layout_that_overflows_names_its_key(tmp_path, capsys, lifecycle_inputs,
                                                           extraction, message):
    out = tmp_path / "x"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"extraction": extraction}),
                   "--out", str(out), "extract", lifecycle_inputs["on"],
                   lifecycle_inputs["off"]) == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("nyquists", [1.05, 1e288], ids=["just-past", "far-past"])
def test_extract_fringe_period_under_two_grid_steps_names_its_key(tmp_path, capsys,
                                                                  lifecycle_inputs, nyquists):
    # was exit 0 at 1e290 m, with phasors of an aliased carrier (phase errors up to 90 rad)
    df = 24.0 / 3600  # GHz, the step of BASE_CFG's sweep
    delta_l = nyquists * 299792458.0 / (2.0 * df * 1e9)
    out = tmp_path / "x"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"extraction": {
                       "delta_l_m": delta_l}}),
                   "--out", str(out), "extract", lifecycle_inputs["on"],
                   lifecycle_inputs["off"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"extraction.delta_l_m {delta_l:g} m: the fringe period" in err
    assert "is under two grid steps (0.0133333 GHz)" in err
    assert not out.exists()


def test_extract_hop_past_the_trace_is_one_window(tmp_path, lifecycle_inputs):
    # was exit 4 (OverflowError rounding a hop that overflowed); one longer than the
    # trace leaves the first window
    out = tmp_path / "x"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"extraction": {
                       "delta_l_m": 2.78, "hop_periods": 1e308}}),
                   "--out", str(out), "extract", lifecycle_inputs["on"],
                   lifecycle_inputs["off"]) == EXIT_OK
    assert len(parse_phasors_csv(out / "phasors.csv")) == 1


def test_extract_header_only_trace_is_named(tmp_path, capsys, lifecycle_inputs):
    on = tmp_path / "trace_on.csv"
    on.write_text(Path(lifecycle_inputs["on"]).read_text(encoding="utf-8").splitlines()[0] + "\n",
                  encoding="utf-8")
    Path(f"{on}.meta.json").write_bytes(Path(f"{lifecycle_inputs['on']}.meta.json").read_bytes())
    out = tmp_path / "x"
    assert run_cli("--out", str(out), "extract", str(on),
                   lifecycle_inputs["off"]) == EXIT_BAD_INPUT
    assert f"error: {on}: no data rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("damage, message", [
    ("short", "trace too short for a spectral estimate"),
    ("drop_row", "frequency grid must be uniform"),
    ("flat", "no fringe detected"),
])
def test_pathlength_failure_names_the_trace(tmp_path, capsys, lifecycle_inputs, damage, message):
    # named no file
    trace = _damaged_trace(tmp_path, lifecycle_inputs["off"], damage)
    out = tmp_path / "x"
    assert run_cli("--out", str(out), "pathlength", str(trace)) == EXIT_BAD_INPUT
    assert f"error: {trace}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_files", [1, 2])
def test_fit_dipole_window_outside_the_data_names_key_and_file(tmp_path, capsys, n_files):
    # named neither: "channel needs >= 5 points for identifiability, got 0"
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    files = [_noisy_phasor_file(tmp_path / f"p{i}.csv", p, np.linspace(-8, 8, 41),
                                np.random.default_rng(i)) for i in range(1, n_files + 1)]
    window = {"dipole_windows_ghz": {str(n_files): [100, 200]}}  # the data span -8..8 GHz
    cfg = write_cfg(tmp_path, "c.json", {"fit": window})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "fit", *files) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"fit.dipole_windows_ghz.{n_files}" in err and f"p{n_files}.csv" in err
    assert not out.exists()


def test_fit_dipole_window_for_a_file_not_given_is_bad_input(tmp_path, capsys):
    # was ignored, exit 0: a window for dipole 2 of a one-file fit
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
    path = _noisy_phasor_file(tmp_path / "p.csv", p, np.linspace(-8, 8, 41),
                              np.random.default_rng(0))
    cfg = write_cfg(tmp_path, "c.json", {"fit": {"dipole_windows_ghz": {"2": [-1, 1]}}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "fit", path) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "fit.dipole_windows_ghz.2" in err and "dipole 2" in err and "1 phasor file" in err
    assert not out.exists()


@pytest.mark.parametrize("windows, named", [
    ({"1": [100, 200], "7": [0, 1]}, ["fit.dipole_windows_ghz.7", "dipole 1"]),
    ({"1": [100, 200]}, ["fit.dipole_windows_ghz.1", "phasors_0.csv"]),  # keeps no point
])
def test_fit_saturation_bad_dipole_window_is_bad_input(tmp_path, capsys, windows, named):
    # was ignored, exit 0 with the unwindowed fit
    files = _saturation_files(tmp_path)
    cfg = write_cfg(tmp_path, "c.json", {"fit": {"dipole_windows_ghz": windows}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "fit-saturation", *files) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert not out.exists()


@pytest.mark.parametrize("window", [[-10.0, 10.0], [-5.0, 5.0]])
def test_fit_saturation_window_cuts_every_file(tmp_path, window):
    # every file of a power series is dipole 1, so window "1" cuts each one
    files = _saturation_files(tmp_path)
    cut = []
    for path in files:
        series = parse_phasors_csv(path)
        keep = (window[0] <= series.freq) & (series.freq <= window[1])
        cut.append(tmp_path / f"cut_{Path(path).name}")
        write_phasors_csv(PhasorSeries(*(getattr(series, f.name)[keep]
                                         for f in dataclasses.fields(series))),
                          cut[-1], meta={"power": phasor_file_meta(path)["power"]})
    cfg = write_cfg(tmp_path, "c.json", {"fit": {"dipole_windows_ghz": {"1": window}}})
    assert run_cli("--config", cfg, "--out", str(tmp_path / "win"), "fit-saturation",
                   *files) == EXIT_OK
    assert run_cli("--out", str(tmp_path / "cut"), "fit-saturation", *map(str, cut)) == EXIT_OK
    assert (tmp_path / "win" / "fit.json").read_bytes() == (
        tmp_path / "cut" / "fit.json").read_bytes()


def test_fit_powers_for_files_not_given_is_bad_input(tmp_path, capsys):
    # was ignored, exit 0: seven powers for three phasor files
    files = _saturation_files(tmp_path)[:3]
    cfg = write_cfg(tmp_path, "c.json", {"fit": {"powers": [1, 2, 3, 4, 5, 6, 7]}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "fit-saturation", *files) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "fit.powers" in err and "7 entries" in err and "3 phasor file" in err
    assert not out.exists()


@pytest.mark.parametrize("powers, sidecar_powers, named", [
    ([4, 16, 4], [], "fit.powers"),
    ([], [4, 16, 16], "{dir}/phasors_0.csv.meta.json, {dir}/phasors_1.csv.meta.json, "
                      "{dir}/phasors_2.csv.meta.json"),
    ([4, 16], [16], "fit.powers, {dir}/phasors_2.csv.meta.json"),
], ids=["config", "sidecars", "both"])
def test_fit_saturation_too_few_power_levels_names_their_source(tmp_path, capsys, powers,
                                                               sidecar_powers, named):
    # was "k is unidentifiable: ...", naming neither fit.powers nor a sidecar
    files = _saturation_files(tmp_path)[:3]
    for path, power in zip(files[len(powers):], sidecar_powers):
        Path(f"{path}.meta.json").write_text(json.dumps({"power": power}), encoding="utf-8")
    cfg = write_cfg(tmp_path, "c.json", {"fit": {"powers": powers}})
    out = tmp_path / "o"
    assert run_cli("--config", cfg, "--out", str(out), "fit-saturation", *files) == EXIT_BAD_INPUT
    assert (f"error: {named.format(dir=tmp_path)}: k is unidentifiable: need >= 3 distinct "
            "power levels, got [4.0, 16.0]\n") in capsys.readouterr().err
    assert not out.exists()


def _fit_files(tmp_path, command):
    """The phasor files of ``command``: one noisy file for fit, the noiseless
    power series for fit-saturation."""
    if command == "fit":
        p = EmitterParams.isotropic(gamma=12.3, gamma_dp=3.9, beta=1.0, phi0=-0.25)
        return [_noisy_phasor_file(tmp_path / "p.csv", p, np.linspace(-8, 8, 41),
                                   np.random.default_rng(0))]
    return _saturation_files(tmp_path)


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
    ("fit-saturation", {"bounds": {"f01": [-1, 1]}}, "fit.bounds.f01"),  # was ignored, exit 0
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
    ("fit", {"intensity_from": "phase"}, "fit.intensity_from"),        # named no block
    ("fit", {"bounds": {"beta1": [2, 3]}}, "fit.bounds.beta1"),        # no box left: was exit 3
    ("fit-saturation", {"bounds": {"k": [None, -1]}}, "fit.bounds.k"),  # no box left: was exit 0
    ("fit", {"intensity_from": "amplitude"}, "fit.intensity_from"),    # was exit 3
    ("fit-saturation", {"intensity_from": "amplitude"}, "fit.intensity_from"),  # was wrong, exit 0
])
def test_bad_fit_block_is_bad_input(tmp_path, capsys, command, fit, named):
    files = _fit_files(tmp_path, command)
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"fit": fit}), "--out", str(out),
                   command, *files) == EXIT_BAD_INPUT
    assert named in capsys.readouterr().err
    assert not out.exists()


def _edit_phasor_file(path, column, row, value):
    series = parse_phasors_csv(path)
    getattr(series, column)[row] = value
    write_phasors_csv(series, path, meta=phasor_file_meta(path))


@pytest.mark.parametrize("command", ["fit", "fit-saturation"])
def test_nan_value_fits_as_an_unweighted_point(tmp_path, command):
    # a nan at the intensity dip was exit 2: "residual is not finite at the
    # initial point", as the start read the nan
    fits = []
    for name, column, value in (("nan", "offset_ratio", np.nan), ("zero", "offset_err", 0.0)):
        (tmp_path / name).mkdir()
        files = _fit_files(tmp_path / name, command)
        dip = int(np.argmin(parse_phasors_csv(files[0]).offset_ratio))
        _edit_phasor_file(files[0], column, dip, value)
        out = tmp_path / name / "out"
        assert run_cli("--out", str(out), command, *files) == EXIT_OK
        fits.append((out / "fit.json").read_bytes())
    assert fits[0] == fits[1]


@pytest.mark.parametrize("command", ["fit", "fit-saturation"])
def test_inf_phase_in_an_edge_row_fits_without_warnings(tmp_path, command):
    # was RuntimeWarnings from the start's phase - phi0 and from wrap_angle, then exit 3
    files = _fit_files(tmp_path, command)
    _edit_phasor_file(files[0], "phase_shift", 0, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("--out", str(tmp_path / "out"), command, *files) == EXIT_OK


def _unusable_phasor_file(path, power=None):
    """8 rows whose phase and offset-ratio columns are all nan: no point a fit reads."""
    freq, nan, errs = np.linspace(-4.0, 4.0, 8), np.full(8, np.nan), np.full(8, 0.01)
    series = PhasorSeries(freq=freq, phase_shift=nan, phase_err=errs, amp_ratio=np.ones(8),
                          amp_err=errs, offset_ratio=nan, offset_err=errs,
                          low_contrast=np.zeros(8, dtype=bool))
    write_phasors_csv(series, path, meta=None if power is None else {"power": power})
    return str(path)


@pytest.mark.parametrize("dipole", [1, 2])
def test_fit_file_without_a_usable_point_names_the_file(tmp_path, capsys, dipole):
    # was "no usable points for dipole 1", naming no file
    files = _fit_files(tmp_path, "fit")
    files.insert(dipole - 1, _unusable_phasor_file(tmp_path / "nan.csv"))
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "fit", *files) == EXIT_BAD_INPUT
    assert f"nan.csv: no usable points for dipole {dipole}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_saturation_without_a_usable_point_names_the_files(tmp_path, capsys):
    files = [_unusable_phasor_file(tmp_path / f"nan{i}.csv", power) for i, power in
             enumerate([1.0, 2.0, 4.0])]
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "fit-saturation", *files) == EXIT_BAD_INPUT
    assert "none of the 3 phasor files has a usable point" in capsys.readouterr().err
    assert not out.exists()


def test_fit_saturation_starts_from_the_lowest_power_with_a_usable_point(tmp_path):
    # an unusable file at the lowest power was "no usable points for dipole 1";
    # it adds no point to the fit, whose start now reads the next power up
    files = _saturation_files(tmp_path)
    out = [tmp_path / "with", tmp_path / "without"]
    nan = _unusable_phasor_file(tmp_path / "nan.csv", power=1e-3)
    assert run_cli("--out", str(out[0]), "fit-saturation", nan, *files) == EXIT_OK
    assert run_cli("--out", str(out[1]), "fit-saturation", *files) == EXIT_OK
    params = [read_json(o / "fit.json")["params"] for o in out]
    for name, entry in params[1].items():
        assert params[0][name]["value"] == pytest.approx(entry["value"], rel=1e-12), name


def test_fit_bounds_wider_than_physics_give_the_default_fit(tmp_path):
    # was exit 3 with beta1 > 1 and gamma_dp < 0: bounds replaced the fit's box
    p = EmitterParams.isotropic(gamma=12.3, gamma_dp=0.0, beta=1.0, phi0=-0.25)
    path = _noisy_phasor_file(tmp_path / "p.csv", p, np.linspace(-8, 8, 41),
                              np.random.default_rng(6))
    wide = {"fit": {"bounds": {"beta1": [None, None], "gamma_dp": [-5, None]}}}
    for name, cfg in (("default", {}), ("wide", wide)):
        assert run_cli("--config", write_cfg(tmp_path, f"{name}.json", cfg), "--out",
                       str(tmp_path / name), "fit", path) == EXIT_OK
    assert (tmp_path / "wide" / "fit.json").read_bytes() == (
        tmp_path / "default" / "fit.json").read_bytes()


def test_fit_saturation_file_too_short_names_the_file(tmp_path, capsys):
    # named no file: "channel needs >= 5 points for identifiability, got 4"
    ones, errs = np.ones(4), np.full(4, 0.01)
    series = PhasorSeries(freq=np.arange(4.0), phase_shift=np.zeros(4), amp_ratio=ones,
                          offset_ratio=ones, phase_err=errs, amp_err=errs, offset_err=errs,
                          low_contrast=np.zeros(4, dtype=bool))
    files = [str(tmp_path / f"p{i}.csv") for i in range(3)]
    for path in files:
        write_phasors_csv(series, path)
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"fit": {"powers": [1, 2, 3]}}),
                   "--out", str(out), "fit-saturation", *files) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert f"{files[0]}:" in err and "got 4" in err
    assert not out.exists()


def test_misspelt_fit_combine_is_bad_input_for_every_command(tmp_path, capsys):
    # was exit 0 with a bundle: predict-chiral never reads the fit block
    out = tmp_path / "o"
    assert run_cli("--config", write_cfg(tmp_path, "c.json", {"fit": {"combine": "prodcut"}}),
                   "--out", str(out), "predict-chiral") == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "fit.combine" in err and "prodcut" in err
    assert not out.exists()


def test_fit_init_shorthand_f0_start_and_open_bounds_are_valid(tmp_path):
    # the shorthand init sets every dipole, the saturation fit starts at init.f0,
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
