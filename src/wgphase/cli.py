"""Command-line front end.

Subcommands: ``simulate`` (spectra and fringe traces), ``extract`` (fringe
pair to phasors), ``pathlength`` (FFT imbalance estimate), ``fit``
(two-dipole spectral fit), ``fit-saturation`` (power series fit) and
``predict-chiral`` (thresholds and phase curves for directional coupling).

:func:`main` owns the run: it loads the config, hands the command a
:class:`~wgphase.io.ResultBundle`, and once the command's work has succeeded
adds the resolved config and a hashed manifest.  Each command computes
before it writes, so one that fails leaves no output directory.  Identical
config and seed reproduce byte-identical products.

Exit codes: 0 success; 2 bad input: a bad input file, a ``WGPHASE_LOG``
that is no ``logging`` level name, or a bad config, which is checked at
load for every command (PID lock gains that make the loop unstable
included); 3 fit non-convergence, the bundle still written in full;
4 internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import traceback

import numpy as np

from . import emitter, spectra
from .config import ConfigError, RunConfig, check_seed, load_config
from .extraction import NoFringeError, estimate_path_length_fft, extract_phasor_series
from .interferometer import UnstableLoopError, apply_shot_noise, fringe_trace
from .io import (ResultBundle, TraceParseError, fit_result_json, parse_phasors_csv,
                 parse_trace_csv, phasor_file_meta)
from .lm import FitResult
from .units import detuning_angular

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        cfg.noise.seed = args.seed
    return cfg


def cmd_simulate(cfg: RunConfig, bundle: ResultBundle):
    p = cfg.emitter.to_params()
    icfg = cfg.interferometer.to_config()
    sweep = cfg.sweep.grid()
    omega_r = cfg.drive.omega_rad_ns
    # one environmental-phase realisation (one lock loop) serves both traces
    phi_env = cfg.interferometer.env_phase.series(sweep.size, icfg.integration_time)
    traces = {}
    for qd_on, name in ((True, "trace_on.csv"), (False, "trace_off.csv")):
        trace = fringe_trace(icfg, p, sweep, qd_on=qd_on, omega_r=omega_r, phi_env=phi_env)
        if cfg.noise.shot_noise:
            trace = apply_shot_noise(trace, cfg.noise.seed + (0 if qd_on else 1))
        traces[name] = trace

    t, i_t = emitter.transmission(p, detuning_angular(sweep, p.f0), omega_r)
    bundle.write_table("model_spectrum.csv", "freq_ghz,phase_rad,abs_t,i_t",
                       [sweep, np.angle(t), np.abs(t), i_t])
    for name, trace in traces.items():
        bundle.write_trace(name, trace)


def cmd_extract(cfg: RunConfig, bundle: ResultBundle, on_file, off_file):
    on = parse_trace_csv(on_file)
    off = parse_trace_csv(off_file)
    ext = cfg.extraction
    delta_l = ext.delta_l_m
    if delta_l is None:
        delta_l = estimate_path_length_fft(off)
    series = extract_phasor_series(
        on, off, window_periods=ext.window_periods, delta_l=delta_l,
        hop_periods=ext.hop_periods, poly_order=ext.poly_order,
        weight_beta=ext.weight_beta)
    bundle.write_phasors("phasors.csv", series,
                         meta={"delta_l_m": delta_l, "source_on": str(on_file),
                               "source_off": str(off_file)})
    bundle.write_json("summary.json", {"delta_l_m": delta_l, "n_points": len(series),
                                       "n_low_contrast": np.count_nonzero(series.low_contrast)})


def cmd_pathlength(cfg: RunConfig, bundle: ResultBundle, trace_file):
    delta_l = estimate_path_length_fft(parse_trace_csv(trace_file))
    bundle.write_json("summary.json", {"delta_l_m": delta_l, "source": str(trace_file)})


def _dataset_from_files(cfg: RunConfig, phasor_files):
    channels = []
    windows = cfg.fit.dipole_windows_ghz
    for i, path in enumerate(phasor_files, start=1):
        window = windows.get(str(i))
        ds = spectra.SpectrumDataset.from_phasors(
            parse_phasors_csv(path), dipole=i, intensity_from=cfg.fit.intensity_from,
            freq_window=tuple(window) if window else None)
        channels.extend(ds.channels)
    return spectra.SpectrumDataset(channels=channels)


def cmd_fit(cfg: RunConfig, bundle: ResultBundle, phasor_files) -> FitResult:
    data = _dataset_from_files(cfg, phasor_files)
    result = spectra.fit_two_dipole_spectra(
        data, init=cfg.fit.init or None, bounds=cfg.fit.bounds or None,
        combine=cfg.fit.combine, max_iter=cfg.fit.max_iter)
    channels = data.channels
    sizes = [ch.freq.size for ch in channels]
    kind_codes = {"phase": 0, "intensity": 1, "amplitude": 2}
    columns = [np.concatenate([ch.freq for ch in channels]),
               np.repeat([kind_codes[ch.kind] for ch in channels], sizes),
               np.repeat([ch.dipole for ch in channels], sizes),
               np.concatenate([ch.values for ch in channels]),
               spectra.two_dipole_model(data, result.params, cfg.fit.combine)]
    bundle.write_text("fit.json", fit_result_json(result))
    bundle.write_table("residuals.csv", "freq_ghz,channel,dipole,value,model", columns)
    return result


def cmd_fit_saturation(cfg: RunConfig, bundle: ResultBundle, phasor_files) -> FitResult:
    datasets = []
    powers = list(cfg.fit.powers)
    for i, path in enumerate(phasor_files):
        series = parse_phasors_csv(path)
        power = powers[i] if i < len(powers) else phasor_file_meta(path).get("power")
        if power is None:
            raise TraceParseError(
                f"{path}: no power level in sidecar and none given in fit.powers")
        datasets.append(spectra.SpectrumDataset.from_phasors(
            series, dipole=1, power=float(power), intensity_from=cfg.fit.intensity_from))
    result = spectra.fit_saturation_series(
        datasets, init=cfg.fit.init or None, bounds=cfg.fit.bounds or None,
        max_iter=cfg.fit.max_iter)

    p_fit = emitter.EmitterParams.isotropic(
        gamma=result["gamma"], beta=max(result["beta"], 1e-6),
        gamma_dp=result["gamma_dp"], phi0=result["phi0"])
    n_c = emitter.critical_photon_flux(p_fit) if result["beta"] > 0 else None
    pw = np.geomspace(min(ds.power for ds in datasets) / 3,
                      max(ds.power for ds in datasets) * 2, 25)
    phi = spectra.predict_phase_vs_power(p_fit, result["k"], pw) if result["k"] > 0 else None
    bundle.write_text("fit.json", fit_result_json(result, extra={"n_c": n_c}))
    if phi is not None:
        bundle.write_table("phase_vs_power.csv", "power,phi_max_rad", [pw, phi])
    return result


def cmd_predict_chiral(cfg: RunConfig, bundle: ResultBundle):
    base = cfg.emitter.to_params()
    beta_dirs, omegas, gdps = cfg.chiral_scan.grids()
    ref = base.with_(coupling="chiral", beta=1.0) if not base.is_chiral else base
    thresholds = emitter.chiral_thresholds(ref)
    by_omega, by_gdp = [omegas], [gdps]
    for bd in beta_dirs:
        p = ref.with_(beta=bd, gamma_dp=0.0)
        by_omega.append(emitter.phase_extrema_analytic(p, omegas).phi_plus)
        # the whole dephasing axis in one call, on gamma2 = gamma/2 + gamma_dp
        by_gdp.append(emitter._phase_extrema(p.coupling_rate, p.gamma, p.gamma / 2.0 + gdps,
                                             0.0).phi_plus)
    header = "".join(f",phi_max_bdir_{bd:g}" for bd in beta_dirs)
    bundle.write_json("thresholds.json", {"omega_c_rad_ns": thresholds.omega_c,
                                          "gamma_dp_c_rad_ns": thresholds.gamma_dp_c,
                                          "beta_dir_c": thresholds.beta_dir_c})
    bundle.write_table("phase_vs_omega.csv", "omega_rad_ns" + header, by_omega)
    bundle.write_table("phase_vs_dephasing.csv", "gamma_dp_rad_ns" + header, by_gdp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgphase",
        description="Forward and inverse modeling of single-emitter phase shifts "
                    "in photonic waveguides")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default=os.environ.get("WGPHASE_OUT", "wgphase_out"),
                        help="output bundle directory (env: WGPHASE_OUT)")
    parser.add_argument("--seed", type=int, default=None, help="override noise seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="emit model spectra and an on/off fringe pair")
    p_ext = sub.add_parser("extract", help="extract phasors from an on/off trace pair")
    p_ext.add_argument("on_file")
    p_ext.add_argument("off_file")
    p_len = sub.add_parser("pathlength", help="FFT path-length estimate from a trace")
    p_len.add_argument("trace_file")
    p_fit = sub.add_parser("fit", help="joint spectral fit of phasor datasets")
    p_fit.add_argument("phasor_files", nargs="+")
    p_sat = sub.add_parser("fit-saturation", help="global fit across drive powers")
    p_sat.add_argument("phasor_files", nargs="+")
    sub.add_parser("predict-chiral", help="chiral thresholds and phase curves")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("WGPHASE_LOG", "WARNING").upper()
    # checked here: basicConfig checks the level only when the root logger has no handler
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: WGPHASE_LOG: unknown logging level {level!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("wgphase")
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        bundle, result = ResultBundle(args.out), None
        # the commands are looked up here on each call, so a wrapper installed on
        # the module (a profiler, a test) sees them
        if args.command == "simulate":
            cmd_simulate(cfg, bundle)
        elif args.command == "extract":
            cmd_extract(cfg, bundle, args.on_file, args.off_file)
        elif args.command == "pathlength":
            cmd_pathlength(cfg, bundle, args.trace_file)
        elif args.command == "fit":
            result = cmd_fit(cfg, bundle, args.phasor_files)
        elif args.command == "fit-saturation":
            result = cmd_fit_saturation(cfg, bundle, args.phasor_files)
        elif args.command == "predict-chiral":
            cmd_predict_chiral(cfg, bundle)
        bundle.write_json("config.json", cfg.resolved())
        bundle.finalize()
    except (ConfigError, TraceParseError, NoFringeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnstableLoopError as exc:
        print(f"error: interferometer.env_phase: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL
    if result is not None and not result.converged:  # the bundle holds the diagnostics
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    log.info("%s finished, bundle written to %s", args.command, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
