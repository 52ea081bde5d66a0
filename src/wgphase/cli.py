"""Command-line front end.

Subcommands: ``simulate`` (an on/off fringe-trace pair), ``extract`` (fringe
pair to phasors), ``pathlength`` (FFT imbalance estimate), ``fit``
(two-dipole spectral fit), ``fit-saturation`` (power series fit) and
``predict-chiral`` (thresholds and phase curves for directional coupling).

:func:`main` owns the run: it loads the config, hands the command a
:class:`~wgphase.io.ResultBundle`, and once the command's work has succeeded
adds the resolved config and a hashed manifest.  Each command computes
before it writes, so one that fails leaves no output directory.  Identical
config and seed reproduce byte-identical products.

Exit codes, returned by :func:`main`: 0 success (``--help`` too); 2 bad
input: a command line the parser rejects, a bad input file, a
``WGPHASE_LOG`` that is no ``logging`` level name, a ``--config`` that
names no file and is no JSON text either, or a bad config, checked at load
for every command (PID lock gains with a pole on or outside the unit
circle or an impulse response whose l1 norm over ``sweep.points`` is above
10, values whose arithmetic would overflow, and counts too large for a
shot-noise draw included); 3 fit non-convergence, the bundle still written
in full; 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import traceback

import numpy as np

from . import emitter, spectra
from .config import ConfigError, RunConfig, check_seed, load_config
from .extraction import (NoFringeError, TraceMetaError, estimate_path_length_fft,
                         extract_phasor_series)
from .interferometer import apply_shot_noise, fringe_trace
from .io import (ResultBundle, TraceParseError, fit_result_json, parse_phasors_csv,
                 parse_trace_csv, parse_trace_pair, phasor_file_meta)
from .lm import FitResult

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
    icfg = cfg.interferometer
    sweep = cfg.sweep.grid()
    omega_r = cfg.drive.omega_rad_ns
    # one environmental-phase realisation (one lock loop) serves both traces
    phi_env = icfg.env_phase.series(sweep.size, icfg.integration_time_s)
    traces = {}
    for qd_on, name in ((True, "trace_on.csv"), (False, "trace_off.csv")):
        trace = fringe_trace(icfg, p, sweep, qd_on=qd_on, omega_r=omega_r, phi_env=phi_env)
        if cfg.noise.shot_noise:
            trace = apply_shot_noise(trace, cfg.noise.seed + (0 if qd_on else 1))
        traces[name] = trace
    bundle.write_traces(traces)


def cmd_extract(cfg: RunConfig, bundle: ResultBundle, on_file, off_file):
    on, off = parse_trace_pair(on_file, off_file)
    try:
        ext = cfg.extraction.with_path_length(off)  # one FFT estimate, recorded below
    except ValueError as exc:  # the off trace gives no estimate
        raise ValueError(f"{off_file}: {exc}") from exc
    try:
        series = extract_phasor_series(on, off, ext)
    except TraceMetaError as exc:  # the off sidecar lacks the background or says qd_on: true
        raise TraceParseError(f"{off_file}.meta.json: {exc}") from exc
    except ValueError as exc:  # the pair does not fit the grid or the windows
        raise ValueError(f"{on_file}, {off_file}: {exc}") from exc
    bundle.write_phasors("phasors.csv", series,
                         meta={"delta_l_m": ext.delta_l_m, "source_on": str(on_file),
                               "source_off": str(off_file)})
    bundle.write_json("summary.json", {"delta_l_m": ext.delta_l_m, "n_points": len(series),
                                       "n_low_contrast": np.count_nonzero(series.low_contrast)})


def cmd_pathlength(cfg: RunConfig, bundle: ResultBundle, trace_file):
    trace = parse_trace_csv(trace_file)
    try:
        delta_l = estimate_path_length_fft(trace)
    except ValueError as exc:  # too short, not on a uniform grid or without a fringe
        raise ValueError(f"{trace_file}: {exc}") from exc
    bundle.write_json("summary.json", {"delta_l_m": delta_l, "source": str(trace_file)})


_USABLE = "a finite value with a finite sigma > 0"


def _spectra_from_files(cfg: RunConfig, phasor_files, power_series=False):
    """One spectrum per phasor file, cut to its dipole's window in
    fit.dipole_windows_ghz.  For ``fit`` the i-th file is dipole i; for a
    power series every file is dipole 1, at its entry in fit.powers or else
    at the power in its sidecar."""
    windows = cfg.fit.dipole_windows_ghz
    powers = list(cfg.fit.powers) if power_series else []
    if len(powers) > len(phasor_files):
        raise ValueError(f"fit.powers: {len(powers)} entries for "
                         f"{len(phasor_files)} phasor file(s)")
    dipoles = [1 if power_series else i for i in range(1, len(phasor_files) + 1)]
    for key in windows:
        if int(key) not in dipoles:
            raise ValueError(f"fit.dipole_windows_ghz.{key}: a window for dipole {key} of "
                             f"{len(phasor_files)} phasor file(s)"
                             f"{', all of dipole 1' if power_series else ''}")
    records = []
    for i, (path, dipole) in enumerate(zip(phasor_files, dipoles)):
        series, window, power = parse_phasors_csv(path), windows.get(str(dipole)), None
        if power_series:
            power = powers[i] if i < len(powers) else phasor_file_meta(path).get("power")
            if power is None:
                raise TraceParseError(
                    f"{path}: no power level in sidecar and none given in fit.powers")
        try:
            record = spectra.Spectrum.from_phasors(
                series, dipole=dipole, power=None if power is None else float(power),
                freq_window=tuple(window) if window else None)
            if not (power_series or record.has_usable_point()):
                raise ValueError(f"no usable points for dipole {dipole} ({_USABLE})")
        except ValueError as exc:  # too few, bad or unusable points in the file or its window
            where = f"fit.dipole_windows_ghz.{dipole}: window {window} GHz of " if window else ""
            raise ValueError(f"{where}{path}: {exc}") from exc
        records.append(record)
    if not power_series:
        return records
    if not any(r.has_usable_point() for r in records):
        where = " in its fit.dipole_windows_ghz.1 window" if windows else ""
        raise ValueError(f"none of the {len(records)} phasor files has a usable point"
                         f"{where} ({_USABLE})")
    levels = sorted({r.power for r in records})
    if len(levels) < 3:
        sources = (["fit.powers"] if powers else []) + [
            f"{path}.meta.json" for path in phasor_files[len(powers):]]
        raise ValueError(f"{', '.join(sources)}: k is unidentifiable: need >= 3 distinct "
                         f"power levels, got {levels}")
    return records


def cmd_fit(cfg: RunConfig, bundle: ResultBundle, phasor_files) -> FitResult:
    records = _spectra_from_files(cfg, phasor_files)
    result = spectra.fit_two_dipole_spectra(
        records, init=cfg.fit.init or None, bounds=cfg.fit.bounds or None,
        combine=cfg.fit.combine, max_iter=cfg.fit.max_iter)
    columns = [*spectra.point_columns(records),
               spectra.two_dipole_model(records, result.params, cfg.fit.combine)]
    bundle.write_text("fit.json", fit_result_json(result))
    bundle.write_table("residuals.csv", "freq_ghz,channel,dipole,value,model", columns)
    return result


def cmd_fit_saturation(cfg: RunConfig, bundle: ResultBundle, phasor_files) -> FitResult:
    records = _spectra_from_files(cfg, phasor_files, power_series=True)
    result = spectra.fit_saturation_series(
        records, init=cfg.fit.init or None, bounds=cfg.fit.bounds or None,
        max_iter=cfg.fit.max_iter)

    p_fit = emitter.EmitterParams.isotropic(gamma=result["gamma"], beta=result["beta"],
                                            gamma_dp=result["gamma_dp"], phi0=result["phi0"])
    n_c = emitter.critical_photon_flux(p_fit) if result["beta"] > 0 else None
    powers = [s.power for s in records]
    pw = np.geomspace(min(powers) / 3, max(powers) * 2, 25)
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
    # one call per table, a row per beta_dir (chiral s = beta_dir*gamma) on the whole
    # axis, the dephasing axis on gamma2 = gamma/2 + gamma_dp
    s, gamma = np.array(beta_dirs)[:, None] * ref.gamma, ref.gamma
    by_omega = [omegas, *emitter._phase_extrema(s, gamma, gamma / 2.0, omegas).phi_plus]
    by_gdp = [gdps, *emitter._phase_extrema(s, gamma, gamma / 2.0 + gdps, 0.0).phi_plus]
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
    parser.add_argument("--out", help="output bundle directory (env: WGPHASE_OUT)")
    parser.add_argument("--seed", type=int, default=None, help="override noise seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="emit an on/off fringe-trace pair")
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


# built at the first main call, not at import, and reused by every later one:
# parse_args leaves it unchanged, and main reads WGPHASE_OUT on each call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    level = os.environ.get("WGPHASE_LOG", "WARNING").upper()
    # checked here: basicConfig checks the level only when the root logger has no handler
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: WGPHASE_LOG: unknown logging level {level!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("wgphase")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0), printed: not raised
        return exc.code
    out = os.environ.get("WGPHASE_OUT", "wgphase_out") if args.out is None else args.out
    try:
        cfg = _load(args)
        bundle, result = ResultBundle(out), None
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
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL
    if result is not None and not result.converged:  # the bundle holds the diagnostics
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    log.info("%s finished, bundle written to %s", args.command, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
