"""Seeded input generator for the three benchmark workloads.

``generate(workload, seed, out_dir)`` writes every config and CSV one run
needs, plus ``workload.json`` with the per-item truth the checks compare
against and the reason the workload exists.  Only these files reach
wgphase.  The same (workload, seed) gives byte-identical files: values come
from one PCG64 stream keyed by the seed and the workload, and floats are
written with ``repr``, the shortest string that reads back to the same
double.

Emitter parameters are Latin-hypercube draws over the pool: each
parameter's values cover its range in equal strata, shuffled, so every
seed's pool has nearly the same mix of easy and hard fits and the seed moves
the run's mean work per item as little as possible.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference

WHY = {
    "fringe_roundtrip": (
        "The paper's forward+inverse path: simulate with shot noise and a PID-locked drift, "
        "extract with the FFT path-length estimate, fit. Dominated by shot noise, window "
        "extraction and CSV I/O."),
    "chiral_scan": (
        "predict-chiral into deep saturation: ~1000 numeric extremum searches made of many "
        "small transmission calls, no fringe or LM code. The range reaches past the search "
        "grid, so the known grid-edge defect shows."),
    "saturation_fit": (
        "A 5-parameter global LM fit over 10 channels read from phasor CSVs at 5 drive powers, "
        "plus 25 extremum searches; no fringe synthesis or extraction runs."),
}

# distinct inputs per run; a run cycles through them if it gets further
POOL_SIZE = {"fringe_roundtrip": 160, "chiral_scan": 64, "saturation_fit": 400}

_TAG = {"fringe_roundtrip": 1, "chiral_scan": 2, "saturation_fit": 3}

SATURATION_POWERS = [0.1, 0.3, 1.0, 3.0, 10.0]
SATURATION_SIGMAS = (0.01, 0.005, 0.01)  # phase rad, |t|, I_t
PHASOR_HEADER = "freq_ghz,phase_rad,phase_err,amp_ratio,amp_err,offset_ratio,offset_err"
CHIRAL_BETA_DIRS = [1.0, 0.9, 0.7, 0.5]
CHIRAL_POINTS = 121


def _draws(rng, n: int, ranges: dict) -> list:
    """n parameter dicts, each parameter stratified over its (lo, hi) range."""
    cols = {}
    for name, (lo, hi) in ranges.items():
        u = (rng.permutation(n) + rng.uniform(size=n)) / n
        cols[name] = [round(float(lo + (hi - lo) * x), 6) for x in u]
    return [{name: cols[name][i] for name in ranges} for i in range(n)]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


FRINGE_RANGES = {"gamma": (9.0, 15.0), "gamma_dp": (2.0, 5.0), "beta": (0.6, 0.95),
                 "f0": (-2.0, 2.0), "phi0": (-0.4, 0.4)}
CHIRAL_RANGES = {"gamma": (5.0, 20.0)}
SATURATION_RANGES = {"beta": (0.6, 0.95), "gamma": (9.0, 15.0), "gamma_dp": (1.0, 4.0),
                     "phi0": (-0.4, 0.4), "k_scale": (0.5, 2.0)}


def _fringe_item(rng, truth: dict, item_dir: Path) -> dict:
    config = {
        "emitter": {"gamma_rad_ns": truth["gamma"], "gamma_dp_rad_ns": truth["gamma_dp"],
                    "coupling": "isotropic", "beta": truth["beta"], "f0_ghz": truth["f0"],
                    "phi0_rad": truth["phi0"]},
        "drive": {"omega_rad_ns": 0.0, "linear_response": True},
        "interferometer": {
            "delta_l_m": 2.78, "visibility": 0.65, "p_lo_cps": 1e6, "p_sig_cps": 1e5,
            "integration_time_s": 0.1, "dark_cps": 0.0,
            "env_phase": {"kind": "locked_drift", "sigma_rad": 0.05, "kp": 0.6, "ki": 4.0,
                          "kd": 0.0, "seed": int(rng.integers(0, 2**31))}},
        "sweep": {"start_ghz": -15.0, "stop_ghz": 15.0, "points": 4501},
        "noise": {"shot_noise": True, "seed": int(rng.integers(0, 2**31))},
        "extraction": {"window_periods": 3.0, "poly_order": 2, "delta_l_m": None},
        "fit": {"model": "two_dipole", "intensity_from": "offset", "max_iter": 500},
    }
    _write_json(item_dir / "config.json", config)
    return {"config": "config.json", "truth": truth}


def _chiral_item(rng, truth: dict, item_dir: Path) -> dict:
    gamma = truth["gamma"]
    config = {
        "emitter": {"gamma_rad_ns": gamma, "gamma_dp_rad_ns": 0.0, "coupling": "chiral",
                    "beta": 1.0},
        "chiral_scan": {"beta_dirs": CHIRAL_BETA_DIRS, "omega_max_rad_ns": 10.0 * gamma,
                        "gamma_dp_max_rad_ns": 2.0 * gamma, "points": CHIRAL_POINTS},
    }
    _write_json(item_dir / "config.json", config)
    return {"config": "config.json",
            "truth": {"gamma": gamma, "beta_dirs": CHIRAL_BETA_DIRS, "points": CHIRAL_POINTS}}


def _fmt_row(values) -> str:
    return ",".join(map(repr, values))


def _saturation_item(rng, truth: dict, item_dir: Path) -> dict:
    g2 = truth["gamma"] / 2.0 + truth["gamma_dp"]
    # omega_r**2 = k*P; the middle power sits near the saturation drive
    truth["k"] = round(g2 * truth["gamma"] / 4.0 * truth.pop("k_scale"), 6)
    freq = np.linspace(-15.0, 15.0, 91)
    files = []
    for j, power in enumerate(SATURATION_POWERS):
        omega = float(np.sqrt(truth["k"] * power))
        phase, amp, offset = reference.synth_phasors(
            freq, truth["gamma"], truth["gamma_dp"], truth["beta"], truth["phi0"], omega,
            SATURATION_SIGMAS, rng)
        sp, sa, so = SATURATION_SIGMAS
        lines = [PHASOR_HEADER] + [_fmt_row((f, p, sp, a, sa, o, so)) for f, p, a, o in
                                   zip(freq.tolist(), phase.tolist(), amp.tolist(),
                                       offset.tolist())]
        name = f"phasors_p{j}.csv"
        (item_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.append(name)
    config = {"fit": {"model": "saturation", "intensity_from": "offset", "max_iter": 500,
                      "powers": SATURATION_POWERS, "init": {"f0": 0.0}}}
    _write_json(item_dir / "config.json", config)
    return {"config": "config.json", "phasors": files, "truth": truth}


_ITEM = {"fringe_roundtrip": (_fringe_item, FRINGE_RANGES),
         "chiral_scan": (_chiral_item, CHIRAL_RANGES),
         "saturation_fit": (_saturation_item, SATURATION_RANGES)}


def generate(workload: str, seed: int, out_dir, pool_size: int | None = None) -> dict:
    """Write the inputs of one run into ``out_dir`` and return its manifest."""
    if workload not in _ITEM:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_ITEM)}")
    out_dir = Path(out_dir)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _TAG[workload]]))
    make_item, ranges = _ITEM[workload]
    items = []
    for i, truth in enumerate(_draws(rng, pool_size or POOL_SIZE[workload], ranges)):
        item_dir = out_dir / f"item{i:04d}"
        item_dir.mkdir(parents=True)
        entry = make_item(rng, truth, item_dir)
        entry["dir"] = item_dir.name
        items.append(entry)
    manifest = {"workload": workload, "seed": int(seed), "why": WHY[workload], "items": items}
    _write_json(out_dir / "workload.json", manifest)
    return manifest
