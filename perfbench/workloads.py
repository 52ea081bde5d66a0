"""What one item of each workload runs, and how its outputs are checked.

An item is one closed-loop request: the ``wgphase`` command lines it runs
in order, then checks of the bundle they wrote against the generator's
truth and the closed forms in :mod:`reference`.  A check fails on a
non-zero exit or on a result outside the stated tolerance.

Checks whose reference optimum lies beyond the program's +/- 20*gamma2
extremum search grid are counted apart as ``grid_edge``: that failure is a
known defect of the numeric search (wide-drive optima fall off the grid),
recorded as measured and never hidden by narrowing the scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

#: |phi| agreement required of every extremum, rad (the tolerance the
#: program's own acceptance suite asks of numeric versus analytic extrema)
EXTREMUM_TOL = 1e-6
#: fitted parameters must lie within this many reported sigmas of the truth.
#: Saturation fits see exact-model Gaussian noise (pull spread 1.0 over 300
#: draws); the fringe round trip's extraction sigmas run ~1.6x small
#: (pull spread 1.4-1.6, largest 5.1 over 280 draws).
PULL_LIMIT = {"fringe_roundtrip": 10.0, "saturation_fit": 6.0}

#: the extracted phasor series must match the closed form at the truth within
#: its own reported errors: mean squared normalised residual per channel
#: (phase, |t|, I_t) at most 1.  The extraction overstates its errors, so the
#: correct program sits near 0.1 (largest of 160 draws: 0.25).
PHASOR_CHI2_LIMIT = 1.0

_FRINGE_PARAMS = {"beta1": "beta", "gamma1": "gamma", "gamma_dp": "gamma_dp", "f01": "f0"}
_SATURATION_PARAMS = ("beta", "gamma", "gamma_dp", "phi0", "k")


@dataclass
class Checks:
    """Check counts of one item."""

    attempted: int = 0
    failed: int = 0
    grid_edge_failed: int = 0

    def add(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def add_many(self, ok: np.ndarray, grid_edge: np.ndarray):
        self.attempted += int(ok.size)
        self.failed += int(np.count_nonzero(~ok))
        self.grid_edge_failed += int(np.count_nonzero(~ok & grid_edge))

    def merge(self, other: "Checks"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.grid_edge_failed += other.grid_edge_failed


def commands(workload: str, item: dict, item_dir: Path, out: Path) -> list:
    """The wgphase argv lists of one item, run in order."""
    cfg = str(item_dir / item["config"])
    if workload == "fringe_roundtrip":
        sim, ext = out / "sim", out / "ext"
        return [["--config", cfg, "--out", str(sim), "simulate"],
                ["--config", cfg, "--out", str(ext), "extract", str(sim / "trace_on.csv"),
                 str(sim / "trace_off.csv")],
                ["--config", cfg, "--out", str(out / "fit"), "fit", str(ext / "phasors.csv")]]
    if workload == "chiral_scan":
        return [["--config", cfg, "--out", str(out / "chiral"), "predict-chiral"]]
    if workload == "saturation_fit":
        return [["--config", cfg, "--out", str(out / "sat"), "fit-saturation",
                 *(str(item_dir / name) for name in item["phasors"])]]
    raise ValueError(f"unknown workload {workload!r}")


def _n_checks(workload: str, item: dict) -> int:
    if workload == "fringe_roundtrip":
        return 1 + len(_FRINGE_PARAMS) + 3
    if workload == "chiral_scan":
        return 1 + 2 * item["truth"]["points"] * len(item["truth"]["beta_dirs"])
    # fit-saturation writes its phase-vs-power curve at 25 powers
    return 1 + len(_SATURATION_PARAMS) + 25


def check(workload: str, item: dict, out: Path, exit_ok: bool) -> Checks:
    """Check one item's outputs.  A failed command, or an output that is
    missing, malformed or of the wrong length, fails every check of the item."""
    n = _n_checks(workload, item)
    checks = Checks()
    checks.add(exit_ok)
    if exit_ok:
        try:
            {"fringe_roundtrip": _check_fringe, "chiral_scan": _check_chiral,
             "saturation_fit": _check_saturation}[workload](item, out, checks)
        except (OSError, ValueError, KeyError) as exc:
            print(f"perfbench: unreadable output in {out}: {exc}", flush=True)
    if checks.attempted != n:
        return Checks(attempted=n, failed=n)
    return checks


def _pull_ok(fit: dict, name: str, truth: float, limit: float) -> bool:
    value, sigma = fit["params"][name]["value"], fit["params"][name]["sigma"]
    return bool(np.isfinite(sigma) and abs(value - truth) <= limit * sigma)


def _check_fringe(item: dict, out: Path, checks: Checks):
    fit = json.loads((out / "fit" / "fit.json").read_text(encoding="utf-8"))
    for name, key in _FRINGE_PARAMS.items():
        checks.add(_pull_ok(fit, name, item["truth"][key], PULL_LIMIT["fringe_roundtrip"]))
    tr = item["truth"]
    freq, phase, phase_err, amp, amp_err, offset, offset_err = \
        _table(out / "ext" / "phasors.csv", 7).T
    t, i_t = reference.transmission(2.0 * np.pi * (freq - tr["f0"]), tr["gamma"],
                                    tr["gamma_dp"], tr["beta"], 0.0, chiral=False)
    for resid, err in ((reference.wrap_angle(phase - np.angle(t) - tr["phi0"]), phase_err),
                       (amp - np.abs(t), amp_err), (offset - i_t, offset_err)):
        checks.add(bool(np.mean((resid / err) ** 2) <= PHASOR_CHI2_LIMIT))


def _table(path: Path, n_cols: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != n_cols:
        raise ValueError(f"{path}: expected {n_cols} columns, got {table.shape[1]}")
    return table


def _check_extrema(checks: Checks, got, gamma, gamma_dp, beta, omega_r, chiral):
    lo, hi = reference.phase_extremum_range(gamma, gamma_dp, beta, omega_r, chiral)
    inside = reference.optimum_inside_program_grid(gamma, gamma_dp, beta, omega_r, chiral)
    ok = (np.abs(got) >= lo - EXTREMUM_TOL) & (np.abs(got) <= hi + EXTREMUM_TOL)
    checks.add_many(np.asarray(ok), ~np.asarray(inside))


def _check_chiral(item: dict, out: Path, checks: Checks):
    gamma, beta_dirs = item["truth"]["gamma"], item["truth"]["beta_dirs"]
    omega = _table(out / "chiral" / "phase_vs_omega.csv", 1 + len(beta_dirs))
    dephasing = _table(out / "chiral" / "phase_vs_dephasing.csv", 1 + len(beta_dirs))
    for j, bd in enumerate(beta_dirs, start=1):
        _check_extrema(checks, omega[:, j], gamma, 0.0, bd, omega[:, 0], chiral=True)
        _check_extrema(checks, dephasing[:, j], gamma, dephasing[:, 0], bd, 0.0, chiral=True)


def _check_saturation(item: dict, out: Path, checks: Checks):
    fit = json.loads((out / "sat" / "fit.json").read_text(encoding="utf-8"))
    for name in _SATURATION_PARAMS:
        checks.add(_pull_ok(fit, name, item["truth"][name], PULL_LIMIT["saturation_fit"]))
    p = {name: fit["params"][name]["value"] for name in _SATURATION_PARAMS}
    curve = _table(out / "sat" / "phase_vs_power.csv", 2)
    _check_extrema(checks, curve[:, 1], p["gamma"], p["gamma_dp"], max(p["beta"], 1e-6),
                   np.sqrt(p["k"] * curve[:, 0]), chiral=False)
