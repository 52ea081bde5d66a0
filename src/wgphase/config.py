"""Run configuration: a single strict JSON document.

Unknown keys are rejected with the dotted path of the offending entry, so a
typo never silently falls back to a default.  Every block is optional and
every field has a documented default; ``resolved()`` returns the fully
materialized dictionary that gets snapshotted next to the outputs.

Rates in the emitter block are angular (rad/ns, matching lifetime tables in
1/ns); frequencies on the sweep axis are GHz.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import interferometer
from .emitter import EmitterParams
from .extraction import check_window_values
from .spectra import check_fit_values
from .units import is_number


class ConfigError(ValueError):
    """Configuration rejected; message names the offending key path."""


@dataclass
class EmitterBlock:
    gamma_rad_ns: float = 12.3
    gamma_dp_rad_ns: float = 3.9
    coupling: str = "isotropic"
    beta: float = 1.0
    f0_ghz: float = 0.0
    phi0_rad: float = -0.25

    def __post_init__(self):
        self.to_params()  # checked at load, for every command

    def to_params(self) -> EmitterParams:
        try:
            return EmitterParams(gamma=self.gamma_rad_ns, gamma_dp=self.gamma_dp_rad_ns,
                                 coupling=self.coupling, beta=self.beta,
                                 f0=self.f0_ghz, phi0=self.phi0_rad)
        except ValueError as exc:
            raise ConfigError(f"emitter: {exc}") from exc


@dataclass
class DriveBlock:
    omega_rad_ns: float = 0.0
    linear_response: bool = True  # linear response is the drive omega_r = 0

    def __post_init__(self):
        if self.omega_rad_ns < 0:
            raise ConfigError(f"drive.omega_rad_ns: must be >= 0, got {self.omega_rad_ns}")
        if self.linear_response and self.omega_rad_ns > 0:
            raise ConfigError(
                f"drive.omega_rad_ns: must be 0 under drive.linear_response (omega_r = 0), "
                f"got {self.omega_rad_ns}; set linear_response to false to drive the emitter")


@dataclass
class EnvPhaseBlock:
    kind: str = "constant"        # constant | random_walk | sinusoid | locked_drift
    value_rad: float = 0.0        # constant
    sigma_rad: float = 0.05       # random_walk / locked_drift step
    amplitude_rad: float = 0.0    # sinusoid
    frequency_hz: float = 0.0     # sinusoid
    kp: float = 0.6               # locked_drift PID gains
    ki: float = 4.0
    kd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "random_walk", "sinusoid", "locked_drift"):
            raise ConfigError(f"interferometer.env_phase.kind: unknown kind {self.kind!r}")
        for name in ("sigma_rad", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"interferometer.env_phase.{name}: must be >= 0, "
                                  f"got {getattr(self, name)}")

    def series(self, n: int, dt: float) -> np.ndarray:
        """The environmental phase of ``n`` samples ``dt`` s apart, rad.  The
        walk is seeded by ``seed`` alone; ``locked_drift`` is the residual the
        lock loop leaves of it."""
        if self.kind == "constant":
            return np.full(n, self.value_rad)
        if self.kind == "sinusoid":
            times = np.arange(n) * dt
            return self.amplitude_rad * np.sin(2.0 * np.pi * self.frequency_hz * times)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x7761]))
        walk = np.cumsum(rng.normal(0.0, self.sigma_rad, n))
        if self.kind == "random_walk":
            return walk
        gains = {"kp": self.kp, "ki": self.ki, "kd": self.kd}
        # looked up on the module, so a wrapper installed there (a profiler, a test) sees it
        return interferometer.lock_loop_residual(walk, gains, dt)


@dataclass
class InterferometerBlock:
    delta_l_m: float = 2.78
    visibility: float = 0.65
    p_lo_cps: float = 1e6
    p_sig_cps: float = 1e4
    integration_time_s: float = 0.1
    dark_cps: float = 0.0
    env_phase: EnvPhaseBlock = field(default_factory=EnvPhaseBlock)

    def __post_init__(self):
        self.to_config()  # checked at load, for every command
        env = self.env_phase
        if env.kind == "locked_drift":  # the loop runs one step per integration time
            radius = interferometer.lock_loop_radius(
                {"kp": env.kp, "ki": env.ki, "kd": env.kd}, self.integration_time_s)
            if radius > 1.0 + 1e-9:
                raise ConfigError(
                    f"interferometer.env_phase: PID gains kp={env.kp:g}, ki={env.ki:g}, "
                    f"kd={env.kd:g} at integration_time_s {self.integration_time_s:g} make "
                    f"an unstable lock loop (largest pole radius {radius:.4g} > 1)")

    def to_config(self) -> interferometer.InterferometerConfig:
        try:
            return interferometer.InterferometerConfig(
                delta_l=self.delta_l_m, visibility=self.visibility, p_lo=self.p_lo_cps,
                p_sig=self.p_sig_cps, integration_time=self.integration_time_s,
                dark_rate=self.dark_cps)
        except ValueError as exc:
            raise ConfigError(f"interferometer: {exc}") from exc


@dataclass
class SweepBlock:
    start_ghz: float = -15.0
    stop_ghz: float = 15.0
    points: int = 4501

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError("sweep.points: need at least 2 points")
        if self.stop_ghz <= self.start_ghz:
            raise ConfigError("sweep: stop_ghz must exceed start_ghz")

    def grid(self):
        return np.linspace(self.start_ghz, self.stop_ghz, self.points)


def check_seed(seed: int, name: str):
    if not 0 <= seed <= 2**64 - 2:  # the off trace draws seed + 1, from a 64-bit Philox key
        raise ConfigError(f"{name}: must be in [0, 2**64 - 2], got {seed}")


@dataclass
class NoiseBlock:
    shot_noise: bool = False
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed, "noise.seed")


@dataclass
class ExtractionBlock:
    window_periods: float = 3.0
    hop_periods: Optional[float] = None
    poly_order: int = 2
    weight_beta: float = 12.0
    delta_l_m: Optional[float] = None   # None -> FFT estimate from the off trace

    def __post_init__(self):
        try:  # checked at load, for every command
            check_window_values(self.window_periods, self.hop_periods, self.poly_order,
                                self.delta_l_m)
        except ValueError as exc:
            raise ConfigError(f"extraction: {exc}") from exc


@dataclass
class FitBlock:
    model: str = "two_dipole"           # two_dipole | saturation
    combine: str = "isolated"           # isolated | product
    intensity_from: str = "offset"      # offset | amplitude
    max_iter: int = 500
    init: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    dipole_windows_ghz: dict = field(default_factory=dict)  # {"1": [lo, hi], ...}
    powers: list = field(default_factory=list)              # saturation override

    def __post_init__(self):
        # the subcommand picks the fit; ``model`` only has to name one
        if self.model not in ("two_dipole", "saturation"):
            raise ConfigError(f"fit.model: must be 'two_dipole' or 'saturation', "
                              f"got {self.model!r}")
        if self.max_iter < 1:
            raise ConfigError(f"fit.max_iter: must be >= 1, got {self.max_iter}")
        try:
            check_fit_values(self.init, self.bounds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for i, power in enumerate(self.powers):
            if not (is_number(power) and power > 0):
                raise ConfigError(f"fit.powers[{i}]: must be a finite number > 0, got {power!r}")
        for key, window in self.dipole_windows_ghz.items():
            if not (re.fullmatch("[1-9][0-9]*", key) and isinstance(window, list)
                    and len(window) == 2 and all(map(is_number, window))
                    and window[0] < window[1]):
                raise ConfigError(f"fit.dipole_windows_ghz.{key}: must map a dipole index "
                                  f"(1, 2, ...) to a [lo, hi] pair of finite numbers with "
                                  f"lo < hi, got {window!r}")


@dataclass
class ChiralScanBlock:
    beta_dirs: list = field(default_factory=lambda: [1.0, 0.9, 0.7, 0.5])
    omega_max_rad_ns: float = 12.0
    gamma_dp_max_rad_ns: float = 12.0
    points: int = 121

    def __post_init__(self):
        # checked at load: resolved() deep-copies the list into every bundle
        for i, bd in enumerate(self.beta_dirs):
            if type(bd) not in (int, float) or not 0 <= bd <= 1:
                raise ConfigError(f"chiral_scan.beta_dirs[{i}]: must be in [0, 1], got {bd!r}")
        if not self.beta_dirs:
            raise ConfigError("chiral_scan.beta_dirs: need at least one value")
        if self.points < 2:
            raise ConfigError("chiral_scan.points: need at least 2 points")
        for name in ("omega_max_rad_ns", "gamma_dp_max_rad_ns"):
            top = getattr(self, name)
            if top < 0:
                raise ConfigError(f"chiral_scan.{name}: must be >= 0, got {top}")

    def grids(self):
        """The beta_dir values, the drive axis and the dephasing axis, rad/ns."""
        return ([float(bd) for bd in self.beta_dirs],
                np.linspace(0.0, self.omega_max_rad_ns, self.points),
                np.linspace(0.0, self.gamma_dp_max_rad_ns, self.points))


@dataclass
class RunConfig:
    emitter: EmitterBlock = field(default_factory=EmitterBlock)
    drive: DriveBlock = field(default_factory=DriveBlock)
    interferometer: InterferometerBlock = field(default_factory=InterferometerBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    noise: NoiseBlock = field(default_factory=NoiseBlock)
    extraction: ExtractionBlock = field(default_factory=ExtractionBlock)
    fit: FitBlock = field(default_factory=FitBlock)
    chiral_scan: ChiralScanBlock = field(default_factory=ChiralScanBlock)

    def resolved(self) -> dict:
        return asdict(self)


_EXPECTED = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
             dict: "an object", list: "a list"}


@functools.cache
def _field_types(cls) -> dict:
    """Resolved type of every field of the dataclass ``cls``, in field order
    (resolving the annotation strings costs more than a whole build)."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _build(cls, data: dict, path: str):
    """``cls`` from ``data``; a field whose type is a dataclass is built the
    same way one level down.  ``path`` is the dotted prefix of error
    messages, empty at the root."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    types = _field_types(cls)
    for key in data:
        if key not in types:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    kwargs = {}
    for name, want in types.items():
        if name in data:
            sub = f"{path}.{name}" if path else name
            if is_dataclass(want):
                kwargs[name] = _build(want, data[name], sub)
            else:
                kwargs[name] = _check_value(want, data[name], sub)
    return cls(**kwargs)


def _check_value(want, value, path):
    """``value`` checked against the field type ``want``: one of the JSON
    types of ``_EXPECTED``, or ``Optional`` of one; a float must be finite."""
    nullable = get_origin(want) is Union
    if nullable:
        if value is None:
            return None
        want, = (arg for arg in get_args(want) if arg is not type(None))
    is_bool = isinstance(value, bool)
    if not isinstance(value, (int, float) if want is float else want) or (
            is_bool and want in (float, int)):
        got = "a boolean" if is_bool and want is float and not nullable else type(value).__name__
        raise ConfigError(f"{path}: expected {_EXPECTED[want]}"
                          f"{' or null' if nullable else ''}, got {got}")
    if want is not float:
        return value
    if not is_number(value):  # NaN, Infinity and 1e400 parse to floats
        got = "an integer too large for a float" if isinstance(value, int) else value
        raise ConfigError(f"{path}: expected a finite number, got {got}")
    return float(value)


def load_config(source) -> RunConfig:
    """Load and validate a config from a path, JSON string, or dict."""
    if isinstance(source, RunConfig):
        return source
    if isinstance(source, dict):
        data = source
    else:
        path = Path(source)
        is_file = path.exists()
        text = path.read_text(encoding="utf-8") if is_file else str(source)
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # bad or too deeply nested
            raise ConfigError(f"{path if is_file else 'config'} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(RunConfig, data, "")
