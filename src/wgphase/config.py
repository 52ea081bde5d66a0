"""Run configuration: a single strict JSON document.

Unknown keys are rejected with the dotted path of the offending entry, so a
typo never silently falls back to a default.  Every block is optional and
every field has a documented default; ``resolved()`` returns the fully
materialized dictionary that gets snapshotted next to the outputs.

Rates in the emitter block are angular (rad/ns, matching lifetime tables in
1/ns); frequencies on the sweep axis are GHz.

The ``interferometer`` and ``extraction`` blocks are the library's records
themselves, built like any other block.  Each block checks its own values
as it is built; :class:`RunConfig` then checks the rules that join two:
values whose arithmetic in ``simulate`` or ``predict-chiral`` would
overflow (the fringe phase, and a random walk or a sinusoid over
``sweep.points`` samples among them), lock gains whose residual over
``sweep.points`` samples could pass 10x the drift (the l1 norm of the
loop's impulse response), and counts past numpy's Poisson ceiling under
shot noise.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .emitter import EmitterParams
from .extraction import ExtractionConfig
from .interferometer import POISSON_MEAN_MAX, InterferometerConfig, lock_loop_impulse
from .spectra import check_fit_values
from .units import C_M_PER_S, TWO_PI, is_number


class ConfigError(ValueError):
    """Configuration rejected; message names the offending key path."""


# the emitter key of each EmitterParams field named otherwise that a check can refuse
# (every float key is finite by then)
_EMITTER_KEYS = {"gamma": "gamma_rad_ns", "gamma_dp": "gamma_dp_rad_ns"}


@dataclass
class EmitterBlock:
    gamma_rad_ns: float = 12.3
    gamma_dp_rad_ns: float = 3.9
    coupling: str = "isotropic"
    beta: float = 1.0
    f0_ghz: float = 0.0
    phi0_rad: float = -0.25

    def __post_init__(self):
        try:
            p = self.to_params()  # checked at load, for every command
        except ValueError as exc:  # the library's message leads with its own field name
            name, detail = str(exc).split(": ", 1)
            raise ValueError(f"{_EMITTER_KEYS.get(name, name)}: {detail}") from exc
        # the response's terms run up to 8*gamma2**2, and gamma2/gamma scales the drive's
        if not all(map(math.isfinite, (8.0 * p.gamma2 * p.gamma2, 4.0 * (p.gamma2 / p.gamma)))):
            raise ConfigError(f"emitter: gamma_rad_ns {p.gamma:g} and gamma_dp_rad_ns "
                              f"{p.gamma_dp:g} overflow the response (gamma2 = gamma/2 + "
                              f"gamma_dp = {p.gamma2:g} rad/ns)")

    def to_params(self) -> EmitterParams:
        return EmitterParams(gamma=self.gamma_rad_ns, gamma_dp=self.gamma_dp_rad_ns,
                             coupling=self.coupling, beta=self.beta,
                             f0=self.f0_ghz, phi0=self.phi0_rad)


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
class SweepBlock:
    start_ghz: float = -15.0
    stop_ghz: float = 15.0
    points: int = 4501

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError("sweep.points: need at least 2 points")
        if self.stop_ghz <= self.start_ghz:
            raise ConfigError("sweep: stop_ghz must exceed start_ghz")
        if not math.isfinite(self.stop_ghz - self.start_ghz):
            raise ConfigError(f"sweep: the span from start_ghz {self.start_ghz:g} to stop_ghz "
                              f"{self.stop_ghz:g} overflows")

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
class FitBlock:
    model: str = "two_dipole"           # two_dipole | saturation
    combine: str = "isolated"           # isolated | product
    intensity_from: str = "offset"      # offset only
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
        if self.combine not in ("isolated", "product"):
            raise ConfigError(f"fit.combine: must be 'isolated' or 'product', "
                              f"got {self.combine!r}")
        if self.intensity_from != "offset":
            raise ConfigError(f"fit.intensity_from: must be 'offset', got {self.intensity_from!r}; "
                              f"phase and |t| fix only beta*gamma/2, gamma2 and k*gamma2/gamma, "
                              f"so the amplitude ratio cannot identify the emitter")
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
    interferometer: InterferometerConfig = field(default_factory=InterferometerConfig)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    noise: NoiseBlock = field(default_factory=NoiseBlock)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    fit: FitBlock = field(default_factory=FitBlock)
    chiral_scan: ChiralScanBlock = field(default_factory=ChiralScanBlock)

    def __post_init__(self):  # the rules that join two blocks
        p, icfg, sweep = self.emitter.to_params(), self.interferometer, self.sweep
        grid = f"sweep.start_ghz {sweep.start_ghz:g} to stop_ghz {sweep.stop_ghz:g}"
        # simulate's largest carrier phase and saturation denominator D, and predict-chiral's
        # largest c, each in its command's order of operations: where they are finite, so is
        # every product the command forms
        edge = max(abs(sweep.start_ghz), abs(sweep.stop_ghz))
        carrier = TWO_PI * edge * 1e9 * icfg.delta_l_m / C_M_PER_S
        if not math.isfinite(carrier):
            raise ConfigError(f"interferometer.delta_l_m {icfg.delta_l_m:g} over {grid}: "
                              f"the carrier phase 2*pi*f*delta_l_m/c overflows")
        # the fringe phase carrier + phi_env + (arg t + phi0) stays within carrier + |phi_env|
        # + (pi + |phi0|), in simulate's order of operations; numpy's normal draws no |z|
        # above 13.7, so a walk of sweep.points steps stays within 14*sigma_rad*points, and
        # the lock loop's residual within 10x it, as the l1 rule below guarantees
        env = icfg.env_phase
        env_key, env_bound = {"constant": ("value_rad", abs(env.value_rad)),
                              "sinusoid": ("amplitude_rad", abs(env.amplitude_rad))}.get(
            env.kind, ("sigma_rad", 10.0 * (14.0 * env.sigma_rad * sweep.points)))
        if not math.isfinite(carrier + env_bound + (math.pi + abs(p.phi0))):
            if math.isfinite(carrier + env_bound):
                what = f"emitter.phi0_rad {p.phi0:g}"
            else:
                what = f"interferometer.env_phase.{env_key} {getattr(env, env_key):g}"
                if env_key == "sigma_rad":
                    what += (f" over sweep.points {sweep.points}: the walk's bound "
                             f"14*sigma_rad*points")
            raise ConfigError(f"{what} overflows the fringe phase 2*pi*f*delta_l_m/c + phi_env "
                              f"+ arg t + phi0 at interferometer.delta_l_m {icfg.delta_l_m:g} "
                              f"over {grid}")
        # the sinusoid's largest phase, in EnvPhase.series' order of operations
        if env.kind == "sinusoid" and not math.isfinite(
                TWO_PI * env.frequency_hz * ((sweep.points - 1) * icfg.integration_time_s)):
            raise ConfigError(f"interferometer.env_phase.frequency_hz {env.frequency_hz:g} over "
                              f"sweep.points {sweep.points} at integration_time_s "
                              f"{icfg.integration_time_s:g}: the sinusoid's phase "
                              f"2*pi*frequency_hz*t overflows")
        if env.kind == "locked_drift":  # the l1 norm of the loop's impulse response bounds it
            try:
                lock_loop_impulse(vars(env), icfg.integration_time_s, sweep.points)
            except ValueError as exc:
                raise ConfigError(f"interferometer.env_phase over sweep.points {sweep.points} at "
                                  f"integration_time_s {icfg.integration_time_s:g}: {exc}") from exc
        delta = max(abs(TWO_PI * (f - p.f0)) for f in (sweep.start_ghz, sweep.stop_ghz))
        omega = self.drive.omega_rad_ns
        if not math.isfinite(p.gamma2 * p.gamma2 + delta * delta
                             + 4.0 * (p.gamma2 / p.gamma) * (omega * omega)):
            raise ConfigError(f"emitter.f0_ghz {p.f0:g} over {grid} at drive.omega_rad_ns "
                              f"{omega:g}: the emitter's response overflows (D = gamma2**2 + "
                              f"delta**2 + 4*(gamma2/gamma)*omega_r**2)")
        scan = self.chiral_scan
        g2_top, omega_top = p.gamma / 2.0 + scan.gamma_dp_max_rad_ns, scan.omega_max_rad_ns
        if not all(map(math.isfinite, (g2_top * g2_top, 4.0 * (g2_top / p.gamma),
                                       2.0 * omega_top * omega_top))):
            raise ConfigError(f"chiral_scan: omega_max_rad_ns {omega_top:g} and "
                              f"gamma_dp_max_rad_ns {scan.gamma_dp_max_rad_ns:g} at "
                              f"emitter.gamma_rad_ns {p.gamma:g} overflow the scan's c = "
                              f"gamma2*(gamma2 - s) + 4*(gamma2/gamma)*omega_r**2")
        if self.noise.shot_noise and icfg.peak_counts > POISSON_MEAN_MAX:
            raise ConfigError(
                f"noise.shot_noise: interferometer.p_lo_cps {icfg.p_lo_cps:g}, p_sig_cps "
                f"{icfg.p_sig_cps:g} and dark_cps {icfg.dark_cps:g} over integration_time_s "
                f"{icfg.integration_time_s:g}: expected counts up to {icfg.peak_counts:g} per "
                f"bin are too large for a Poisson draw (at most {POISSON_MEAN_MAX:g})")

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
    messages, empty at the root.  A ``ValueError`` from the constructor (a
    library check, which knows no path) becomes a ``ConfigError`` under
    ``path``, or under the field its message leads with as ``field: ...``."""
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
            kwargs[name] = (_build if is_dataclass(want) else _check_value)(want, data[name], sub)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        field_led = str(exc).split(":", 1)[0] in types
        raise ConfigError(f"{path}{'.' if field_led else ': '}{exc}") from exc


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
    """Load and validate a config from a path, JSON string, or dict.  A
    source that names no file is read as JSON text; if it is not valid JSON
    either, the error names it as a file that does not exist."""
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
            where = path if is_file else f"{source}: no such file, and the text"
            raise ConfigError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(RunConfig, data, "")
